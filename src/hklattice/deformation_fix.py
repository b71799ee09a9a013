"""Fixed-space computation for monodromy-invariant degree-4 classes.

An instance is a symmetric invertible rational n x n intersection matrix A
together with a nonzero coordinate vector s for a distinguished degree-2
class. A symmetric matrix C and scalar c0 represent an invariant class;
invariance under the relevant deformations reduces to the linear system

    (c0*I - 2*C*A) mu = 0   for every mu with (s^T A) mu = 0.

The solution space is always 2-dimensional, spanned by (A^{-1}, 2) and
(s s^T, 0); this module builds the system exactly as one integer linear
system in n(n+1)/2 + 1 unknowns and checks that span equality, rather than
assuming it. The kernel is decided by ``exact_linalg.certified_kernel``
with the two structural generators as candidates: each equation is checked
exactly at both over Z, and the rank of the system modulo a prime proves
that no other solution exists. The structural generators use the
fraction-free ``Mat.inverse``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm

from .exact_linalg import (
    Lattice,
    Mat,
    _frac_str,
    _scaled_ints,
    certified_kernel,
    fraction_vector,
    left_kernel,
)


class FixInstance:
    """Problem data: symmetric invertible A and a nonzero vector s."""

    __slots__ = ("n", "A", "s")

    def __init__(self, A, s):
        A = A if isinstance(A, Mat) else Mat(A)
        if not A.is_symmetric():
            raise ValueError("intersection matrix must be symmetric")
        if A.det() == 0:
            raise ValueError("intersection matrix must be invertible")
        s = fraction_vector(s)
        if len(s) != A.shape[0]:
            raise ValueError("vector length must match the matrix size")
        if not any(s):
            raise ValueError("distinguished vector must be nonzero")
        self.n = A.shape[0]
        self.A = A
        self.s = s

    def to_json(self) -> dict:
        return {"A": self.A.to_json(), "s": [_frac_str(x) for x in self.s]}

    @classmethod
    def from_json(cls, obj) -> "FixInstance":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(Mat.from_json(obj["A"]), obj["s"])


def _sym_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def polarization_kernel(inst: FixInstance) -> list[tuple[int, ...]]:
    """Integer basis of {mu : (s^T A) mu = 0}; always n - 1 vectors.

    The covector s^T A is cleared to integers and the kernel is the
    saturated left kernel of it as a one-column matrix (``left_kernel``).
    """
    dA, Ai = inst.A.scaled_int_rows()
    ds, (si,) = _scaled_ints([inst.s])
    # w = ds * dA * s^T A; dividing by gcd(ds * dA, w) gives s^T A times the
    # least common denominator of its entries
    w = [sum(x * a for x, a in zip(si, col) if x) for col in zip(*Ai)]
    g = gcd(ds * dA, *w)
    wi = [x // g for x in w]
    if not any(wi):
        raise ValueError("degenerate covector: s^T A = 0 despite invertible A")
    return [tuple(x) for x in left_kernel([[x] for x in wi])]


class FixSolution:
    """Basis of the fixed space: pairs (C, c0) with C symmetric rational."""

    __slots__ = ("n", "pairs", "dimension")

    def __init__(self, n: int, pairs):
        self.n = n
        self.pairs = list(pairs)
        self.dimension = len(self.pairs)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dimension": self.dimension,
            "pairs": [
                {"C": C.to_json(), "c0": _frac_str(c0)} for C, c0 in self.pairs
            ],
        }


def _pair_to_vector(C: Mat, c0, pairs) -> list[int]:
    """The unknowns (upper triangle of C, c0) times the smallest positive
    integer making them integral; a Q-span does not see the factor."""
    d, M = C.scaled_int_rows()
    D = lcm(d, c0.denominator)
    f = D // d
    return [M[i][j] * f for (i, j) in pairs] + [c0.numerator * (D // c0.denominator)]


def _vector_to_pair(vec, n: int, pairs) -> tuple[Mat, Fraction]:
    rows = [[0] * n for _ in range(n)]
    for (i, j), x in zip(pairs, vec):
        rows[i][j] = rows[j][i] = x
    return Mat.from_int_rows(rows), Fraction(vec[-1])


def solve_fixed_space(inst: FixInstance) -> FixSolution:
    """Solve (c0*I - 2*C*A) mu = 0 over all mu in the polarization kernel.

    One homogeneous linear system: unknowns are the upper triangle of C plus
    c0, equations are n per kernel vector. With A = Ai/dA for integer Ai,
    each equation is built in integers as dA*c0*mu - 2*C*(Ai*mu) and made
    primitive. The system is large and sparse (420 x 232 with about 21
    nonzeros per row at n = 21), so rather than solving it,
    ``certified_kernel`` checks the two structural generators against every
    equation and proves by the rank modulo a prime that they span its
    kernel (else ``ArithmeticError``); the basis is canonical, one
    primitive integer vector per free column, as back-substitution through
    a fraction-free echelon form gives.
    """
    n = inst.n
    pairs = _sym_pairs(n)
    nvars = len(pairs) + 1
    var_index = {p: k for k, p in enumerate(pairs)}
    dA, Ai = inst.A.scaled_int_rows()

    rows: list[list[int]] = []
    for mu in polarization_kernel(inst):
        amu = [sum(a * m for a, m in zip(row, mu) if m) for row in Ai]
        for r in range(n):
            coeffs = [0] * nvars
            coeffs[-1] = dA * mu[r]
            for k, a in enumerate(amu):
                if a:
                    coeffs[var_index[(min(r, k), max(r, k))]] = -2 * a
            g = gcd(*coeffs)
            if g:
                rows.append([x // g for x in coeffs])

    if not rows:
        raise ValueError("empty constraint system")
    gens = [_pair_to_vector(C, c0, pairs) for C, c0 in expected_generators(inst)]
    sols = certified_kernel(rows, nvars, gens)
    return FixSolution(n, [_vector_to_pair(v, n, pairs) for v in sols])


def expected_generators(inst: FixInstance) -> list[tuple[Mat, Fraction]]:
    """The structural generators (A^{-1}, 2) and (s s^T, 0)."""
    binv = inst.A.inverse()
    ds, (s,) = _scaled_ints([inst.s])
    outer = Mat.from_int_rows([[a * b for b in s] for a in s], ds * ds)
    return [(binv, Fraction(2)), (outer, Fraction(0))]


def verify_generators(sol: FixSolution, inst: FixInstance) -> bool:
    """Exact Q-span equality of the solved space with the structural one."""
    pairs = _sym_pairs(inst.n)
    got = Lattice._from_int_rows(
        [_pair_to_vector(C, c0, pairs) for C, c0 in sol.pairs], 1, len(pairs) + 1
    )
    want = Lattice._from_int_rows(
        [_pair_to_vector(C, c0, pairs) for C, c0 in expected_generators(inst)],
        1,
        len(pairs) + 1,
    )
    return got.spans_same_qspace(want)


def random_instance(rng, n: int) -> FixInstance:
    """A = M + M^T + 2n*I for random small M; retried on the rare det 0."""
    while True:
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        rows = [
            [m[i][j] + m[j][i] + (2 * n if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        A = Mat.from_int_rows(rows)
        if A.det() != 0:
            break
    while True:
        s = [rng.randint(-3, 3) for _ in range(n)]
        if any(s):
            return FixInstance(A, s)
