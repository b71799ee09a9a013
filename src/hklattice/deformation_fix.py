"""Fixed-space computation for monodromy-invariant degree-4 classes.

An instance is a symmetric invertible rational n x n intersection matrix A
together with a nonzero coordinate vector s for a distinguished degree-2
class. A symmetric matrix C and scalar c0 represent an invariant class;
invariance under the relevant deformations reduces to the linear system

    (c0*I - 2*C*A) mu = 0   for every mu with (s^T A) mu = 0.

The solution space is always 2-dimensional, spanned by (A^{-1}, 2) and
(s s^T, 0); this module builds the system exactly as one integer linear
system in n(n+1)/2 + 1 unknowns and checks that span equality, rather than
assuming it. The mu run over A^{-1} times a basis of the hyperplane s^perp,
whose vectors have two nonzero entries each, so every equation has at most
three nonzero coefficients (``solve_fixed_space``). The kernel is decided
by ``exact_linalg.certified_kernel`` with the two structural generators as
candidates: each equation is checked exactly at both over Z, and the rank
of the system modulo a prime proves that no other solution exists. That
prime is the word-size 32749 unless the rank drops modulo it, in which
case the proof moves on to the Proth primes (``exact_linalg._rank_primes``).
The inverse of A is computed once per instance, by the fraction-free
``Mat.inverse``, and serves both the equations and the generator
(A^{-1}, 2).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exact_linalg import (
    Lattice,
    Mat,
    _scaled_ints,
    certified_kernel,
    fraction_vector,
)


class FixInstance:
    """Problem data: a nonzero vector s and the inverse ``A_inv`` of the
    symmetric invertible A the instance is built from, which proves that A
    is invertible. The solver reads A through ``A_inv`` only."""

    __slots__ = ("n", "s", "A_inv")

    def __init__(self, A, s):
        A = A if isinstance(A, Mat) else Mat(A)
        if not A.is_symmetric():
            raise ValueError("intersection matrix must be symmetric")
        try:
            self.A_inv = A.inverse()
        except ZeroDivisionError:
            raise ValueError("intersection matrix must be invertible") from None
        s = fraction_vector(s)
        if len(s) != A.shape[0]:
            raise ValueError("vector length must match the matrix size")
        if not any(s):
            raise ValueError("distinguished vector must be nonzero")
        self.n = A.shape[0]
        self.s = s


def _sym_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


class FixSolution:
    """Basis of the fixed space: pairs (C, c0) with C symmetric rational."""

    __slots__ = ("pairs", "dimension")

    def __init__(self, pairs):
        self.pairs = list(pairs)
        self.dimension = len(self.pairs)


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
    return Mat._of(rows, 1), Fraction(vec[-1])


def solve_fixed_space(inst: FixInstance) -> FixSolution:
    """Solve (c0*I - 2*C*A) mu = 0 over all mu with (s^T A) mu = 0.

    One homogeneous linear system: unknowns are the upper triangle of C plus
    c0, equations are n per vector mu of a basis of ker(s^T A). With s
    scaled to integers and s_m its first nonzero entry, the n - 1 vectors
    nu_k = s_m*e_k - s_k*e_m (k != m) are a basis of s^perp, and A^{-1}
    maps s^perp onto ker(s^T A) (s^T A mu = 0 exactly when A mu is in
    s^perp), so mu_k = A^{-1} nu_k is a basis of it. Then A mu_k = nu_k,
    and with A^{-1} = B/d for integer B (symmetric, as A is) the equation
    in row r, times d, is

        c0*(B nu_k)_r - 2d*(s_m*C_rk - s_k*C_rm) = 0,

    with at most three nonzero coefficients, made primitive. Scaling an
    equation does not change its solutions, and the solutions of the
    system depend only on the span of the mu, so the kernel is the one of
    the system over any basis of ker(s^T A). The system is large and
    sparse (420 x 232 at n = 21), so rather than solving it,
    ``certified_kernel`` checks the two structural generators against every
    equation and proves by the rank modulo a prime that they span its
    kernel (else ``ArithmeticError``). The first prime tried is 32749,
    whose residue products fit in 30 bits, so the proof is usually one
    elimination in one-digit ints; the basis is canonical, one primitive
    integer vector per free column, as back-substitution through a
    fraction-free echelon form gives.
    """
    n = inst.n
    pairs = _sym_pairs(n)
    nvars = len(pairs) + 1
    var_index = {p: k for k, p in enumerate(pairs)}
    d, B = inst.A_inv.scaled_int_rows()
    _, (s,) = _scaled_ints([inst.s])
    m = next(k for k, x in enumerate(s) if x)
    sm, Bm = s[m], B[m]

    rows: list[list[int]] = []
    for k, (sk, Bk) in enumerate(zip(s, B)):
        if k == m:
            continue
        ck, cm = -2 * d * sm, 2 * d * sk
        for r in range(n):
            # (B nu_k)_r, read off rows k and m of the symmetric B
            bnu = sm * Bk[r] - sk * Bm[r]
            g = gcd(ck, cm, bnu)
            coeffs = [0] * nvars
            coeffs[-1] = bnu // g
            coeffs[var_index[(min(r, k), max(r, k))]] = ck // g
            coeffs[var_index[(min(r, m), max(r, m))]] = cm // g
            rows.append(coeffs)

    if not rows:
        raise ValueError("empty constraint system")
    gens = [_pair_to_vector(C, c0, pairs) for C, c0 in expected_generators(inst)]
    sols = certified_kernel(rows, nvars, gens)
    return FixSolution([_vector_to_pair(v, n, pairs) for v in sols])


def expected_generators(inst: FixInstance) -> list[tuple[Mat, Fraction]]:
    """The structural generators (A^{-1}, 2) and (s s^T, 0)."""
    ds, (s,) = _scaled_ints([inst.s])
    outer = Mat._of([[a * b for b in s] for a in s], ds * ds)
    return [(inst.A_inv, Fraction(2)), (outer, Fraction(0))]


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
        A = Mat._of(rows, 1)
        if A.det() != 0:
            break
    while True:
        s = [rng.randint(-3, 3) for _ in range(n)]
        if any(s):
            return FixInstance(A, s)
