"""The rank-23 even lattice on degree-2 cohomology.

The ambient lattice is the orthogonal sum U + U + U + E8(-1) + E8(-1) + <-2>
in that frozen basis order: three hyperbolic pairs (e_k, f_k) on coordinates
0..5, two negated E8 blocks on 6..13 and 14..21, and the distinguished
square -2 vector on coordinate 22. Signature (3, 20), |det| = 2, and the
form is even.

E8 convention (frozen here since several conventions circulate): nodes 1..7
form a chain and node 8 attaches to node 5; the standard positive-definite
Cartan matrix of that diagram is negated entrywise.

A class is *even* when it pairs evenly with the whole lattice, *odd*
otherwise (defined for primitive classes only), and *exceptional* when it is
primitive, even, and of square -2. Every exceptional class has the shape
2*a + c*d0 with a orthogonal to the square -2 generator d0 and c odd; the
samplers exploit that parametrization.
"""

from __future__ import annotations

import random
from math import gcd

from . import kernels
from .exact_linalg import (
    Mat,
    _pair,
    det_int,
    int_vector,
    left_kernel,
    parse_int,
    signature_symmetric,
)

RANK = 23
DELTA0_INDEX = 22


def _u_block() -> list[list[int]]:
    return [[0, 1], [1, 0]]


def _e8_cartan() -> list[list[int]]:
    # chain 1-2-3-4-5-6-7 with node 8 hanging off node 5
    m = [[0] * 8 for _ in range(8)]
    for i in range(8):
        m[i][i] = 2
    for i in range(6):
        m[i][i + 1] = m[i + 1][i] = -1
    m[4][7] = m[7][4] = -1
    return m


def _build_gram() -> tuple[tuple[int, ...], ...]:
    g = [[0] * RANK for _ in range(RANK)]
    pos = 0
    for _ in range(3):
        u = _u_block()
        for i in range(2):
            for j in range(2):
                g[pos + i][pos + j] = u[i][j]
        pos += 2
    e8 = _e8_cartan()
    for _ in range(2):
        for i in range(8):
            for j in range(8):
                g[pos + i][pos + j] = -e8[i][j]
        pos += 8
    g[pos][pos] = -2
    return tuple(tuple(row) for row in g)


GRAM: tuple[tuple[int, ...], ...] = _build_gram()

# construction-time self checks: the conventions above really produce the
# advertised lattice
assert det_int(_e8_cartan()) == 1
assert abs(det_int(GRAM)) == 2
assert all(GRAM[i][i] % 2 == 0 for i in range(RANK))


_GRAM_MAT = Mat.from_int_rows(GRAM)


def gram_mat() -> Mat:
    """The frozen Gram as one shared Mat, used as the ambient form of lattices."""
    return _GRAM_MAT


class H2Class:
    """An integer vector in the rank-23 lattice.

    The public constructor checks its input: coordinates must be Python
    ints, so a float or a bool is rejected rather than truncated. Classes
    the library builds itself take the private ``_of``, which checks
    nothing.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = int_vector(coords)
        if len(coords) != RANK:
            raise ValueError(f"need {RANK} coordinates, got {len(coords)}")
        self.coords = coords

    @classmethod
    def _of(cls, coords: tuple[int, ...]) -> "H2Class":
        """The class with a tuple of RANK ints as coordinates, unchecked."""
        c = cls.__new__(cls)
        c.coords = coords
        return c

    @classmethod
    def zero(cls) -> "H2Class":
        return cls._of((0,) * RANK)

    @classmethod
    def basis_vector(cls, i: int) -> "H2Class":
        return cls._of(tuple([1 if j == i else 0 for j in range(RANK)]))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "H2Class") -> "H2Class":
        if not isinstance(other, H2Class):
            return NotImplemented
        return H2Class._of(tuple([a + b for a, b in zip(self.coords, other.coords)]))

    def __sub__(self, other: "H2Class") -> "H2Class":
        if not isinstance(other, H2Class):
            return NotImplemented
        return H2Class._of(tuple([a - b for a, b in zip(self.coords, other.coords)]))

    def __neg__(self) -> "H2Class":
        return H2Class._of(tuple([-a for a in self.coords]))

    def __rmul__(self, c: int) -> "H2Class":
        c = parse_int(c)
        return H2Class._of(tuple([c * a for a in self.coords]))

    def __eq__(self, other):
        if not isinstance(other, H2Class):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"H2Class{self.coords}"


def delta0() -> H2Class:
    """The distinguished square -2 class (last basis vector)."""
    return H2Class.basis_vector(DELTA0_INDEX)


def hyperbolic_pair(k: int) -> tuple[H2Class, H2Class]:
    """The k-th hyperbolic pair (e, f) with e^2 = f^2 = 0, e.f = 1."""
    if not 0 <= k < 3:
        raise ValueError("only three hyperbolic pairs")
    return H2Class.basis_vector(2 * k), H2Class.basis_vector(2 * k + 1)


def gram_apply(a: H2Class) -> tuple[int, ...]:
    """The covector Gram * a, i.e. all pairings b(x_j, a) against the basis."""
    ac = a.coords
    return tuple([sum([g * ac[k] for k, g in row]) for row in _GRAM_MAT.sparse_rows()])


def bb_form(a: H2Class, b: H2Class) -> int:
    """The even bilinear form in the frozen basis."""
    return _pair(a.coords, b.coords, _GRAM_MAT.sparse_rows())


def is_primitive(a: H2Class) -> bool:
    """gcd of coordinates is 1; the zero vector is rejected."""
    if a.is_zero():
        raise ValueError("primitivity of the zero vector is undefined")
    return gcd(*a.coords) == 1


def is_even(a: H2Class) -> bool:
    """Pairs evenly against the whole lattice; defined for primitive classes."""
    if not is_primitive(a):
        raise ValueError("parity is defined for primitive classes only")
    return all(x % 2 == 0 for x in gram_apply(a))


def is_odd(a: H2Class) -> bool:
    return not is_even(a)


def is_exceptional(a: H2Class) -> bool:
    """Primitive, even, and of square -2."""
    if a.is_zero() or gcd(*a.coords) != 1:
        return False
    u = gram_apply(a)
    if any(x % 2 for x in u):
        return False
    sq = sum(x * y for x, y in zip(a.coords, u))
    return sq == -2


class ExceptionalClass:
    """An H2Class validated to be exceptional at construction."""

    __slots__ = ("h2",)

    def __init__(self, h2: H2Class):
        if not is_exceptional(h2):
            raise ValueError("class is not exceptional")
        self.h2 = h2

    @property
    def coords(self):
        return self.h2.coords

    def __eq__(self, other):
        if not isinstance(other, ExceptionalClass):
            return NotImplemented
        return self.h2 == other.h2

    def __hash__(self):
        return hash(("exc", self.h2.coords))

    def __repr__(self):
        return f"ExceptionalClass{self.h2.coords}"


def make_exceptional(a_hat: H2Class, c: int) -> ExceptionalClass:
    """Build the exceptional class 2*a_hat + c*delta0.

    Requires a_hat orthogonal to delta0, c odd, and the norm condition
    2*b(a_hat, a_hat) = c^2 - 1 that makes the square come out to -2.
    """
    if bb_form(a_hat, delta0()) != 0:
        raise ValueError("a_hat must be orthogonal to delta0")
    if c % 2 == 0:
        raise ValueError("c must be odd")
    if 2 * bb_form(a_hat, a_hat) != c * c - 1:
        raise ValueError("norm condition 2*b(a,a) = c^2 - 1 violated")
    return ExceptionalClass(2 * a_hat + c * delta0())


def polarization_condition(l0: H2Class) -> bool:
    """Odd, or even with (10 + square)/8 an even integer.

    Requires a primitive class of positive square. For even primitive
    classes the quantity (10 + square)/8 is automatically an integer, so
    the condition is a parity constraint on it.
    """
    b0 = bb_form(l0, l0)
    if b0 <= 0:
        raise ValueError("polarization must have positive square")
    if not is_primitive(l0):
        raise ValueError("polarization must be primitive")
    if is_odd(l0):
        return True
    r = (10 + b0) // 8
    if 8 * r != 10 + b0:
        raise ArithmeticError("(10 + square)/8 is not an integer on an even class")
    return r % 2 == 0


def _as_h2(d) -> H2Class:
    return d.h2 if isinstance(d, ExceptionalClass) else d


def orth_complement_basis(d) -> tuple[H2Class, ...]:
    """Integral basis of the rank-22 orthogonal complement of an exceptional
    class, HNF-reduced; its Gram must be even of determinant +-1 and
    signature (3, 19), which is verified before returning.
    """
    return _orth_complement(_as_h2(d))[0]


def _orth_complement(dh: H2Class):
    """``(basis, g, U)`` as tuples: the checked complement basis of
    ``orth_complement_basis``, its Gram g and the inverse U of g, built once
    for the checks and handed to the caller (``H4Lattice`` stores them as
    its ``abasis``, ``a_gram`` and ``b_inv``). The inverse is the
    unimodularity proof: ``hnf_transform`` gives a unimodular U with
    U * g = H, and H = I exactly when det g = +-1."""
    if not is_exceptional(dh):
        raise ValueError("complement basis needs an exceptional class")
    basis_rows = kernels.hnf(left_kernel([[x] for x in gram_apply(dh)]))
    k = RANK - 1
    if len(basis_rows) != k:
        raise ArithmeticError("complement has unexpected rank")
    vecs = [H2Class._of(tuple(row)) for row in basis_rows]
    g = [[bb_form(x, y) for y in vecs] for x in vecs]
    H, U, _ = kernels.hnf_transform(g)
    if H != [[int(i == j) for j in range(k)] for i in range(k)]:
        raise ArithmeticError("complement Gram is not unimodular")
    if any(g[i][i] % 2 for i in range(k)):
        raise ArithmeticError("complement Gram is not even")
    if signature_symmetric(Mat._of(g, 1)) != (3, 19, 0):
        raise ArithmeticError("complement has wrong signature")
    return tuple(vecs), tuple(map(tuple, g)), tuple(map(tuple, U))


def decompose_even(l0: H2Class, d) -> tuple[H2Class, int]:
    """Write an even primitive class as 2*a_hat + c*d with c odd.

    The lattice splits off the exceptional class d orthogonally, and a
    primitive class is even exactly when its component in d-perp is twice a
    lattice vector; c is then forced odd by primitivity.
    """
    dh = _as_h2(d)
    if not is_exceptional(dh):
        raise ValueError("decomposition needs an exceptional class")
    if not is_even(l0):
        raise ValueError("class is not even")
    m2 = bb_form(l0, dh)
    c = -m2 // 2
    if -2 * c != m2:
        raise ArithmeticError("pairing against an even class must be even")
    w = l0 - c * dh
    if any(x % 2 for x in w.coords):
        raise ArithmeticError("even class has non-doubled orthogonal part")
    a_hat = H2Class._of(tuple([x // 2 for x in w.coords]))
    if c % 2 == 0:
        raise ArithmeticError("primitive even class must have odd coefficient")
    return a_hat, c


# -- seeded samplers ---------------------------------------------------------
#
# All randomness in the package flows through random.Random (MT19937) seeded
# by the caller; samples are deterministic given the seed.

def _random_perp_vector(rng: random.Random) -> H2Class:
    # entries in [-3, 3] with support on coordinates 2..21: misses delta0
    # and the first hyperbolic pair, which the samplers reserve for gcd and
    # square adjustment
    coords = [0] * RANK
    for i in range(2, 22):
        coords[i] = rng.randrange(-3, 4)
    return H2Class._of(tuple(coords))


def _square_adjusted(rng: random.Random, target_square: int) -> H2Class:
    """A vector e1 + y*f1 + u with u on coords 2..21 and the given square."""
    u = _random_perp_vector(rng)
    s = bb_form(u, u)
    rem = target_square - s
    if rem % 2:
        raise ArithmeticError("even lattice cannot hit an odd square")
    y = rem // 2
    e1, f1 = hyperbolic_pair(0)
    return e1 + y * f1 + u


def sample_exceptional(rng: random.Random) -> ExceptionalClass:
    """Random exceptional class 2*a_hat + c*delta0 with odd c."""
    c = rng.choice([-5, -3, -1, 1, 3, 5, 7])
    # (c^2-1)/2 is divisible by 4, so the target square is even as needed
    a_hat = _square_adjusted(rng, (c * c - 1) // 2)
    return make_exceptional(a_hat, c)


def sample_polarization_odd(rng: random.Random) -> H2Class:
    """Random primitive odd class of positive square."""
    target = 2 * rng.randrange(1, 30)
    v = _square_adjusted(rng, target)
    # pairs to 1 with f1, hence odd; leading coefficient 1 gives primitivity
    assert bb_form(v, v) == target
    return v


def sample_polarization_even(rng: random.Random, condition: bool = True) -> H2Class:
    """Random primitive even class of positive square.

    With condition=True the square is 6 mod 16 (the polarization condition
    holds); with condition=False it is 14 mod 16 (the condition fails).
    """
    b0 = (6 if condition else 14) + 16 * rng.randrange(0, 8)
    c = rng.choice([-3, -1, 1, 3, 5])
    # b0 = 4*b(a,a) - 2c^2 solves for an even b(a,a) because b0 = 6 mod 8
    s4 = b0 + 2 * c * c
    if s4 % 4:
        raise ArithmeticError("target square incompatible with parity")
    a_hat = _square_adjusted(rng, s4 // 4)
    out = 2 * a_hat + c * delta0()
    assert bb_form(out, out) == b0
    return out


def sample_primitive(rng: random.Random) -> H2Class:
    """Random primitive class of either parity, from entries in [-4, 4]."""
    while True:
        coords = [rng.randrange(-4, 5) for _ in range(RANK)]
        if not any(coords):
            continue
        g = gcd(*coords)
        return H2Class._of(tuple([x // g for x in coords]))
