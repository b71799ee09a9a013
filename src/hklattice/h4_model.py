"""Degree-4 cohomology model: the 276-dimensional overlattice.

Coordinates are monomials x_i*x_j (i <= j, lexicographic) in the 23 basis
vectors of the degree-2 lattice, so the ambient space is Sym^2 of the rank-23
lattice tensored with Q. The intersection pairing is the Fujiki relation

    (a1*a2) . (a3*a4) = b(a1,a2)b(a3,a4) + b(a1,a3)b(a2,a4) + b(a1,a4)b(a2,a3)

extended bilinearly. The full integral degree-4 lattice L is the overlattice
of Sym^2 generated by the half-product classes a(a - d)/2 for a in the
complement of an exceptional class d, together with one extra class of
denominator 20 dual to a point (the "point/surface" class below). L does not
depend on which exceptional class is used, which is one of the verified
facts rather than an assumption.

Everything is exact and runs on Python integers: classes are integer
numerators over one denominator and go into lattices as such, through the
one vector API of ``Lattice`` (``contains(num, den)`` and its siblings).
Input from outside is checked once, by the public ``H4Class``
constructor; sums, multiples, products ``sym2_embed`` and torsion lifts
are built from checked classes and take the private ``H4Class._of``,
which only normalizes. The torsion quotient is read off the glue code of
the lattice (its basis rows that are not in Z^276, reduced mod each prime
of the denominator), with no Smith form; it keeps the pivot columns that
``class_of`` reads and the glue combinations that ``lift`` adds, and no
Fraction lifts; its mod-2 structure maps come from the same reduced
echelon mod p, ``_reduce_mod``. The caches are the Fujiki Gram (one shared
integer ``Mat``, whose symmetry check and JSON text are computed once), its
determinant, and the default lattice and torsion quotient built from the
distinguished exceptional class. The class q is not cached on its own:
``build_h4_lattice`` builds it once from the complement data it also keeps,
and the default lattice carries it as ``q``.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

from .bb_lattice import (
    GRAM,
    RANK,
    ExceptionalClass,
    H2Class,
    _as_h2,
    _orth_complement,
    delta0,
    gram_apply,
)
from .exact_linalg import (
    FiniteAbelianGroup,
    Lattice,
    Mat,
    NotASublatticeError,
    _combine_rows,
    _frac_str,
    _lowest_terms,
    _pair,
    _scaled_ints,
    _sparse_rows,
    det_int,
    int_vector,
    lattice_join,
    parse_int,
    parse_rational,
    quotient_invariants,
    sublattice_index,
)

AMBIENT = RANK * (RANK + 1) // 2  # 276

_PAIRS: list[tuple[int, int]] = [
    (i, j) for i in range(RANK) for j in range(i, RANK)
]
_PAIR_INDEX: dict[tuple[int, int], int] = {p: n for n, p in enumerate(_PAIRS)}


def monomial_pairs() -> list[tuple[int, int]]:
    """The frozen coordinate order: (i, j) with i <= j, lexicographic."""
    return list(_PAIRS)


def monomial_index(i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    return _PAIR_INDEX[(i, j)]


class H4Class:
    """A rational vector in the 276-dimensional monomial coordinate space.

    Stored as an integer numerator tuple over a single positive denominator,
    normalized so that gcd(den, all numerators) = 1. The public constructor
    checks its input: numerators and the denominator must be Python ints
    (no floats, no bools). Classes the library builds itself from such
    classes take the private ``_of``, which only normalizes.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den: int = 1):
        num = int_vector(num)
        if len(num) != AMBIENT:
            raise ValueError(f"need {AMBIENT} coordinates, got {len(num)}")
        den = parse_int(den)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        self._set(num, den)

    def _set(self, num: tuple[int, ...], den: int):
        """Store num/den with den > 0 and gcd(den, num) = 1."""
        if den < 0:
            den, num = -den, tuple(-x for x in num)
        den, (num,) = _lowest_terms(den, (num,))
        self.num = tuple(num)
        self.den = den

    @classmethod
    def _of(cls, num: tuple[int, ...], den: int) -> "H4Class":
        """The class num/den for a tuple of AMBIENT ints and a nonzero int
        den, without the checks of the public constructor."""
        c = cls.__new__(cls)
        c._set(num, den)
        return c

    @classmethod
    def zero(cls) -> "H4Class":
        return cls._of((0,) * AMBIENT, 1)

    @classmethod
    def from_fractions(cls, coords) -> "H4Class":
        d, (num,) = _scaled_ints([coords])
        if len(num) != AMBIENT:
            raise ValueError(f"need {AMBIENT} coordinates")
        return cls._of(tuple(num), d)

    def coords(self) -> tuple[Fraction, ...]:
        d = self.den
        return tuple(Fraction(x, d) for x in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def _plus(self, other: "H4Class", sign: int) -> "H4Class":
        da, db = self.den, other.den
        D = lcm(da, db)
        fa, fb = D // da, sign * (D // db)
        return H4Class._of(tuple([fa * a + fb * b for a, b in zip(self.num, other.num)]), D)

    def __add__(self, other: "H4Class") -> "H4Class":
        if not isinstance(other, H4Class):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other: "H4Class") -> "H4Class":
        if not isinstance(other, H4Class):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self) -> "H4Class":
        return H4Class._of(tuple([-x for x in self.num]), self.den)

    def scale(self, c) -> "H4Class":
        c = parse_rational(c)
        p = c.numerator
        return H4Class._of(tuple([p * x for x in self.num]), self.den * c.denominator)

    def __rmul__(self, c) -> "H4Class":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, H4Class):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, self.num))

    def __repr__(self):
        nz = sum(1 for x in self.num if x)
        return f"H4Class({nz} nonzero coords, den {self.den})"

    def to_json(self) -> dict[str, str]:
        out = {}
        for (i, j), x in zip(_PAIRS, self.num):
            if x:
                out[f"({i},{j})"] = _frac_str(x, self.den)
        return out

    @classmethod
    def from_json(cls, obj) -> "H4Class":
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, Mapping):
            raise ValueError("a degree-4 class is a mapping of monomial keys to values")
        coords = [Fraction(0)] * AMBIENT
        for key, val in obj.items():
            m = re.fullmatch(r"\((\d+),(\d+)\)", key.strip())
            if not m:
                raise ValueError(f"bad monomial key {key!r}")
            i, j = int(m.group(1)), int(m.group(2))
            if not (0 <= i <= j < RANK):
                raise ValueError(f"monomial key {key!r} out of range")
            coords[_PAIR_INDEX[(i, j)]] = parse_rational(val)
        return cls.from_fractions(coords)


def sym2_embed(a: H2Class, b: H2Class) -> H4Class:
    """The product class of two degree-2 classes, as monomial coordinates:
    a_i*b_i at x_i^2 and a_i*b_j + a_j*b_i at x_i*x_j for i < j."""
    ac, bc = a.coords, b.coords
    num = [0] * AMBIENT
    n = 0
    for i in range(RANK):
        ai, bi = ac[i], bc[i]
        if ai or bi:
            num[n] = ai * bi
            num[n + 1 : n + RANK - i] = [
                ai * y + x * bi for x, y in zip(ac[i + 1 :], bc[i + 1 :])
            ]
        n += RANK - i
    return H4Class._of(tuple(num), 1)


_FUJIKI_MAT: Mat | None = None
_FUJIKI_DET: int | None = None


def fujiki_mat() -> Mat:
    """The 276x276 integer Gram of the Fujiki pairing on monomials, as one
    shared Mat used as the ambient form of lattices (cached)."""
    global _FUJIKI_MAT
    if _FUJIKI_MAT is None:
        g = GRAM
        rows = []
        for (i, j) in _PAIRS:
            gi, gj = g[i], g[j]
            gij = gi[j]
            rows.append(
                [gi[k] * gj[l] + gi[l] * gj[k] + gij * g[k][l] for (k, l) in _PAIRS]
            )
        _FUJIKI_MAT = Mat._of(rows, 1)
    return _FUJIKI_MAT


def fujiki_rows() -> tuple[tuple[int, ...], ...]:
    """The integer rows of the Fujiki Gram (shared with ``fujiki_mat``)."""
    return fujiki_mat().scaled_int_rows()[1]


def fujiki_det() -> int:
    global _FUJIKI_DET
    if _FUJIKI_DET is None:
        _FUJIKI_DET = det_int(fujiki_rows())
    return _FUJIKI_DET


def fujiki_pair(u: H4Class, v: H4Class) -> Fraction:
    """The intersection pairing of two degree-4 classes."""
    return Fraction(_pair(u.num, v.num, fujiki_mat().sparse_rows()), u.den * v.den)


def fujiki_with_product(u: H4Class, a: H2Class, b: H2Class) -> Fraction:
    """fujiki_pair(u, sym2_embed(a, b)) without building the product.

    For a monomial x_i*x_j the pairing against a*b is
    g_ij*b(a,b) + (Ga)_i(Gb)_j + (Gb)_i(Ga)_j, which needs only the two
    covectors Ga, Gb and runs in O(rank^2 + dim) time.
    """
    ua = gram_apply(a)
    ub = gram_apply(b)
    bab = sum(x * y for x, y in zip(a.coords, ub))
    total = 0
    for (i, j), x in zip(_PAIRS, u.num):
        if x:
            total += x * (GRAM[i][j] * bab + ua[i] * ub[j] + ub[i] * ua[j])
    return Fraction(total, u.den)


def _complement_data(dh: H2Class):
    """``(abasis, a_gram, b_inv)`` for an exceptional class: the basis of
    its complement, the Gram A of that basis and the integer inverse B of A
    (the proof that A is unimodular), each as tuples."""
    abasis, a_gram, b_inv = _orth_complement(dh)
    return tuple(abasis), tuple(map(tuple, a_gram)), tuple(map(tuple, b_inv))


def _q_class(dh: H2Class, abasis, b_inv) -> H4Class:
    """sum_ij B_ij a_i a_j - d^2/2 for the complement data of d."""
    # numerators over the denominator 2
    acc = [-x for x in sym2_embed(dh, dh).num]
    k = len(abasis)
    for i in range(k):
        for j in range(i, k):
            w = b_inv[i][j] if i == j else 2 * b_inv[i][j]
            if w:
                p = sym2_embed(abasis[i], abasis[j]).num
                acc = [a + 2 * w * x for a, x in zip(acc, p)]
    return H4Class._of(tuple(acc), 2)


def bb_inverse_class(d=None) -> H4Class:
    """The canonical degree-4 class q dual to the bilinear form.

    Built from an exceptional class d (default: the distinguished one) and
    the basis of its complement as sum_ij B_ij a_i a_j - d^2/2, with B the
    inverse complement Gram; the result does not depend on d. Each call
    builds q from scratch; the default lattice carries it as ``q``.
    """
    dh = delta0() if d is None else _as_h2(d)
    abasis, _, b_inv = _complement_data(dh)
    return _q_class(dh, abasis, b_inv)


def half_product_class(d, a: H2Class) -> H4Class:
    """The integral class a*(a - d)/2 attached to an exceptional d."""
    return Fraction(1, 2) * (sym2_embed(a, a) - sym2_embed(a, _as_h2(d)))


def point_surface_class(d, q: H4Class | None = None) -> H4Class:
    """The denominator-20 generator d^2/8 + q/20 of the overlattice.

    Satisfies 8*v = (2/5)q + d^2 and pairs with any product a*b as
    b(a,b) + b(d,a)b(d,b)/4.
    """
    dh = _as_h2(d)
    if q is None:
        q = bb_inverse_class(dh)
    return Fraction(1, 8) * sym2_embed(dh, dh) + Fraction(1, 20) * q


def second_chern_class(d, q: H4Class | None = None) -> H4Class:
    """24 times the point/surface class minus 3 d^2; equals (6/5)q."""
    dh = _as_h2(d)
    v0 = point_surface_class(d, q)
    return 24 * v0 - 3 * sym2_embed(dh, dh)


def sym2_lattice() -> Lattice:
    """The monomial lattice Z^276 with the Fujiki form."""
    return Lattice.standard(AMBIENT, form=fujiki_mat())


def h4_span(classes) -> Lattice:
    """The lattice spanned by degree-4 classes, with the Fujiki form."""
    classes = list(classes)
    den = lcm(*(c.den for c in classes))
    rows = [[x * (den // c.den) for x in c.num] for c in classes]
    return Lattice._from_int_rows(rows, den, AMBIENT, fujiki_mat())


class H4Lattice:
    """The full degree-4 lattice with its construction witnesses.

    ``lattice`` is canonical (HNF basis over the minimal denominator), so
    two H4Lattice values built from different exceptional classes compare
    equal exactly when the lattices coincide as sets, which they do; the
    witnesses record which complement basis produced the generators.
    """

    __slots__ = ("lattice", "delta_used", "abasis", "a_gram", "b_inv", "q", "v0")

    def __init__(self, lattice, delta_used, abasis, a_gram, b_inv, q, v0):
        self.lattice = lattice
        self.delta_used = delta_used
        self.abasis = abasis
        self.a_gram = a_gram
        self.b_inv = b_inv
        self.q = q
        self.v0 = v0

    def contains(self, v: H4Class) -> bool:
        return self.lattice.contains(v.num, v.den)

    def coords(self, v: H4Class):
        return self.lattice.coords(v.num, v.den)

    def divisibility(self, v: H4Class) -> int:
        """Largest n >= 1 with v/n still in the lattice."""
        return self.lattice.divisibility(v.num, v.den)

    def __eq__(self, other):
        if not isinstance(other, H4Lattice):
            return NotImplemented
        return self.lattice == other.lattice

    def __hash__(self):
        return hash(self.lattice)

    def gram_det(self) -> Fraction:
        """det of the Gram of the canonical basis under the Fujiki pairing.

        Uses det(Gram) = det(G) * det(B)^2 with B the basis matrix: the HNF
        basis is triangular, so det(B) is the pivot product over den^276.
        """
        lat = self.lattice
        detb = Fraction(lat._pivot_product(), lat.den**AMBIENT)
        return fujiki_det() * detb * detb


def build_h4_lattice(d=None) -> H4Lattice:
    """Construct the full degree-4 lattice from an exceptional class.

    Joins the monomial lattice with the 22 half-product classes of a
    complement basis and the denominator-20 class; the result has rank 276
    and index 5*2^23 over the monomial lattice.
    """
    if d is None:
        d = ExceptionalClass(delta0())
    elif not isinstance(d, ExceptionalClass):
        d = ExceptionalClass(d)
    abasis, a_gram, b_inv = _complement_data(d.h2)
    q = _q_class(d.h2, abasis, b_inv)
    v0 = point_surface_class(d, q)
    extra = [half_product_class(d, a) for a in abasis] + [v0]
    lat = lattice_join(sym2_lattice(), h4_span(extra))
    if lat.rank != AMBIENT:
        raise ArithmeticError("degree-4 lattice has a rank defect")
    return H4Lattice(lat, d, abasis, a_gram, b_inv, q, v0)


def _squarefree_primes(n: int) -> list[int]:
    """The primes of n > 0 in ascending order; raises ``ArithmeticError``
    if a square of one divides n."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                raise ArithmeticError(f"{p}^2 divides the lattice denominator")
            primes.append(p)
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _reduce_mod(rows, p: int):
    """``(basis, relations)`` of the sparse integer rows ``rows`` mod p.

    ``basis`` is the reduced echelon basis of their F_p-span as ``(pivot
    column, combination)`` in ascending pivot column: the basis vector is
    sum_j combination[j] * rows[j] mod p, 1 at its pivot column and 0 at
    every other. ``relations`` are the combinations recorded for the rows
    that reduce to zero (1 at that row, else only earlier rows): a basis of
    the left kernel mod p."""
    basis: list[tuple[int, dict[int, int], dict[int, int]]] = []
    relations: list[dict[int, int]] = []
    for j, row in enumerate(rows):
        vec = {c: x % p for c, x in row if x % p}
        comb = {j: 1}
        for c, bvec, bcomb in basis:
            f = vec.get(c)
            if f:
                _axpy_mod(vec, bvec, -f, p)
                _axpy_mod(comb, bcomb, -f, p)
        if not vec:
            relations.append(comb)
            continue
        c = min(vec)
        inv = pow(vec[c], -1, p)
        vec = {k: x * inv % p for k, x in vec.items()}
        comb = {k: x * inv % p for k, x in comb.items()}
        for _, bvec, bcomb in basis:
            f = bvec.get(c)
            if f:
                _axpy_mod(bvec, vec, -f, p)
                _axpy_mod(bcomb, comb, -f, p)
        basis.append((c, vec, comb))
    return sorted((c, comb) for c, _, comb in basis), relations


def _axpy_mod(y: dict[int, int], x: dict[int, int], a: int, p: int) -> None:
    """y += a * x mod p for sparse vectors as dicts, dropping zeros."""
    for k, v in x.items():
        w = (y.get(k, 0) + a * v) % p
        if w:
            y[k] = w
        else:
            y.pop(k, None)


class TorsionQuotient:
    """The finite quotient of the degree-4 lattice by the monomial lattice.

    Invariant factors are twenty-two 2's and one 10. ``class_of`` maps a
    lattice element to its residue tuple, with arithmetic helpers for the
    maps the torsion group supports: reduction of half-products, the
    order-10 point class, and the mod-2 pairing against products with the
    exceptional class.

    The quotient is read off a glue code. The lattice L has denominator
    den, and den * L is spanned by its HNF numerators; the rows that are 0
    mod den (the 253 unit rows of the default lattice) lie in den * Z^276,
    and the rest are the glue rows (23 here). For a squarefree den,
    v -> (den * v mod p) over the primes p of den maps L onto the product
    of the F_p-spans W_p of the glue rows (the idempotent e_p of Z/den,
    1 mod p and 0 mod den/p, gives e_p * v in L with only the p-part), and
    its kernel is L meet Z^276 = Z^276. So L / Z^276 is the product of
    F_p^(r_p), r_p = dim W_p, which is the sum of Z/d_t over the invariant
    factors d_t = prod of the p with r_p >= m - t, for t = 0 .. m - 1 and
    m the largest r_p. ``__init__`` keeps a reduced echelon basis of each
    W_p (r_2 = 23 and r_5 = 1 give (Z/2)^22 x Z/10), by the reduction mod p
    that also gives the mod-2 maps; prime p fills the last r_p positions. ``class_of`` checks membership with the lattice, reads
    the pivot entries of den * v mod p (the coordinates in a reduced basis
    of a vector of W_p) and combines them by CRT; ``lift`` combines glue
    rows. The constructor certifies the result: den is squarefree,
    prod p^(r_p) equals ``sublattice_index(sym2_lattice(), lattice)``, which
    also proves that Z^276 lies in L, and class_of(lift(e_i)) = e_i for
    every generator. It raises ``ArithmeticError`` otherwise.
    """

    __slots__ = ("h4", "group", "moduli", "_den", "_coord_cols", "_lift_rows")

    def __init__(self, h4: H4Lattice):
        self.h4 = h4
        lat = h4.lattice
        den = lat.den
        primes = _squarefree_primes(den)
        glue = [row for row in lat._sparse if any(x % den for _, x in row)]
        echelons = [_reduce_mod(glue, p)[0] for p in primes]
        m = max(map(len, echelons), default=0)
        moduli = [1] * m
        # per position: (pivot column, CRT weight e_p) of each prime there
        self._coord_cols = [[] for _ in range(m)]
        lifts = [[0] * AMBIENT for _ in range(m)]
        for p, ech in zip(primes, echelons):
            q = den // p
            e = q * pow(q, -1, p)
            for t, (c, comb) in enumerate(ech, m - len(ech)):
                moduli[t] *= p
                self._coord_cols[t].append((c, e))
                for j, a in comb.items():
                    for k, x in glue[j]:
                        lifts[t][k] += e * a * x
        self._den = den
        self.moduli = tuple(moduli)
        self._lift_rows = _sparse_rows(lifts)
        self.group = FiniteAbelianGroup(self.moduli)
        try:
            index = sublattice_index(sym2_lattice(), lat)
        except NotASublatticeError as exc:
            raise ArithmeticError("the lattice does not contain Z^276") from exc
        if self.group.order() != index:
            raise ArithmeticError("glue ranks do not give the index of Z^276")
        for i in range(m):
            e = tuple(int(t == i) for t in range(m))
            if self.class_of(self.lift(e)) != e:
                raise ArithmeticError("a generator lift does not return to its class")

    def order(self) -> int:
        return self.group.order()

    def class_of(self, v: H4Class) -> tuple[int, ...]:
        """Residue tuple of a lattice element; raises if v is outside."""
        if not self.h4.contains(v):
            raise ValueError("class is not in the degree-4 lattice")
        # den * v is integral on L; only its pivot entries are read
        num, f = v.num, v.den
        den = self._den
        return tuple(
            sum([den * num[c] // f * e for c, e in cols]) % d
            for cols, d in zip(self._coord_cols, self.moduli)
        )

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    def add(self, s, t) -> tuple[int, ...]:
        return tuple((a + b) % d for a, b, d in zip(s, t, self.moduli))

    def scale(self, k: int, t) -> tuple[int, ...]:
        return tuple((k * a) % d for a, d in zip(t, self.moduli))

    def element_order(self, t) -> int:
        n = 1
        for a, d in zip(t, self.moduli):
            if a:
                n = lcm(n, d // gcd(d, a))
        return n

    def lift(self, t) -> H4Class:
        """One representative in the degree-4 lattice of a residue tuple."""
        (vec,) = _combine_rows([t], self._lift_rows, AMBIENT)
        return H4Class._of(tuple(vec), self._den)

    # -- structure maps -----------------------------------------------------

    def half_product_image(self, a: H2Class) -> tuple[int, ...]:
        """Residue of a*(a - d)/2; additive in a and kills doubled classes."""
        return self.class_of(half_product_class(self.h4.delta_used, a))

    def point_image(self) -> tuple[int, ...]:
        """Residue of the denominator-20 class; has order 10."""
        return self.class_of(self.h4.v0)

    def order5_generator(self) -> tuple[int, ...]:
        """Twice the point class: the canonical order-5 element."""
        return self.scale(2, self.point_image())

    def delta_pairing_mod2(self, t) -> tuple[int, ...]:
        """The mod-2 covector a_k -> (lift(t) . a_k . d) on the 23 basis classes.

        Well-defined on residues because every monomial pairs evenly against
        products with an exceptional class; independence of the lift choice
        is re-verified on demand in the tests rather than assumed.
        """
        theta = self.lift(t)
        dh = self.h4.delta_used.h2
        out = []
        for k in range(RANK):
            val = fujiki_with_product(theta, H2Class.basis_vector(k), dh)
            if val.denominator != 1:
                raise ArithmeticError("pairing against the lattice must be integral")
            out.append(val.numerator % 2)
        return tuple(out)

    def delta_pairing_matrix(self) -> list[list[int]]:
        """Rows: the mod-2 covectors of the quotient generators."""
        eye = [
            tuple(1 if i == j else 0 for j in range(len(self.moduli)))
            for i in range(len(self.moduli))
        ]
        return [list(self.delta_pairing_mod2(t)) for t in eye]

    def delta_pairing_kernel_order(self) -> int:
        """|kernel| of the mod-2 pairing map on the whole quotient.

        The map factors through reduction mod 2 of the residue tuple, so the
        kernel size is (product of d_i/2) * 2^(moduli count - F2 rank).
        """
        m = self.delta_pairing_matrix()
        r = len(_reduce_mod(_sparse_rows(m), 2)[0])
        half_product = 1
        for d in self.moduli:
            if d % 2:
                raise ArithmeticError("expected even invariant factors")
            half_product *= d // 2
        return half_product * (1 << (len(self.moduli) - r))

    def half_product_kernel_mod2(self) -> list[tuple[int, ...]]:
        """Basis of {a mod 2 : a*(a-d)/2 reduces to 0 in the quotient}.

        The images are 2-torsion, so after identifying the 2-torsion
        subgroup with an F2 space these are the relations mod 2 among the
        images of the 23 basis classes, as dense 0/1 tuples.
        """
        rows = []
        for k in range(RANK):
            t = self.half_product_image(H2Class.basis_vector(k))
            row = []
            for a, d in zip(t, self.moduli):
                half = d // 2
                if a % half:
                    raise ArithmeticError("half-product image is not 2-torsion")
                row.append((a // half) % 2)
            rows.append(row)
        _, relations = _reduce_mod(_sparse_rows(rows), 2)
        return [tuple(rel.get(k, 0) for k in range(RANK)) for rel in relations]

    def subgroup(self, elements) -> FiniteAbelianGroup:
        """Abstract structure of the subgroup generated by residue tuples."""
        k = len(self.moduli)
        rel = [[self.moduli[i] if j == i else 0 for j in range(k)] for i in range(k)]
        gens = [list(t) for t in elements]
        sub = Lattice.from_generators(rel, ambient_dim=k)
        sup = Lattice.from_generators(rel + gens, ambient_dim=k)
        return quotient_invariants(sub, sup)


def torsion_quotient(h4: H4Lattice) -> TorsionQuotient:
    return TorsionQuotient(h4)


_DEFAULT_H4: H4Lattice | None = None
_DEFAULT_TQ: TorsionQuotient | None = None


def default_h4_lattice() -> H4Lattice:
    """The lattice built from the distinguished exceptional class (cached)."""
    global _DEFAULT_H4
    if _DEFAULT_H4 is None:
        _DEFAULT_H4 = build_h4_lattice()
    return _DEFAULT_H4


def default_torsion_quotient() -> TorsionQuotient:
    global _DEFAULT_TQ
    if _DEFAULT_TQ is None:
        _DEFAULT_TQ = torsion_quotient(default_h4_lattice())
    return _DEFAULT_TQ


def double_cover_sym2_matrix() -> Mat:
    """The 276x276 change-of-basis matrix of the double-cover comparison.

    Diagonal: 22 twos (square monomials), 231 ones (mixed monomials), one
    -1, then 22 twos. The -1 row carries the negated inverse complement
    Gram entries; the -1 column carries the complement Gram entries. Its
    determinant, 5*2^45, is the index computation for the quotient group of
    the double cover.
    """
    # the complement of delta0 is e_0..e_21, so its Gram is GRAM's leading
    # 22x22 block
    _, a_rows, b_rows = _orth_complement(delta0())
    k = len(a_rows)
    n = AMBIENT
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    m = [[0] * n for _ in range(n)]
    for i in range(k):
        m[i][i] = 2
    for t, _p in enumerate(pairs):
        m[k + t][k + t] = 1
    c = k + len(pairs)  # 253
    m[c][c] = -1
    for i in range(k):
        m[i][c] = a_rows[i][i]
        m[c][i] = -b_rows[i][i]
    for t, (i, j) in enumerate(pairs):
        m[k + t][c] = a_rows[i][j]
        m[c][k + t] = -b_rows[i][j]
    for i in range(c + 1, n):
        m[i][i] = 2
    return Mat._of(m, 1)


def verify_cup_product_table(h4: H4Lattice) -> dict:
    """Check the closed-form cup product table against the lattice model.

    The table expresses all pairwise products of the 23 degree-2 basis
    classes over the dictionary basis {v0, v_i, v_ij, u_i} where
    v_i = a_i(a_i - d)/2 - (A_ii/2) v0, v_ij = a_i a_j - A_ij v0, and
    u_i = d a_i. Checks, in order: the four product identities, membership
    of every dictionary element in the lattice, the dictionary being an
    actual basis (span equality), and 2-divisibility of the half products.

    Returns {check_name: bool}; a failed check reads False and the others
    still run.
    """
    dh = h4.delta_used.h2
    abasis = h4.abasis
    A = h4.a_gram
    B = h4.b_inv
    v0 = h4.v0
    k = len(abasis)
    u = [sym2_embed(dh, a) for a in abasis]
    v = [
        half_product_class(h4.delta_used, abasis[i])
        - Fraction(A[i][i], 2) * v0
        for i in range(k)
    ]
    vij = {}
    for i in range(k):
        for j in range(i + 1, k):
            vij[(i, j)] = sym2_embed(abasis[i], abasis[j]) - A[i][j] * v0

    rhs = -1 * v0
    for i in range(k):
        if B[i][i]:
            rhs = rhs - B[i][i] * v[i] - Fraction(B[i][i], 2) * u[i]
        for j in range(i + 1, k):
            if B[i][j]:
                rhs = rhs - B[i][j] * vij[(i, j)]
    dictionary = [v0] + v + list(vij.values()) + u
    return {
        "product_mixed": all(
            sym2_embed(abasis[i], abasis[j]) == vij[(i, j)] + A[i][j] * v0
            for i in range(k)
            for j in range(i + 1, k)
        ),
        "product_square": all(
            sym2_embed(abasis[i], abasis[i]) == 2 * v[i] + u[i] + A[i][i] * v0
            for i in range(k)
        ),
        "product_with_exceptional": all(sym2_embed(abasis[i], dh) == u[i] for i in range(k)),
        "product_exceptional_square": sym2_embed(dh, dh) == rhs,
        "dictionary_integral": all(h4.contains(x) for x in dictionary),
        "dictionary_is_basis": h4_span(dictionary) == h4.lattice,
        "half_products_divisible": all(
            h4.contains(half_product_class(h4.delta_used, a)) for a in abasis
        ),
    }
