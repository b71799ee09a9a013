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
numerators over one denominator and go into lattices as such. The caches
are the Fujiki Gram (one shared integer ``Mat``, whose symmetry check and
JSON text are computed once), its determinant, the class q of the
distinguished exceptional class, and the default lattice and torsion
quotient built from that class.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm

from . import kernels
from .bb_lattice import (
    GRAM,
    RANK,
    ExceptionalClass,
    H2Class,
    bb_form,
    delta0,
    gram_apply,
    orth_complement_basis,
)
from .exact_linalg import (
    FiniteAbelianGroup,
    Lattice,
    Mat,
    _combine_rows,
    _coord_matrix,
    _frac_str,
    _sparse_rows,
    combine_basis,
    det_int,
    fraction_vector,
    int_vector,
    parse_int,
    parse_rational,
    quotient_invariants,
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
    normalized so that gcd(den, all numerators) = 1. Numerators and the
    denominator must be Python ints (no floats, no bools).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den: int = 1, _normalized=False):
        if _normalized:
            self.num = num
            self.den = den
            return
        num = int_vector(num)
        if len(num) != AMBIENT:
            raise ValueError(f"need {AMBIENT} coordinates, got {len(num)}")
        den = parse_int(den)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den, num = -den, tuple(-x for x in num)
        g = den
        for x in num:
            if x:
                g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            den //= g
            num = tuple(x // g for x in num)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls) -> "H4Class":
        return cls((0,) * AMBIENT, 1, _normalized=True)

    @classmethod
    def from_fractions(cls, coords) -> "H4Class":
        coords = fraction_vector(coords)
        if len(coords) != AMBIENT:
            raise ValueError(f"need {AMBIENT} coordinates")
        d = lcm(*(x.denominator for x in coords))
        return cls(tuple((x * d).numerator for x in coords), d)

    def coords(self) -> tuple[Fraction, ...]:
        d = self.den
        return tuple(Fraction(x, d) for x in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __add__(self, other: "H4Class") -> "H4Class":
        if not isinstance(other, H4Class):
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return H4Class(
                tuple(a + b for a, b in zip(self.num, other.num)), da
            )
        return H4Class(
            tuple(a * db + b * da for a, b in zip(self.num, other.num)),
            da * db,
        )

    def __sub__(self, other: "H4Class") -> "H4Class":
        if not isinstance(other, H4Class):
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return H4Class(
                tuple(a - b for a, b in zip(self.num, other.num)), da
            )
        return H4Class(
            tuple(a * db - b * da for a, b in zip(self.num, other.num)),
            da * db,
        )

    def __neg__(self) -> "H4Class":
        return H4Class(tuple(-x for x in self.num), self.den, _normalized=True)

    def scale(self, c) -> "H4Class":
        c = parse_rational(c)
        return H4Class(
            tuple(c.numerator * x for x in self.num), self.den * c.denominator
        )

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
    """The product class of two degree-2 classes, as monomial coordinates."""
    ac, bc = a.coords, b.coords
    num = [0] * AMBIENT
    n = 0
    for i in range(RANK):
        ai, bi = ac[i], bc[i]
        if ai:
            num[n] = ai * bi
            base = n
            for j in range(i + 1, RANK):
                if bc[j]:
                    num[base + j - i] += ai * bc[j]
        elif bi:
            num[n] = 0
        n += RANK - i
    # second bilinear half: a_j * b_i contributions for i < j
    n = 0
    for i in range(RANK):
        bi = bc[i]
        if bi:
            base = n
            for j in range(i + 1, RANK):
                if ac[j]:
                    num[base + j - i] += ac[j] * bi
        n += RANK - i
    return H4Class(tuple(num), 1)


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
        _FUJIKI_MAT = Mat.from_int_rows(rows)
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
    total = 0
    vn = v.num
    for x, row in zip(u.num, fujiki_mat().sparse_rows()):
        if x:
            total += x * sum([g * vn[k] for k, g in row])
    return Fraction(total, u.den * v.den)


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


def _inverse_int_symmetric(rows) -> list[list[int]]:
    """Inverse of an integer symmetric matrix with det +-1, as integers.

    The row HNF of a unimodular matrix is the identity, so the unimodular
    transform U with U * rows = H is the inverse; anything else is singular
    or not unimodular and raises.
    """
    n = len(rows)
    H, U, rank = kernels.hnf_transform(rows)
    if rank != n or any(H[i][j] != (i == j) for i in range(n) for j in range(n)):
        raise ArithmeticError("matrix is not unimodular")
    return U


_DEFAULT_Q: H4Class | None = None


def bb_inverse_class(d=None, abasis=None) -> H4Class:
    """The canonical degree-4 class dual to the bilinear form.

    Built from an exceptional class d and a basis of its complement as
    sum_ij B_ij a_i a_j - d^2/2 with B the inverse complement Gram; the
    result is independent of both choices. The class built from the
    distinguished exceptional class with its own complement basis is cached;
    every other exceptional class is built from scratch.
    """
    global _DEFAULT_Q
    dh = d.h2 if isinstance(d, ExceptionalClass) else d
    default = abasis is None and (dh is None or dh == delta0())
    if default and _DEFAULT_Q is not None:
        return _DEFAULT_Q
    if dh is None:
        dh = delta0()
    if abasis is None:
        abasis = orth_complement_basis(dh)
    a_gram = [[bb_form(x, y) for y in abasis] for x in abasis]
    binv = _inverse_int_symmetric(a_gram)
    # numerators of sum_ij B_ij a_i a_j - d^2/2 over the denominator 2
    acc = [-x for x in sym2_embed(dh, dh).num]
    k = len(abasis)
    for i in range(k):
        for j in range(i, k):
            w = binv[i][j] if i == j else 2 * binv[i][j]
            if w:
                p = sym2_embed(abasis[i], abasis[j]).num
                acc = [a + 2 * w * x for a, x in zip(acc, p)]
    q = H4Class(acc, 2)
    if default:
        _DEFAULT_Q = q
    return q


def half_product_class(d, a: H2Class) -> H4Class:
    """The integral class a*(a - d)/2 attached to an exceptional d."""
    dh = d.h2 if isinstance(d, ExceptionalClass) else d
    return Fraction(1, 2) * (sym2_embed(a, a) - sym2_embed(a, dh))


def point_surface_class(d, q: H4Class | None = None) -> H4Class:
    """The denominator-20 generator d^2/8 + q/20 of the overlattice.

    Satisfies 8*v = (2/5)q + d^2 and pairs with any product a*b as
    b(a,b) + b(d,a)b(d,b)/4.
    """
    dh = d.h2 if isinstance(d, ExceptionalClass) else d
    if q is None:
        q = bb_inverse_class(d if isinstance(d, ExceptionalClass) else ExceptionalClass(dh))
    return Fraction(1, 8) * sym2_embed(dh, dh) + Fraction(1, 20) * q


def second_chern_class(d, q: H4Class | None = None) -> H4Class:
    """24 times the point/surface class minus 3 d^2; equals (6/5)q."""
    dh = d.h2 if isinstance(d, ExceptionalClass) else d
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
    return Lattice.from_int_rows(rows, den, AMBIENT, fujiki_mat())


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
        return self.lattice.contains_int(v.num, v.den)

    def coords(self, v: H4Class):
        return self.lattice.coords_int(v.num, v.den)

    def divisibility(self, v: H4Class) -> int:
        """Largest n >= 1 with v/n still in the lattice."""
        return self.lattice.divisibility_int(v.num, v.den)

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
        piv_prod = 1
        for row in lat._sparse:
            piv_prod *= row[0][1]
        detb = Fraction(piv_prod, lat.den**AMBIENT)
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
    abasis = orth_complement_basis(d)
    a_gram = [[bb_form(x, y) for y in abasis] for x in abasis]
    b_inv = _inverse_int_symmetric(a_gram)
    q = bb_inverse_class(d, abasis)
    v0 = point_surface_class(d, q)
    extra = [half_product_class(d, a) for a in abasis] + [v0]
    den = lcm(*(c.den for c in extra))
    gens = [[den if k == i else 0 for k in range(AMBIENT)] for i in range(AMBIENT)]
    gens += [[x * (den // c.den) for x in c.num] for c in extra]
    lat = Lattice.from_int_rows(gens, den, AMBIENT, fujiki_mat())
    if lat.rank != AMBIENT:
        raise ArithmeticError("degree-4 lattice has a rank defect")
    return H4Lattice(
        lat,
        d,
        tuple(abasis),
        tuple(tuple(r) for r in a_gram),
        tuple(tuple(r) for r in b_inv),
        q,
        v0,
    )


class TorsionQuotient:
    """The finite quotient of the degree-4 lattice by the monomial lattice.

    Invariant factors are twenty-two 2's and one 10. ``class_of`` maps a
    lattice element to its residue tuple, with arithmetic helpers for the
    maps the torsion group supports: reduction of half-products, the
    order-10 point class, and the mod-2 pairing against products with the
    exceptional class.
    """

    __slots__ = (
        "h4",
        "group",
        "moduli",
        "_positions",
        "_residue_cols",
        "_lift_rows",
        "_lift_den",
    )

    def __init__(self, h4: H4Lattice):
        self.h4 = h4
        C = _coord_matrix(sym2_lattice(), h4.lattice)
        diag, V, Vinv = kernels.smith_normal_form(C, want_v=True, want_vinv=True)
        if any(d == 0 for d in diag):
            raise ArithmeticError("quotient is not finite")
        self._positions = [i for i, dd in enumerate(diag) if dd > 1]
        self.moduli = tuple(diag[i] for i in self._positions)
        # the columns of V at the torsion positions, in the sparse row form
        self._residue_cols = _sparse_rows([[row[i] for row in V] for i in self._positions])
        den, lifts = combine_basis([Vinv[i] for i in self._positions], h4.lattice)
        self._lift_den = den
        self._lift_rows = _sparse_rows(lifts)
        self.group = FiniteAbelianGroup(
            self.moduli, [[Fraction(x, den) for x in v] for v in lifts]
        )

    def order(self) -> int:
        return self.group.order()

    def class_of(self, v: H4Class) -> tuple[int, ...]:
        """Residue tuple of a lattice element; raises if v is outside."""
        y = self.h4.coords(v)
        if y is None:
            raise ValueError("class is not in the degree-4 lattice")
        return tuple(
            sum([y[j] * v for j, v in col]) % d
            for col, d in zip(self._residue_cols, self.moduli)
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
        return H4Class(vec, self._lift_den)

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
        r = len(m) - len(_f2_nullspace(m))
        half_product = 1
        for d in self.moduli:
            if d % 2:
                raise ArithmeticError("expected even invariant factors")
            half_product *= d // 2
        return half_product * (1 << (len(self.moduli) - r))

    def half_product_kernel_mod2(self) -> list[tuple[int, ...]]:
        """Basis of {a mod 2 : a*(a-d)/2 reduces to 0 in the quotient}.

        The images are 2-torsion, so after identifying the 2-torsion
        subgroup with an F2 space this is an F2 nullspace computation over
        the 23 basis classes.
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
        return _f2_nullspace(rows)

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


def _f2_nullspace(rows: list[list[int]]) -> list[tuple[int, ...]]:
    """Basis of {x : x * rows = 0 over F2}: left nullspace of the matrix."""
    m = len(rows)
    aug = []
    for i in range(m):
        aug.append([x & 1 for x in rows[i]] + [int(k == i) for k in range(m)])
    n = len(rows[0])
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, m) if aug[r][col]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        for r in range(m):
            if r != rank and aug[r][col]:
                aug[r] = [(a + b) & 1 for a, b in zip(aug[r], aug[rank])]
        rank += 1
    return [tuple(row[n:]) for row in aug[rank:]]


def double_cover_sym2_matrix() -> Mat:
    """The 276x276 change-of-basis matrix of the double-cover comparison.

    Diagonal: 22 twos (square monomials), 231 ones (mixed monomials), one
    -1, then 22 twos. The -1 row carries the negated inverse complement
    Gram entries; the -1 column carries the complement Gram entries. Its
    determinant, 5*2^45, is the index computation for the quotient group of
    the double cover.
    """
    k = RANK - 1
    a_rows = [list(GRAM[i][:k]) for i in range(k)]
    b_rows = _inverse_int_symmetric(a_rows)
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
    return Mat.from_int_rows(m)


def verify_cup_product_table(d=None, strict: bool = True) -> dict:
    """Check the closed-form cup product table against the lattice model.

    The table expresses all pairwise products of the 23 degree-2 basis
    classes over the dictionary basis {v0, v_i, v_ij, u_i} where
    v_i = a_i(a_i - d)/2 - (A_ii/2) v0, v_ij = a_i a_j - A_ij v0, and
    u_i = d a_i. Checks, in order: the four product identities, membership
    of every dictionary element in the lattice, the dictionary being an
    actual basis (span equality), and 2-divisibility of the half products.

    Returns {check_name: bool}; with strict=True raises on first failure.
    """
    h4 = d if isinstance(d, H4Lattice) else build_h4_lattice(d)
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

    checks: dict[str, bool] = {}

    def record(name: str, ok: bool):
        checks[name] = bool(ok)
        if strict and not ok:
            raise ArithmeticError(f"cup product table check failed: {name}")

    ok_mixed = all(
        sym2_embed(abasis[i], abasis[j]) == vij[(i, j)] + A[i][j] * v0
        for i in range(k)
        for j in range(i + 1, k)
    )
    record("product_mixed", ok_mixed)
    ok_square = all(
        sym2_embed(abasis[i], abasis[i]) == 2 * v[i] + u[i] + A[i][i] * v0
        for i in range(k)
    )
    record("product_square", ok_square)
    ok_delta = all(sym2_embed(abasis[i], dh) == u[i] for i in range(k))
    record("product_with_exceptional", ok_delta)

    rhs = -1 * v0
    for i in range(k):
        if B[i][i]:
            rhs = rhs - B[i][i] * v[i] - Fraction(B[i][i], 2) * u[i]
        for j in range(i + 1, k):
            if B[i][j]:
                rhs = rhs - B[i][j] * vij[(i, j)]
    record("product_exceptional_square", sym2_embed(dh, dh) == rhs)

    dictionary = [v0] + v + list(vij.values()) + u
    record("dictionary_integral", all(h4.contains(x) for x in dictionary))
    record("dictionary_is_basis", h4_span(dictionary) == h4.lattice)
    record(
        "half_products_divisible",
        all(
            h4.contains(half_product_class(h4.delta_used, a)) for a in abasis
        ),
    )
    return checks
