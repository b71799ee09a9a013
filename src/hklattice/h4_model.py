"""Degree-4 cohomology model: the 276-dimensional overlattice.

Coordinates are monomials x_i*x_j (i <= j, lexicographic) in the 23 basis
vectors of the degree-2 lattice, so the ambient space is Sym^2 of the rank-23
lattice tensored with Q. The intersection pairing is the Fujiki relation

    (a1*a2) . (a3*a4) = b(a1,a2)b(a3,a4) + b(a1,a3)b(a2,a4) + b(a1,a4)b(a2,a3)

extended bilinearly. The full integral degree-4 lattice L is the overlattice
of Sym^2 generated by the half-product classes a(a - d)/2 for a in the
complement of an exceptional class d, together with one extra class of
denominator 10 dual to a point (the "point/surface" class below). L does not
depend on which exceptional class is used, which is one of the verified
facts rather than an assumption.

The exceptional class d is a ``bb_lattice.ExceptionalClass``, proved
exceptional where it was made; the functions of d here read ``d.h2`` and
check nothing about it, and an omitted d is ``bb_lattice.DELTA0``.

Everything is exact and runs on Python integers: classes are integer
numerators over one denominator in lowest terms and go into lattices as
such: ``H4Lattice`` hands the numerators, unscaled, to the solve readers
of ``Lattice`` with the multiplier ``Lattice._multiplier`` reads off the
denominator, with no parse.
Input from outside is checked once, by the public ``H4Class``
constructor; sums, multiples, products ``sym2_embed`` and torsion lifts
are built from checked classes and take the private ``H4Class._of``,
which only normalizes. The cup product table check builds no ``H4Class``
for its dictionary: those classes are integer numerator maps over one
denominator, and their products are read off the nonzeros of the two
degree-2 factors (``_product_num``); it checks the expansion of d^2 and
three lattice facts, not the entries that hold by definition. The torsion
quotient is read off the glue code of the lattice (its basis rows that
are not in Z^276, reduced mod each prime of the denominator), with no
Smith form; it keeps that code, the pivot columns that ``class_of`` reads
and the CRT-weighted reduced basis rows that ``lift`` adds, and no
Fraction lifts. Every basis, rank and relation mod p here comes from the
library's one elimination mod p, ``exact_linalg._echelon_mod``, or its
reduced basis ``_reduced_basis_mod``.

The process-wide caches are the four ``functools.cache`` functions
``fujiki_mat`` (one shared integer ``Mat``, whose symmetry check and JSON
bytes are computed once), ``fujiki_det``, and ``default_h4_lattice`` and
``default_torsion_quotient``, built from the distinguished exceptional
class. The class q is not cached on its own: ``build_h4_lattice`` builds
it once from the complement data it also keeps, and the default lattice
carries it as ``q``.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod

from .bb_lattice import (
    DELTA0,
    GRAM,
    RANK,
    ExceptionalClass,
    H2Class,
    _orth_complement,
    gram_apply,
)
from .exact_linalg import (
    FiniteAbelianGroup,
    Lattice,
    Mat,
    NotASublatticeError,
    _combine_rows,
    _echelon_mod,
    _frac_str,
    _pair,
    _reduced_basis_mod,
    _scaled_ints,
    _sparse_rows,
    det_int,
    int_vector,
    lattice_join,
    parse_int,
    parse_rational,
    sublattice_index,
)

AMBIENT = RANK * (RANK + 1) // 2  # 276

_PAIRS: list[tuple[int, int]] = [
    (i, j) for i in range(RANK) for j in range(i, RANK)
]
_PAIR_INDEX: dict[tuple[int, int], int] = {p: n for n, p in enumerate(_PAIRS)}


@cache
def _monomial_keys() -> tuple[str, ...]:
    """The JSON key "(i,j)" of each coordinate, in the frozen order."""
    return tuple([f"({i},{j})" for i, j in _PAIRS])


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
        """Store num/den with den > 0 and gcd(den, num) = 1: den = 1 is in
        lowest terms already; otherwise one gcd finds the common factor,
        taken negative when den is, and one pass divides it out."""
        if den != 1:
            g = gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                den //= g
                num = [x // g for x in num]
        self.num = tuple(num)
        self.den = den

    @classmethod
    def _of(cls, num: tuple[int, ...], den: int) -> "H4Class":
        """The class num/den for a tuple of AMBIENT ints and a nonzero int
        den, without the checks of the public constructor."""
        c = cls.__new__(cls)
        c._set(num, den)
        return c

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

    def scale(self, c) -> "H4Class":
        """The class c * self for a rational c, in one pass. With c = p/q and
        self = num/den, both in lowest terms, gcd(p, q) = gcd(den, num) = 1,
        so the common factor of p * num and q * den is gcd(p, den) *
        gcd(num, q), and each part divides its own side."""
        c = parse_rational(c)
        p, q = c.numerator, c.denominator
        g = gcd(p, self.den)
        h = gcd(q, *self.num) if q != 1 else 1
        m = p // g
        out = H4Class.__new__(H4Class)
        out.num = tuple([x * m for x in self.num] if h == 1 else [x // h * m for x in self.num])
        out.den = self.den // g * (q // h)
        return out

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
        """The nonzero coordinates by monomial key, each distinct value
        formatted once, as ``_json_rows`` does."""
        num, den = self.num, self.den
        fmt = str if den == 1 else {x: _frac_str(x, den) for x in set(num)}.__getitem__
        return {key: fmt(x) for key, x in zip(_monomial_keys(), num) if x}

    @classmethod
    def from_json(cls, obj) -> "H4Class":
        if not isinstance(obj, Mapping):
            raise ValueError("a degree-4 class is a mapping of monomial keys to values")
        vals = {}
        for key, val in obj.items():
            m = re.fullmatch(r"\(([0-9]+),([0-9]+)\)", key.strip())
            if not m:
                raise ValueError(f"bad monomial key {key!r}")
            i, j = int(m.group(1)), int(m.group(2))
            if not (0 <= i <= j < RANK):
                raise ValueError(f"monomial key {key!r} out of range")
            k = _PAIR_INDEX[(i, j)]
            # two spellings of one monomial, such as "(0,1)" and "(00,1)"
            if k in vals:
                raise ValueError(f"monomial ({i},{j}) is given twice, the last time as {key!r}")
            vals[k] = parse_rational(val)
        d, (num,) = _scaled_ints([[vals.get(k, 0) for k in range(AMBIENT)]])
        return cls._of(tuple(num), d)


def sym2_embed(a: H2Class, b: H2Class) -> H4Class:
    """The product class of two degree-2 classes, as monomial coordinates:
    a_i*b_i at x_i^2 and a_i*b_j + a_j*b_i at x_i*x_j for i < j. A square
    (equal coordinates) takes a_i^2 and 2*a_i*a_j, one product an entry."""
    ac, bc = a.coords, b.coords
    num = [0] * AMBIENT
    n = 0
    if ac == bc:
        for i, ai in enumerate(ac):
            if ai:
                t = 2 * ai
                num[n] = ai * ai
                num[n + 1 : n + RANK - i] = [t * y for y in ac[i + 1 :]]
            n += RANK - i
        return H4Class._of(tuple(num), 1)
    for i in range(RANK):
        ai, bi = ac[i], bc[i]
        if ai or bi:
            num[n] = ai * bi
            num[n + 1 : n + RANK - i] = [
                ai * y + x * bi for x, y in zip(ac[i + 1 :], bc[i + 1 :])
            ]
        n += RANK - i
    return H4Class._of(tuple(num), 1)


@cache
def fujiki_mat() -> Mat:
    """The 276x276 integer Gram of the Fujiki pairing on monomials, as one
    shared Mat used as the ambient form of lattices (cached)."""
    # (x_i x_j) . (x_k x_l) = g_ik g_jl + g_il g_jk + g_ij g_kl over the
    # nonzeros of GRAM: a nonzero g_ik g_jl is the first term at the
    # monomial (k, l) if k < l, the second at (l, k) if k > l, and both
    # if k = l; the last term is g_ij times the upper triangle of GRAM
    nz = [[(k, x) for k, x in enumerate(row) if x] for row in GRAM]
    upper = [(_PAIR_INDEX[(k, l)], x) for k, row in enumerate(nz) for l, x in row if k <= l]
    rows = []
    for (i, j) in _PAIRS:
        row = [0] * AMBIENT
        for k, x in nz[i]:
            for l, y in nz[j]:
                if k < l:
                    row[_PAIR_INDEX[(k, l)]] += x * y
                elif k > l:
                    row[_PAIR_INDEX[(l, k)]] += x * y
                else:
                    row[_PAIR_INDEX[(k, k)]] += 2 * x * y
        gij = GRAM[i][j]
        if gij:
            for c, y in upper:
                row[c] += gij * y
        rows.append(row)
    return Mat._of(rows, 1)


def fujiki_rows() -> tuple[tuple[int, ...], ...]:
    """The integer rows of the Fujiki Gram (shared with ``fujiki_mat``)."""
    return fujiki_mat().scaled_int_rows()[1]


@cache
def fujiki_det() -> int:
    return det_int(fujiki_rows())


def fujiki_pair(u: H4Class, v: H4Class) -> Fraction:
    """The intersection pairing of two degree-4 classes."""
    return Fraction(_pair(u.num, v.num, fujiki_mat().sparse_rows()), u.den * v.den)


def fujiki_product_covector(u: H4Class, b: H2Class) -> tuple[int, ...]:
    """Numerators over ``u.den`` of the covector a -> fujiki_pair(u, a*b).

    A monomial x_i*x_j pairs against a*b as
    g_ij*b(a,b) + (Ga)_i(Gb)_j + (Gb)_i(Ga)_j, so with s = sum_(i<=j) u_ij g_ij
    and W symmetric, W_ii = 2u_ii and W_ij = u_ij, the pairing is
    s*(a.Gb) + (Ga).W(Gb): the covector is s*Gb + G*W*Gb, one pass over the
    276 coordinates of u and two products with G.
    """
    gb = gram_apply(b)
    s = 0
    wgb = [0] * RANK
    for (i, j), x in zip(_PAIRS, u.num):
        if x:
            s += x * GRAM[i][j]
            if i == j:
                wgb[i] += 2 * x * gb[i]
            else:
                wgb[i] += x * gb[j]
                wgb[j] += x * gb[i]
    gwgb = gram_apply(H2Class._of(tuple(wgb)))
    return tuple([s * y + z for y, z in zip(gb, gwgb)])


def fujiki_with_product(u: H4Class, a: H2Class, b: H2Class) -> Fraction:
    """fujiki_pair(u, sym2_embed(a, b)) without building the product: a
    dot product with ``fujiki_product_covector(u, b)``."""
    cov = fujiki_product_covector(u, b)
    return Fraction(sum([x * y for x, y in zip(a.coords, cov)]), u.den)


def _q_class(dh: H2Class, abasis, b_inv) -> H4Class:
    """sum_ij B_ij a_i a_j - d^2/2 for the complement data of d.

    In matrix form this is the symmetric S = P^T B P - d d^T / 2, with the
    a_i as the rows of P: x_k^2 takes S_kk and x_k*x_l (k < l) takes 2*S_kl.
    """
    pcols = list(zip(*[a.coords for a in abasis]))
    bp = [[sum([b * x for b, x in zip(brow, col)]) for col in pcols] for brow in b_inv]
    bpcols = list(zip(*bp))
    d = dh.coords
    # numerators over the denominator 2: 2S = 2 P^T B P - d d^T
    num = []
    for i, j in _PAIRS:
        s2 = 2 * sum([x * y for x, y in zip(pcols[i], bpcols[j])]) - d[i] * d[j]
        num.append(s2 if i == j else 2 * s2)
    return H4Class._of(tuple(num), 2)


def bb_inverse_class(d: ExceptionalClass | None = None) -> H4Class:
    """The canonical degree-4 class q dual to the bilinear form.

    Built from an exceptional class d (default: the distinguished one) and
    the basis of its complement as sum_ij B_ij a_i a_j - d^2/2, with B the
    inverse complement Gram; the result does not depend on d. Each call
    builds q from scratch; the default lattice carries it as ``q``.
    """
    d = DELTA0 if d is None else d
    abasis, _, b_inv = _orth_complement(d)
    return _q_class(d.h2, abasis, b_inv)


def half_product_class(d: ExceptionalClass, a: H2Class) -> H4Class:
    """The integral class a*(a - d)/2 attached to an exceptional d: one
    product, a*a - a*d = a*(a - d) by bilinearity, over 2."""
    return H4Class._of(sym2_embed(a, a - d.h2).num, 2)


def point_surface_class(d: ExceptionalClass, q: H4Class) -> H4Class:
    """The generator d^2/8 + q/20 of the overlattice; its denominator in
    lowest terms is 10.

    Satisfies 8*v = (2/5)q + d^2 and pairs with any product a*b as
    b(a,b) + b(d,a)b(d,b)/4.
    """
    dh = d.h2
    return Fraction(1, 8) * sym2_embed(dh, dh) + Fraction(1, 20) * q


def second_chern_class(d: ExceptionalClass, q: H4Class) -> H4Class:
    """24 times the point/surface class minus 3 d^2; equals (6/5)q."""
    dh = d.h2
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

    Its vector methods take an ``H4Class``, whose numerators and
    denominator are ints in lowest terms with den > 0, so they need no
    parse: ``Lattice._multiplier`` of the class's den decides integrality,
    and the class's own numerators go to the solve reader with that
    multiplier, unscaled. ``contains``, ``divisibility`` and ``content``
    all read the content of the solution (``Lattice._content``) and build
    no coordinates.
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
        """Whether v lies in the lattice: its content is not None."""
        return self.content(v) is not None

    def content(self, v: H4Class):
        """The gcd of the coordinates of v in the lattice, 0 for v = 0, or
        None when v is not in the lattice; no coordinate is built."""
        lat = self.lattice
        a = lat._multiplier(v.den)
        return None if a is None else lat._content(v.num, a)

    def divisibility(self, v: H4Class) -> int:
        """Largest n >= 1 with v/n still in the lattice."""
        lat = self.lattice
        return lat._divisibility(v.num, lat._multiplier(v.den))

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


def _glue(d: ExceptionalClass, abasis, q: H4Class) -> list[H4Class]:
    """The 22 half products a(a - d)/2 over ``abasis`` and then the
    denominator-10 class d^2/8 + q/20."""
    return [half_product_class(d, a) for a in abasis] + [point_surface_class(d, q)]


def glue_classes(d: ExceptionalClass | None = None) -> list[H4Class]:
    """The 23 glue classes of an exceptional class d (default: the
    distinguished one): the half products a(a - d)/2 of the basis of d's
    complement and the denominator-10 class, in that order. With Z^276
    they generate the degree-4 lattice built from d."""
    d = DELTA0 if d is None else d
    abasis, _, b_inv = _orth_complement(d)
    return _glue(d, abasis, _q_class(d.h2, abasis, b_inv))


def build_h4_lattice(d: ExceptionalClass | None = None) -> H4Lattice:
    """Construct the full degree-4 lattice from an exceptional class.

    Joins the monomial lattice with the 23 glue classes of d (the 22
    half-product classes of a complement basis and the denominator-10
    class, ``glue_classes``); the result has rank 276 and index 5*2^23
    over the monomial lattice. To decide whether another exceptional class
    gives the same lattice, no second join is needed: the torsion
    quotient's ``generated_by`` certifies that its glue classes generate
    this one by comparing their reduced bases mod 2 and mod 5 with the
    glue code of this one, with no membership solve.
    """
    d = DELTA0 if d is None else d
    abasis, a_gram, b_inv = _orth_complement(d)
    q = _q_class(d.h2, abasis, b_inv)
    glue = _glue(d, abasis, q)
    lat = lattice_join(sym2_lattice(), h4_span(glue))
    if lat.rank != AMBIENT:
        raise ArithmeticError("degree-4 lattice has a rank defect")
    return H4Lattice(lat, d, abasis, a_gram, b_inv, q, glue[-1])


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


def _invariant_factors(ranks: dict[int, int]) -> tuple[int, ...]:
    """The invariant factors of the direct sum of the F_p^(r_p), for the
    p-ranks ``ranks`` = {p: r_p} of distinct primes: d_t = prod of the p
    with r_p >= m - t, for t = 0 .. m - 1 and m the largest r_p."""
    m = max(ranks.values(), default=0)
    return tuple(prod([p for p, r in ranks.items() if r >= m - t]) for t in range(m))


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
    m the largest r_p (``_invariant_factors``). ``__init__`` keeps the
    reduced echelon basis b^(p) of each W_p as ``_codes[p]``
    (``_reduced_basis_mod``; r_2 = 23 and r_5 = 1 give (Z/2)^22 x Z/10);
    prime p fills the last r_p positions. ``class_of`` checks membership,
    reads the pivot entries of den * v mod p and combines them by CRT; the
    lift of e_t is (sum_p e_p * b_t^(p)) / den.
    It lies in L: with Z^276 in L, L is the full preimage of the sum of
    the W_p among the vectors of (1/den) Z^276 (an l in L with the same
    image leaves a difference that is 0 mod the squarefree den, so in
    Z^276), and the lift reduces to b_t^(p) in W_p. The constructor
    certifies the result: den is squarefree, prod p^(r_p) equals
    ``sublattice_index(sym2_lattice(), lattice)``, which also proves that
    Z^276 lies in L, and class_of(lift(e_i)) = e_i for every generator.
    It raises ``ArithmeticError`` otherwise.

    The glue code answers the other group questions, with no Smith form
    and no membership solve: ``subgroup`` from ranks mod p, and
    ``generated_by``, which the h4-torsion suite's ``delta_independence``
    asks about the glue classes of a sampled exceptional class, from
    reduced bases mod p.
    """

    __slots__ = ("h4", "group", "moduli", "_den", "_codes", "_coord_cols", "_lift_rows")

    def __init__(self, h4: H4Lattice):
        self.h4 = h4
        lat = h4.lattice
        den = lat.den
        glue = [row for row in lat._sparse if any(x % den for _, x in row)]
        self._codes = {p: _reduced_basis_mod(glue, p) for p in _squarefree_primes(den)}
        self.moduli = _invariant_factors({p: len(b) for p, b in self._codes.items()})
        m = len(self.moduli)
        # per position: (pivot column, CRT weight e_p) of each prime there,
        # and the numerator sum_p e_p * b_t^(p) of the lift of e_t
        self._coord_cols = [[] for _ in range(m)]
        lifts = [[0] * AMBIENT for _ in range(m)]
        for p, basis in self._codes.items():
            q = den // p
            e = q * pow(q, -1, p)
            for t, (c, row) in enumerate(basis.items(), m - len(basis)):
                self._coord_cols[t].append((c, e))
                for k, x in row:
                    lifts[t][k] += e * x
        self._den = den
        self._lift_rows = _sparse_rows(lifts)
        self.group = FiniteAbelianGroup(self.moduli)
        try:
            index = sublattice_index(sym2_lattice(), lat)
        except NotASublatticeError as exc:
            raise ArithmeticError("the lattice does not contain Z^276") from exc
        if self.order() != index:
            raise ArithmeticError("glue ranks do not give the index of Z^276")
        for i in range(m):
            e = tuple(int(t == i) for t in range(m))
            if self.class_of(self.lift(e)) != e:
                raise ArithmeticError("a generator lift does not return to its class")

    def order(self) -> int:
        return self.group.order()

    def generated_by(self, classes) -> bool:
        """Whether Z^276 and ``classes`` together generate the lattice L.

        True exactly when every den * c is integral and, for each prime p
        of den, the rows den * c mod p have the reduced basis ``_codes[p]``
        (``_reduced_basis_mod`` is canonical for a span).

        Why: on (1/den) Z^276 the map v -> (den * v mod p)_p has kernel
        Z^276, as den is squarefree. L is the full preimage of its image,
        the sum of the W_p, since ``__init__`` certified Z^276 in L. Let M
        be generated by Z^276 and the classes. A non-integral den * c puts
        M outside (1/den) Z^276, which holds L. Otherwise M, which contains
        Z^276, is the full preimage of its own image: the Z-span of the
        images of the classes, which the idempotents e_p split into the
        F_p-spans of the rows mod p. So M = L exactly when each span is W_p.
        """
        den = self._den
        rows = []
        for c in classes:
            if den % c.den:
                return False
            rows.append([den // c.den * x for x in c.num])
        rows = _sparse_rows(rows)
        return all(_reduced_basis_mod(rows, p) == code for p, code in self._codes.items())

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
        """Residue of the denominator-10 class; has order 10."""
        return self.class_of(self.h4.v0)

    def order5_generator(self) -> tuple[int, ...]:
        """Twice the point class: the canonical order-5 element."""
        return self.scale(2, self.point_image())

    def delta_pairing_mod2(self, t) -> tuple[int, ...]:
        """The mod-2 covector a_k -> (lift(t) . a_k . d) on the 23 basis classes.

        All 23 values are the entries of one ``fujiki_product_covector`` of
        the lift against d, each checked to be integral. Well-defined on
        residues because every monomial pairs evenly against products with
        an exceptional class; independence of the lift choice is
        re-verified on demand in the tests rather than assumed.
        """
        theta = self.lift(t)
        cov = fujiki_product_covector(theta, self.h4.delta_used.h2)
        if any(x % theta.den for x in cov):
            raise ArithmeticError("pairing against the lattice must be integral")
        return tuple([x // theta.den % 2 for x in cov])

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
        r = len(_echelon_mod(_sparse_rows(m), 2))
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
        images of the 23 basis classes, as dense 0/1 tuples. With M the
        matrix of the images, they are the I block of the rows of the
        reduced basis of [M | I] mod 2 whose pivot is in that block: the
        reduced basis of the left kernel of M.
        """
        n = len(self.moduli)
        rows = []
        for k in range(RANK):
            t = self.half_product_image(H2Class.basis_vector(k))
            row = []
            for a, d in zip(t, self.moduli):
                half = d // 2
                if a % half:
                    raise ArithmeticError("half-product image is not 2-torsion")
                row.append((a // half) % 2)
            rows.append(row + [int(j == k) for j in range(RANK)])
        basis = _reduced_basis_mod(_sparse_rows(rows), 2)
        return [
            tuple(dict(r).get(n + k, 0) for k in range(RANK)) for c, r in basis.items() if c >= n
        ]

    def subgroup(self, elements) -> FiniteAbelianGroup:
        """Abstract structure of the subgroup generated by residue tuples.

        The moduli are squarefree, so a subgroup is the sum over the
        primes p of den of the F_p-span of the tuples' entries on the
        positions that p divides; their ranks give its invariant factors."""
        elements = list(elements)
        ranks = {}
        for p in self._codes:
            cols = [i for i, d in enumerate(self.moduli) if d % p == 0]
            rows = _sparse_rows([[t[i] for i in cols] for t in elements])
            ranks[p] = len(_echelon_mod(rows, p))
        return FiniteAbelianGroup(_invariant_factors(ranks))


@cache
def default_h4_lattice() -> H4Lattice:
    """The lattice built from the distinguished exceptional class (cached)."""
    return build_h4_lattice()


@cache
def default_torsion_quotient() -> TorsionQuotient:
    """The torsion quotient of ``default_h4_lattice()`` (cached)."""
    return TorsionQuotient(default_h4_lattice())


def double_cover_sym2_matrix() -> Mat:
    """The 276x276 change-of-basis matrix of the double-cover comparison.

    Diagonal: 22 twos (square monomials), 231 ones (mixed monomials), one
    -1, then 22 twos. The -1 row carries the negated inverse complement
    Gram entries; the -1 column carries the complement Gram entries. Its
    determinant, 5*2^45, is the index computation for the quotient group of
    the double cover.
    """
    # the default lattice is built from delta0, whose complement is
    # e_0..e_21, so its Gram is GRAM's leading 22x22 block
    h4 = default_h4_lattice()
    a_rows, b_rows = h4.a_gram, h4.b_inv
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


_MONOMIAL_OF = [[monomial_index(i, j) for j in range(RANK)] for i in range(RANK)]


def _product_num(a: H2Class, b: H2Class) -> dict[int, int]:
    """The nonzero monomial coordinates of sym2_embed(a, b), read off the
    nonzeros of a and b: each a_i*b_j lands on the monomial of {i, j}."""
    bn = [(j, y) for j, y in enumerate(b.coords) if y]
    out: dict[int, int] = {}
    for i, x in enumerate(a.coords):
        if x:
            index = _MONOMIAL_OF[i]
            for j, y in bn:
                c = index[j]
                out[c] = out.get(c, 0) + x * y
    return {c: x for c, x in out.items() if x}


def _combo(terms) -> tuple[int, dict[int, int]]:
    """sum a*x over the pairs (a, x) of ``terms``, for numerator maps
    x = (c, s) meaning c*w + s: an integer multiple of one dense vector w
    plus sparse coordinates s (nonzeros only)."""
    c, s = 0, {}
    for a, (xc, xs) in terms:
        c += a * xc
        for k, x in xs.items():
            s[k] = s.get(k, 0) + a * x
    return c, {k: x for k, x in s.items() if x}


def _dense(x, w) -> list[int]:
    """The AMBIENT coordinates of the numerator map x = (c, s) over w."""
    c, s = x
    row = [c * y for y in w] if c else [0] * AMBIENT
    for k, y in s.items():
        row[k] += y
    return row


def _same(x, y, w) -> bool:
    """Whether the numerator maps x and y over w are the same vector: equal
    multiples of w and equal sparse parts, else entry by entry."""
    if x[0] == y[0]:
        return x[1] == y[1]
    return _dense(x, w) == _dense(y, w)


def verify_cup_product_table(h4: H4Lattice) -> dict:
    """Check the closed-form cup product table against the lattice model.

    The table expresses all pairwise products of the 23 degree-2 basis
    classes over the dictionary basis {v0, v_i, v_ij, u_i} where
    v_i = a_i(a_i - d)/2 - (A_ii/2) v0, v_ij = a_i a_j - A_ij v0, and
    u_i = d a_i. Read backwards, these definitions are the table's entries
    for a_i a_j, a_i^2 and d a_i, which hold by construction and are not
    checked. Checks, in order: d^2 = -v0 - sum_i B_ii (v_i + u_i/2) -
    sum_(i<j) B_ij v_ij with B = A^-1, the one product identity that reads
    the Gram data; membership of every dictionary element in the lattice;
    the dictionary being an actual basis (span equality); 2-divisibility of
    the half products. Each reads False on some wrong v0, A, B or lattice.

    Every class is an integer numerator map over the one denominator
    D = 2*den(v0): (c, s) is c*w + s over D, with w the numerators of v0
    over den(v0) (so v0 is (2, {}) and (A_ii/2)v0 is (A_ii, {})) and s the
    sparse rest. A product a*b is D times the coordinates that
    ``_product_num`` reads off the nonzeros of a and b, a half product
    a(a - d)/2 is den(v0) times those of a*(a - d), and (B_ii/2)u_i is
    den(v0)*B_ii times those of d*a_i, so every coefficient is an integer.
    No ``H4Class`` is built. v0 is not the only dense vector (on the
    default lattice v0 and q each have 76 nonzeros of 276), but it is the
    one that enters the sums: 67 times on the default lattice, leaving a
    multiple of it in 34 dictionary classes. One tracked multiple c saves
    adding its entries each time, and ``_same`` compares two maps with
    equal multiples on their sparse parts alone.

    ``dictionary_is_basis`` compares the Hermite form of the dictionary's
    span with ``h4.lattice``. Equality also proves ``dictionary_integral``:
    every generator lies in its span, which is then the lattice. Only when
    the spans differ is integrality decided by one membership solve per
    element, so the value stays exact on any input.

    Equality proves ``half_products_divisible`` too when every A_ii is
    even: v_i is built as a_i(a_i - d)/2 - (A_ii/2) v0, so the half
    product a_i(a_i - d)/2 = v_i + (A_ii/2) v0 is an integer combination
    of dictionary elements, which then lie in the lattice. Otherwise, with
    the spans different or some A_ii odd, each half product takes one
    membership solve.

    Returns {check_name: bool}; a failed check reads False and the others
    still run.
    """
    dh = h4.delta_used.h2
    abasis = h4.abasis
    A = h4.a_gram
    B = h4.b_inv
    w, h = h4.v0.num, h4.v0.den
    D = 2 * h
    k = len(abasis)
    W = (1, {})  # v0/2
    v0 = (2, {})

    def product(a, b):
        return 0, _product_num(a, b)

    half = [product(a, a - dh) for a in abasis]
    d_a = [product(dh, a) for a in abasis]
    u = [_combo([(D, x)]) for x in d_a]
    v = [_combo([(h, half[i]), (-A[i][i], W)]) for i in range(k)]
    vij = {}
    for i in range(k):
        for j in range(i + 1, k):
            vij[(i, j)] = _combo([(D, product(abasis[i], abasis[j])), (-2 * A[i][j], W)])

    terms = [(-1, v0)]
    for i in range(k):
        if B[i][i]:
            terms += [(-B[i][i], v[i]), (-B[i][i] * h, d_a[i])]
        for j in range(i + 1, k):
            if B[i][j]:
                terms.append((-B[i][j], vij[(i, j)]))
    rhs = _combo(terms)
    dictionary = [v0] + v + list(vij.values()) + u
    # the rows go in over D/g, g a common factor of D and every numerator,
    # so that the span's Hermite rows need no reduction to lowest terms
    g = D
    for c, sp in dictionary:
        g = gcd(g, c, *sp.values())
    rows = [_dense((c // g, {m: x // g for m, x in sp.items()}), w) for c, sp in dictionary]
    lat = h4.lattice
    is_basis = Lattice._from_int_rows(rows, D // g, AMBIENT, fujiki_mat()) == lat
    return {
        "product_exceptional_square": _same(_combo([(D, product(dh, dh))]), rhs, w),
        "dictionary_integral": is_basis or all(lat.contains(r, D // g) for r in rows),
        "dictionary_is_basis": is_basis,
        "half_products_divisible": (is_basis and all(A[i][i] % 2 == 0 for i in range(k)))
        or all(lat.contains(_dense(x, w), 2) for x in half),
    }
