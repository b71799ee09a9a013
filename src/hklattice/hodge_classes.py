"""Algebraic/transcendental splitting and the minimal-class search.

Picard data is a saturated sublattice P of the rank-23 lattice together
with a distinguished primitive class of positive square. The module
computes the transcendental complement, the rank-2 lattice of integral
classes rationally spanned by the square of the polarization and the
canonical dual class q, the minimality functional

    m(v)  defined by  (v . a . b) = m * b(a, b)   for all a, b transcendental,

and decides whether m = 1 is achievable by an integral class in the span
of Sym^2(P) and q. The search is complete for that span; producing a class
with m = 1 outside it would contradict the rank-2 structure theorem the
span restriction rests on, so feasibility here is the whole story at the
lattice level (effectivity of a witness is out of scope).

The degree-4 lattice does not depend on the exceptional class it is built
from, so every function here reads the cached ``default_h4_lattice()`` and
``default_torsion_quotient()`` itself and takes none as an argument.
That independence is checked for sampled exceptional classes: by the
h4-torsion suite's ``delta_independence``, through the glue code mod 2
and mod 5 (``TorsionQuotient.generated_by``), and by the tests, which also
build the lattices. No finite group here needs a Smith form.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from fractions import Fraction
from math import gcd

from .bb_lattice import (
    RANK,
    ExceptionalClass,
    H2Class,
    _perp_rows,
    bb_form,
    decompose_even,
    gram_mat,
    is_even,
    is_primitive,
)
from .exact_linalg import (
    FiniteAbelianGroup,
    Lattice,
    _combine_rows,
    _frac_str,
    _saturate_rows,
    coset_feasible,
    int_vector,
    saturate_in,
)
from .h4_model import (
    AMBIENT,
    H4Class,
    default_h4_lattice,
    default_torsion_quotient,
    fujiki_mat,
    fujiki_product_covector,
    second_chern_class,
    sym2_embed,
)


class DegenerateTranscendentalError(ValueError):
    """The transcendental part is too small or too degenerate to constrain m."""


class PicardData:
    """A saturated algebraic sublattice, checked against a polarization.

    ``p_lattice`` lives in the standard rank-23 ambient; the polarization
    ``lambda0`` must be a primitive class of positive square lying in it.
    Both the rank of P and of its complement must be at least 1. Only the
    public constructor checks that its lattice is saturated in Z^23:
    ``rank_one`` and ``from_vectors`` build theirs saturated.
    """

    __slots__ = ("p_lattice",)

    def __init__(self, p_lattice: Lattice, lambda0: H2Class):
        if p_lattice.ambient_dim != RANK:
            raise ValueError(f"Picard lattice must live in dimension {RANK}")
        if p_lattice.den != 1 or _saturated(p_lattice) != p_lattice:
            raise ValueError("Picard lattice is not saturated")
        _check_picard(p_lattice, lambda0)
        self.p_lattice = p_lattice

    @classmethod
    def _of(cls, p_lattice: Lattice) -> "PicardData":
        """The data of a saturated lattice the library built and checked,
        without the checks of the constructor."""
        p = cls.__new__(cls)
        p.p_lattice = p_lattice
        return p

    @classmethod
    def rank_one(cls, lambda0: H2Class) -> "PicardData":
        """Z * lambda0, saturated as lambda0 is primitive: b divides every
        coordinate of lambda0 if (a/b) lambda0 is integral, gcd(a, b) = 1."""
        _check_polarization(lambda0)
        return cls._of(Lattice._from_int_rows([lambda0.coords], 1, RANK, gram_mat()))

    @classmethod
    def from_vectors(cls, vectors, lambda0: H2Class) -> "PicardData":
        """Saturated span of the given integer vectors; must contain lambda0."""
        if isinstance(vectors, (str, Mapping)):
            raise TypeError(f"expected an array of integer arrays, got {vectors!r}")
        rows = [int_vector(v) for v in vectors]
        lat = _saturated(Lattice._from_int_rows(rows, 1, RANK, gram_mat()))
        _check_picard(lat, lambda0)
        return cls._of(lat)


def _saturated(lat: Lattice) -> Lattice:
    """The saturation of a lattice in Z^23, its Q-span meet Z^23."""
    return saturate_in(lat, Lattice.standard(RANK, lat.form))


def _check_picard(lat: Lattice, l0: H2Class) -> None:
    """Raise ``ValueError`` unless lat has rank 1 to 22 and holds the
    polarization l0, checked in that order."""
    if not (1 <= lat.rank <= RANK - 1):
        raise ValueError("Picard rank must be between 1 and 22")
    _check_polarization(l0)
    if not lat.contains(l0.coords):
        raise ValueError("polarization must lie in the Picard lattice")


def _check_polarization(l0: H2Class) -> None:
    """Raise ``ValueError`` unless l0 is primitive and of positive square,
    checked in that order."""
    if not is_primitive(l0):
        raise ValueError("polarization must be primitive")
    if bb_form(l0, l0) <= 0:
        raise ValueError("polarization must have positive square")


def transcendental(p: PicardData) -> Lattice:
    """The saturated orthogonal complement of the Picard lattice
    (``bb_lattice._perp_rows`` of its basis).
    """
    # PicardData is saturated in Z^23, so its basis rows are integral
    prows = p.p_lattice.int_basis
    kern = _perp_rows([H2Class._of(pr) for pr in prows])
    if len(kern) != RANK - len(prows):
        raise DegenerateTranscendentalError(
            "pairing matrix dropped rank; complement is not a true complement"
        )
    return Lattice._from_int_rows(kern, 1, RANK, gram_mat())


def canonical_hodge_lattice(l0: H2Class) -> Lattice:
    """Integral classes in the rational span of the polarization square and q.

    Always rank 2. For an odd polarization the result is Z*l0^2 + Z*(2/5)q;
    for an even one the second generator tightens to (l0^2 + (2/5)q)/8.

    Saturated straight from the numerators of l0^2 and q
    (``_saturate_rows``); rank 2 also proves the two independent.
    """
    h4 = default_h4_lattice()
    _check_polarization(l0)
    V = _saturate_rows([sym2_embed(l0, l0).num, h4.q.num], h4.lattice)
    if V.rank != 2:
        raise ArithmeticError("polarization square and q failed independence")
    return V


def _t_basis(T: Lattice) -> list[H2Class]:
    """The canonical basis of a sublattice of Z^23 as classes."""
    if T.den != 1:
        raise ValueError("lattice is not integral")
    return [H2Class._of(row) for row in T.int_basis]


def minimality_scalar(v: H4Class, T: Lattice) -> Fraction:
    """The unique m with (v . a . b) = m * b(a, b) on the given lattice.

    Checked on every basis pair: pairs with b(a, b) = 0 must pair to zero
    with v, pairs with b(a, b) != 0 must give one constant ratio. Each basis
    vector a gives one ``fujiki_product_covector`` of v against a, and
    (v . a . b) for every later b is a dot product with it. Raises
    ValueError when the ratio is not constant (v lies outside the
    admissible span) and DegenerateTranscendentalError when no pair
    constrains m at all.
    """
    if T.rank < 2:
        raise DegenerateTranscendentalError("need rank >= 2 to pin the scalar")
    basis = _t_basis(T)
    m = None
    for i, a in enumerate(basis):
        cov = fujiki_product_covector(v, a)
        for b in basis[i:]:
            # (v . a . b) = val / v.den
            val = sum([x * y for x, y in zip(b.coords, cov)])
            bab = bb_form(a, b)
            if bab == 0:
                if val != 0:
                    raise ValueError(
                        "no scalar exists: nonzero product over a null pairing"
                    )
            else:
                r = Fraction(val, v.den * bab)
                if m is None:
                    m = r
                elif r != m:
                    raise ValueError("no scalar exists: ratio is not constant")
    if m is None:
        raise DegenerateTranscendentalError("all basis pairs are null")
    return m


class MinimalityReport:
    """Outcome of the minimal-class search over one Picard datum.

    ``basis_hash`` is the first 16 hex digits of a SHA-256 over the JSON
    text of the search lattice and then of the transcendental lattice. It
    is computed when first read, since only the report's JSON shows it,
    and the text is fed to the digest in the chunks of
    ``Lattice._json_chunks``: the Fujiki form's kept bytes are hashed in
    place, with no text of the whole lattice built.
    """

    __slots__ = (
        "search_lattice",
        "image_generator",
        "feasible",
        "witness",
        "delta_used",
        "transcendental_lattice",
        "_basis_hash",
    )

    def __init__(
        self,
        search_lattice: Lattice,
        image_generator: Fraction,
        feasible: bool,
        witness: H4Class | None,
        delta_used: ExceptionalClass,
        transcendental_lattice: Lattice,
    ):
        self.search_lattice = search_lattice
        self.image_generator = image_generator
        self.feasible = feasible
        self.witness = witness
        self.delta_used = delta_used
        self.transcendental_lattice = transcendental_lattice
        self._basis_hash = None

    @property
    def basis_hash(self) -> str:
        if self._basis_hash is None:
            h = hashlib.sha256()
            for lat in (self.search_lattice, self.transcendental_lattice):
                for chunk in lat._json_chunks():
                    h.update(chunk)
            self._basis_hash = h.hexdigest()[:16]
        return self._basis_hash

    def to_json(self) -> dict:
        return {
            "image_generator": _frac_str(self.image_generator),
            "feasible": self.feasible,
            "witness": None if self.witness is None else self.witness.to_json(),
            "search_rank": self.search_lattice.rank,
            "delta_used": list(self.delta_used.h2.coords),
            "basis_hash": self.basis_hash,
        }


def minimal_class_search(p: PicardData) -> MinimalityReport:
    """Search the integral classes in span(Sym^2 P, q) for one with m = 1.

    The functional m is linear on that span (products of Picard classes pair
    against transcendental pairs only through the form of the pair, and q
    pairs as 25 times the form), so on the search lattice it is a rational
    covector; the image is a cyclic subgroup g*Z of Q and m = 1 is feasible
    exactly when 1 lies in it. The witness, when produced, is re-verified
    against the full basis-pair identity.

    The search lattice is saturated straight from the numerators of q and
    of the products of Picard basis classes (``_saturate_rows``).
    """
    h4 = default_h4_lattice()
    T = transcendental(p)
    if T.rank < 2:
        raise DegenerateTranscendentalError("transcendental rank below 2")
    pbasis = _t_basis(p.p_lattice)
    gens = [h4.q.num]
    for i, a in enumerate(pbasis):
        for b in pbasis[i:]:
            gens.append(sym2_embed(a, b).num)
    search = _saturate_rows(gens, h4.lattice)

    # one transcendental pair with nonzero form turns m into an ambient covector
    tbasis = _t_basis(T)
    pair = None
    for i, a in enumerate(tbasis):
        for b in tbasis[i:]:
            if bb_form(a, b):
                pair = (a, b)
                break
        if pair:
            break
    if pair is None:
        raise DegenerateTranscendentalError("form vanishes on the complement")
    s = sym2_embed(*pair)
    c = bb_form(*pair)
    # m is the covector cov / cov_den: the pairing against the product s
    (cov,) = _combine_rows([s.num], fujiki_mat().sparse_rows(), AMBIENT)
    cov_den = s.den * c
    if cov_den < 0:
        cov, cov_den = [-x for x in cov], -cov_den
    # the image m(search) is g*Z with g >= 0
    feasible, wit_num, g = coset_feasible(search, cov, 1, cov_den)
    witness = None
    if feasible:
        witness = H4Class._of(wit_num, search.den)
        if minimality_scalar(witness, T) != 1:
            raise ArithmeticError("witness failed re-verification across pairs")

    return MinimalityReport(search, g, feasible, witness, h4.delta_used, T)


def hodge_image_in_torsion(l0: H2Class) -> FiniteAbelianGroup:
    """Image of the rank-2 integral span in the finite quotient.

    Cyclic of order 5 for an odd polarization and 10 for an even one; the
    square of the polarization itself always lands on zero.
    """
    tq = default_torsion_quotient()
    V = canonical_hodge_lattice(l0)
    gens = [tq.class_of(H4Class._of(row, V.den)) for row in V.int_basis]
    return tq.subgroup(gens)


def algebraic_quotient_bound(l0: H2Class) -> FiniteAbelianGroup:
    """Quotient of the rank-2 span by its two unconditional algebraic classes.

    The polarization square and the degree-4 characteristic class
    24*v0 - 3*d^2 always lie in the span; the quotient they generate bounds
    the group of integral classes modulo algebraic ones from above: Z/3 for
    odd polarizations, Z/24 for even ones. The invariant factors are the
    determinantal divisors of the 2x2 coordinate matrix (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4): d1 = gcd of the entries,
    d1 * d2 = |det|.
    """
    h4 = default_h4_lattice()
    V = canonical_hodge_lattice(l0)
    c2 = second_chern_class(h4.delta_used, h4.q)
    (a, b), (c, d) = [V.coords(v.num, v.den) for v in (sym2_embed(l0, l0), c2)]
    d1 = gcd(a, b, c, d)
    return FiniteAbelianGroup([x for x in (d1, abs(a * d - b * c) // d1) if x > 1])


def even_class_predicates(l0: H2Class) -> dict[str, bool]:
    """Six equivalent characterizations of evenness for a primitive class.

    All six booleans must agree for every primitive class and every choice
    of exceptional class; the equivalence is asserted by the test suite on
    random samples rather than assumed here. ``decomposes_over_exceptional``
    is ``decompose_even``'s own parity test, not a second ``is_even``.

    The divisibility predicates share one substitution: sq_diff/n lies in
    the lattice exactly when sq_diff does and n divides the content of its
    coordinates (``H4Lattice.content``, 0 when sq_diff = 0). An integer
    sq_diff = l0^2 - d^2 misses only a lattice without Z^276, and then
    both read False.
    """
    tq = default_torsion_quotient()
    if not is_primitive(l0):
        raise ValueError("predicates apply to primitive classes")
    h4 = tq.h4
    d = h4.delta_used
    dh = d.h2
    diff = l0 - dh
    congruent = all(c % 2 == 0 for c in diff.coords)
    div = h4.content(sym2_embed(l0, l0) - sym2_embed(dh, dh))
    try:
        decompose_even(l0, d)
        decomposes = True
    except ValueError:
        decomposes = False
    return {
        "even_pairings": is_even(l0),
        "congruent_to_exceptional_mod_2": congruent,
        "square_difference_div_2": div is not None and div % 2 == 0,
        "square_difference_div_8": div is not None and div % 8 == 0,
        "half_product_reduces_to_zero": tq.half_product_image(l0) == tq.zero(),
        "decomposes_over_exceptional": decomposes,
    }
