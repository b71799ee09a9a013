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
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd

from . import kernels
from .bb_lattice import (
    GRAM,
    RANK,
    ExceptionalClass,
    H2Class,
    bb_form,
    decompose_even,
    gram_mat,
    is_even,
    is_primitive,
)
from .exact_linalg import (
    FiniteAbelianGroup,
    Lattice,
    coset_feasible,
    int_vector,
    parse_rational,
    quotient_invariants,
    saturate_in,
)
from .h4_model import (
    AMBIENT,
    H4Class,
    H4Lattice,
    TorsionQuotient,
    default_h4_lattice,
    default_torsion_quotient,
    fujiki_rows,
    fujiki_with_product,
    h4_span,
    second_chern_class,
    sym2_embed,
)


class DegenerateTranscendentalError(ValueError):
    """The transcendental part is too small or too degenerate to constrain m."""


class PicardData:
    """A saturated algebraic sublattice with a distinguished polarization.

    ``p_lattice`` lives in the standard rank-23 ambient; ``lambda0`` must be
    a primitive class of positive square lying in it. Both the rank of P and
    of its complement must be at least 1.
    """

    __slots__ = ("p_lattice", "lambda0")

    def __init__(self, p_lattice: Lattice, lambda0: H2Class):
        if p_lattice.ambient_dim != RANK:
            raise ValueError(f"Picard lattice must live in dimension {RANK}")
        if not (1 <= p_lattice.rank <= RANK - 1):
            raise ValueError("Picard rank must be between 1 and 22")
        ambient = Lattice.standard(RANK, form=p_lattice.form)
        if saturate_in(p_lattice, ambient) != p_lattice:
            raise ValueError("Picard lattice is not saturated")
        if not is_primitive(lambda0):
            raise ValueError("polarization must be primitive")
        if bb_form(lambda0, lambda0) <= 0:
            raise ValueError("polarization must have positive square")
        if not p_lattice.contains_int(lambda0.coords):
            raise ValueError("polarization must lie in the Picard lattice")
        self.p_lattice = p_lattice
        self.lambda0 = lambda0

    @classmethod
    def rank_one(cls, lambda0: H2Class) -> "PicardData":
        lat = Lattice.from_int_rows([lambda0.coords], 1, RANK, gram_mat())
        return cls(lat, lambda0)

    @classmethod
    def from_vectors(cls, vectors, lambda0: H2Class) -> "PicardData":
        """Saturated span of the given integer vectors; must contain lambda0."""
        rows = [int_vector(v) for v in vectors]
        lat = Lattice.from_int_rows(rows, 1, RANK, gram_mat())
        lat = saturate_in(lat, Lattice.standard(RANK, form=gram_mat()))
        return cls(lat, lambda0)

    def to_json(self) -> dict:
        return {
            "basis": [[str(x) for x in row] for row in _int_rows(self.p_lattice)],
            "lambda0": self.lambda0.to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "PicardData":
        if isinstance(obj, str):
            obj = json.loads(obj)
        l0 = H2Class.from_json(obj["lambda0"])
        vecs = [[_integer(parse_rational(x)) for x in row] for row in obj["basis"]]
        return cls.from_vectors(vecs, l0)


def _integer(x: Fraction) -> int:
    if x.denominator != 1:
        raise ValueError(f"expected an integer, got {x}")
    return x.numerator


def _int_rows(lat: Lattice):
    """The canonical basis of a sublattice of Z^23 as integer rows."""
    if lat.den != 1:
        raise ValueError("lattice is not integral")
    return lat.int_basis


def transcendental(p: PicardData | Lattice) -> Lattice:
    """The saturated orthogonal complement of the Picard lattice.

    Accepts full Picard data or a bare sublattice (useful for complements of
    negative-definite pieces, which carry no polarization). Rows of the
    pairing matrix of the ambient basis against the Picard basis feed the
    HNF transform; the rows of the transform below the rank line are a
    basis of the saturated left kernel, i.e. of the complement.
    """
    plat = p.p_lattice if isinstance(p, PicardData) else p
    prows = _int_rows(plat)
    pairing = [
        [sum(GRAM[k][l] * pr[l] for l in range(RANK) if pr[l]) for pr in prows]
        for k in range(RANK)
    ]
    _, U, rank = kernels.hnf_transform(pairing)
    if rank != len(prows):
        raise DegenerateTranscendentalError(
            "pairing matrix dropped rank; complement is not a true complement"
        )
    return Lattice.from_int_rows(U[rank:], 1, RANK, gram_mat())


def canonical_hodge_lattice(l0: H2Class, h4: H4Lattice | None = None) -> Lattice:
    """Integral classes in the rational span of the polarization square and q.

    Always rank 2. For an odd polarization the result is Z*l0^2 + Z*(2/5)q;
    for an even one the second generator tightens to (l0^2 + (2/5)q)/8.
    """
    if h4 is None:
        h4 = default_h4_lattice()
    if not is_primitive(l0):
        raise ValueError("polarization must be primitive")
    if bb_form(l0, l0) <= 0:
        raise ValueError("polarization must have positive square")
    span = h4_span([sym2_embed(l0, l0), h4.q])
    if span.rank != 2:
        raise ArithmeticError("polarization square and q failed independence")
    # h4.lattice lies in (1/den) Z^276, so saturating there equals saturating
    # in Z^276, scaling by 1/den and meeting with the lattice
    V = saturate_in(span, h4.lattice)
    if V.rank != 2:
        raise ArithmeticError("integral span is not rank 2")
    return V


def _t_basis(T: Lattice) -> list[H2Class]:
    return [H2Class(row) for row in _int_rows(T)]


def minimality_scalar(v: H4Class, T: Lattice) -> Fraction:
    """The unique m with (v . a . b) = m * b(a, b) on the given lattice.

    Checked on every basis pair: pairs with b(a, b) = 0 must pair to zero
    with v, pairs with b(a, b) != 0 must give one constant ratio. Raises
    ValueError when the ratio is not constant (v lies outside the
    admissible span) and DegenerateTranscendentalError when no pair
    constrains m at all.
    """
    if T.rank < 2:
        raise DegenerateTranscendentalError("need rank >= 2 to pin the scalar")
    basis = _t_basis(T)
    m = None
    for i, a in enumerate(basis):
        for b in basis[i:]:
            val = fujiki_with_product(v, a, b)
            bab = bb_form(a, b)
            if bab == 0:
                if val != 0:
                    raise ValueError(
                        "no scalar exists: nonzero product over a null pairing"
                    )
            else:
                r = val / bab
                if m is None:
                    m = r
                elif r != m:
                    raise ValueError("no scalar exists: ratio is not constant")
    if m is None:
        raise DegenerateTranscendentalError("all basis pairs are null")
    return m


class MinimalityReport:
    """Outcome of the minimal-class search over one Picard datum."""

    __slots__ = (
        "search_lattice",
        "image_generator",
        "feasible",
        "witness",
        "delta_used",
        "basis_hash",
    )

    def __init__(
        self, search_lattice, image_generator, feasible, witness, delta_used, basis_hash
    ):
        self.search_lattice = search_lattice
        self.image_generator = image_generator
        self.feasible = feasible
        self.witness = witness
        self.delta_used = delta_used
        self.basis_hash = basis_hash

    def to_json(self) -> dict:
        g = self.image_generator
        return {
            "image_generator": str(g.numerator)
            if g.denominator == 1
            else f"{g.numerator}/{g.denominator}",
            "feasible": self.feasible,
            "witness": None if self.witness is None else self.witness.to_json(),
            "search_rank": self.search_lattice.rank,
            "delta_used": list(self.delta_used.h2.coords),
            "basis_hash": self.basis_hash,
        }


def minimal_class_search(
    p: PicardData, h4: H4Lattice | None = None
) -> MinimalityReport:
    """Search the integral classes in span(Sym^2 P, q) for one with m = 1.

    The functional m is linear on that span (products of Picard classes pair
    against transcendental pairs only through the form of the pair, and q
    pairs as 25 times the form), so on the search lattice it is a rational
    covector; the image is a cyclic subgroup g*Z of Q and m = 1 is feasible
    exactly when 1 lies in it. The witness, when produced, is re-verified
    against the full basis-pair identity.
    """
    if h4 is None:
        h4 = default_h4_lattice()
    T = transcendental(p)
    if T.rank < 2:
        raise DegenerateTranscendentalError("transcendental rank below 2")
    pbasis = _t_basis(p.p_lattice)
    gens = [h4.q]
    for i, a in enumerate(pbasis):
        for b in pbasis[i:]:
            gens.append(sym2_embed(a, b))
    search = saturate_in(h4_span(gens), h4.lattice)

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
    cov = [0] * AMBIENT
    for x, grow in zip(s.num, fujiki_rows()):
        if x:
            cov = [a + x * y for a, y in zip(cov, grow)]
    cov_den = s.den * c
    # the image m(search) is g*Z with g >= 0 the gcd of the basis values
    values = [sum(f * x for f, x in zip(cov, row) if f) for row in search.int_basis]
    g = Fraction(gcd(*values), abs(cov_den) * search.den)
    feasible, wit_vec = coset_feasible(
        search, [Fraction(f, cov_den) for f in cov], 1
    )
    witness = None
    if feasible:
        witness = H4Class.from_fractions(wit_vec)
        if minimality_scalar(witness, T) != 1:
            raise ArithmeticError("witness failed re-verification across pairs")

    h = hashlib.sha256()
    h.update(search.json_text().encode())
    h.update(T.json_text().encode())
    return MinimalityReport(
        search, g, feasible, witness, h4.delta_used, h.hexdigest()[:16]
    )


def hodge_image_in_torsion(
    l0: H2Class, tq: TorsionQuotient | None = None
) -> FiniteAbelianGroup:
    """Image of the rank-2 integral span in the finite quotient.

    Cyclic of order 5 for an odd polarization and 10 for an even one; the
    square of the polarization itself always lands on zero.
    """
    if tq is None:
        tq = default_torsion_quotient()
    V = canonical_hodge_lattice(l0, tq.h4)
    gens = [tq.class_of(H4Class(row, V.den)) for row in V.int_basis]
    return tq.subgroup(gens)


def algebraic_quotient_bound(
    l0: H2Class, h4: H4Lattice | None = None
) -> FiniteAbelianGroup:
    """Quotient of the rank-2 span by its two unconditional algebraic classes.

    The polarization square and the degree-4 characteristic class
    24*v0 - 3*d^2 always lie in the span; the quotient they generate bounds
    the group of integral classes modulo algebraic ones from above: Z/3 for
    odd polarizations, Z/24 for even ones.
    """
    if h4 is None:
        h4 = default_h4_lattice()
    V = canonical_hodge_lattice(l0, h4)
    c2 = second_chern_class(h4.delta_used, h4.q)
    return quotient_invariants(h4_span([sym2_embed(l0, l0), c2]), V)


def even_class_predicates(
    l0: H2Class, tq: TorsionQuotient | None = None
) -> dict[str, bool]:
    """Six equivalent characterizations of evenness for a primitive class.

    All six booleans must agree for every primitive class and every choice
    of exceptional class; the equivalence is asserted by the test suite on
    random samples rather than assumed here.
    """
    if tq is None:
        tq = default_torsion_quotient()
    if not is_primitive(l0):
        raise ValueError("predicates apply to primitive classes")
    h4 = tq.h4
    d = h4.delta_used
    dh = d.h2
    diff = l0 - dh
    congruent = all(c % 2 == 0 for c in diff.coords)
    sq_diff = sym2_embed(l0, l0) - sym2_embed(dh, dh)
    try:
        decompose_even(l0, d)
        decomposes = True
    except (ValueError, ArithmeticError):
        decomposes = False
    return {
        "even_pairings": is_even(l0),
        "congruent_to_exceptional_mod_2": congruent,
        "square_difference_div_2": h4.contains(Fraction(1, 2) * sq_diff),
        "square_difference_div_8": h4.contains(Fraction(1, 8) * sq_diff),
        "half_product_reduces_to_zero": tq.half_product_image(l0) == tq.zero(),
        "decomposes_over_exceptional": decomposes,
    }
