"""Blow-up bookkeeping and the correspondence index calculus.

Blowing up a point, a curve, or a surface inside a fourfold changes the
middle cohomology by an orthogonal summand with a known Gram block, and
leaves the transcendental part untouched except for a surface center, which
contributes its own transcendental sublattice with the negated form. On top
of that sits a small integer calculus for correspondences parametrized by
surfaces: each carries a multiplier e with

    (a(x) . a(y))_S = -e (x . y)_Y

on transcendental classes, disjoint surfaces combine quadratically, and the
question "can a combination reach multiplier exactly 1" is a finite search.
The degree-2 comparison map from the cubic's primitive cohomology to the
fourfold of lines negates the pairing, so a family that receives the
cubic's cohomology with index e pairs with multiplier e against the
canonical form on the fourfold of lines: the index is the multiplier, and
it is minimal exactly when it is 1.

The residue construction (third intersection point of a conic/secant with
the cubic) rescales a multiplier; the literal transform constant is 3 - 2e,
and two conventions for how that constant hits the pairing are kept behind
a flag because they disagree beyond parity (see residue_transform).

A ``FourfoldH4`` is checked by its public constructor; ``standard`` and
``blowup_h4`` build theirs through the trusted ``_of``, as an orthogonal
sum with the integral block of a center keeps every checked fact (see
``blowup_h4``). A ``BlowupCenter`` is checked once, by ``surface``.
"""

from __future__ import annotations

from itertools import product as _iproduct
from math import lcm

from .exact_linalg import Lattice, Mat, parse_int, saturate_in


class FourfoldH4:
    """Middle-cohomology lattice of a fourfold with its transcendental part:
    integral form, saturated T. Checked by the constructor, not by ``_of``."""

    __slots__ = ("lattice", "transcendental")

    def __init__(self, lattice: Lattice, transcendental: Lattice):
        if lattice.form is None:
            raise ValueError("the lattice needs its intersection form")
        if not lattice.gram().is_integer():
            raise ValueError("intersection pairing must be integral on the lattice")
        if transcendental.ambient_dim != lattice.ambient_dim:
            raise ValueError("transcendental part lives in the same ambient space")
        for row in transcendental.int_basis:
            if not lattice.contains(row, transcendental.den):
                raise ValueError("transcendental part must lie in the lattice")
        if saturate_in(transcendental, lattice) != transcendental:
            raise ValueError("transcendental part must be saturated")
        self.transcendental = transcendental.with_form(lattice.form)
        self.lattice = lattice

    @classmethod
    def _of(cls, lattice: Lattice, transcendental: Lattice) -> "FourfoldH4":
        """The pair as given, unchecked; T carries the lattice's form."""
        y = cls.__new__(cls)
        y.lattice = lattice
        y.transcendental = transcendental
        return y

    @classmethod
    def standard(cls, form, transcendental_rows=None) -> "FourfoldH4":
        """Z^n with an integral form, and the saturation in it of the span
        of ``transcendental_rows`` (none by default)."""
        form = form if isinstance(form, Mat) else Mat(form)
        n = form.shape[0]
        lat = Lattice.standard(n, form=form)
        if not form.is_integer():
            raise ValueError("intersection pairing must be integral on the lattice")
        t = Lattice.from_generators(transcendental_rows or [], ambient_dim=n, form=form)
        return cls._of(lat, saturate_in(t, lat))


class BlowupCenter:
    """What blowing up a center adds: an integral Gram block of size k and
    a transcendental part saturated in Z^k. A point adds <-1> and a curve
    of normal-bundle degree d adds [[d, -1], [-1, 0]], with none; a surface
    adds its negated degree-2 Gram and its own, checked by ``surface``.
    """

    __slots__ = ("block", "transcendental")

    def __init__(self, block: Mat, transcendental: Lattice):
        self.block = block
        self.transcendental = transcendental

    @classmethod
    def point(cls) -> "BlowupCenter":
        return cls(Mat._of([[-1]], 1), Lattice._from_int_rows([], 1, 1))

    @classmethod
    def curve(cls, d: int) -> "BlowupCenter":
        d = parse_int(d)
        return cls(Mat._of([[d, -1], [-1, 0]], 1), Lattice._from_int_rows([], 1, 2))

    @classmethod
    def surface(cls, h2_gram, transcendental_sub=None) -> "BlowupCenter":
        g = h2_gram if isinstance(h2_gram, Mat) else Mat(h2_gram)
        if not g.is_symmetric():
            raise ValueError("surface degree-2 Gram must be symmetric")
        if not g.is_integer():
            raise ValueError("surface degree-2 Gram must be integral")
        k = g.shape[0]
        t = Lattice._from_int_rows([], 1, k) if transcendental_sub is None else transcendental_sub
        if t.ambient_dim != k:
            raise ValueError("surface transcendental part must match its Gram size")
        # a part outside Z^k differs from its saturation there too
        if saturate_in(t, Lattice.standard(k, t.form)) != t:
            raise ValueError("surface transcendental part must be saturated in Z^k")
        return cls(-1 * g, t)


def _sum_rows(a, b, n: int, k: int) -> tuple[int, list[list[int]]]:
    """(D, rows): integer rows a = (da, A) on the first n coordinates and
    b = (db, B) on the last k, over D = lcm(da, db)."""
    (da, A), (db, B) = a, b
    D = lcm(da, db)
    rows = [[x * (D // da) for x in r] + [0] * k for r in A]
    rows += [[0] * n + [x * (D // db) for x in r] for r in B]
    return D, rows


def blowup_h4(y: FourfoldH4, c: BlowupCenter) -> FourfoldH4:
    """Middle cohomology of the blow-up along the center: the orthogonal sum
    of Y's lattice with Z^k under the center's block, and of Y's
    transcendental part with the center's.

    It is built unchecked, as the sum keeps the facts ``FourfoldH4``
    checks, proved for Y when Y was made and for the center by its
    constructor: the Gram is Y's and the integral block, with zeros
    between; T_Y lies in L_Y and T_c in Z^k; and T_Y + T_c is saturated,
    as a rational vector of it in L_Y + Z^k has each part in its summand.
    """
    n, k = y.lattice.ambient_dim, c.block.shape[0]
    D, rows = _sum_rows(y.lattice.form.scaled_int_rows(), c.block.scaled_int_rows(), n, k)
    form = Mat._of(rows, D)

    def direct_sum(a: Lattice, b: Lattice) -> Lattice:
        D, rows = _sum_rows((a.den, a.int_basis), (b.den, b.int_basis), n, k)
        return Lattice._from_int_rows(rows, D, n + k, form)

    lat = direct_sum(y.lattice, Lattice.standard(k))
    return FourfoldH4._of(lat, direct_sum(y.transcendental, c.transcendental))


_CONVENTIONS = ("quadratic", "paper")


def residue_transform(e0: int, e: int, convention: str = "quadratic") -> int:
    """Multiplier after the residue (secant/third-point) construction.

    The residue correspondence acts on transcendental classes as
    (3 - 2e) times the original one. Under the quadratic convention the
    induced pairing multiplier scales by (2e-3)^2; the literal convention
    returns e0*(2e-3) as stated where the construction is introduced. The
    two disagree beyond e = 2, but both preserve oddness, which is the only
    property the downstream parity argument consumes; neither is silently
    preferred, and the default is the one forced by bilinearity.
    """
    if e < 2:
        raise ValueError("residue construction needs curve degree e >= 2")
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}")
    k = 2 * e - 3
    return e0 * k * k if convention == "quadratic" else e0 * k


class Correspondence:
    """A labeled surface-parametrized family with its pairing multiplier."""

    __slots__ = ("label", "multiplier")

    def __init__(self, label, multiplier: int):
        self.label = label
        self.multiplier = parse_int(multiplier)

    def __repr__(self):
        return f"Correspondence({self.label!r}, e={self.multiplier})"


class Combination:
    """Integer combination of correspondences over pairwise-distinct labels."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = [(parse_int(c), corr) for c, corr in terms]
        labels = [corr.label for _, corr in terms]
        if len(set(labels)) != len(labels):
            raise ValueError("combination labels must be pairwise distinct")
        self.terms = terms


def combine_pairing(comb: Combination) -> int:
    """Multiplier of a combination: sum of c^2 * e over its terms.

    Disjoint surfaces contribute no cross terms, so the combined
    correspondence pairs as the coefficient-squared-weighted sum.
    """
    return sum(c * c * corr.multiplier for c, corr in comb.terms)


class CombinationSearchResult:
    """Everything potential_jacobian_search found (or ruled out)."""

    __slots__ = ("multipliers", "bound", "solutions", "provably_empty", "note")

    def __init__(self, multipliers, bound, solutions, provably_empty, note):
        self.multipliers = list(multipliers)
        self.bound = bound
        self.solutions = solutions
        self.provably_empty = provably_empty
        self.note = note

    def to_json(self) -> dict:
        return {
            "multipliers": self.multipliers,
            "bound": self.bound,
            "solutions": [list(s) for s in self.solutions],
            "provably_empty": self.provably_empty,
            "note": self.note,
        }


def potential_jacobian_search(
    multipliers, coeff_bound: int
) -> CombinationSearchResult:
    """All integer coefficient tuples with sum c_i^2 e_i = 1, |c_i| <= bound.

    An all-even multiplier list is answered by its parity certificate
    alone, with no enumeration: every combination value is then even, never
    1. Otherwise the search is exhaustive over the box, so an empty
    solution list documents emptiness up to the bound. The box-size limit
    applies to both.
    """
    mults = [parse_int(e) for e in multipliers]
    coeff_bound = parse_int(coeff_bound)
    if coeff_bound < 1:
        raise ValueError("coefficient bound must be at least 1")
    if not mults:
        raise ValueError("need at least one multiplier")
    width = 2 * coeff_bound + 1
    if width ** len(mults) > 20_000_000:
        raise ValueError("search box too large; lower the bound or split")
    if all(e % 2 == 0 for e in mults):
        note = "all multipliers even: every combination is even, never 1"
        return CombinationSearchResult(mults, coeff_bound, [], True, note)
    rng = range(-coeff_bound, coeff_bound + 1)
    solutions = [
        coeffs
        for coeffs in _iproduct(rng, repeat=len(mults))
        if sum(c * c * e for c, e in zip(coeffs, mults)) == 1
    ]
    return CombinationSearchResult(mults, coeff_bound, solutions, False, None)


def rational_map_indices() -> tuple[int, int]:
    """Bookkeeping pair of receiving indices for the two projection maps

    attached to a rational fourfold: -1 for the map itself, +1 for its
    resolution twist. Used as inputs to the combination search.
    """
    return (-1, 1)
