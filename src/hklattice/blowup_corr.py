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
"""

from __future__ import annotations

from itertools import product as _iproduct
from math import lcm

from .exact_linalg import Lattice, Mat, lattice_join, parse_int, saturate_in


class FourfoldH4:
    """Middle-cohomology lattice of a fourfold with its transcendental part."""

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
    def standard(cls, form, transcendental_rows=None) -> "FourfoldH4":
        form = form if isinstance(form, Mat) else Mat(form)
        n = form.shape[0]
        lat = Lattice.standard(n, form=form)
        if transcendental_rows is None:
            t = Lattice._from_int_rows([], 1, n, form)
        else:
            t = Lattice.from_generators(transcendental_rows, ambient_dim=n, form=form)
            t = saturate_in(t, lat)
        return cls(lat, t)


class BlowupCenter:
    """A point, a curve with normal-bundle degree d, or a surface."""

    __slots__ = ("kind", "d", "h2_gram", "transcendental_sub")

    def __init__(self, kind, d=None, h2_gram=None, transcendental_sub=None):
        if kind not in ("point", "curve", "surface"):
            raise ValueError(f"unknown center kind {kind!r}")
        self.kind = kind
        self.d = None
        self.h2_gram = None
        self.transcendental_sub = None
        if kind == "curve":
            if d is None:
                raise ValueError("curve center needs its degree d")
            self.d = parse_int(d)
        elif kind == "surface":
            g = h2_gram if isinstance(h2_gram, Mat) else Mat(h2_gram)
            if not g.is_symmetric():
                raise ValueError("surface degree-2 Gram must be symmetric")
            if not g.is_integer():
                raise ValueError("surface degree-2 Gram must be integral")
            self.h2_gram = g
            k = g.shape[0]
            if transcendental_sub is None:
                transcendental_sub = Lattice._from_int_rows([], 1, k)
            if transcendental_sub.ambient_dim != k:
                raise ValueError("surface transcendental part must match its Gram size")
            self.transcendental_sub = transcendental_sub

    @classmethod
    def point(cls) -> "BlowupCenter":
        return cls("point")

    @classmethod
    def curve(cls, d: int) -> "BlowupCenter":
        return cls("curve", d=d)

    @classmethod
    def surface(cls, h2_gram, transcendental_sub=None) -> "BlowupCenter":
        return cls("surface", h2_gram=h2_gram, transcendental_sub=transcendental_sub)

    def block(self) -> Mat:
        """The Gram block the center contributes to the blown-up fourfold."""
        if self.kind == "point":
            return Mat._of([[-1]], 1)
        if self.kind == "curve":
            return Mat._of([[self.d, -1], [-1, 0]], 1)
        return -1 * self.h2_gram


def _block_diag(a: Mat, b: Mat) -> Mat:
    da, A = a.scaled_int_rows()
    db, B = b.scaled_int_rows()
    D = lcm(da, db)
    fa, fb = D // da, D // db
    rows = [[x * fa for x in r] + [0] * len(B) for r in A]
    rows += [[0] * len(A) + [x * fb for x in r] for r in B]
    return Mat._of(rows, D)


def _place(lat: Lattice, before: int, after: int, form: Mat) -> Lattice:
    """The lattice moved into a larger space, with `before` zero coordinates
    in front of its own and `after` behind them."""
    rows = [[0] * before + list(r) + [0] * after for r in lat.int_basis]
    return Lattice._from_int_rows(rows, lat.den, before + lat.ambient_dim + after, form)


def blowup_h4(y: FourfoldH4, c: BlowupCenter) -> FourfoldH4:
    """Middle cohomology of the blow-up along the center.

    Orthogonal direct sum with the center's block: <-1> for a point,
    [[d,-1],[-1,0]] for a curve of degree d, the negated surface Gram for a
    surface. The transcendental part is unchanged for points and curves; a
    surface center adds its own transcendental sublattice inside the new
    (negated) block.
    """
    block = c.block()
    n = y.lattice.ambient_dim
    k = block.shape[0]
    form = _block_diag(y.lattice.form, block)
    lat = lattice_join(
        _place(y.lattice, 0, k, form), _place(Lattice.standard(k), n, 0, form)
    )
    t = _place(y.transcendental, 0, k, form)
    if c.kind == "surface":
        t = lattice_join(t, _place(c.transcendental_sub, n, 0, form))
    return FourfoldH4(lat, t)


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

    An all-even multiplier list is certified empty without (and regardless
    of) the enumeration: every combination value is then even. The search
    itself is exhaustive over the box, so an empty solution list documents
    emptiness up to the bound.
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
    note = None
    provably_empty = False
    if all(e % 2 == 0 for e in mults):
        provably_empty = True
        note = "all multipliers even: every combination is even, never 1"
    solutions = []
    rng = range(-coeff_bound, coeff_bound + 1)
    for coeffs in _iproduct(rng, repeat=len(mults)):
        if sum(c * c * e for c, e in zip(coeffs, mults)) == 1:
            solutions.append(tuple(coeffs))
    if provably_empty and solutions:
        raise ArithmeticError("parity certificate contradicted by enumeration")
    return CombinationSearchResult(
        mults, coeff_bound, solutions, provably_empty, note
    )


def rational_map_indices() -> tuple[int, int]:
    """Bookkeeping pair of receiving indices for the two projection maps

    attached to a rational fourfold: -1 for the map itself, +1 for its
    resolution twist. Used as inputs to the combination search.
    """
    return (-1, 1)
