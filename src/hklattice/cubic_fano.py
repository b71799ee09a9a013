"""The variety-of-lines specialization.

For a smooth cubic fourfold, the fourfold of lines on it carries the degree-2
polarization g1 of square 6 (even), and a degree-4 class g2 tied to q by

    (1/6) g1^2 - (4/15) g2 = (1/25) q.

Solving for g2 gives (5/8) g1^2 - (3/20) q. ``build_cubic_model`` checks
only its input g1. That g2 is integral, that (g1^2 - g2)/3 is integral and
primitive, that g2 . g1^2 = 45, and that the two classes generate exactly
the rank-2 lattice of integral classes in the span of {g1^2, q} (comparing
``lines_hodge_basis`` with ``hodge_classes.canonical_hodge_lattice``) are
all checked by the cubic suite, each once; none of these is an input. The
Pfaffian check realizes the square-6 even polarization as 2*b - 5*d for a
square-14 class b orthogonal to the exceptional d, which is how the
polarization side condition is established for fourfolds of lines.
"""

from __future__ import annotations

from fractions import Fraction
import random

from .bb_lattice import (
    H2Class,
    bb_form,
    delta0,
    hyperbolic_pair,
    is_even,
    is_primitive,
    polarization_condition,
    sample_exceptional,
    _square_adjusted,
)
from .exact_linalg import Lattice
from .h4_model import (
    H4Class,
    bb_inverse_class,
    default_h4_lattice,
    fujiki_pair,
    h4_span,
    second_chern_class,
    sym2_embed,
)


class CubicModel:
    """The pair (g1, g2) of a fourfold of lines: g1 as checked by
    ``build_cubic_model``, g2 computed from it and q. The facts about g2
    are checks of the cubic suite, not of this class."""

    __slots__ = ("g1", "g2")

    def __init__(self, g1: H2Class, g2: H4Class):
        self.g1 = g1
        self.g2 = g2

    def residual_generator(self) -> H4Class:
        """(g1^2 - g2)/3, the class of the surface of lines through a line."""
        return Fraction(1, 3) * (sym2_embed(self.g1, self.g1) - self.g2)


def build_cubic_model(g1: H2Class) -> CubicModel:
    """The model of a primitive even class of square 6.

    Only the input is checked: primitivity, parity and b(g1, g1) = 6, in
    that order. g2 = (5/8) g1^2 - (3/20) q takes q from the default
    degree-4 lattice. Its integrality, that of the residual class and the
    pairings g1^4 = 108 and g2 . g1^2 = 45 are checks of the cubic suite,
    which report the values they find.
    """
    if not is_primitive(g1):
        raise ValueError("polarization must be primitive")
    if not is_even(g1):
        raise ValueError("polarization of a fourfold of lines is even")
    square = bb_form(g1, g1)
    if square != 6:
        raise ValueError(f"square is {square}, not 6")
    g2 = Fraction(5, 8) * sym2_embed(g1, g1) - Fraction(3, 20) * default_h4_lattice().q
    return CubicModel(g1, g2)


def lines_hodge_basis(m: CubicModel) -> Lattice:
    """The lattice generated by g2 and (g1^2 - g2)/3.

    That it is the whole lattice of integral classes in the rational span
    of g1^2 and q (``hodge_classes.canonical_hodge_lattice``) is one of the
    checks of the cubic suite, not an assumption made here.
    """
    return h4_span([m.g2, m.residual_generator()])


def sample_square6_even(rng: random.Random) -> H2Class:
    """Random even primitive class of square 6: 2*a + c*d0 with odd c.

    Needs b(a, a) = (3 + c^2)/2, an even integer for odd c.
    """
    c = rng.choice((-3, -1, 1, 3, 5))
    a = _square_adjusted(rng, (3 + c * c) // 2)
    return 2 * a + c * delta0()


def pfaffian_polarization(b_class: H2Class) -> H2Class:
    """The square-6 polarization 2b - 5d produced by a square-14 class b
    orthogonal to the exceptional class d; b is checked first."""
    d0 = delta0()
    if not is_primitive(b_class):
        raise ValueError("the square-14 class must be primitive")
    if bb_form(b_class, d0) != 0:
        raise ValueError("the square-14 class must be orthogonal to the exceptional class")
    if bb_form(b_class, b_class) != 14:
        raise ValueError("expected square 14")
    return 2 * b_class - 5 * d0


def default_pfaffian_b() -> H2Class:
    """e1 + 7 f1: square 2*7 = 14, orthogonal to the exceptional class."""
    e1, f1 = hyperbolic_pair(0)
    return e1 + 7 * f1


def pfaffian_check() -> dict:
    """Verify the polarization produced by the square-14 class
    ``default_pfaffian_b()``.

    lambda0 = 2b - 5d has square 4*14 - 25*2 = 6, is even, and satisfies
    the side condition ((10 + 6)/8 = 2, an even integer).
    """
    b_class = default_pfaffian_b()
    l0 = pfaffian_polarization(b_class)
    report = {
        "b_square": bb_form(b_class, b_class),
        "lambda0_square": bb_form(l0, l0),
        "lambda0_even": is_even(l0),
        "lambda0_primitive": is_primitive(l0),
        "assumption_holds": polarization_condition(l0),
    }
    report["ok"] = (
        report["b_square"] == 14
        and report["lambda0_square"] == 6
        and report["lambda0_even"]
        and report["lambda0_primitive"]
        and report["assumption_holds"]
    )
    return report


def c2_consistency(rng: random.Random, trials: int = 3) -> bool:
    """c2 = (6/5) q for the frozen and sampled exceptionals: one comparison
    each, of ``second_chern_class`` (24 v0 - 3 d^2) against (6/5) q.

    ``second_chern_class`` reads ``point_surface_class`` for v0, so a fault
    in either fails the comparison. The reference q is the default
    lattice's, built from the frozen delta; each sampled d builds its own.
    The frozen comparison holds for any q, so c2 . c2 = 828 (Ellingsrud-
    Goettsche-Lehn) pins the reference q.
    """
    h4 = default_h4_lattice()
    sampled = [sample_exceptional(rng) for _ in range(trials)]
    qs = [h4.q] + [bb_inverse_class(d) for d in sampled]
    c2 = Fraction(6, 5) * qs[0]
    return fujiki_pair(c2, c2) == 828 and all(
        second_chern_class(d, q) == c2 for d, q in zip([h4.delta_used, *sampled], qs)
    )
