"""The variety-of-lines specialization.

For a smooth cubic fourfold, the fourfold of lines on it carries the degree-2
polarization g1 of square 6 (even), and a degree-4 class g2 tied to q by

    (1/6) g1^2 - (4/15) g2 = (1/25) q.

Solving for g2 gives (5/8) g1^2 - (3/20) q. That this class is integral
and that (g1^2 - g2)/3 is integral and primitive are checked by
``build_cubic_model``. That the two of them generate exactly the rank-2
lattice of integral classes in the span of {g1^2, q} is checked by the
cubic suite, which compares ``lines_hodge_basis`` with
``hodge_classes.canonical_hodge_lattice``; none of these is an input. The
Pfaffian check realizes the square-6 even polarization as 2*b - 5*d for a
square-14 class b orthogonal to the exceptional d, which is how the
polarization side condition is established for fourfolds of lines.
"""

from __future__ import annotations

from fractions import Fraction
import random

from .bb_lattice import (
    ExceptionalClass,
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
    point_surface_class,
    second_chern_class,
    sym2_embed,
)


class CubicModel:
    """Validated (g1, g2) pair for a fourfold of lines."""

    __slots__ = ("g1", "g2")

    def __init__(self, g1: H2Class, g2: H4Class):
        self.g1 = g1
        self.g2 = g2

    def residual_generator(self) -> H4Class:
        """(g1^2 - g2)/3, the class of the surface of lines through a line."""
        return Fraction(1, 3) * (sym2_embed(self.g1, self.g1) - self.g2)


def build_cubic_model(g1: H2Class) -> CubicModel:
    """Construct and fully validate the model for a square-6 even class.

    The square is not assumed: the fourth power 3*b(g1,g1)^2 must come out
    to 108, pinning b(g1,g1) = 6; parity and primitivity are checked, then
    every integrality and intersection invariant of the model, in the
    default degree-4 lattice.
    """
    h4 = default_h4_lattice()
    if not is_primitive(g1):
        raise ValueError("polarization must be primitive")
    if not is_even(g1):
        raise ValueError("polarization of a fourfold of lines is even")
    sq = sym2_embed(g1, g1)
    g14 = fujiki_pair(sq, sq)
    if g14 != 108:
        raise ValueError(
            f"fourth power is {g14}, not 108: square is not 6"
        )
    q = h4.q
    g2 = Fraction(5, 8) * sq - Fraction(3, 20) * q
    model = CubicModel(g1, g2)
    if not h4.contains(g2):
        raise ArithmeticError("g2 fell outside the integral lattice")
    resid = model.residual_generator()
    if not h4.contains(resid):
        raise ArithmeticError("(g1^2 - g2)/3 fell outside the integral lattice")
    if h4.divisibility(resid) != 1:
        raise ArithmeticError("(g1^2 - g2)/3 is not primitive")
    if fujiki_pair(g2, sq) != 45:
        raise ArithmeticError("g2 . g1^2 is not 45")
    # (1/8)((2/5)q + g1^2) is the even-case lattice generator; it must agree
    # with the residual class
    if Fraction(1, 8) * (Fraction(2, 5) * q + sq) != resid:
        raise ArithmeticError("residual class differs from the even generator")
    return model


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
    out = 2 * a + c * delta0()
    assert is_even(out) and bb_form(out, out) == 6
    return out


class PfaffianModel:
    """The square-14 class and the square-6 polarization it produces."""

    __slots__ = ("b_class", "lambda0")

    def __init__(self, b_class: H2Class):
        d0 = delta0()
        if not is_primitive(b_class):
            raise ValueError("the square-14 class must be primitive")
        if bb_form(b_class, d0) != 0:
            raise ValueError("the square-14 class must be orthogonal to the exceptional class")
        if bb_form(b_class, b_class) != 14:
            raise ValueError("expected square 14")
        self.b_class = b_class
        self.lambda0 = 2 * b_class - 5 * d0


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
    model = PfaffianModel(b_class)
    l0 = model.lambda0
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
    """(1/3)(24 v0 - 3 d^2) = (2/5) q for the frozen and sampled exceptionals.

    Also checks the equivalent form 8 v0 = (2/5) q + d^2 each time.
    """
    deltas = [ExceptionalClass(delta0())]
    for _ in range(trials):
        deltas.append(sample_exceptional(rng))
    # q is built once from each delta; the frozen delta's is the reference
    qs = [bb_inverse_class(d) for d in deltas]
    tfq = Fraction(2, 5) * qs[0]
    for d, q in zip(deltas, qs):
        dsq = sym2_embed(d.h2, d.h2)
        v0 = point_surface_class(d, q)
        if Fraction(1, 3) * (24 * v0 - 3 * dsq) != tfq:
            return False
        if 8 * v0 != tfq + dsq:
            return False
        if second_chern_class(d, q) != 3 * tfq:
            return False
    return True
