"""Classes the library builds itself skip the input checks of the public
constructors. Every such result must equal, in storage and hash, the class
the checking constructor builds from the same numbers, and the public
constructors must still refuse floats, bools and a zero denominator."""

import contextlib
import io
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklattice import bb_lattice, cli
from hklattice.bb_lattice import (
    RANK,
    H2Class,
    sample_exceptional,
    sample_polarization_even,
    sample_polarization_odd,
    sample_primitive,
)
from hklattice.h4_model import AMBIENT, H4Class, build_h4_lattice, monomial_pairs, sym2_embed

F = Fraction

nonzero_den = st.integers(-12, 12).filter(bool)


@st.composite
def h4_classes(draw):
    """A sparse degree-4 class num/den, built by the checking constructor."""
    entries = draw(st.dictionaries(st.integers(0, AMBIENT - 1), st.integers(-60, 60), max_size=10))
    num = [0] * AMBIENT
    for k, x in entries.items():
        num[k] = x
    return H4Class(num, draw(nonzero_den))


h2_classes = st.lists(st.integers(-9, 9), min_size=RANK, max_size=RANK).map(H2Class)
# sparse classes, where whole rows of the product vanish
sparse_h2_classes = st.dictionaries(
    st.integers(0, RANK - 1), st.integers(-40, 40), max_size=4
).map(lambda d: H2Class([d.get(i, 0) for i in range(RANK)]))
scalars = st.integers(-7, 7) | st.builds(F, st.integers(-7, 7), st.integers(1, 9))


def same(got, want):
    """Equal storage and hash, and the storage the checking path keeps."""
    assert type(got.num) is tuple and all(type(x) is int for x in got.num)
    assert (got.num, got.den) == (want.num, want.den)
    assert hash(got) == hash(want)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(h4_classes(), h4_classes(), scalars)
def test_h4_arithmetic_matches_checked_constructor(a, b, c):
    da, db = a.den, b.den
    same(a + b, H4Class([x * db + y * da for x, y in zip(a.num, b.num)], da * db))
    same(a - b, H4Class([x * db - y * da for x, y in zip(a.num, b.num)], da * db))
    c = F(c)
    want = H4Class([c.numerator * x for x in a.num], da * c.denominator)
    same(a.scale(c), want)
    same(c * a, want)
    if c.denominator == 1:
        same(a.scale(c.numerator), want)
        same(c.numerator * a, want)


@settings(max_examples=200, deadline=None)
@given(h2_classes | sparse_h2_classes, h2_classes | sparse_h2_classes)
def test_sym2_embed_matches_checked_constructor(a, b):
    ac, bc = a.coords, b.coords
    want = [
        ac[i] * bc[i] if i == j else ac[i] * bc[j] + ac[j] * bc[i]
        for i, j in monomial_pairs()
    ]
    same(sym2_embed(a, b), H4Class(want, 1))


@settings(max_examples=150, deadline=None)
@given(h2_classes, h2_classes, st.integers(-7, 7))
def test_h2_arithmetic_matches_checked_constructor(a, b, c):
    def same2(got, coords):
        want = H2Class(coords)
        assert type(got.coords) is tuple and all(type(x) is int for x in got.coords)
        assert got.coords == want.coords and hash(got) == hash(want) and got == want

    same2(a + b, [x + y for x, y in zip(a.coords, b.coords)])
    same2(a - b, [x - y for x, y in zip(a.coords, b.coords)])
    same2(c * a, [c * x for x in a.coords])


def test_built_classes_match_checked_constructor(tq):
    for i in range(RANK):
        e = H2Class.basis_vector(i)
        assert e.coords == H2Class([int(j == i) for j in range(RANK)]).coords
    rng = random.Random(3)
    sampled = [sample_polarization_odd(rng) for _ in range(4)]
    sampled += [sample_polarization_even(rng, k % 2 == 0) for k in range(4)]
    sampled += [sample_exceptional(rng).h2 for _ in range(4)]
    sampled += [sample_primitive(rng) for _ in range(4)]
    for x in sampled:
        assert all(type(v) is int for v in x.coords)
        assert H2Class(x.coords) == x and hash(H2Class(x.coords)) == hash(x)
    k = len(tq.moduli)
    for t in [tuple(int(i == j) for j in range(k)) for i in range(k)] + [tuple(range(k))]:
        v = tq.lift(t)
        same(v, H4Class(v.num, v.den))
        assert tq.class_of(v) == tuple(x % d for x, d in zip(t, tq.moduli))


def test_h2_operands_are_strict():
    a = H2Class([0] * RANK)
    for bad in (1, "a", 0.5, (0,) * RANK, H4Class([0] * AMBIENT)):
        with pytest.raises(TypeError):
            a + bad
        with pytest.raises(TypeError):
            a - bad
        with pytest.raises(TypeError):
            bad + a
        with pytest.raises(TypeError):
            bad - a


def test_public_constructors_refuse_unchecked_input():
    zeros = [0] * AMBIENT
    for bad in ([0.0] + zeros[1:], [True] + zeros[1:], ["1"] + zeros[1:]):
        with pytest.raises(TypeError):
            H4Class(bad)
    for den in (True, 2.0, "2"):
        with pytest.raises(TypeError):
            H4Class(zeros, den)
    with pytest.raises(ZeroDivisionError):
        H4Class(zeros, 0)
    with pytest.raises(ValueError):
        H4Class(zeros[1:])
    for bad in ([1.0] + [0] * (RANK - 1), [False] * RANK):
        with pytest.raises(TypeError):
            H2Class(bad)
    with pytest.raises(ValueError):
        H2Class([0] * (RANK - 1))
    a = H2Class.basis_vector(0)
    for c in (2.0, True, F(1, 2)):
        with pytest.raises(TypeError):
            c * a
    with pytest.raises(TypeError):
        H4Class(zeros).scale(0.5)


def test_no_exceptional_class_is_proved_twice(monkeypatch):
    """Every exceptional class of a run is made by ``make_exceptional`` or is
    the distinguished one, both proved where they are made, so a run and a
    fresh default lattice never ask ``is_exceptional``."""
    calls = []
    real = bb_lattice.is_exceptional

    def counting(a):
        calls.append(a)
        return real(a)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "hklattice" and getattr(mod, "is_exceptional", None) is real:
            monkeypatch.setattr(mod, "is_exceptional", counting)
    build_h4_lattice()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "all", "--seed", "7", "--json"]) == 0
    assert calls == []
