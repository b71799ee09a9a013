"""Fourfolds of lines: the degree-6 polarization model, its distinguished
degree-4 classes, and the rank-14 construction."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from hklattice.bb_lattice import (
    H2Class,
    bb_form,
    delta0,
    hyperbolic_pair,
    is_even,
    is_primitive,
)
from hklattice.cubic_fano import (
    build_cubic_model,
    c2_consistency,
    default_pfaffian_b,
    lines_hodge_basis,
    pfaffian_check,
    pfaffian_polarization,
    sample_square6_even,
)
from hklattice.exact_linalg import divisibility
from hklattice.h4_model import fujiki_pair, fujiki_with_product, sym2_embed
from hklattice.hodge_classes import (
    PicardData,
    canonical_hodge_lattice,
    minimal_class_search,
    transcendental,
)

F = Fraction


def _g1():
    e1, f1 = hyperbolic_pair(0)
    return 2 * (e1 + f1) + delta0()


class TestModel:
    def test_numbers(self, h4):
        m = build_cubic_model(_g1())
        sq = sym2_embed(m.g1, m.g1)
        assert fujiki_pair(sq, sq) == 108
        assert fujiki_pair(m.g2, sq) == 45
        assert fujiki_pair(m.g2, m.g2) == 27
        assert h4.contains(m.g2)

    def test_residual_class(self, h4):
        m = build_cubic_model(_g1())
        resid = m.residual_generator()
        assert 3 * resid == sym2_embed(m.g1, m.g1) - m.g2
        assert resid == F(1, 8) * (F(2, 5) * h4.q + sym2_embed(m.g1, m.g1))
        assert h4.contains(resid)
        assert divisibility(list(resid.coords()), h4.lattice) == 1

    def test_lines_basis_is_canonical_span(self):
        m = build_cubic_model(_g1())
        assert lines_hodge_basis(m) == canonical_hodge_lattice(m.g1)

    def test_g2_annihilates_transcendental(self):
        m = build_cubic_model(_g1())
        T = transcendental(PicardData.rank_one(m.g1))
        rows = [H2Class([int(x) for x in r]) for r in T.basis_rows()]
        for a, b in combinations_with_replacement(rows, 2):
            assert fujiki_with_product(m.g2, a, b) == 0

    def test_rejects_odd(self):
        e1, f1 = hyperbolic_pair(0)
        with pytest.raises(ValueError):
            build_cubic_model(e1 + 3 * f1)  # square 6 but odd

    def test_rejects_wrong_square(self):
        e1, f1 = hyperbolic_pair(0)
        l0 = 2 * (e1 + 3 * f1) + delta0()  # even but square 22
        assert is_even(l0)
        with pytest.raises(ValueError):
            build_cubic_model(l0)

    def test_rank1_minimality_obstruction(self):
        rep = minimal_class_search(PicardData.rank_one(_g1()))
        assert not rep.feasible
        assert rep.image_generator == 2


class TestSampler:
    def test_square6_even(self, rng):
        for _ in range(8):
            g = sample_square6_even(rng)
            assert bb_form(g, g) == 6
            assert is_primitive(g) and is_even(g)

    def test_sampled_models_build(self, rng):
        for _ in range(2):
            m = build_cubic_model(sample_square6_even(rng))
            assert lines_hodge_basis(m) == canonical_hodge_lattice(m.g1)


class TestPfaffian:
    def test_default_b(self):
        b = default_pfaffian_b()
        assert bb_form(b, b) == 14
        assert bb_form(b, delta0()) == 0

    def test_check_report(self):
        rep = pfaffian_check()
        assert rep["b_square"] == 14
        assert rep["lambda0_square"] == 6
        assert rep["lambda0_even"] is True
        assert rep["lambda0_primitive"] is True
        assert rep["assumption_holds"] is True
        assert rep["ok"] is True

    def test_polarization(self):
        l0 = pfaffian_polarization(default_pfaffian_b())
        assert bb_form(l0, l0) == 6
        assert l0 == 2 * default_pfaffian_b() - 5 * delta0()

    def test_rejects_bad_b(self):
        e1, f1 = hyperbolic_pair(0)
        with pytest.raises(ValueError):
            pfaffian_polarization(e1 + f1)  # wrong square
        with pytest.raises(ValueError):
            pfaffian_polarization(e1 + 7 * f1 + delta0())  # not orthogonal to delta


def test_c2_consistency(rng):
    assert c2_consistency(trials=2, rng=rng) is True
