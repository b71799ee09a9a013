"""Blow-up bookkeeping on degree-4 data of a fourfold: Gram blocks,
transcendental transport, residue parities, combination search."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklattice import blowup_corr, cli, exact_linalg
from hklattice.blowup_corr import (
    BlowupCenter,
    Combination,
    CombinationSearchResult,
    Correspondence,
    FourfoldH4,
    blowup_h4,
    combine_pairing,
    potential_jacobian_search,
    rational_map_indices,
    residue_transform,
)
from hklattice.exact_linalg import Lattice, Mat, saturate_in

F = Fraction
U = [[0, 1], [1, 0]]


def _base():
    return FourfoldH4.standard(U, transcendental_rows=[[1, 0]])


class TestFourfold:
    def test_standard(self):
        y = _base()
        assert y.lattice.rank == 2
        assert y.transcendental.rank == 1

    def test_transcendental_must_embed(self):
        bad = Lattice.from_generators([[F(1, 2), 0]], ambient_dim=2)
        with pytest.raises(ValueError):
            FourfoldH4(Lattice.standard(2, form=Mat(U)), bad)


class TestSingleBlowup:
    def test_point_block(self):
        y2 = blowup_h4(_base(), BlowupCenter.point())
        g = y2.lattice.gram()
        assert y2.lattice.rank == 3
        assert g[(2, 2)] == -1
        assert g[(0, 2)] == 0 and g[(1, 2)] == 0

    def test_curve_block(self):
        y2 = blowup_h4(_base(), BlowupCenter.curve(4))
        g = y2.lattice.gram()
        assert y2.lattice.rank == 4
        assert (g[(2, 2)], g[(2, 3)], g[(3, 3)]) == (4, -1, 0)
        blk = Mat([[4, -1], [-1, 0]])
        assert blk.det() == -1

    def test_surface_block_negates(self):
        sub = Lattice.from_generators([[1, 0]], ambient_dim=2)
        c = BlowupCenter.surface(U, transcendental_sub=sub)
        y2 = blowup_h4(_base(), c)
        g = y2.lattice.gram()
        assert (g[(2, 2)], g[(2, 3)], g[(3, 3)]) == (0, -1, 0)

    def test_transcendental_transport(self):
        y = _base()
        yp = blowup_h4(y, BlowupCenter.point())
        assert [list(r) for r in yp.transcendental.basis_rows()] == [[1, 0, 0]]
        sub = Lattice.from_generators([[0, 1]], ambient_dim=2)
        ys = blowup_h4(y, BlowupCenter.surface(U, transcendental_sub=sub))
        assert ys.transcendental.rank == 2
        rows = [list(r) for r in ys.transcendental.basis_rows()]
        assert [1, 0, 0, 0] in rows
        assert [0, 0, 0, 1] in rows


class TestTrustedBlowups:
    """``standard`` and ``blowup_h4`` build through ``FourfoldH4._of``; the
    pairs they build are the ones the checked constructor accepts."""

    def test_surface_refuses_a_part_outside_saturated_z_k(self):
        with pytest.raises(ValueError, match="saturated"):
            BlowupCenter.surface(U, transcendental_sub=Lattice.from_int_rows([[2, 0]]))
        half = Lattice.from_generators([[F(1, 2), 0]], ambient_dim=2)
        with pytest.raises(ValueError, match="Z\\^k"):
            BlowupCenter.surface(U, transcendental_sub=half)

    def test_suite_saturates_at_most_twice_and_checks_nothing(self, monkeypatch):
        calls = {"saturate_in": 0, "checked": 0}
        real_saturate, real_init = blowup_corr.saturate_in, FourfoldH4.__init__

        def saturate(sub, sup):
            calls["saturate_in"] += 1
            return real_saturate(sub, sup)

        def init(self, *args):
            calls["checked"] += 1
            real_init(self, *args)

        monkeypatch.setattr(blowup_corr, "saturate_in", saturate)
        monkeypatch.setattr(exact_linalg, "saturate_in", saturate)
        monkeypatch.setattr(FourfoldH4, "__init__", init)
        rep = cli.run_suite("blowup", seed=0, trials=None, convention="quadratic")
        assert {c["status"] for c in rep["checks"]} == {"pass"}
        assert calls["saturate_in"] <= 2
        assert calls["checked"] == 0


small = st.integers(-4, 4)


@st.composite
def symmetric_forms(draw, k):
    entries = draw(st.lists(small, min_size=k * k, max_size=k * k))
    return [[entries[min(i, j) * k + max(i, j)] for j in range(k)] for i in range(k)]


@st.composite
def saturated_parts(draw, k):
    gens = draw(st.lists(st.lists(small, min_size=k, max_size=k), max_size=k))
    return saturate_in(Lattice.from_int_rows(gens, ambient_dim=k), Lattice.standard(k))


@st.composite
def centers(draw):
    kind = draw(st.sampled_from(["point", "curve", "surface"]))
    if kind == "point":
        return BlowupCenter.point()
    if kind == "curve":
        return BlowupCenter.curve(draw(small))
    k = draw(st.integers(1, 3))
    return BlowupCenter.surface(draw(symmetric_forms(k)), transcendental_sub=draw(saturated_parts(k)))


@st.composite
def bases(draw):
    k = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(small, min_size=k, max_size=k), max_size=k))
    return FourfoldH4.standard(draw(symmetric_forms(k)), transcendental_rows=rows)


@settings(max_examples=60, deadline=None)
@given(bases(), st.lists(centers(), max_size=4))
def test_trusted_fourfolds_equal_the_checked_constructor(y, seq):
    for c in seq + [None]:
        checked = FourfoldH4(y.lattice, y.transcendental)
        assert checked.lattice == y.lattice
        assert checked.transcendental == y.transcendental
        if c is not None:
            y = blowup_h4(y, c)


class TestSequence:
    def test_mixed_sequence(self):
        out = _base()
        for c in (BlowupCenter.point(), BlowupCenter.curve(3), BlowupCenter.surface(U)):
            out = blowup_h4(out, c)
        assert out.lattice.rank == 2 + 1 + 2 + 2


class TestResidue:
    def test_values(self):
        assert residue_transform(1, 2, "quadratic") == 1
        assert residue_transform(1, 2, "paper") == 1
        assert residue_transform(3, 3, "quadratic") == 27
        assert residue_transform(3, 3, "paper") == 9
        assert residue_transform(5, 4, "quadratic") == 125
        assert residue_transform(5, 4, "paper") == 25

    def test_parity_preserved(self):
        for conv in ("quadratic", "paper"):
            for e0 in (1, 3, 5):
                for e in (2, 3, 4):
                    assert residue_transform(e0, e, conv) % 2 == 1

    def test_rejects_degree_one(self):
        with pytest.raises(ValueError):
            residue_transform(1, 1, "quadratic")
        with pytest.raises(ValueError):
            residue_transform(1, 2, "other")


class TestCombinations:
    def test_pairing(self):
        c = Combination([(1, Correspondence("a", 3)), (2, Correspondence("b", 2))])
        assert combine_pairing(c) == 3 + 4 * 2

    def test_distinct_labels(self):
        with pytest.raises(ValueError):
            Combination([(1, Correspondence("a", 3)), (1, Correspondence("a", 2))])

    def test_search_unit(self):
        r = potential_jacobian_search([1], 2)
        assert sorted(r.solutions) == [(-1,), (1,)]
        assert not r.provably_empty

    def test_search_all_even_certified_empty(self):
        r = potential_jacobian_search([2, 4], 5)
        assert r.solutions == []
        assert r.provably_empty
        assert r.note

    def test_search_odd_empty_not_certified(self):
        r = potential_jacobian_search([3, 2], 5)
        assert r.solutions == []
        assert not r.provably_empty

    def test_search_mixed_signs(self):
        r = potential_jacobian_search([-1, 1], 1)
        assert (0, 1) in r.solutions and (0, -1) in r.solutions

    def test_search_all_even_answers_from_its_certificate(self, monkeypatch):
        def enumerate_box(*args, **kwargs):
            raise AssertionError("the box was enumerated")

        monkeypatch.setattr(blowup_corr, "_iproduct", enumerate_box)
        r = potential_jacobian_search([2, 2, 2, 2, 2], 13)
        assert (r.solutions, r.provably_empty) == ([], True)
        # the box-size limit still comes first
        with pytest.raises(ValueError):
            potential_jacobian_search([2] * 12, 10)

    def test_box_capped(self):
        with pytest.raises(ValueError):
            potential_jacobian_search([1] * 12, 10)

    def test_result_json(self):
        r = potential_jacobian_search([1], 1)
        obj = r.to_json()
        assert isinstance(r, CombinationSearchResult)
        assert obj["multipliers"] == [1]
        assert obj["provably_empty"] is False


def test_rational_map_indices():
    assert rational_map_indices() == (-1, 1)


class TestStrictIntegers:
    """Degrees, multipliers, coefficients and bounds are exact integers: a
    float is never truncated and a bool never becomes 1."""

    @pytest.mark.parametrize("bad", [5.9, True])
    def test_curve_degree(self, bad):
        with pytest.raises(TypeError):
            BlowupCenter.curve(bad)

    @pytest.mark.parametrize("bad", [2.7, True])
    def test_correspondence_multiplier(self, bad):
        with pytest.raises(TypeError):
            Correspondence("a", bad)

    @pytest.mark.parametrize("bad", [1.9, True])
    def test_combination_coefficient(self, bad):
        with pytest.raises(TypeError):
            Combination([(bad, Correspondence("a", 3))])

    @pytest.mark.parametrize(
        "multipliers, bound", [([1.5], 1), ([True], 1), ([1], True)]
    )
    def test_search_inputs(self, multipliers, bound):
        with pytest.raises(TypeError):
            potential_jacobian_search(multipliers, bound)

    def test_transcendental_rows(self):
        with pytest.raises(TypeError):
            FourfoldH4.standard(U, transcendental_rows=[[1.0, 0]])
