"""Algebraic/transcendental splitting, the rank-2 integral span of a
polarization, the minimality search, parity characterizations, torsion
images."""

from fractions import Fraction

import pytest

from hklattice.bb_lattice import (
    RANK,
    H2Class,
    bb_form,
    delta0,
    hyperbolic_pair,
    sample_polarization_even,
    sample_polarization_odd,
    sample_primitive,
)
from hklattice.exact_linalg import Lattice, Mat, sublattice_index
from hklattice.h4_model import AMBIENT, fujiki_mat, fujiki_pair, sym2_embed
from hklattice.hodge_classes import (
    DegenerateTranscendentalError,
    PicardData,
    algebraic_quotient_bound,
    canonical_hodge_lattice,
    even_class_predicates,
    hodge_image_in_torsion,
    minimal_class_search,
    minimality_scalar,
    transcendental,
)

F = Fraction


def _u_pol():
    e1, f1 = hyperbolic_pair(0)
    return e1 + f1  # odd, square 2


def _even_pol():
    return 2 * _u_pol() + delta0()  # even, square 6, side condition holds


class TestPicardData:
    def test_rank_one(self):
        p = PicardData.rank_one(_u_pol())
        assert p.p_lattice.rank == 1
        assert p.p_lattice.contains(list(_u_pol().coords))

    def test_from_vectors_saturates(self):
        l0 = _u_pol()
        p = PicardData.from_vectors([[2 * c for c in l0.coords]], l0)
        assert p.p_lattice.contains(list(l0.coords))

    def test_rejects_negative_square(self):
        with pytest.raises(ValueError):
            PicardData.rank_one(delta0())

    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            PicardData.rank_one(2 * _u_pol())

    def test_rejects_lambda_outside(self):
        e2, f2 = hyperbolic_pair(1)
        with pytest.raises(ValueError):
            PicardData.from_vectors([list(delta0().coords)], e2 + f2)


class TestTranscendental:
    def test_rank_complementary(self):
        T = transcendental(PicardData.rank_one(_u_pol()))
        assert T.rank == RANK - 1

    def test_orthogonality(self):
        p = PicardData.from_vectors(
            [list(delta0().coords), list(_u_pol().coords)], _even_pol()
        )
        T = transcendental(p)
        assert T.rank == RANK - 2
        for row in T.basis_rows():
            t = H2Class([int(x) for x in row])
            assert bb_form(t, delta0()) == 0
            assert bb_form(t, _u_pol()) == 0

    def test_saturated(self):
        from hklattice.bb_lattice import gram_mat
        from hklattice.exact_linalg import saturate_in

        T = transcendental(PicardData.rank_one(_u_pol()))
        amb = Lattice.standard(RANK, form=gram_mat())
        assert saturate_in(T, amb) == T


class TestCanonicalRank2:
    def test_odd_structure(self, h4):
        l0 = _u_pol()
        V = canonical_hodge_lattice(l0)
        want = Lattice.from_generators(
            [
                list(sym2_embed(l0, l0).coords()),
                list((F(2, 5) * h4.q).coords()),
            ],
            ambient_dim=AMBIENT,
            form=fujiki_mat(),
        )
        assert V == want

    def test_even_structure(self, h4):
        l0 = _even_pol()
        V = canonical_hodge_lattice(l0)
        gen2 = F(1, 8) * (sym2_embed(l0, l0) + F(2, 5) * h4.q)
        want = Lattice.from_generators(
            [list(sym2_embed(l0, l0).coords()), list(gen2.coords())],
            ambient_dim=AMBIENT,
            form=fujiki_mat(),
        )
        assert V == want
        # the even overlattice is strictly bigger than the odd-shape span
        odd_shape = Lattice.from_generators(
            [
                list(sym2_embed(l0, l0).coords()),
                list((F(2, 5) * h4.q).coords()),
            ],
            ambient_dim=AMBIENT,
            form=fujiki_mat(),
        )
        assert sublattice_index(odd_shape, V) == 8

    def test_gram_of_named_generators(self, h4):
        for l0 in (_u_pol(), _even_pol()):
            b0 = bb_form(l0, l0)
            sq = sym2_embed(l0, l0)
            tq5 = F(2, 5) * h4.q
            g = Mat(
                [
                    [fujiki_pair(sq, sq), fujiki_pair(sq, tq5)],
                    [fujiki_pair(tq5, sq), fujiki_pair(tq5, tq5)],
                ]
            )
            assert g == Mat([[3 * b0 * b0, 10 * b0], [10 * b0, 92]])
            assert g.det() == 176 * b0 * b0


class TestMinimality:
    def test_functional_values(self, h4):
        T = transcendental(PicardData.rank_one(_u_pol()))
        assert minimality_scalar(h4.q, T) == 25
        assert minimality_scalar(F(2, 5) * h4.q, T) == 10
        assert minimality_scalar(sym2_embed(_u_pol(), _u_pol()), T) == 2

    def test_non_constant_ratio_rejected(self):
        T = transcendental(PicardData.rank_one(_u_pol()))
        e2, f2 = hyperbolic_pair(1)
        with pytest.raises(ValueError):
            minimality_scalar(sym2_embed(e2, e2), T)

    def test_degenerate_transcendental(self):
        # algebraic part = everything orthogonal to an isotropic vector;
        # the complement is spanned by that isotropic vector itself
        e1 = hyperbolic_pair(0)[0]
        rows = [
            list(H2Class.basis_vector(i).coords) for i in range(RANK) if i != 1
        ]
        e2, f2 = hyperbolic_pair(1)
        p = PicardData.from_vectors(rows, e2 + f2)
        T = transcendental(p)
        assert T.rank == 1
        assert bb_form(e1, e1) == 0
        with pytest.raises(DegenerateTranscendentalError):
            minimality_scalar(sym2_embed(e1, e1), T)

    def test_rank1_odd_infeasible(self, rng):
        for _ in range(3):
            l0 = sample_polarization_odd(rng)
            rep = minimal_class_search(PicardData.rank_one(l0))
            assert not rep.feasible
            assert rep.witness is None
            assert rep.image_generator == 2

    def test_rank1_even_infeasible(self, rng):
        l0 = sample_polarization_even(rng, True)
        rep = minimal_class_search(PicardData.rank_one(l0))
        assert not rep.feasible
        assert rep.image_generator % 2 == 0

    def test_positive_control(self, h4):
        l0 = _even_pol()
        p = PicardData.from_vectors(
            [list(delta0().coords), list(_u_pol().coords)], l0
        )
        rep = minimal_class_search(p)
        assert rep.feasible and rep.image_generator == 1
        assert rep.witness is not None
        assert h4.contains(rep.witness)
        assert minimality_scalar(rep.witness, transcendental(p)) == 1

    def test_report_json_and_hash_deterministic(self):
        l0 = _u_pol()
        r1 = minimal_class_search(PicardData.rank_one(l0))
        r2 = minimal_class_search(PicardData.rank_one(l0))
        assert r1.to_json() == r2.to_json()
        assert len(r1.basis_hash) == 16

    def test_basis_hash_is_computed_when_read(self, monkeypatch):
        # the search serializes no lattice; the first read of basis_hash
        # writes the search and transcendental lattices once
        written = []
        json_text = Lattice.json_text

        def recording(self):
            written.append(self)
            return json_text(self)

        monkeypatch.setattr(Lattice, "json_text", recording)
        rep = minimal_class_search(PicardData.rank_one(_u_pol()))
        assert written == []
        h = rep.basis_hash
        assert written == [rep.search_lattice, rep.transcendental_lattice]
        assert rep.to_json()["basis_hash"] == rep.basis_hash == h
        assert len(written) == 2

    def test_isometry_invariance(self, rng):
        # swapping the first two hyperbolic planes is an isometry; the
        # image ideal of the functional is unchanged
        def swap(v: H2Class) -> H2Class:
            c = list(v.coords)
            c[0], c[1], c[2], c[3] = c[2], c[3], c[0], c[1]
            return H2Class(c)

        for _ in range(3):
            l0 = sample_polarization_odd(rng)
            g1 = minimal_class_search(PicardData.rank_one(l0)).image_generator
            g2 = minimal_class_search(PicardData.rank_one(swap(l0))).image_generator
            assert g1 == g2


class TestParityPredicates:
    def test_even_class_all_true(self):
        preds = even_class_predicates(_even_pol())
        assert len(preds) == 6
        assert all(preds.values())

    def test_odd_class_all_false(self):
        preds = even_class_predicates(_u_pol())
        assert not any(preds.values())

    def test_sextuple_agreement_sampled(self, rng):
        for k in range(12):
            if k % 3 == 0:
                l0 = sample_polarization_even(rng, bool(k % 2))
            else:
                l0 = sample_primitive(rng)
            preds = even_class_predicates(l0)
            assert len(set(preds.values())) == 1, (list(l0.coords), preds)


class TestTorsionImages:
    def test_image_orders(self):
        assert hodge_image_in_torsion(_u_pol()).invariant_factors == (5,)
        assert hodge_image_in_torsion(_even_pol()).invariant_factors == (10,)

    def test_quotient_bounds(self):
        assert algebraic_quotient_bound(_u_pol()).invariant_factors == (3,)
        assert algebraic_quotient_bound(_even_pol()).invariant_factors == (24,)

    def test_sampled_orders(self, rng):
        l0 = sample_polarization_odd(rng)
        assert hodge_image_in_torsion(l0).invariant_factors == (5,)
        l0 = sample_polarization_even(rng, True)
        assert hodge_image_in_torsion(l0).invariant_factors == (10,)
