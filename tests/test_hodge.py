"""Algebraic/transcendental splitting, the rank-2 integral span of a
polarization, the minimality search, parity characterizations, torsion
images."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklattice import _pykernels, hodge_classes, kernels
from hklattice.bb_lattice import (
    RANK,
    H2Class,
    bb_form,
    delta0,
    gram_mat,
    hyperbolic_pair,
    sample_polarization_even,
    sample_polarization_odd,
    sample_primitive,
)
from hklattice.exact_linalg import Lattice, Mat, _saturate_rows, saturate_in, sublattice_index
from hklattice.h4_model import (
    AMBIENT,
    H4Class,
    H4Lattice,
    fujiki_mat,
    fujiki_pair,
    h4_span,
    sym2_embed,
)
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
from oracles import h4_coords

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

    def test_rejects_an_unsaturated_lattice(self):
        l0 = _u_pol()
        with pytest.raises(ValueError, match="Picard lattice is not saturated"):
            PicardData(Lattice.from_int_rows([[2 * c for c in l0.coords]]), l0)

    def test_rejects_a_lattice_over_a_denominator(self):
        # Z * l0/2 is not inside Z^23, so it is not its own saturation there
        l0 = _u_pol()
        with pytest.raises(ValueError, match="Picard lattice is not saturated"):
            PicardData(Lattice.from_int_rows([l0.coords], 2), l0)

    def test_accepts_a_saturated_lattice_with_a_non_unit_pivot(self):
        # Z * (2, 1, 0, ...) has HNF pivot 2 and is saturated
        l0 = H2Class([2, 1] + [0] * (RANK - 2))
        p = PicardData(Lattice.from_int_rows([l0.coords]), l0)
        assert p.p_lattice.rank == 1

    @pytest.mark.parametrize(
        "vectors",
        [
            [[2, 2] + [0] * 21],
            [[2, 2] + [0] * 21, [0, 0, 4, 6] + [0] * 19],
            [[1, 1] + [0] * 21, [0, 0, 3, 0, 6] + [0] * 18, [0, 0, 0, 5] + [0] * 18 + [10]],
            [[1, 1] + [0] * 21],
        ],
    )
    def test_from_vectors_is_the_saturation_in_z23(self, vectors, monkeypatch):
        # from_vectors saturates once; rank_one, on a primitive class, never
        saturations = []
        real = hodge_classes._saturated
        monkeypatch.setattr(hodge_classes, "_saturated", lambda lat: saturations.append(lat) or real(lat))
        l0 = _u_pol()
        lat = Lattice.from_int_rows(vectors, form=gram_mat())
        want = saturate_in(lat, Lattice.standard(RANK, form=gram_mat()))
        assert PicardData.from_vectors(vectors, l0).p_lattice == want
        assert len(saturations) == 1
        if want.rank == 1:
            assert PicardData.rank_one(l0).p_lattice == want
            assert len(saturations) == 1

    def test_rejects_negative_square(self):
        with pytest.raises(ValueError):
            PicardData.rank_one(delta0())

    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError, match="polarization must be primitive"):
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
        T =transcendental(PicardData.rank_one(_u_pol()))
        amb = Lattice.standard(RANK, form=gram_mat())
        assert saturate_in(T, amb) == T


class TestCanonicalRank2:
    def test_odd_structure(self, h4):
        l0 = _u_pol()
        V = canonical_hodge_lattice(l0)
        want = Lattice.from_generators(
            [
                list(h4_coords(sym2_embed(l0, l0))),
                list(h4_coords(F(2, 5) * h4.q)),
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
            [list(h4_coords(sym2_embed(l0, l0))), list(h4_coords(gen2))],
            ambient_dim=AMBIENT,
            form=fujiki_mat(),
        )
        assert V == want
        # the even overlattice is strictly bigger than the odd-shape span
        odd_shape = Lattice.from_generators(
            [
                list(h4_coords(sym2_embed(l0, l0))),
                list(h4_coords(F(2, 5) * h4.q)),
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


small_class = st.lists(st.integers(-2, 2), min_size=RANK, max_size=RANK).map(H2Class)


@settings(max_examples=25, deadline=None)
@given(small_class, small_class, st.integers(-3, 3).filter(bool))
def test_degree_4_saturation_from_raw_generators(h4, a, b, k):
    # dependent, rescaled and zero rows among the generators
    aa, ab = sym2_embed(a, a), sym2_embed(a, b)
    classes = [aa, h4.q, k * ab, H4Class._of((0,) * AMBIENT, 1), aa + ab]
    want = saturate_in(h4_span(classes), h4.lattice)
    assert _saturate_rows([c.num for c in classes], h4.lattice) == want


def test_hodge_spans_saturate_without_a_span_lattice(h4, monkeypatch):
    """Saturating straight from the generators takes one Hermite form fewer
    than saturating the lattice ``h4_span`` builds of them, for the same
    lattice."""
    calls = []
    hnf = kernels.hnf
    monkeypatch.setattr(kernels, "hnf", lambda rows: calls.append(1) or hnf(rows))

    def count(fn):
        calls.clear()
        fn()
        return len(calls)

    for l0 in (_u_pol(), _even_pol()):
        gens = [sym2_embed(l0, l0), h4.q]
        span_route = count(lambda: saturate_in(h4_span(gens), h4.lattice))
        assert count(lambda: canonical_hodge_lattice(l0)) == span_route - 1 == 2
        assert canonical_hodge_lattice(l0) == saturate_in(h4_span(gens), h4.lattice)
    e2, f2 = hyperbolic_pair(1)
    for picard in ([_u_pol()], [_even_pol()], [_u_pol(), e2 + 2 * f2]):
        p = PicardData.from_vectors([x.coords for x in picard], picard[0])
        gens = [h4.q] + [sym2_embed(a, b) for i, a in enumerate(picard) for b in picard[i:]]
        span_route = count(lambda: saturate_in(h4_span(gens), h4.lattice))
        rest = count(lambda: transcendental(p))
        assert count(lambda: minimal_class_search(p)) == rest + span_route - 1
        assert minimal_class_search(p).search_lattice == saturate_in(h4_span(gens), h4.lattice)


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
        # writes the search and transcendental lattices once, in the chunks
        # it digests
        written = []
        json_chunks = Lattice._json_chunks

        def recording(self):
            written.append(self)
            return json_chunks(self)

        monkeypatch.setattr(Lattice, "_json_chunks", recording)
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

    def test_one_solve_answers_both_divisors(self, h4, rng, monkeypatch):
        """The two divisibility predicates equal the membership tests of
        sq_diff/2 and sq_diff/8, and take one solve on a multiple of
        sq_diff where the membership tests take one or two: never fewer,
        and two when sq_diff/8 lies in the lattice. A solve is one
        substitution of the kernels' solve plan, whichever reader (the
        coordinates or their content) asks for it."""
        on_sq = []
        substitute = _pykernels._substitute

        def recording(plan, w):
            on_sq.append(w)
            return substitute(plan, w)

        monkeypatch.setattr(_pykernels, "_substitute", recording)
        dh = h4.delta_used.h2
        classes = [sample_primitive(rng) for _ in range(6)]
        classes += [sample_polarization_even(rng, c) for c in (True, False, True)]
        classes += [_even_pol(), _u_pol()]
        div8 = 0
        for l0 in classes:
            sq = sym2_embed(l0, l0) - sym2_embed(dh, dh)

            def solves_on_sq(fn):
                # the solves whose target is a rational multiple of sq
                on_sq.clear()
                out = fn()
                return out, sum(1 for w in on_sq if _parallel(w, sq.num))

            two, membership = solves_on_sq(
                lambda: (h4.contains(F(1, 2) * sq), h4.contains(F(1, 8) * sq))
            )
            preds, one = solves_on_sq(lambda: even_class_predicates(l0))
            assert (preds["square_difference_div_2"], preds["square_difference_div_8"]) == two
            assert one == 1 <= membership
            if two[1]:
                div8 += 1
                assert membership == 2
        assert div8 >= 3

    def test_divisors_read_false_on_a_lattice_without_z276(self, h4, tq, monkeypatch):
        # the span of q misses l0^2 - d^2, so both halves of it are missed too
        narrow = H4Lattice(
            h4_span([h4.q]), h4.delta_used, h4.abasis, h4.a_gram, h4.b_inv, h4.q, h4.v0
        )
        stub = SimpleNamespace(h4=narrow, half_product_image=tq.half_product_image, zero=tq.zero)
        monkeypatch.setattr(hodge_classes, "default_torsion_quotient", lambda: stub)
        preds = even_class_predicates(_even_pol())
        assert not preds["square_difference_div_2"] and not preds["square_difference_div_8"]
        assert preds["even_pairings"] and preds["half_product_reduces_to_zero"]


def _parallel(w, v) -> bool:
    """Whether the integer vectors w and v are nonzero rational multiples
    of each other."""
    i = next((i for i, x in enumerate(v) if x), None)
    return i is not None and w[i] != 0 and all(x * v[i] == y * w[i] for x, y in zip(w, v))


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
