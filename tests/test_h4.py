"""Degree-4 model: monomial indexing, the intersection form, the integral
lattice and its finite quotient."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklattice.bb_lattice import (
    RANK,
    ExceptionalClass,
    H2Class,
    bb_form,
    delta0,
    hyperbolic_pair,
    sample_exceptional,
    sample_primitive,
)
from hklattice.exact_linalg import _sparse_rows, divisibility, sublattice_index
from hklattice.h4_model import (
    AMBIENT,
    H4Class,
    _reduce_mod,
    bb_inverse_class,
    build_h4_lattice,
    double_cover_sym2_matrix,
    fujiki_det,
    fujiki_pair,
    fujiki_with_product,
    half_product_class,
    monomial_index,
    monomial_pairs,
    point_surface_class,
    second_chern_class,
    sym2_embed,
    sym2_lattice,
    verify_cup_product_table,
)

F = Fraction


class TestMonomials:
    def test_count(self):
        assert AMBIENT == 276
        assert len(monomial_pairs()) == 276

    def test_index_bijection(self):
        seen = set()
        for i, j in monomial_pairs():
            assert 0 <= i <= j < RANK
            k = monomial_index(i, j)
            assert monomial_pairs()[k] == (i, j)
            seen.add(k)
        assert seen == set(range(AMBIENT))

    def test_sym2_embed_single_monomial(self):
        e1, f1 = hyperbolic_pair(0)
        v = sym2_embed(e1, f1)
        k = monomial_index(0, 1)
        coords = list(v.coords())
        assert coords[k] == 1
        assert sum(1 for x in coords if x) == 1

    def test_sym2_symmetric_bilinear(self, rng):
        a, b, c = (sample_primitive(rng) for _ in range(3))
        assert sym2_embed(a, b) == sym2_embed(b, a)
        assert sym2_embed(a + c, b) == sym2_embed(a, b) + sym2_embed(c, b)


class TestH4Class:
    def test_arithmetic_normalization(self):
        v = H4Class.zero()
        w = v + sym2_embed(delta0(), delta0())
        assert not w.is_zero()
        assert (w - w).is_zero()
        assert (F(2, 3) * w).scale(F(3, 2)) == w

    def test_json_roundtrip(self):
        w = F(7, 10) * sym2_embed(delta0(), delta0()) - F(1, 4) * sym2_embed(
            *hyperbolic_pair(1)
        )
        assert H4Class.from_json(w.to_json()) == w

    def test_json_rejects_garbage(self):
        with pytest.raises((ValueError, KeyError)):
            H4Class.from_json({"not a pair": "1"})


class TestFujikiForm:
    def test_q_self_pairing(self, h4):
        assert fujiki_pair(h4.q, h4.q) == 575

    def test_q_against_products(self, h4, rng):
        for _ in range(10):
            a, b = sample_primitive(rng), sample_primitive(rng)
            assert fujiki_with_product(h4.q, a, b) == 25 * bb_form(a, b)
            assert fujiki_pair(h4.q, sym2_embed(a, b)) == 25 * bb_form(a, b)

    def test_delta_squared(self, h4):
        d2 = sym2_embed(delta0(), delta0())
        assert fujiki_pair(d2, d2) == 12
        assert fujiki_pair(h4.v0, d2) == -1

    def test_point_class_normalization(self, h4):
        assert fujiki_pair(h4.v0, h4.v0) == 1
        d2 = sym2_embed(delta0(), delta0())
        assert 8 * h4.v0 == F(2, 5) * h4.q + d2

    def test_v0_pairing_formula(self, h4, rng):
        for _ in range(5):
            a, b = sample_primitive(rng), sample_primitive(rng)
            expect = bb_form(a, b) + F(bb_form(delta0(), a) * bb_form(delta0(), b), 4)
            assert fujiki_with_product(h4.v0, a, b) == expect

    def test_gram_determinant(self):
        assert abs(fujiki_det()) == 25 * 2**46

    def test_fourfold_symmetry(self, rng):
        a, b, c, d = (sample_primitive(rng) for _ in range(4))
        assert fujiki_pair(sym2_embed(a, b), sym2_embed(c, d)) == fujiki_pair(
            sym2_embed(c, d), sym2_embed(a, b)
        )
        assert fujiki_pair(sym2_embed(a, c), sym2_embed(b, d)) == fujiki_with_product(
            sym2_embed(b, d), a, c
        )


class TestInverseFormClass:
    def test_independent_of_exceptional(self, h4, rng):
        d = sample_exceptional(rng)
        assert bb_inverse_class(d) == h4.q

    def test_point_and_chern(self, h4, rng):
        # the point-class formula depends on the chosen exceptional class,
        # but always lands in the lattice with the same invariants
        d = sample_exceptional(rng)
        v = point_surface_class(d)
        assert h4.contains(v)
        assert fujiki_pair(v, v) == 1
        assert 8 * v == F(2, 5) * h4.q + sym2_embed(d.h2, d.h2)
        assert second_chern_class(d) == F(6, 5) * h4.q


class TestIntegralLattice:
    def test_rank_and_unimodularity(self, h4):
        assert h4.lattice.rank == AMBIENT
        assert abs(h4.gram_det()) == 1

    def test_index_of_monomial_lattice(self, h4):
        assert sublattice_index(sym2_lattice(), h4.lattice) == 5 * 2**23

    def test_membership(self, h4, rng):
        assert h4.contains(h4.v0)
        assert h4.contains(F(2, 5) * h4.q)
        assert not h4.contains(F(1, 5) * h4.q)
        assert not h4.contains(F(1, 2) * h4.v0)
        a = sample_primitive(rng)
        assert h4.contains(half_product_class(ExceptionalClass(delta0()), a))

    def test_divisibility_inside(self, h4):
        c2 = second_chern_class(ExceptionalClass(delta0()), h4.q)
        assert divisibility(list(c2.coords()), h4.lattice) == 3
        assert divisibility(list(h4.v0.coords()), h4.lattice) == 1

    def test_delta_independence(self, h4, rng):
        d = sample_exceptional(rng)
        assert build_h4_lattice(d) == h4

    def test_minimal_denominator(self, h4):
        dens = set()
        for row in h4.lattice.basis_rows():
            for x in row:
                dens.add(F(x).denominator)
        assert max(dens) == 10


class TestTorsionQuotient:
    def test_group_shape(self, tq):
        facs = tq.group.invariant_factors
        assert facs == (2,) * 22 + (10,)
        assert tq.group.order() == 5 * 2**23

    def test_point_class_order(self, tq):
        assert tq.element_order(tq.point_image()) == 10

    def test_order5_generator(self, tq):
        w0 = tq.order5_generator()
        assert tq.element_order(w0) == 5
        assert w0 == tq.scale(2, tq.point_image())
        assert tq.subgroup([w0]).invariant_factors == (5,)

    def test_class_of_lattice_elements_vanishes(self, tq, h4):
        assert tq.class_of(h4.v0) != tq.zero()
        assert tq.class_of(10 * h4.v0) == tq.zero()
        assert tq.class_of(sym2_embed(delta0(), delta0())) == tq.zero()

    def test_lift_roundtrip(self, tq):
        t = tq.point_image()
        assert tq.class_of(tq.lift(t)) == t

    def test_pairing_kernel(self, tq):
        assert tq.delta_pairing_kernel_order() == 5
        assert tq.delta_pairing_mod2(tq.order5_generator()) == (0,) * RANK

    def test_half_product_kernel(self, tq):
        ker = tq.half_product_kernel_mod2()
        assert ker == [tuple(c % 2 for c in delta0().coords)]

    def test_pairing_after_half_product_is_form(self, tq):
        for i in range(RANK):
            a = H2Class.basis_vector(i)
            row = tq.delta_pairing_mod2(tq.half_product_image(a))
            assert row == tuple(
                bb_form(a, H2Class.basis_vector(j)) % 2 for j in range(RANK)
            )

    def test_half_product_images_are_2torsion(self, tq, rng):
        for _ in range(5):
            t = tq.half_product_image(sample_primitive(rng))
            assert tq.scale(2, t) == tq.zero()

    def test_pairing_matrix_full_rank(self, tq):
        basis, relations = _reduce_mod(_sparse_rows(tq.delta_pairing_matrix()), 2)
        assert len(basis) == RANK
        assert relations == []


def _mod_matrix(p):
    return st.integers(1, 5 if p == 2 else 4).flatmap(
        lambda m: st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-2 * p, 2 * p), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


@pytest.mark.parametrize("p", [2, 5])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reduce_mod_relations_span_the_left_kernel(p, data):
    rows = data.draw(_mod_matrix(p))
    m, n = len(rows), len(rows[0])
    basis, relations = _reduce_mod(_sparse_rows(rows), p)

    def combine(comb):
        return [sum(a * rows[j][c] for j, a in comb.items()) % p for c in range(n)]

    assert len(basis) + len(relations) == m
    pivots = [c for c, _ in basis]
    assert pivots == sorted(set(pivots))
    for c, comb in basis:
        vec = combine(comb)
        assert [vec[k] for k in pivots] == [int(k == c) for k in pivots]
    for rel in relations:
        assert any(rel.values())
        assert not any(combine(rel))
    # brute force: the relations are independent and span the left kernel,
    # so the vanishing combinations number p^(number of relations)
    vanishing = sum(
        not any(combine(dict(enumerate(x))))
        for x in itertools.product(range(p), repeat=m)
    )
    assert vanishing == p ** len(relations)


def test_double_cover_determinant():
    m = double_cover_sym2_matrix()
    assert m.shape == (AMBIENT, AMBIENT)
    assert m.det() == 5 * 2**45


def test_cup_product_table_strict(h4):
    rep = verify_cup_product_table(h4)
    assert len(rep) == 7 and all(v is True for v in rep.values())


small = st.integers(-3, 3)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(small, min_size=RANK, max_size=RANK),
    st.lists(small, min_size=RANK, max_size=RANK),
)
def test_fast_pairing_agrees_with_gram_row(u_coords, a_coords):
    u = sym2_embed(H2Class(u_coords), H2Class(u_coords))
    a = H2Class(a_coords)
    assert fujiki_with_product(u, a, a) == fujiki_pair(u, sym2_embed(a, a))
