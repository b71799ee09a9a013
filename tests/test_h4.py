"""Degree-4 model: monomial indexing, the intersection form, the integral
lattice and its finite quotient."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

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
from hklattice import kernels
from hklattice.exact_linalg import (
    Lattice,
    _echelon_mod,
    _reduced_basis_mod,
    _sparse_rows,
    divisibility,
    lattice_join,
    sublattice_index,
)
from hklattice.h4_model import (
    AMBIENT,
    H4Class,
    H4Lattice,
    bb_inverse_class,
    build_h4_lattice,
    default_h4_lattice,
    default_torsion_quotient,
    double_cover_sym2_matrix,
    fujiki_det,
    fujiki_mat,
    fujiki_pair,
    fujiki_with_product,
    h4_span,
    half_product_class,
    monomial_index,
    monomial_pairs,
    point_surface_class,
    second_chern_class,
    sym2_embed,
    sym2_lattice,
    verify_cup_product_table,
)
from oracles import h4_coords

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
        coords = list(h4_coords(v))
        assert coords[k] == 1
        assert sum(1 for x in coords if x) == 1

    def test_sym2_symmetric_bilinear(self, rng):
        a, b, c = (sample_primitive(rng) for _ in range(3))
        assert sym2_embed(a, b) == sym2_embed(b, a)
        assert sym2_embed(a + c, b) == sym2_embed(a, b) + sym2_embed(c, b)
        # a square (equal coordinates) against the product of two classes
        assert sym2_embed(a + c, a + c) == sym2_embed(a, a) + 2 * sym2_embed(a, c) + sym2_embed(c, c)
        x = a.coords
        assert list(sym2_embed(a, a).num) == [x[i] * x[j] * (1 if i == j else 2) for i, j in monomial_pairs()]


class TestH4Class:
    def test_arithmetic_normalization(self):
        zero = H4Class([0] * AMBIENT)
        w = zero + sym2_embed(delta0(), delta0())
        assert w != zero
        assert w - w == zero
        assert (F(2, 3) * w).scale(F(3, 2)) == w

    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, AMBIENT - 1),
            st.fractions(min_value=-30, max_value=30, max_denominator=12),
            max_size=6,
        ),
        st.one_of(
            st.just(F(0)),
            st.sampled_from([F(-1), F(-6, 5), F(5, 6), F(2, 3), F(-4, 9), F(12)]),
            st.fractions(min_value=-20, max_value=20, max_denominator=30),
        ),
    )
    def test_scale_matches_fraction_arithmetic(self, entries, c):
        coords = [entries.get(k, F(0)) for k in range(AMBIENT)]
        den = lcm(*(x.denominator for x in coords))
        w = H4Class([x.numerator * (den // x.denominator) for x in coords], den)
        got = w.scale(c)
        assert h4_coords(got) == tuple(c * x for x in coords)
        # stored in lowest terms, as the normalizing constructor would
        assert got.den > 0 and gcd(got.den, *got.num) == 1
        assert got == H4Class._of(tuple(c.numerator * x for x in w.num), c.denominator * w.den)

    def test_lowest_terms_with_a_negative_denominator(self):
        w = H4Class._of((6, -4) + (0,) * (AMBIENT - 2), -10)
        assert (w.num[:2], w.den) == ((-3, 2), 5)
        assert H4Class._of((0,) * AMBIENT, -7).den == 1

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
        q = bb_inverse_class(d)
        v = point_surface_class(d, q)
        assert h4.contains(v)
        assert fujiki_pair(v, v) == 1
        assert 8 * v == F(2, 5) * h4.q + sym2_embed(d.h2, d.h2)
        assert second_chern_class(d, q) == F(6, 5) * h4.q

    def test_riemann_roch(self, h4, rng):
        # c2^2 = 828 and, with the Euler number c4 = 324 of the fourfold,
        # chi(L) = L^4/24 + L^2.c2/24 + (3 c2^2 - c4)/720 for a line bundle
        # L = lambda, which Ellingsrud-Goettsche-Lehn write as
        # (q + 4)(q + 6)/8 in q = b(lambda, lambda)
        c2 = second_chern_class(h4.delta_used, h4.q)
        c2c2 = fujiki_pair(c2, c2)
        assert c2c2 == 828
        e1, f1 = hyperbolic_pair(0)
        # e1 + f1 has q = 2; the samples have q < 0
        for lam in [e1 + f1] + [sample_primitive(rng) for _ in range(4)]:
            q = bb_form(lam, lam)
            sq = sym2_embed(lam, lam)
            l4, l2c2 = fujiki_pair(sq, sq), fujiki_pair(sq, c2)
            assert l4 == 3 * q * q
            assert l2c2 == 30 * q
            assert l4 / 24 + l2c2 / 24 + F(3 * c2c2 - 324, 720) == F((q + 4) * (q + 6), 8)


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
        assert divisibility(list(h4_coords(c2)), h4.lattice) == 3
        assert divisibility(list(h4_coords(h4.v0)), h4.lattice) == 1

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
        assert len(_echelon_mod(_sparse_rows(tq.delta_pairing_matrix()), 2)) == RANK


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
def test_reduced_basis_mod_of_m_beside_i_reads_the_left_kernel(p, data):
    rows = data.draw(_mod_matrix(p))
    m, n = len(rows), len(rows[0])
    # [M | I]: the I block of a row of the span is its combination of rows
    stacked = [row + [int(j == i) for j in range(m)] for i, row in enumerate(rows)]
    basis = _reduced_basis_mod(_sparse_rows(stacked), p)
    shuffled = data.draw(st.permutations(stacked))
    assert _reduced_basis_mod(_sparse_rows(shuffled), p) == basis

    pivots = list(basis)
    assert pivots == sorted(set(pivots))
    relations = []
    for c, sparse in basis.items():
        vec = [0] * (n + m)
        for k, x in sparse:
            assert 0 < x < p
            vec[k] = x
        assert [vec[k] for k in pivots] == [int(k == c) for k in pivots]
        comb = vec[n:]
        # in the F_p span: the combination comb of the rows gives the row
        combined = [sum(a * r[k] for a, r in zip(comb, stacked)) % p for k in range(n + m)]
        assert combined == vec
        if c >= n:
            assert not any(vec[:n])
            relations.append(comb)
    # the rows with a pivot in the M block, cut to it, are the reduced basis of M
    assert {
        c: tuple((k, a) for k, a in r if k < n) for c, r in basis.items() if c < n
    } == _reduced_basis_mod(_sparse_rows(rows), p)
    assert len(_echelon_mod(_sparse_rows(rows), p)) + len(relations) == m
    # brute force: the relations are independent (distinct pivots) and span
    # the left kernel, so the vanishing combinations number p^(len(relations))
    vanishing = sum(
        not any(sum(a * r[k] for a, r in zip(x, rows)) % p for k in range(n))
        for x in itertools.product(range(p), repeat=m)
    )
    assert vanishing == p ** len(relations)


def test_the_process_wide_memos_return_one_object():
    assert fujiki_mat() is fujiki_mat()
    assert default_h4_lattice() is default_h4_lattice()
    assert default_torsion_quotient() is default_torsion_quotient()


def test_a_cleared_torsion_quotient_rebuilds_equal():
    # fujiki_mat and default_h4_lattice are never cleared: the session
    # fixtures and the identity fast path of _same_form share their objects
    old = default_torsion_quotient()
    default_torsion_quotient.cache_clear()
    new = default_torsion_quotient()
    assert new is not old and new is default_torsion_quotient()
    assert new.moduli == old.moduli
    assert new.group == old.group


def test_double_cover_determinant():
    m = double_cover_sym2_matrix()
    assert m.shape == (AMBIENT, AMBIENT)
    assert m.det() == 5 * 2**45


def test_cup_product_table_strict(h4):
    rep = verify_cup_product_table(h4)
    assert len(rep) == 4 and all(v is True for v in rep.values())


_TABLE_KEYS = [
    "product_exceptional_square",
    "dictionary_integral",
    "dictionary_is_basis",
    "half_products_divisible",
]


def _with(h4, **fields):
    """A copy of the default lattice's record with some fields replaced."""
    names = ("lattice", "delta_used", "abasis", "a_gram", "b_inv", "q", "v0")
    kept = {n: getattr(h4, n) for n in names}
    return H4Lattice(**{**kept, **fields})


def _bump(m, i, j):
    """m with 1 added at (i, j) and at (j, i)."""
    m = [list(r) for r in m]
    m[i][j] += 1
    m[j][i] += 1
    return m


def _table_input(h4, name):
    x0_sq = sym2_embed(H2Class.basis_vector(0), H2Class.basis_vector(0))
    third = H4Class([1] + [0] * (AMBIENT - 1), 3)
    build = {
        "default": lambda: h4,
        "sampled": lambda: build_h4_lattice(sample_exceptional(random.Random(3))),
        "v0_plus_x0_squared": lambda: _with(h4, v0=h4.v0 + x0_sq),
        "half_v0": lambda: _with(h4, v0=F(1, 2) * h4.v0),
        "sym2_in_place_of_L": lambda: _with(h4, lattice=sym2_lattice()),
        "b01_b10_plus_one": lambda: _with(h4, b_inv=_bump(h4.b_inv, 0, 1)),
        "a67_a76_plus_one": lambda: _with(h4, a_gram=_bump(h4.a_gram, 6, 7)),
        "L_plus_x0_squared_over_3": lambda: _with(
            h4, lattice=lattice_join(h4.lattice, h4_span([third]))
        ),
    }
    return build[name]()


# the checks that read False on each input, as the dense H4Class
# implementation of the table computed them
_TABLE_FAILURES = {
    "default": set(),
    "sampled": set(),
    "v0_plus_x0_squared": {"product_exceptional_square"},
    "half_v0": {"dictionary_integral", "dictionary_is_basis", "product_exceptional_square"},
    "sym2_in_place_of_L": {
        "dictionary_integral", "dictionary_is_basis", "half_products_divisible"
    },
    "b01_b10_plus_one": {"product_exceptional_square"},
    "a67_a76_plus_one": {"product_exceptional_square"},
    # a strictly larger lattice: the dictionary lies in it but does not span it
    "L_plus_x0_squared_over_3": {"dictionary_is_basis"},
}


@pytest.mark.parametrize("name", list(_TABLE_FAILURES))
def test_cup_product_table_negative_controls(h4, name):
    rep = verify_cup_product_table(_table_input(h4, name))
    assert list(rep) == _TABLE_KEYS
    assert rep == {k: k not in _TABLE_FAILURES[name] for k in _TABLE_KEYS}


def test_every_table_check_can_fail(h4):
    """A check that no input moves certifies nothing: each key of the
    table reads False under at least one of the negative controls."""
    keys = set(verify_cup_product_table(h4))
    failed = set()
    for name in _TABLE_FAILURES:
        failed |= {k for k, ok in verify_cup_product_table(_table_input(h4, name)).items() if not ok}
    assert failed == keys, f"checks that no input moves: {sorted(keys - failed)}"


def test_cup_product_table_solves_and_membership_fallback(h4, monkeypatch):
    """The span equality proves the dictionary integral on the default
    lattice, so only the half products are solved for; a lattice the
    dictionary does not span still asks membership of its elements."""
    solves = []
    asked = []
    solve = kernels.solve_left_int_row
    contains = Lattice.contains

    def counting_solve(plan, num, a=1):
        solves.append(1)
        return solve(plan, num, a)

    def recording_contains(self, v, den=1):
        asked.append(tuple(F(x, den) for x in v))
        return contains(self, v, den)

    monkeypatch.setattr(kernels, "solve_left_int_row", counting_solve)
    monkeypatch.setattr(Lattice, "contains", recording_contains)
    assert all(verify_cup_product_table(h4).values())
    assert len(solves) <= 22
    assert h4_coords(h4.v0) not in asked

    asked.clear()
    rep = verify_cup_product_table(_table_input(h4, "sym2_in_place_of_L"))
    assert not rep["dictionary_integral"]
    assert h4_coords(h4.v0) in asked


def _half_product_solves(monkeypatch):
    """The membership questions asked over the denominator 2."""
    asked = []
    contains = Lattice.contains

    def recording(self, v, den=1):
        if den == 2:
            asked.append(v)
        return contains(self, v, den)

    monkeypatch.setattr(Lattice, "contains", recording)
    return asked


def test_half_products_need_no_solve_when_the_span_proves_them(h4, monkeypatch):
    # every A_ii of the default lattice is even, and the dictionary spans it
    assert all(h4.a_gram[i][i] % 2 == 0 for i in range(len(h4.abasis)))
    asked = _half_product_solves(monkeypatch)
    assert verify_cup_product_table(h4)["half_products_divisible"]
    assert asked == []


def test_an_odd_a_ii_still_solves_for_the_half_products(h4, monkeypatch):
    # A_00 made odd, and the lattice replaced by the span of the dictionary
    # that this A builds, so that dictionary_is_basis holds; v_0 then
    # differs from a_0(a_0 - d)/2 by (A_00/2) v0, a half of v0, and the
    # half product is outside the span: only a solve can tell
    A = [list(r) for r in h4.a_gram]
    A[0][0] += 1
    d, ab, v0 = h4.delta_used, h4.abasis, h4.v0
    k = len(ab)
    dictionary = [v0]
    dictionary += [half_product_class(d, a) - F(A[i][i], 2) * v0 for i, a in enumerate(ab)]
    dictionary += [
        sym2_embed(ab[i], ab[j]) - A[i][j] * v0 for i in range(k) for j in range(i + 1, k)
    ]
    dictionary += [sym2_embed(d.h2, a) for a in ab]
    odd = _with(h4, a_gram=A, lattice=h4_span(dictionary))
    asked = _half_product_solves(monkeypatch)
    rep = verify_cup_product_table(odd)
    assert rep["dictionary_is_basis"] and rep["dictionary_integral"]
    assert not rep["half_products_divisible"]
    assert len(asked) >= 1


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
