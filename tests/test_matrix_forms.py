"""The matrix forms of the degree-4 pairing against products and of the
class q against their per-monomial oracles."""

import random
from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklattice import h4_model, hodge_classes
from hklattice.bb_lattice import (
    DELTA0,
    RANK,
    H2Class,
    _orth_complement,
    delta0,
    sample_exceptional,
)
from hklattice.h4_model import (
    AMBIENT,
    H4Class,
    _q_class,
    fujiki_pair,
    fujiki_product_covector,
    fujiki_with_product,
    sym2_embed,
)
from hklattice.hodge_classes import PicardData, minimality_scalar, transcendental

h2_coords = st.one_of(
    st.lists(st.integers(-3, 3), min_size=RANK, max_size=RANK),
    st.lists(st.integers(-(2**40), 2**40), min_size=RANK, max_size=RANK),
)


@st.composite
def degree4_classes(draw, h4, tq):
    kind = draw(st.sampled_from(["q", "v0", "product", "random", "lift"]))
    if kind == "q":
        # denominator 2
        return h4.q
    if kind == "v0":
        # denominator 10 in lowest terms
        return h4.v0
    if kind == "product":
        # denominator 1
        return sym2_embed(H2Class(draw(h2_coords)), H2Class(draw(h2_coords)))
    if kind == "lift":
        return tq.lift(tuple(draw(st.integers(0, d - 1)) for d in tq.moduli))
    num = draw(st.lists(st.integers(-9, 9), min_size=AMBIENT, max_size=AMBIENT))
    return H4Class(num, draw(st.integers(1, 60)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_covector_matches_the_per_monomial_pairing(h4, tq, data):
    u = data.draw(degree4_classes(h4, tq))
    a, b = H2Class(data.draw(h2_coords)), H2Class(data.draw(h2_coords))
    want = oracles.fujiki_with_product(u, a, b)
    assert want == fujiki_pair(u, sym2_embed(a, b))
    assert fujiki_with_product(u, a, b) == want
    # the covector is the pairing against every basis class at once
    cov = fujiki_product_covector(u, b)
    assert len(cov) == RANK
    for k in range(RANK):
        e = H2Class.basis_vector(k)
        assert Fraction(cov[k], u.den) == oracles.fujiki_with_product(u, e, b)


def test_covector_on_the_named_denominators(h4):
    # v0 = d^2/8 + q/20 is 1/10 times an integer vector in lowest terms
    assert (h4.q.den, h4.v0.den) == (2, 10)
    b = delta0()
    for u in (h4.q, h4.v0, sym2_embed(delta0(), H2Class.basis_vector(5))):
        for k in range(RANK):
            a = H2Class.basis_vector(k)
            assert fujiki_with_product(u, a, b) == fujiki_pair(u, sym2_embed(a, b))


def test_q_class_matches_the_sym2_accumulation():
    rng = random.Random(20)
    for d in [DELTA0] + [sample_exceptional(rng) for _ in range(20)]:
        abasis, _, b_inv = _orth_complement(d)
        assert _q_class(d.h2, abasis, b_inv) == oracles.q_class(d.h2, abasis, b_inv)


def test_delta_pairing_matches_the_per_class_loop(tq):
    m = len(tq.moduli)
    for i in range(m):
        t = tuple(int(j == i) for j in range(m))
        assert tq.delta_pairing_mod2(t) == oracles.delta_pairing_mod2(tq, t)
    t = tuple(d - 1 for d in tq.moduli)
    assert tq.delta_pairing_mod2(t) == oracles.delta_pairing_mod2(tq, t)


@pytest.fixture()
def counted_covectors(monkeypatch):
    calls = []
    real = h4_model.fujiki_product_covector

    def counting(u, b):
        calls.append(b)
        return real(u, b)

    monkeypatch.setattr(h4_model, "fujiki_product_covector", counting)
    monkeypatch.setattr(hodge_classes, "fujiki_product_covector", counting)
    return calls


def test_one_covector_per_pairing_row(tq, h4, counted_covectors):
    tq.delta_pairing_mod2(tq.point_image())
    assert len(counted_covectors) == 1
    e1 = H2Class.basis_vector(0)
    T = transcendental(PicardData.rank_one(e1 + H2Class.basis_vector(1)))
    counted_covectors.clear()
    assert minimality_scalar(h4.q, T) == 25
    assert len(counted_covectors) == T.rank


def test_fujiki_gram_matches_the_entrywise_formula():
    # built from the nonzeros of GRAM; the oracle evaluates every entry
    assert h4_model.fujiki_rows() == tuple(map(tuple, oracles.fujiki_rows_dense()))
