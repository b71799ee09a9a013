"""The rank-23 degree-2 lattice: frozen Gram data, parity predicates,
exceptional classes, samplers, decompositions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklattice import bb_lattice
from hklattice.bb_lattice import (
    DELTA0,
    GRAM,
    RANK,
    ExceptionalClass,
    H2Class,
    _orth_complement,
    bb_form,
    decompose_even,
    delta0,
    gram_mat,
    hyperbolic_pair,
    is_even,
    is_exceptional,
    is_odd,
    is_primitive,
    make_exceptional,
    orth_complement_basis,
    polarization_condition,
    sample_exceptional,
    sample_polarization_even,
    sample_polarization_odd,
    sample_primitive,
)
from hklattice.exact_linalg import signature_symmetric


class TestFrozenGram:
    def test_rank_and_determinant(self):
        g = gram_mat()
        assert g.shape == (RANK, RANK)
        assert abs(g.det()) == 2

    def test_signature(self):
        assert signature_symmetric(gram_mat()) == (3, 20, 0)

    def test_even_lattice(self):
        for i in range(RANK):
            assert bb_form(H2Class.basis_vector(i), H2Class.basis_vector(i)) % 2 == 0

    def test_hyperbolic_pairs(self):
        for k in range(3):
            e, f = hyperbolic_pair(k)
            assert bb_form(e, e) == 0
            assert bb_form(f, f) == 0
            assert bb_form(e, f) == 1

    def test_exceptional_square(self):
        d = delta0()
        assert bb_form(d, d) == -2
        # orthogonal to everything outside its own coordinate
        for i in range(RANK - 1):
            assert bb_form(d, H2Class.basis_vector(i)) == 0

    def test_e8_blocks_negative_definite(self):
        g = gram_mat()
        for lo in (6, 14):
            block = [[int(g[(i, j)]) for j in range(lo, lo + 8)] for i in range(lo, lo + 8)]
            from hklattice.exact_linalg import Mat

            assert signature_symmetric(Mat(block)) == (0, 8, 0)
            assert Mat(block).det() == 1


class TestPredicates:
    def test_parity(self):
        e1, f1 = hyperbolic_pair(0)
        assert is_odd(e1)  # pairs to 1 with f1
        assert is_even(delta0())
        assert is_even(2 * (e1 + f1) + delta0())
        with pytest.raises(ValueError):
            is_even(2 * e1)  # parity needs a primitive class

    def test_primitive(self):
        e1, f1 = hyperbolic_pair(0)
        assert is_primitive(e1 + f1)
        assert not is_primitive(2 * e1 + 2 * f1)
        with pytest.raises(ValueError):
            is_primitive(H2Class([0] * RANK))

    def test_exceptional(self):
        assert is_exceptional(delta0())
        e1, f1 = hyperbolic_pair(0)
        assert not is_exceptional(e1 - f1)  # square -2 but odd
        assert not is_exceptional(2 * delta0())

    def test_polarization_condition(self):
        e1, f1 = hyperbolic_pair(0)
        assert polarization_condition(e1 + f1)  # odd
        l0 = 2 * (e1 + f1) + delta0()  # even, square 6, (10+6)/8 = 2 even
        assert polarization_condition(l0)
        with pytest.raises(ValueError):
            polarization_condition(e1 - f1)  # negative square
        with pytest.raises(ValueError):
            polarization_condition(2 * e1 + 2 * f1)  # imprimitive

    def test_polarization_condition_refuses_square_zero(self):
        # e1 is primitive and odd, so only the square test refuses it
        e1, _ = hyperbolic_pair(0)
        assert bb_form(e1, e1) == 0
        with pytest.raises(ValueError, match="positive square"):
            polarization_condition(e1)


class TestExceptionalClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExceptionalClass(hyperbolic_pair(0)[0])

    def test_make_exceptional(self):
        e1, f1 = hyperbolic_pair(0)
        # c = 3 needs b(a,a) = 4: a = e1 + 2 f1 works
        a = e1 + 2 * f1
        d = make_exceptional(a, 3)
        assert bb_form(d.h2, d.h2) == -2
        with pytest.raises(ValueError):
            make_exceptional(a, 2)  # even c
        with pytest.raises(ValueError):
            make_exceptional(e1, 3)  # norm condition fails


class TestComplement:
    def test_orth_complement_is_unimodular_k3(self):
        basis = orth_complement_basis(DELTA0)
        assert len(basis) == RANK - 1
        from hklattice.exact_linalg import Mat

        g = Mat([[bb_form(x, y) for y in basis] for x in basis])
        assert abs(g.det()) == 1
        assert signature_symmetric(g) == (3, 19, 0)
        for x in basis:
            assert bb_form(x, delta0()) == 0

    def test_complement_of_delta0_is_the_leading_block(self):
        # the default lattice keeps this Gram and its inverse, and
        # double_cover_sym2_matrix reads them from there as GRAM's block
        basis, g, _ = _orth_complement(DELTA0)
        assert basis == tuple(H2Class.basis_vector(i) for i in range(RANK - 1))
        assert g == tuple(tuple(row[: RANK - 1]) for row in GRAM[: RANK - 1])

    def test_complement_of_sampled_exceptional(self, rng):
        d = sample_exceptional(rng)
        basis = orth_complement_basis(d)
        assert len(basis) == RANK - 1
        assert all(bb_form(x, d.h2) == 0 for x in basis)

    def test_decompose_even(self, rng):
        for _ in range(5):
            l0 = sample_polarization_even(rng, True)
            a, c = decompose_even(l0, DELTA0)
            assert c % 2 == 1
            assert 2 * a + c * delta0() == l0
        e1, f1 = hyperbolic_pair(0)
        with pytest.raises(ValueError):
            decompose_even(e1 + f1, DELTA0)  # odd class


class TestSamplers:
    def test_exceptional(self, rng):
        for _ in range(10):
            d = sample_exceptional(rng)
            assert is_exceptional(d.h2)

    def test_polarization_odd(self, rng):
        for _ in range(10):
            v = sample_polarization_odd(rng)
            assert is_odd(v) and is_primitive(v)
            assert bb_form(v, v) > 0
            assert polarization_condition(v)

    def test_polarization_even_condition_true(self, rng):
        for _ in range(10):
            v = sample_polarization_even(rng, True)
            assert is_even(v) and is_primitive(v)
            assert bb_form(v, v) % 16 == 6
            assert polarization_condition(v)

    def test_polarization_even_condition_false(self, rng):
        for _ in range(10):
            v = sample_polarization_even(rng, False)
            assert is_even(v) and is_primitive(v)
            assert bb_form(v, v) % 16 == 14
            assert not polarization_condition(v)

    def test_primitive(self, rng):
        for _ in range(10):
            assert is_primitive(sample_primitive(rng))


coords = st.lists(st.integers(-5, 5), min_size=RANK, max_size=RANK)


@settings(max_examples=30, deadline=None)
@given(coords, coords)
def test_form_symmetric_bilinear(a, b):
    x, y = H2Class(a), H2Class(b)
    assert bb_form(x, y) == bb_form(y, x)
    assert bb_form(x + y, x + y) == bb_form(x, x) + 2 * bb_form(x, y) + bb_form(y, y)


@settings(max_examples=30, deadline=None)
@given(coords)
def test_even_iff_doubled_pairings(a):
    if not any(a):
        return
    from math import gcd

    g = gcd(*a)
    x = H2Class([c // g for c in a])
    evens = all(bb_form(x, H2Class.basis_vector(i)) % 2 == 0 for i in range(RANK))
    assert is_even(x) == evens


def test_decompose_even_decides_parity_without_is_even(monkeypatch, rng):
    # the split L = d-perp + Z*d decides parity on the coordinates of the
    # d-perp part, with no call to is_even
    def refuse(a):
        raise AssertionError("is_even was asked")

    monkeypatch.setattr(bb_lattice, "is_even", refuse)
    for d in (DELTA0, sample_exceptional(rng), sample_exceptional(rng)):
        for _ in range(3):
            l0 = sample_polarization_even(rng)
            a, c = decompose_even(l0, d)
            assert c % 2 == 1 and 2 * a + c * d.h2 == l0
            with pytest.raises(ValueError, match="not even"):
                decompose_even(sample_polarization_odd(rng), d)


@settings(max_examples=60, deadline=None)
@given(coords, st.integers(0, 2**32))
def test_decompose_even_agrees_with_is_even(a, seed):
    if not any(a):
        return
    from math import gcd

    g = gcd(*a)
    x = H2Class([c // g for c in a])
    d = sample_exceptional(random.Random(seed)) if seed % 2 else DELTA0
    try:
        decompose_even(x, d)
        decomposes = True
    except ValueError:
        decomposes = False
    assert decomposes == is_even(x)
