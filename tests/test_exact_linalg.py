"""Rational matrix and lattice layer: constructors, membership, indices,
quotients, saturation, feasibility."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklattice.exact_linalg import (
    AmbientMismatchError,
    FiniteAbelianGroup,
    Lattice,
    Mat,
    NonIntegerMatrixError,
    NotASublatticeError,
    coset_feasible,
    divisibility,
    lattice_join,
    lattice_meet,
    quotient_invariants,
    saturate_in,
    saturation_int,
    signature_symmetric,
    snf,
    sublattice_index,
)

F = Fraction


class TestMat:
    def test_identity_inverse_roundtrip(self):
        m = Mat([[2, 1], [1, 1]])
        inv = m.inverse()
        assert m * inv == Mat.identity(2)
        assert inv * m == Mat.identity(2)

    def test_det(self):
        assert Mat([[1, 2], [3, 4]]).det() == -2
        assert Mat([[F(1, 2), 0], [0, F(2, 3)]]).det() == F(1, 3)

    def test_transpose_symmetry(self):
        m = Mat([[1, 2], [2, 5]])
        assert m.transpose() == m
        assert m.is_symmetric()
        assert not Mat([[1, 2], [3, 4]]).is_symmetric()

    def test_scalar_and_shape(self):
        m = Mat([[1, 2, 3]])
        assert m.shape == (1, 3)
        assert (2 * m).row(0) == (2, 4, 6)

    def test_int_rows_rejects_fractions(self):
        with pytest.raises(NonIntegerMatrixError):
            Mat([[F(1, 2)]]).int_rows()

    def test_json_roundtrip(self):
        m = Mat([[F(1, 2), 3], [0, F(-7, 5)]])
        assert Mat.from_json(m.to_json()) == m

    def test_singular_inverse_raises(self):
        with pytest.raises((ZeroDivisionError, ValueError, ArithmeticError)):
            Mat([[1, 1], [1, 1]]).inverse()


class TestFiniteAbelianGroup:
    def test_order_exponent(self):
        g = FiniteAbelianGroup((2, 2, 10))
        assert g.order() == 40
        assert g.exponent() == 10
        assert not g.is_trivial()
        assert FiniteAbelianGroup(()).is_trivial()

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((4, 2))

    def test_snf_of_relations(self):
        g = snf(Mat([[2, 0], [0, 3]]))
        assert g.invariant_factors == (6,)


class TestLattice:
    def test_from_generators_reduces(self):
        lat = Lattice.from_generators([[2, 0], [0, 2], [1, 1]])
        assert lat.rank == 2
        assert lat.contains([1, 1])
        assert not lat.contains([1, 0])

    def test_fractional_generators(self):
        lat = Lattice.from_generators([[F(1, 2), 0], [0, 1]])
        assert lat.contains([F(1, 2), 0])
        assert lat.contains([1, 1])
        assert not lat.contains([0, F(1, 2)])

    def test_coords_roundtrip(self):
        lat = Lattice.from_generators([[2, 1], [0, 3]])
        v = [4, 8]
        c = lat.coords(v)
        rows = lat.basis_rows()
        back = [
            sum(c[i] * rows[i][j] for i in range(lat.rank))
            for j in range(2)
        ]
        assert [F(x) for x in v] == back

    def test_sublattice_index(self):
        z2 = Lattice.standard(2)
        even = Lattice.from_generators([[2, 0], [0, 2]])
        assert sublattice_index(even, z2) == 4
        assert sublattice_index(z2, z2) == 1

    def test_quotient_invariants(self):
        z2 = Lattice.standard(2)
        sub = Lattice.from_generators([[2, 0], [0, 4]])
        assert quotient_invariants(sub, z2).invariant_factors == (2, 4)

    def test_quotient_requires_sublattice(self):
        z2 = Lattice.standard(2)
        half = Lattice.from_generators([[F(1, 2), 0], [0, 1]])
        with pytest.raises(NotASublatticeError):
            quotient_invariants(half, z2)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            lattice_join(Lattice.standard(2), Lattice.standard(3))

    def test_join_meet(self):
        a = Lattice.from_generators([[2, 0], [0, 1]])
        b = Lattice.from_generators([[1, 0], [0, 2]])
        assert lattice_join(a, b) == Lattice.standard(2)
        assert lattice_meet(a, b) == Lattice.from_generators([[2, 0], [0, 2]])

    def test_meet_with_denominators(self):
        a = Lattice.from_generators([[F(1, 2), F(1, 2)]])
        b = Lattice.standard(2)
        # multiples of (1/2, 1/2) that are integral: even multiples
        assert lattice_meet(a, b) == Lattice.from_generators([[1, 1]])

    def test_divisibility(self):
        z2 = Lattice.standard(2)
        assert divisibility([2, 4], z2) == 2
        assert divisibility([3, 5], z2) == 1
        half = Lattice.from_generators([[F(1, 2), 0], [0, 1]])
        assert divisibility([1, 0], half) == 2

    def test_saturation(self):
        assert saturation_int([[2, 4]]) == [[1, 2]]
        sub = Lattice.from_generators([[2, 4]])
        sat = saturate_in(sub, Lattice.standard(2))
        assert sat == Lattice.from_generators([[1, 2]])
        assert sublattice_index(sub, sat) == 2

    def test_saturate_idempotent(self):
        sub = Lattice.from_generators([[3, 6], [0, 9]])
        sat = saturate_in(sub, Lattice.standard(2))
        assert saturate_in(sat, Lattice.standard(2)) == sat

    def test_gram_and_form(self):
        form = Mat([[0, 1], [1, 0]])
        lat = Lattice.from_generators([[1, 1], [1, -1]], form=form)
        g = lat.gram()
        assert g[(0, 0)] == 2 or g[(1, 1)] == 2  # some basis vector has square 2
        assert g.det() == -4 or g.det() == 4

    def test_scaled(self):
        lat = Lattice.standard(2)
        half = lat.scaled(F(1, 2))
        assert half.contains([F(1, 2), 0])
        assert sublattice_index(lat, half) == 4

    def test_spans_same_qspace(self):
        a = Lattice.from_generators([[2, 0]])
        b = Lattice.from_generators([[3, 0]])
        c = Lattice.from_generators([[1, 1]])
        assert a.spans_same_qspace(b)
        assert not a.spans_same_qspace(c)

    def test_json_roundtrip(self):
        lat = Lattice.from_generators([[F(1, 2), 1]], form=Mat([[2, 0], [0, 2]]))
        assert Lattice.from_json(lat.to_json()) == lat


class TestCosetFeasible:
    def test_infeasible_even_functional(self):
        # functional x -> x on 2Z: image 2Z never hits 1
        lat = Lattice.from_generators([[2]])
        ok, wit = coset_feasible(lat, [1], 1)
        assert not ok and wit is None

    def test_feasible_with_witness(self):
        lat = Lattice.from_generators([[3], [5]])  # = Z
        ok, wit = coset_feasible(lat, [1], 1)
        assert ok
        assert sum(F(a) * F(b) for a, b in zip(wit, [1])) == 1
        assert lat.contains(wit)

    def test_rational_functional(self):
        lat = Lattice.standard(2)
        ok, wit = coset_feasible(lat, [F(1, 2), F(1, 2)], 1)
        assert ok
        assert sum(F(a) * F(b) for a, b in zip(wit, [F(1, 2), F(1, 2)])) == 1


def test_signature():
    m = Mat([[1, 0, 0], [0, -2, 0], [0, 0, 3]])
    assert signature_symmetric(m) == (2, 1, 0)
    hyp = Mat([[0, 1], [1, 0]])
    assert signature_symmetric(hyp) == (1, 1, 0)
    assert signature_symmetric(Mat([[0]])) == (0, 0, 1)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_saturation_contains_and_same_qspace(rows):
    sub = Lattice.from_generators(rows, ambient_dim=3)
    if sub.rank == 0:
        return
    sat = saturate_in(sub, Lattice.standard(3))
    assert sat.spans_same_qspace(sub)
    for r in sub.basis_rows():
        assert sat.contains(list(r))
    # index of sub in its saturation is finite and positive
    assert sublattice_index(sub, sat) >= 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
def test_index_multiplicative_in_towers(a, b, c):
    top = Lattice.from_generators([[a, 0], [0, 1]])
    mid = Lattice.from_generators([[a * b, 0], [0, 1]])
    bot = Lattice.from_generators([[a * b * c, 0], [0, 1]])
    assert sublattice_index(bot, top) == sublattice_index(
        bot, mid
    ) * sublattice_index(mid, top)


def gauss_jordan_inverse(m: Mat) -> Mat:
    """Reference: Gauss-Jordan elimination over Fractions."""
    n = m.rows
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(m)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        prow = aug[col]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], prow)]
    return Mat([r[n:] for r in aug])


@st.composite
def rational_square(draw):
    n = draw(st.integers(1, 8))
    # zeros force row swaps and singular cases; small denominators mix scales
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 7])),
    )
    return Mat(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(rational_square())
def test_inverse_matches_gauss_jordan(m):
    try:
        want = gauss_jordan_inverse(m)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            m.inverse()
        return
    got = m.inverse()
    assert got == want
    assert got.to_json() == want.to_json()
    assert m * got == Mat.identity(m.rows)


def test_inverse_of_singular_raises_zero_division():
    for rows in ([[1, 1], [1, 1]], [[0]], [[0, 1], [0, 2]], [[F(1, 2), 1], [1, 2]]):
        with pytest.raises(ZeroDivisionError):
            Mat(rows).inverse()


@st.composite
def rational_pair(draw):
    """Two m x n rational matrices and an n x p one, as Fraction rows."""
    m, n, p = (draw(st.integers(1, 5)) for _ in range(3))
    entry = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 6]))

    def rows(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))

    return rows(m, n), rows(m, n), rows(n, p)


@settings(max_examples=150, deadline=None)
@given(rational_pair(), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
def test_integer_storage_matches_fraction_arithmetic(mats, k):
    a, b, c = mats
    A, B, C = Mat(a), Mat(b), Mat(c)

    def entries(M):
        return [list(r) for r in M]

    assert entries(A) == a
    assert entries(A + B) == [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]
    assert entries(A - B) == [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]
    assert entries(-A) == [[-x for x in r] for r in a]
    assert entries(A * C) == [
        [sum(x * y for x, y in zip(r, col)) for col in zip(*c)] for r in a
    ]
    assert entries(k * A) == entries(A * k) == [[k * x for x in r] for r in a]
    assert entries(A.transpose()) == [list(col) for col in zip(*a)]
    # one storage: the same matrix from "p/q" strings or from scaled
    # integers over a larger denominator is equal and hashes equal
    d, num = A.scaled_int_rows()
    for same in (
        Mat([[str(x) for x in r] for r in a]),
        Mat.from_int_rows([[3 * x for x in r] for r in num], 3 * d),
    ):
        assert same == A and hash(same) == hash(A)
        assert same.scaled_int_rows() == (d, num)
    assert A.is_integer() == (d == 1)
    assert A.to_json() == [[str(x) for x in r] for r in a]
