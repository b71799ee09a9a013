"""Rational matrix and lattice layer: constructors, membership, indices,
quotients, saturation, feasibility."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fraction_rows, json_text, lattice_json, lattice_meet, mat_product

from hklattice import exact_linalg, kernels
from hklattice.exact_linalg import (
    AmbientMismatchError,
    FiniteAbelianGroup,
    Lattice,
    Mat,
    NotASublatticeError,
    _pair,
    _right_echelon,
    _saturate_rows,
    _sparse_rows,
    coset_feasible,
    divisibility,
    lattice_join,
    left_kernel,
    quotient_invariants,
    saturate_in,
    signature_symmetric,
    sublattice_index,
)

F = Fraction


class TestMat:
    def test_identity_inverse_roundtrip(self):
        m = Mat([[2, 1], [1, 1]])
        inv = m.inverse()
        assert mat_product(m, inv) == fraction_rows(Mat.identity(2))
        assert mat_product(inv, m) == fraction_rows(Mat.identity(2))

    def test_det(self):
        assert Mat([[1, 2], [3, 4]]).det() == -2
        assert Mat([[F(1, 2), 0], [0, F(2, 3)]]).det() == F(1, 3)

    def test_transpose_symmetry(self):
        m = Mat([[1, 2], [2, 5]])
        assert m.is_symmetric()
        assert not Mat([[1, 2], [3, 4]]).is_symmetric()

    def test_scalar_and_shape(self):
        m = Mat([[1, 2, 3]])
        assert m.shape == (1, 3)
        assert fraction_rows(2 * m) == [[2, 4, 6]]

    def test_json_roundtrip(self):
        m = Mat([[F(1, 2), 3], [0, F(-7, 5)]])
        assert Mat(json.loads(json_text(m))) == m

    def test_singular_inverse_raises(self):
        with pytest.raises((ZeroDivisionError, ValueError, ArithmeticError)):
            Mat([[1, 1], [1, 1]]).inverse()


class TestFiniteAbelianGroup:
    def test_order_exponent(self):
        g = FiniteAbelianGroup((2, 2, 10))
        assert g.order() == 40
        assert g.invariant_factors[-1] == 10
        assert FiniteAbelianGroup(()).order() == 1

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((4, 2))

    def test_no_generators_slot(self):
        g = FiniteAbelianGroup((2, 4))
        assert FiniteAbelianGroup.__slots__ == ("invariant_factors",)
        with pytest.raises(AttributeError):
            g.generators = ()

    def test_factors_are_parsed_strictly(self):
        with pytest.raises(TypeError):
            FiniteAbelianGroup((2.0,))
        with pytest.raises(TypeError):
            FiniteAbelianGroup((True, 2))

    def test_snf_of_relations(self):
        # Z^2 over the relations 2*e1 and 3*e2 is cyclic of order 6
        relations = [[2, 0], [0, 3]]
        diag = kernels.snf_diagonal(relations)
        assert FiniteAbelianGroup([d for d in diag if d > 1]).invariant_factors == (6,)
        rel = Lattice.from_generators(relations)
        assert quotient_invariants(rel, Lattice.standard(2)).invariant_factors == (6,)


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
        assert quotient_invariants(z2, z2) == FiniteAbelianGroup(())
        # rank 0: the trivial group, whatever the ambient dimension
        empty = Lattice.from_generators([], ambient_dim=3)
        assert quotient_invariants(empty, empty) == FiniteAbelianGroup(())
        assert quotient_invariants(empty, empty).order() == 1

    def test_quotient_invariants_of_a_torsion_subgroup(self):
        # the relation lattice of (Z/2)^22 x Z/10 and the subgroups that
        # residue tuples generate in it, as TorsionQuotient.subgroup builds them
        moduli = (2,) * 22 + (10,)
        k = len(moduli)
        rel = [[moduli[i] if j == i else 0 for j in range(k)] for i in range(k)]
        sub = Lattice.from_generators(rel, ambient_dim=k)

        def span(*elements):
            sup = Lattice.from_generators(rel + [list(t) for t in elements], ambient_dim=k)
            return quotient_invariants(sub, sup).invariant_factors

        e = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        assert span() == ()
        assert span(*e) == moduli
        assert span((1,) * k) == (10,)
        assert span(e[0], tuple(5 * x for x in e[-1])) == (2, 2)
        assert span(tuple(2 * x for x in e[-1])) == (5,)
        assert span(e[0], e[1], (0,) * 22 + (4,)) == (2, 10)

    def test_quotient_invariants_match_smith_diagonal(self):
        # sub = M * sup for a random nonsingular integer M, so sup/sub has
        # the invariant factors of M
        rng = random.Random(11)
        for _ in range(12):
            n = rng.randint(1, 5)
            den = rng.randint(1, 6)
            while True:
                B = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
                if kernels.det_bareiss(B) and kernels.det_bareiss(M):
                    break
            sup = Lattice.from_int_rows(B, den)
            sub_rows = [[sum(m[j] * B[j][c] for j in range(n)) for c in range(n)] for m in M]
            sub = Lattice.from_int_rows(sub_rows, den)
            diag = kernels.smith_normal_form(M)
            want = tuple(d for d in diag if d > 1)
            got = quotient_invariants(sub, sup)
            assert got.invariant_factors == want
            assert got.order() == abs(kernels.det_bareiss(M)) == sublattice_index(sub, sup)

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
        half = Lattice.from_generators([[F(1, 2), 0], [0, F(1, 2)]])
        assert half.contains([F(1, 2), 0])
        assert sublattice_index(lat, half) == 4

    def test_json_roundtrip(self):
        lat = Lattice.from_generators([[F(1, 2), 1]], form=Mat([[2, 0], [0, 2]]))
        obj = json.loads(json_text(lat))
        assert obj == lattice_json(lat)
        assert Lattice.from_generators(obj["basis"], form=Mat(obj["form"])) == lat


class TestCosetFeasible:
    def test_infeasible_even_functional(self):
        # functional x -> x on 2Z: image 2Z never hits 1
        lat = Lattice.from_generators([[2]])
        ok, wit, gen = coset_feasible(lat, [1], 1)
        assert not ok and wit is None
        assert gen == 2

    def test_feasible_with_witness(self):
        lat = Lattice.from_generators([[3], [5]])  # = Z
        ok, wit, gen = coset_feasible(lat, [1], 1)
        assert ok and gen == 1
        assert sum(F(a) * F(b) for a, b in zip(wit, [1])) == 1
        assert lat.contains(wit)

    def test_rational_functional(self):
        lat = Lattice.standard(2)
        ok, wit, gen = coset_feasible(lat, [F(1, 2), F(1, 2)], 1)
        assert ok and gen == F(1, 2)
        assert sum(F(a) * F(b) for a, b in zip(wit, [F(1, 2), F(1, 2)])) == 1

    def test_integer_covector_over_a_denominator(self):
        # the covector (1, 1)/2 given as integers over 2 agrees with the
        # Fraction form, on a lattice with denominator 3
        lat = Lattice.from_generators([[F(2, 3), 0], [0, F(4, 3)]])
        for target in (F(1, 3), F(2, 3), 1, F(1, 2)):
            by_den = coset_feasible(lat, [1, 1], target, 2)
            assert by_den == coset_feasible(lat, [F(1, 2), F(1, 2)], target)
            assert by_den == coset_feasible(lat, ["1/2", "1/2"], target)
        # the witness is integer numerators over lat.den = 3
        ok, wit, gen = coset_feasible(lat, [1, 1], F(2, 3), 2)
        assert ok and gen == F(1, 3)
        assert lat.contains(wit, lat.den) and F(wit[0] + wit[1], 2 * lat.den) == F(2, 3)
        assert coset_feasible(lat, [0, 0], 0, 5) == (True, (0, 0), 0)
        assert coset_feasible(lat, [0, 0], 1, 5) == (False, None, 0)

    def test_covector_is_parsed_strictly(self):
        lat = Lattice.standard(2)
        with pytest.raises(TypeError):
            coset_feasible(lat, [1.0, 1], 1)
        with pytest.raises(TypeError):
            coset_feasible(lat, [True, 1], 1)
        with pytest.raises(TypeError):
            coset_feasible(lat, [1, 1], 1, True)
        for den in (0, -2):
            with pytest.raises(ValueError):
                coset_feasible(lat, [1, 1], 1, den)


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
    # one Q-span: one reduced echelon form from the right
    assert _right_echelon(sat.int_basis, 3) == _right_echelon(sub.int_basis, 3)
    for r in sub.basis_rows():
        assert sat.contains(list(r))
    # index of sub in its saturation is finite and positive
    assert sublattice_index(sub, sat) >= 1


@st.composite
def raw_generators(draw):
    """(rows, sup): integer rows of length n with a dependent row (the sum
    of two), a rescaled row and a zero row among them, and a full-rank sup
    over a denominator: an upper triangular basis with nonzero diagonal."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=3))
    k = draw(st.integers(-3, 3).filter(bool))
    rows += [[x + y for x, y in zip(rows[0], rows[-1])], [k * x for x in rows[-1]], [0] * n]
    rows = draw(st.permutations(rows))
    diag = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    basis = [
        [0] * i + [diag[i]] + draw(st.lists(entry, min_size=n - 1 - i, max_size=n - 1 - i))
        for i in range(n)
    ]
    sup = Lattice.from_int_rows(basis, draw(st.integers(1, 6)))
    return rows, sup


@settings(max_examples=60, deadline=None)
@given(raw_generators())
def test_saturation_from_raw_generators_is_saturate_in_of_their_lattice(case):
    rows, sup = case
    n = sup.ambient_dim
    want = saturate_in(Lattice.from_int_rows(rows, 1, n), sup)
    assert _saturate_rows(rows, sup) == want
    assert _saturate_rows(rows, Lattice.standard(n)) == saturate_in(
        Lattice.from_int_rows(rows, 1, n), Lattice.standard(n)
    )


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
    aug = [r + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(fraction_rows(m))]
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
    assert json_text(got) == json_text(want)
    assert mat_product(m, got) == fraction_rows(Mat.identity(m.rows))


def test_inverse_of_singular_raises_zero_division():
    for rows in ([[1, 1], [1, 1]], [[0]], [[0, 1], [0, 2]], [[F(1, 2), 1], [1, 2]]):
        with pytest.raises(ZeroDivisionError):
            Mat(rows).inverse()


@st.composite
def rational_pair(draw):
    """Two m x n rational matrices, as Fraction rows."""
    m, n = (draw(st.integers(1, 5)) for _ in range(2))
    entry = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 6]))

    def rows(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))

    return rows(m, n), rows(m, n)


@settings(max_examples=150, deadline=None)
@given(rational_pair(), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
def test_integer_storage_matches_fraction_arithmetic(mats, k):
    a, b = mats
    A, B = Mat(a), Mat(b)
    assert fraction_rows(A) == a
    assert fraction_rows(B) == b
    assert fraction_rows(k * A) == fraction_rows(A * k) == [[k * x for x in r] for r in a]
    # one storage: the same matrix from "p/q" strings or from scaled
    # integers over a larger denominator (the trusted ``_of``, which only
    # normalizes) is equal and hashes equal
    d, num = A.scaled_int_rows()
    for same in (
        Mat([[str(x) for x in r] for r in a]),
        Mat._of([[3 * x for x in r] for r in num], 3 * d),
    ):
        assert same == A and hash(same) == hash(A)
        assert same.scaled_int_rows() == (d, num)
    assert A.is_integer() == (d == 1)
    assert json.loads(json_text(A)) == [[str(x) for x in r] for r in a]


@st.composite
def int_matrix(draw):
    """An m x n integer matrix, m >= 0, often of deficient rank."""
    m = draw(st.integers(0, 7))
    n = draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 6, 35])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    for i in draw(st.lists(st.integers(0, max(m - 1, 0)), max_size=2)) if m else []:
        k = draw(st.integers(-3, 3))
        rows.append([k * x for x in rows[i]])
    return rows, n


@settings(max_examples=200, deadline=None)
@given(int_matrix())
def test_left_kernel_is_saturated_and_complete(case):
    rows, n = case
    m = len(rows)
    kern = left_kernel(rows)
    for x in kern:
        assert len(x) == m
        assert all(sum(x[i] * rows[i][j] for i in range(m)) == 0 for j in range(n))
    # m - rank rows
    assert len(kern) == m - len(kernels.row_echelon_bareiss(rows)[0]) if m else kern == []
    if m:
        K = Lattice.from_int_rows(kern, 1, m)
        assert K.rank == len(kern)
        assert saturate_in(K, Lattice.standard(m)) == K


def test_left_kernel_small_cases():
    assert left_kernel([[2], [3]]) in ([[3, -2]], [[-3, 2]])
    assert left_kernel([[1, 0], [0, 1]]) == []
    # saturated: 2*(1, -1) is in the kernel of [[2], [2]], but so is (1, -1)
    assert left_kernel([[2], [2]]) in ([[1, -1]], [[-1, 1]])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-9, 9) | st.just(0), min_size=n, max_size=n),
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -2, 5]), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ),
    )
))
def test_pair_is_the_dense_bilinear_value(case):
    u, v, F_rows = case
    n = len(u)
    dense = sum(u[i] * F_rows[i][j] * v[j] for i in range(n) for j in range(n))
    assert _pair(u, v, _sparse_rows(F_rows)) == dense


def test_scalar_operands_are_strict():
    eye = Mat.identity(2)
    # products are by scalars only: a Mat times a Mat is refused too
    for bad in (True, False, 1.0, "2", eye):
        with pytest.raises(TypeError):
            eye * bad
        with pytest.raises(TypeError):
            bad * eye
    assert 3 * eye == eye * 3 == Mat([[3, 0], [0, 3]])
    assert F(1, 2) * eye == eye * F(1, 2) == Mat([[F(1, 2), 0], [0, F(1, 2)]])


def test_library_built_matrices_take_the_trusted_path(monkeypatch):
    A = Mat([[F(1, 2), 1], [3, 4]])
    lat = Lattice.from_int_rows([[1, 1], [0, 2]], form=Mat([[2, 1], [1, 2]]))

    def built():
        return [2 * A, A.inverse(), lat.gram()]

    want = built()

    def refuse(v):
        raise AssertionError("library-built rows were re-validated")

    monkeypatch.setattr(exact_linalg, "int_vector", refuse)
    assert built() == want
    with pytest.raises(AssertionError):
        Lattice.from_int_rows([[1]])


def test_lattice_from_int_rows_is_strict():
    for bad in ([[1.5, 2]], [[True, 2]], [[1, "2"]], [[F(1), 2]]):
        with pytest.raises(TypeError):
            Lattice.from_int_rows(bad)
    for den in (True, 2.0, "2"):
        with pytest.raises(TypeError):
            Lattice.from_int_rows([[1, 2]], den)
    with pytest.raises(ValueError):
        Lattice.from_int_rows([[1, 2]], 0)
    assert Lattice.from_int_rows([(2, 4)], 2) == Lattice.from_generators([[1, 2]])


def test_library_built_lattices_take_the_trusted_path(monkeypatch):
    a = Lattice.from_generators([[F(1, 2), 1], [3, 4]])
    b = Lattice.standard(2)

    def built():
        return [
            Lattice.from_generators([[2, 4], [F(1, 3), 0]]),
            lattice_join(a, b),
            saturate_in(Lattice.from_generators([[2, 4]]), b),
        ]

    want = built()

    def refuse(v):
        raise AssertionError("library-built rows were re-validated")

    monkeypatch.setattr(exact_linalg, "int_vector", refuse)
    assert built() == want
    with pytest.raises(AssertionError):
        Lattice.from_int_rows([[1]])
