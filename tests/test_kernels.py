"""Integer kernel routines against hand oracles and random cross-checks,
and the contract that ``kernels`` re-exports the pure-Python kernels."""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import oracles

from hklattice import _pykernels, kernels


small_entry = st.integers(min_value=-9, max_value=9)


def small_matrix(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(small_entry, min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


def _det_fraction(mat):
    """Plain Gaussian elimination over Fraction, the independent oracle."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for k in range(c, n):
                a[r][k] -= f * a[c][k]
    return det


def _sparse(H):
    """The sparse row form the lattices keep: per row, its (column, value)
    nonzeros in column order, so the pivot comes first."""
    return [tuple((c, x) for c, x in enumerate(row) if x) for row in H]


def _is_hnf(H):
    pivots = []
    for row in H:
        nz = [j for j, x in enumerate(row) if x]
        assert nz, "zero row in HNF output"
        p = nz[0]
        assert row[p] > 0
        if pivots:
            assert p > pivots[-1]
        for prev in range(len(pivots)):
            assert 0 <= H[prev][p] < row[p]
        pivots.append(p)
    return True


# one parameter, the kernels module, which keeps the "[python]" test ids
@pytest.mark.parametrize("mod", [kernels], ids=[kernels.IMPLEMENTATION])
class TestPerBackend:
    def test_hnf_known(self, mod):
        # span{(2,0),(0,2),(1,1)} = {(a,b): a+b even}, basis (1,1),(0,2)
        assert mod.hnf([[2, 0], [0, 2], [1, 1]]) == [[1, 1], [0, 2]]
        # a matrix already in HNF is a fixed point
        fixed = [[1, 0, 50, -11], [0, 3, 28, -2], [0, 0, 61, -13]]
        assert mod.hnf(fixed) == fixed

    def test_snf_known(self, mod):
        # Z^2 / <(2,0),(0,3)> = Z/6, so the chain is (1, 6)
        assert mod.snf_diagonal([[2, 0], [0, 3]]) == [1, 6]
        assert mod.snf_diagonal([[1, 2], [3, 4]]) == [1, 2]

    def test_hnf_zero_rows_dropped(self, mod):
        assert mod.hnf([[0, 0], [0, 0]]) == []
        assert mod.hnf([[2, 4], [1, 2], [3, 6]]) == [[1, 2]]

    def test_hnf_transform_contract(self, mod):
        A = [[6, 2, 0], [2, 4, 1], [0, 0, 0], [8, 6, 1]]
        H, U, rank = mod.hnf_transform(A)
        assert rank == len([r for r in H if any(r)])
        assert abs(mod.det_bareiss(U)) == 1
        m, n = len(A), len(A[0])
        prod = [
            [sum(U[i][k] * A[k][j] for k in range(m)) for j in range(n)]
            for i in range(m)
        ]
        assert prod[:rank] == H[:rank]
        assert all(not any(row) for row in prod[rank:])

    def test_solve_left_int_row(self, mod):
        H = mod.hnf([[2, 0, 1], [0, 3, 1]])
        n = len(H[0])
        plan = mod.solve_plan(_sparse(H), n)
        x = mod.solve_left_int_row(plan, [2, 3, 2])
        assert x is not None
        back = [sum(x[i] * H[i][j] for i in range(len(H))) for j in range(n)]
        assert back == [2, 3, 2]
        assert mod.solve_left_int_row(plan, [1, 0, 0]) is None

    def test_det_bareiss_known(self, mod):
        assert mod.det_bareiss([[1, 2], [3, 4]]) == -2
        assert mod.det_bareiss([[2, 0], [0, 3]]) == 6
        assert mod.det_bareiss([[1]]) == 1
        assert mod.det_bareiss([[1, 1], [1, 1]]) == 0

    def test_row_echelon_bareiss_contract(self, mod):
        A = [[2, 4, 6], [1, 2, 3], [0, 1, 5]]
        rows, piv = mod.row_echelon_bareiss(A)
        assert len(rows) == len(piv) == 2
        assert piv == sorted(piv)
        for r, p in zip(rows, piv):
            assert r[p] != 0
            assert all(x == 0 for x in r[:p])

    def test_smith_diag_divisibility(self, mod):
        d = mod.smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        nz = [x for x in d if x]
        assert all(x > 0 for x in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        prod = 1
        for x in nz:
            prod *= x
        assert prod == abs(mod.det_bareiss([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))

    def test_smith_transform_contract(self, mod):
        A = [[4, 2], [2, 8]]
        d, V, Vinv = oracles.smith_normal_form(A)
        assert abs(mod.det_bareiss(V)) == 1
        n = len(V)
        prod = [
            [sum(V[i][k] * Vinv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert mod.snf_diagonal(A) == d


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_hnf_idempotent_and_canonical(mat):
    H = kernels.hnf(mat)
    if H:
        _is_hnf(H)
        assert kernels.hnf(H) == H


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_hnf_preserves_row_lattice(mat):
    # A and A stacked with its own HNF generate the same integer row span
    H = kernels.hnf(mat)
    assert kernels.hnf(mat + H) == H


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_hnf_transform_is_hnf_with_unimodular_u(mat):
    # the transform branch of the shared Hermite loop: U is unimodular and
    # U * A is hnf(A) stacked over zero rows
    H, U, rank = kernels.hnf_transform(mat)
    assert H == kernels.hnf(mat)
    assert rank == len(H)
    assert abs(kernels.det_bareiss(U)) == 1
    prod = [[sum(u * row[j] for u, row in zip(urow, mat)) for j in range(len(mat[0]))] for urow in U]
    assert prod[:rank] == H
    assert not any(any(row) for row in prod[rank:])


@st.composite
def hermite_inputs(draw):
    """Small dense matrices, or the shape of the degree-4 join: a diagonal
    block with dense rows appended (or prepended), optionally duplicated,
    zeroed or negated in places."""
    if draw(st.booleans()):
        return draw(small_matrix(6))
    n = draw(st.integers(1, 9))
    diag = draw(st.lists(st.sampled_from([1, 1, 2, 3, 5, -1, -2, 10]), min_size=n, max_size=n))
    rows = [[d if i == j else 0 for j in range(n)] for i, d in enumerate(diag)]
    dense = draw(st.lists(st.lists(st.integers(-40, 40), min_size=n, max_size=n), min_size=1, max_size=4))
    rows = rows + dense if draw(st.booleans()) else dense + rows
    if draw(st.booleans()):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    return rows


@settings(max_examples=150, deadline=None)
@given(hermite_inputs(), st.booleans())
@example([[2, 0, 0], [0, 3, 0], [0, 0, 5], [7, -4, 9]], True)
@example([[0, 0], [0, 0]], True)
@example([[-3, 6, 1], [0, -2, 4]], False)
def test_hermite_matches_the_dense_loop(mat, want_u):
    # the kernel walks each pivot row's nonzeros; the oracle every column
    # from the pivot to the last; H, U and the rank must be the same
    assert _pykernels._hermite(mat, want_u) == oracles.hermite(mat, want_u)


@st.composite
def random_hnf(draw):
    """``(H, n)``: the HNF of a random n-column matrix, rank 0 included."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    mat = draw(st.lists(st.lists(small_entry, min_size=n, max_size=n), min_size=k, max_size=k))
    return (kernels.hnf(mat) if mat else []), n


@st.composite
def pivot_heavy_hnf(draw):
    """``(H, n)``: an HNF most of whose rows hold only their pivot, the
    pivots drawn from a few values, between rows with more entries; the
    pivot columns are a random subset, so free columns and rank 0 occur."""
    n = draw(st.integers(1, 9))
    rows = []
    for p in sorted(draw(st.sets(st.integers(0, n - 1)))):
        row = [0] * n
        row[p] = draw(st.sampled_from([1, 2, 3, 6]))
        if draw(st.integers(0, 3)) == 0:
            row[p + 1 :] = draw(st.lists(small_entry, min_size=n - p - 1, max_size=n - p - 1))
        rows.append(row)
    return (kernels.hnf(rows) if rows else []), n


@st.composite
def hnf_and_target(draw):
    """An HNF matrix H, from ``random_hnf`` or ``pivot_heavy_hnf``, and a
    target b of one of four kinds: a member x * H; a member plus 0 < d < h
    at a pivot whose entry h exceeds 1 (a nonzero remainder there); a
    member plus d != 0 at a column without a pivot (a residual the rows
    cannot clear); a random vector. Entries of H off its pivots, x, d and b
    may be negative."""
    H, n = draw(st.one_of(random_hnf(), pivot_heavy_hnf()))
    pivots = oracles.pivot_columns(H)
    x = draw(st.lists(st.integers(-9, 9), min_size=len(H), max_size=len(H)))
    b = [sum(xi * row[j] for xi, row in zip(x, H)) for j in range(n)]
    kind = draw(st.sampled_from(["member", "pivot-remainder", "off-pivot", "random"]))
    wide = [(p, row[p]) for row, p in zip(H, pivots) if row[p] > 1]
    free = [c for c in range(n) if c not in pivots]
    if kind == "pivot-remainder" and wide:
        p, h = draw(st.sampled_from(wide))
        b[p] += draw(st.integers(1, h - 1))
    elif kind == "off-pivot" and free:
        b[draw(st.sampled_from(free))] += draw(st.integers(-5, 5).filter(bool))
    elif kind == "random":
        b = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    return H, b


@settings(max_examples=200, deadline=None)
@given(hnf_and_target())
@example(([], [0, 0]))  # rank 0, zero target: the empty solution
@example(([], [0, 1]))  # rank 0, nonzero target
@example(([[2, 1, 0], [0, 3, 1]], [3, 1, 0]))  # remainder 1 at the pivot 2
@example(([[1, 0, 2], [0, 0, 3]], [1, 1, 2]))  # residual at column 1, no pivot
@example(([[1, 0, -2], [0, 3, -1]], [-2, 3, 3]))  # x = (-2, 1)
# pivot-only rows of pivots 2 and 3 around multi-entry rows, which change
# the targets of the later pivot-only rows; column 3 is free
@example(([[2, 0, 0, 0, 0, 0], [0, 1, 1, 0, 1, 2], [0, 0, 3, 0, 0, 0], [0, 0, 0, 0, 2, 0],
           [0, 0, 0, 0, 0, 3]], [4, -1, 2, 0, -3, 4]))  # x = (2, -1, 1, -1, 2)
@example(([[2, 0, 0, 0, 0, 0], [0, 1, 1, 0, 1, 2], [0, 0, 3, 0, 0, 0], [0, 0, 0, 0, 2, 0],
           [0, 0, 0, 0, 0, 3]], [4, -1, 2, 0, -2, 4]))  # remainder 1 at the pivot 2 of column 4
@example(([[2, 0, 0, 0, 0, 0], [0, 1, 1, 0, 1, 2], [0, 0, 3, 0, 0, 0], [0, 0, 0, 0, 2, 0],
           [0, 0, 0, 0, 0, 3]], [4, -1, 2, 7, -3, 4]))  # residual at the free column 3
@example(([[1, 0, 0], [0, 1, 0]], [5, -7, 0]))  # pivot-only rows of pivot 1 only
@example(([[6]], [-12]))  # one row, a single pivot-only group
def test_sparse_solve_matches_dense_oracle(case):
    H, b = case
    x = kernels.solve_left_int_row(kernels.solve_plan(_sparse(H), len(b)), b)
    assert x == oracles.solve_left_int_row(H, oracles.pivot_columns(H), b)
    if x is not None:
        assert [sum(xi * row[j] for xi, row in zip(x, H)) for j in range(len(b))] == b


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(small_entry, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_matches_fraction_elimination(mat):
    assert kernels.det_bareiss(mat) == _det_fraction(mat)


@settings(max_examples=40, deadline=None)
@given(small_matrix())
def test_echelon_rank_matches_hnf(mat):
    rows, piv = kernels.row_echelon_bareiss(mat)
    _, _, rank = kernels.hnf_transform(mat)
    assert len(rows) == rank
    # Q-row-span preserved: HNF of scaled stacks agree after saturation
    assert kernels.hnf_transform(mat + rows)[2] == rank


@settings(max_examples=40, deadline=None)
@given(small_matrix())
def test_snf_diag_consistent_with_transform(mat):
    diag = oracles.smith_normal_form(mat)[0]
    assert kernels.snf_diagonal(mat) == kernels.smith_normal_form(mat) == diag


def _determinantal_diagonal(mat):
    """The Smith diagonal from the determinantal divisors, independent of
    any pivoting: D_k is the gcd of the k x k minors (``_det_fraction``),
    D_0 = 1, and the k-th entry is D_k / D_(k-1), or 0 once D_k is 0."""
    m, n = len(mat), len(mat[0])
    diag, prev = [], 1
    for k in range(1, min(m, n) + 1):
        dk = gcd(*(
            int(_det_fraction([[mat[i][j] for j in cols] for i in rows]))
            for rows in combinations(range(m), k)
            for cols in combinations(range(n), k)
        ))
        diag.append(dk // prev if dk else 0)
        prev = dk
    return diag


@settings(max_examples=40, deadline=None)
@given(small_matrix())
@example([[2, 4], [6, 8]])
@example([[0, 0, 0], [0, 6, 0], [0, 0, 4]])
def test_snf_diagonal_matches_the_determinantal_divisors(mat):
    assert kernels.snf_diagonal(mat) == _determinantal_diagonal(mat)


def test_oracle_pivot_columns():
    assert oracles.pivot_columns([[1, 0, 5], [0, 0, 3]]) == [0, 2]
    with pytest.raises(ValueError):
        oracles.pivot_columns([[1, 0], [0, 0]])


def test_active_backend_is_reported():
    assert kernels.IMPLEMENTATION == "python"


def test_kernels_are_the_pure_python_functions():
    names = [n for n in kernels.__all__ if n != "IMPLEMENTATION"]
    assert sorted(names) == sorted(_pykernels.__all__)
    for name in names:
        assert getattr(kernels, name) is getattr(_pykernels, name), name
