"""The certified kernel against fraction-free back-substitution, and the
deformation solver against its Bareiss route. ``certified_kernel`` takes
sparse rows; the dense rows of the references are converted by
``_sparse_rows``."""

import random
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hklattice import deformation_fix, kernels
from hklattice.deformation_fix import (
    FixInstance,
    FixSolution,
    _sym_pairs,
    _vector_to_pair,
    random_instance,
    solve_fixed_space,
)
from hklattice.exact_linalg import (
    Mat,
    _nullspace_primes,
    _right_echelon,
    _sparse_rows,
    certified_kernel,
)
from oracles import polarization_kernel


def bareiss_nullspace(rows, ncols):
    """Reference: back-substitution through ``row_echelon_bareiss``, one
    primitive integer vector per free column."""
    ech, piv = kernels.row_echelon_bareiss(rows) if rows else ([], [])
    pivset = set(piv)
    sols = []
    for f in (c for c in range(ncols) if c not in pivset):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for t in range(len(piv) - 1, -1, -1):
            p = piv[t]
            row = ech[t]
            acc = Fraction(0)
            for c in range(p + 1, ncols):
                if row[c] and x[c]:
                    acc += row[c] * x[c]
            x[p] = -acc / row[p]
        d = lcm(*(v.denominator for v in x))
        xi = [(v * d).numerator for v in x]
        g = gcd(*xi)
        sols.append([v // g for v in xi])
    return sols


def bareiss_route(inst: FixInstance) -> FixSolution:
    """Reference solver: Fraction-built equations over the saturated kernel
    basis of s^T A (not the library's A^{-1} s^perp basis) and the Bareiss
    nullspace."""
    n = inst.n
    pairs = _sym_pairs(n)
    nvars = len(pairs) + 1
    var_index = {p: k for k, p in enumerate(pairs)}
    A = inst.A_inv.inverse()
    rows = []
    for mu in polarization_kernel(inst):
        amu = [sum(A[(k, l)] * mu[l] for l in range(n)) for k in range(n)]
        for r in range(n):
            coeffs = [Fraction(0)] * nvars
            coeffs[-1] = Fraction(mu[r])
            for k in range(n):
                coeffs[var_index[(min(r, k), max(r, k))]] -= 2 * amu[k]
            d = lcm(*(c.denominator for c in coeffs))
            ints = [(c * d).numerator for c in coeffs]
            g = gcd(*ints)
            if g:
                rows.append([x // g for x in ints])
    sols = bareiss_nullspace(rows, nvars)
    return FixSolution([_vector_to_pair(v, n, pairs) for v in sols])


def recombined(basis):
    """Another basis of the same span: reversed, each vector plus the next,
    scaled by -3."""
    rev = basis[::-1]
    out = [[a + b for a, b in zip(u, v)] for u, v in zip(rev, rev[1:])]
    out += rev[-1:]
    return [[-3 * x for x in v] for v in out]


def certified(rows, ncols):
    """``certified_kernel`` on the sparse form of dense ``rows``, given the
    oracle basis recombined."""
    candidates = recombined(bareiss_nullspace(rows, ncols))
    return certified_kernel(_sparse_rows(rows), ncols, candidates)


@st.composite
def int_matrices(draw):
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["dense", "sparse", "low_rank", "large", "zero"]))
    small = st.integers(-9, 9)

    def row(entries):
        return draw(st.lists(entries, min_size=n, max_size=n))

    if kind == "zero":
        rows = [[0] * n for _ in range(m)]
    elif kind == "low_rank":
        r = draw(st.integers(1, min(m, n)))
        basis = [row(small) for _ in range(r)]
        rows = []
        for _ in range(m):
            cs = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
            rows.append([sum(c * b[j] for c, b in zip(cs, basis)) for j in range(n)])
    elif kind == "sparse":
        rows = [row(st.sampled_from([0, 0, 0, 0, 1, -1, 2, 7])) for _ in range(m)]
    elif kind == "large":
        # solutions of hundreds of bits: several primes must be combined
        rows = [row(st.integers(-(2**40), 2**40)) for _ in range(m)]
    else:
        rows = [row(small) for _ in range(m)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=3)):
        for r in rows:
            r[j] = 0
    for i in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        rows.append(list(rows[i]))
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = [0] * n
    return rows, n


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_rational_nullspace_matches_bareiss(case):
    rows, ncols = case
    assert certified(rows, ncols) == bareiss_nullspace(rows, ncols)


@st.composite
def systems_with_a_known_kernel(draw):
    """(rows, ncols, K): independent integer vectors K, and rows whose
    rational kernel is exactly their span: a basis of the vectors
    orthogonal to K, each scaled, with integer combinations of them
    added, in a drawn order."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(0, n))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7, 2**40])
    K = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(k)]
    assume(len(kernels.hnf(K)) == k)
    perp = bareiss_nullspace(K, n)
    scales = draw(st.lists(st.sampled_from([1, -2, 5]), min_size=len(perp), max_size=len(perp)))
    rows = [[f * x for x in v] for f, v in zip(scales, perp)]
    for _ in range(draw(st.integers(0, 3)) if perp else 0):
        cs = draw(st.lists(st.integers(-3, 3), min_size=len(perp), max_size=len(perp)))
        rows.append([sum(c * v[j] for c, v in zip(cs, perp)) for j in range(n)])
    return draw(st.permutations(rows)), n, K


@settings(max_examples=200, deadline=None)
@given(systems_with_a_known_kernel())
def test_sparse_rows_certify_a_known_kernel_as_the_dense_route_finds_it(case):
    rows, ncols, K = case
    assert certified_kernel(_sparse_rows(rows), ncols, K) == bareiss_nullspace(rows, ncols)


def test_small_and_degenerate_shapes():
    for rows, ncols in [
        ([[0]], 1),
        ([[5]], 1),
        ([[-3]], 1),
        ([], 3),
        ([[0, 0, 0], [0, 0, 0]], 3),
        ([[1, 2, 3]], 3),
        ([[0, 0, 4]], 3),
        ([[2, 4], [1, 2], [3, 6]], 2),
    ]:
        assert certified(rows, ncols) == bareiss_nullspace(rows, ncols)
    assert certified_kernel([()], 3, [[0, 0, -5], [1, 1, 1], [0, 2, 0]]) == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    assert certified_kernel([((0, 2), (1, 4))], 2, [[6, -3]]) == [[-2, 1]]


def test_the_proth_prime_sequence_is_pinned():
    # the k of the first primes k * 2^126 + 1, the same on every call
    ks = [99, 163, 187, 199, 205, 399, 513, 529]
    for _ in range(2):
        primes = list(islice(_nullspace_primes(), 8))
        assert [p >> 126 for p in primes] == ks
        assert all(p == (k << 126) + 1 for p, k in zip(primes, ks))


def test_unlucky_primes_still_give_the_rational_basis():
    primes = _nullspace_primes()
    p = next(primes)
    q = next(primes)
    cases = [
        # every entry vanishes mod p: nullity 3 mod p, 1 over Q
        [[p, 2 * p, 3 * p], [2 * p, 4 * p, 7 * p]],
        # the same mod the first two primes, whose residues then agree
        [[p * q, 2 * p * q, 3 * p * q], [2 * p * q, 4 * p * q, 7 * p * q]],
        # the rank drops mod p
        [[1, 1, 0], [1, 1 + p, 0]],
        # same rank mod p but a later pivot column
        [[p, 0, 1], [0, 1, 0]],
    ]
    for rows in cases:
        got = certified(rows, 3)
        assert got == bareiss_nullspace(rows, 3)
        assert all(sum(a * x for a, x in zip(r, v)) == 0 for r in rows for v in got)
    assert certified(cases[0], 3) == [[-2, 1, 0]]


def test_row_length_checked():
    # a sparse row reaches column 3 of three, or a column below 0
    for row in [((0, 1), (3, 2)), ((-1, 1),)]:
        with pytest.raises(ValueError):
            certified_kernel([((0, 1),), row], 3, [])
    # a candidate of the wrong length
    with pytest.raises(ValueError):
        certified_kernel([((0, 1),)], 3, [[0, 1]])


def test_right_echelon_is_one_form_per_q_span():
    # one line spanned by different vectors, and another line
    assert _right_echelon([[2, 0]], 2) == _right_echelon([[3, 0]], 2) == [[1, 0]]
    assert _right_echelon([[1, 1]], 2) != _right_echelon([[2, 0]], 2)
    rnd = random.Random(3)
    for _ in range(20):
        basis = [[rnd.randint(-4, 4) for _ in range(6)] for _ in range(3)]
        if len(kernels.hnf(basis)) < 3:
            continue
        assert _right_echelon(recombined(basis), 6) == _right_echelon(basis, 6)
    with pytest.raises(ArithmeticError):
        _right_echelon([[1, 2], [2, 4]], 2)


def test_a_dropped_candidate_is_refuted():
    # the kernel of one row in three columns is 2-dimensional
    row = _sparse_rows([[1, 2, 3]])
    with pytest.raises(ArithmeticError):
        certified_kernel(row, 3, [[-2, 1, 0]])
    # rank 2 over Q and 0 mod the first two primes: no prime gives the
    # claimed rank 3, and the Hadamard bound ends the search
    primes = _nullspace_primes()
    pq = next(primes) * next(primes)
    rows = [[pq, 2 * pq, 3 * pq], [2 * pq, 4 * pq, 7 * pq], [3 * pq, 6 * pq, 10 * pq]]
    with pytest.raises(ArithmeticError):
        certified_kernel(_sparse_rows(rows), 3, [])
    # fewer nonzero rows than the claimed rank
    with pytest.raises(ArithmeticError):
        certified_kernel(_sparse_rows([[1, 1, 0], [0, 0, 0]]), 3, [])


def test_a_candidate_failing_one_row_is_refuted():
    with pytest.raises(ArithmeticError):
        certified_kernel(_sparse_rows([[1, 2, 3], [0, 1, 1]]), 3, [[-2, 1, 0]])


def test_dependent_candidates_are_refuted():
    row = _sparse_rows([[1, 2, 3]])
    with pytest.raises(ArithmeticError):
        certified_kernel(row, 3, [[-2, 1, 0], [4, -2, 0]])
    with pytest.raises(ArithmeticError):
        certified_kernel(row, 3, [[-2, 1, 0], [-3, 0, 1], [-5, 1, 1]])


def test_solve_refutes_a_span_that_misses_a_solution(monkeypatch):
    # with one structural generator dropped the fixed space is not their span
    inst = FixInstance(Mat([[2, 1], [1, 3]]), [1, 1])
    gens = deformation_fix.expected_generators(inst)
    monkeypatch.setattr(deformation_fix, "expected_generators", lambda _: gens[:1])
    with pytest.raises(ArithmeticError):
        solve_fixed_space(inst)


def _assert_same_as_bareiss_route(inst):
    got = solve_fixed_space(inst)
    want = bareiss_route(inst)
    assert (got.dimension, got.pairs) == (want.dimension, want.pairs)


def test_hand_instance_matches_bareiss_route():
    _assert_same_as_bareiss_route(FixInstance(Mat.identity(2), [1, 0]))
    _assert_same_as_bareiss_route(FixInstance(Mat([[2, 1], [1, 3]]), [1, 1]))
    rational = Mat([[Fraction(1, 2), 1], [1, Fraction(-3, 7)]])
    _assert_same_as_bareiss_route(FixInstance(rational, [Fraction(2, 3), 1]))


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10**6))
def test_random_instances_match_bareiss_route(n, seed):
    _assert_same_as_bareiss_route(random_instance(random.Random(seed), n))
