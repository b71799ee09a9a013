"""The certified modular nullspace against fraction-free back-substitution,
and the deformation solver against its Bareiss route."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklattice import kernels
from hklattice.deformation_fix import (
    FixInstance,
    FixSolution,
    _sym_pairs,
    _vector_to_pair,
    polarization_kernel,
    random_instance,
    solve_fixed_space,
)
from hklattice.exact_linalg import (
    Mat,
    _kernel_mod,
    _nullspace_primes,
    _sparse_rows,
    rational_nullspace,
)


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
    """Reference solver: Fraction-built equations and the Bareiss nullspace."""
    n = inst.n
    pairs = _sym_pairs(n)
    nvars = len(pairs) + 1
    var_index = {p: k for k, p in enumerate(pairs)}
    rows = []
    for mu in polarization_kernel(inst):
        amu = [sum(inst.A[(k, l)] * mu[l] for l in range(n)) for k in range(n)]
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
    return FixSolution(n, [_vector_to_pair(v, n, pairs) for v in sols])


def dense_kernel_mod(rows, ncols, p):
    """Reference: a kernel basis mod p by dense Gauss-Jordan elimination."""
    A = [[x % p for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(A)) if A[i][c]), None)
        if k is None:
            continue
        A[r], A[k] = A[k], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(a - f * b) % p for a, b in zip(A[i], A[r])]
        pivots.append(c)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            x = [0] * ncols
            x[f] = 1
            for row, c in zip(A, pivots):
                x[c] = -row[f] % p
            basis.append(x)
    return basis


def right_echelon_mod(basis, ncols, p):
    """Reference: the echelon form from the right of a kernel basis mod p,
    reduced, with last nonzero entries 1 at distinct columns, as
    ``{column: vector}``. Any basis of the kernel gives the same result."""
    basis = [list(v) for v in basis]
    done = {}
    for c in range(ncols - 1, -1, -1):
        if not basis:
            break
        piv = next((v for v in basis if v[c]), None)
        if piv is None:
            continue
        basis = [v for v in basis if v is not piv]
        inv = pow(piv[c], -1, p)
        piv = [x * inv % p for x in piv]
        for v in (*basis, *done.values()):
            f = v[c]
            if f:
                for k in range(c + 1):
                    if piv[k]:
                        v[k] = (v[k] - f * piv[k]) % p
        done[c] = piv
    return done


@st.composite
def sparse_int_matrices(draw):
    m = draw(st.integers(0, 12))
    n = draw(st.integers(1, 16))
    entry = st.sampled_from([0] * 8 + [1, -1, 2, 3, -5, 7, 10, 35])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    return rows, n


@settings(max_examples=300, deadline=None)
@given(sparse_int_matrices(), st.sampled_from([2, 5, 7, "proth"]))
def test_kernel_mod_is_the_right_echelon_form(case, p):
    rows, ncols = case
    if p == "proth":
        p = next(_nullspace_primes())
    sparse = _sparse_rows(rows)
    kern = _kernel_mod(sparse, ncols, p)
    assert kern == right_echelon_mod(dense_kernel_mod(rows, ncols, p), ncols, p)
    # the shape rational_nullspace relies on, keys ascending
    assert list(kern) == sorted(kern)
    for f, x in kern.items():
        assert x[f] == 1 and not any(x[f + 1 :])
        assert all(x[g] == 0 for g in kern if g != f)
        assert all(sum(a * x[k] for k, a in r) % p == 0 for r in sparse)


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
    assert rational_nullspace(rows, ncols) == bareiss_nullspace(rows, ncols)


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
        assert rational_nullspace(rows, ncols) == bareiss_nullspace(rows, ncols)
    assert rational_nullspace([[0, 0, 0]], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rational_nullspace([[2, 4]], 2) == [[-2, 1]]


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
        got = rational_nullspace(rows, 3)
        assert got == bareiss_nullspace(rows, 3)
        assert all(sum(a * x for a, x in zip(r, v)) == 0 for r in rows for v in got)
    assert rational_nullspace(cases[0], 3) == [[-2, 1, 0]]


def test_row_length_checked():
    with pytest.raises(ValueError):
        rational_nullspace([[1, 2]], 3)


def _assert_same_as_bareiss_route(inst):
    got = solve_fixed_space(inst)
    want = bareiss_route(inst)
    assert got.pairs == want.pairs
    assert got.to_json() == want.to_json()


def test_hand_instance_matches_bareiss_route():
    _assert_same_as_bareiss_route(FixInstance(Mat.identity(2), [1, 0]))
    _assert_same_as_bareiss_route(FixInstance(Mat([[2, 1], [1, 3]]), [1, 1]))
    rational = Mat([[Fraction(1, 2), 1], [1, Fraction(-3, 7)]])
    _assert_same_as_bareiss_route(FixInstance(rational, [Fraction(2, 3), 1]))


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10**6))
def test_random_instances_match_bareiss_route(n, seed):
    _assert_same_as_bareiss_route(random_instance(random.Random(seed), n))
