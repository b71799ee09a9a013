"""Inertia of symmetric matrices: the exact LDL^T signature against a
Faddeev-LeVerrier oracle, on the matrix shapes the lattice code produces
(zero diagonals, hyperbolic U blocks, singular forms)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklattice.bb_lattice import bb_form, orth_complement_basis, sample_exceptional
from hklattice.exact_linalg import Mat, signature_symmetric


def faddeev_leverrier_signature(m: Mat) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts, from the characteristic
    polynomial.

    Faddeev-LeVerrier over exact rationals gives det(xI - A); a real-rooted
    polynomial has as many positive roots as sign variations in its
    coefficients (Descartes), and p(-x) counts the negative ones. Cost grows
    like n^4, so this serves only as an oracle on small matrices.
    """
    n = m.rows
    c = [Fraction(0)] * (n + 1)
    c[n] = Fraction(1)
    Mk = Mat.from_int_rows([[0] * n] * n)
    eye = Mat.identity(n)
    for k in range(1, n + 1):
        Mk = m * Mk + c[n - k + 1] * eye
        AM = m * Mk
        tr = sum(AM[i, i] for i in range(n))
        c[n - k] = Fraction(-tr, k)
    n_zero = 0
    while n_zero <= n and c[n_zero] == 0:
        n_zero += 1
    coeffs = c[n_zero:]
    n_pos = _sign_variations(coeffs)
    n_neg = _sign_variations([x if i % 2 == 0 else -x for i, x in enumerate(coeffs)])
    assert n_pos + n_neg + n_zero == n
    return n_pos, n_neg, n_zero


def _sign_variations(coeffs) -> int:
    signs = [1 if x > 0 else -1 for x in coeffs if x]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@st.composite
def symmetric_int_matrices(draw):
    """Symmetric integer matrices up to 8x8, biased to the hard cases of a
    congruence elimination: zero diagonals, U blocks, singular matrices."""
    n = draw(st.integers(1, 8))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -5])
    zero_diag = draw(st.booleans())
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and zero_diag:
                continue
            a[i][j] = a[j][i] = draw(entry)
    if n >= 2 and draw(st.booleans()):
        i = draw(st.integers(0, n - 2))
        for t in range(n):
            a[i][t] = a[t][i] = a[i + 1][t] = a[t][i + 1] = 0
        a[i][i + 1] = a[i + 1][i] = 1
    if n >= 2 and draw(st.booleans()):
        # the last row and column repeat the first: singular
        for j in range(n - 1):
            a[n - 1][j] = a[j][n - 1] = a[0][j]
        a[n - 1][n - 1] = a[0][0]
        a[0][n - 1] = a[n - 1][0] = a[0][0]
    return a


@settings(max_examples=300, deadline=None)
@given(symmetric_int_matrices())
def test_ldlt_inertia_matches_oracle(rows):
    m = Mat(rows)
    assert signature_symmetric(m) == faddeev_leverrier_signature(m)


@settings(max_examples=60, deadline=None)
@given(symmetric_int_matrices(), st.integers(1, 6))
def test_ldlt_inertia_of_rational_matrices(rows, den):
    m = Mat([[Fraction(x, den) for x in r] for r in rows])
    assert signature_symmetric(m) == faddeev_leverrier_signature(m)


def test_known_inertias():
    assert signature_symmetric(Mat([[0, 1], [1, 0]])) == (1, 1, 0)
    assert signature_symmetric(Mat([[0, 0], [0, 0]])) == (0, 0, 2)
    # all diagonals zero, pivoting needs the row-and-column addition
    assert signature_symmetric(Mat([[0, 1, 1], [1, 0, 1], [1, 1, 0]])) == (1, 2, 0)
    assert signature_symmetric(Mat([[0, 2, 0], [2, 0, 0], [0, 0, 0]])) == (1, 1, 1)


def test_complement_gram_of_sampled_exceptionals():
    rng = random.Random(4)
    for _ in range(4):
        d = sample_exceptional(rng)
        basis = orth_complement_basis(d)
        g = Mat([[bb_form(x, y) for y in basis] for x in basis])
        assert signature_symmetric(g) == (3, 19, 0)


def test_non_symmetric_rejected():
    with pytest.raises(ValueError):
        signature_symmetric(Mat([[1, 2], [3, 4]]))
    with pytest.raises(ValueError):
        signature_symmetric(Mat([[1, 2, 3]]))
