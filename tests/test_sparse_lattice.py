"""The sparse lattice paths against dense references.

Membership, integer coordinates and divisibility (scaling, the rank-0
case, pivots read off the sparse rows, the vector given as integers over a
denominator, as Fractions or as strings) are compared with the dense
solve of ``oracles.solve_left_int_row`` on the HNF rows, rational coordinates
with a Fraction back-substitution, basis lifts with dense row sums, and
``det_int`` with ``kernels.det_bareiss``, including entries divisible by a
Proth prime, whose pivots need not be units modulo a product of primes."""

import random
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles

from hklattice import exact_linalg, kernels
from hklattice.exact_linalg import (
    Lattice,
    Mat,
    _combine_rows,
    _coord_matrix,
    _nullspace_primes,
    det_int,
    sublattice_index,
)
from hklattice.h4_model import (
    double_cover_sym2_matrix,
    fujiki_det,
    fujiki_rows,
    sym2_lattice,
)

entry = st.integers(-6, 6) | st.sampled_from([0, 0, 0, 1, -1])


@st.composite
def lattices(draw):
    """A random lattice: n <= 7, up to n generators (rank may fall short of
    n or be 0), denominator up to 12."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, n))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    den = draw(st.integers(1, 12))
    return Lattice.from_int_rows(rows, den, ambient_dim=n)


@st.composite
def lattice_and_vector(draw):
    """A lattice and a rational vector num/den: a member, a member plus a
    small perturbation, or a random (often non-integral) vector."""
    lat = draw(lattices())
    n = lat.ambient_dim
    kind = draw(st.sampled_from(["member", "perturbed", "random"]))
    den = draw(st.integers(1, 30))
    if kind == "random":
        num = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
        return lat, num, den
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=lat.rank, max_size=lat.rank))
    d = lat.den
    (vec,) = _combine_rows([coeffs], lat._sparse, n)
    # vec / d lies in the lattice; write it over den * d
    num = [x * den for x in vec]
    if kind == "perturbed":
        i = draw(st.integers(0, n - 1))
        num[i] += draw(st.integers(1, 3))
    return lat, num, den * d


def dense_coords(lat, num, den):
    """Reference: integer coordinates of num/den via the dense kernel."""
    scaled = [lat.den * x for x in num]
    if any(x % den for x in scaled):
        return None
    w = [x // den for x in scaled]
    x = oracles.solve_left_int_row(lat.int_basis, oracles.pivot_columns(lat.int_basis), w)
    return None if x is None else tuple(x)


def fraction_coords(lat, num, den):
    """Reference: rational coordinates of num/den by Fraction
    back-substitution through the dense HNF rows, or None."""
    res = [Fraction(x, den) for x in num]
    out = []
    for row in lat.int_basis:
        p = next(c for c, x in enumerate(row) if x)
        c = res[p] / Fraction(row[p], lat.den)
        out.append(c)
        res = [y - c * Fraction(r, lat.den) for y, r in zip(res, row)]
    return None if any(res) else out


@settings(max_examples=200, deadline=None)
@given(lattice_and_vector())
def test_membership_and_coords_match_dense_solve(case):
    lat, num, den = case
    want = dense_coords(lat, num, den)
    assert lat.coords(num, den) == want
    assert lat.contains(num, den) is (want is not None)
    if want is None or not any(want):
        with pytest.raises(ValueError):
            lat.divisibility(num, den)
    else:
        assert lat.divisibility(num, den) == gcd(*want)
    # the same vector as Fractions, or as "p/q" strings, over den 1
    fracs = [Fraction(x, den) for x in num]
    assert lat.coords(fracs) == want
    assert lat.contains([str(x) for x in fracs]) is (want is not None)
    if want is not None and any(want):
        assert lat.divisibility(fracs) == gcd(*want)


def test_merged_api_is_strict():
    lat = Lattice.standard(2)
    # float and bool entries are refused, not truncated or read as 1
    for v in ([4.0, 8], [True, 0], [1, False]):
        for method in (lat.contains, lat.coords, lat.divisibility):
            with pytest.raises(TypeError):
                method(v)
            with pytest.raises(TypeError):
                method(v, 2)
    # the denominator is an int > 0
    for method in (lat.contains, lat.coords, lat.divisibility):
        with pytest.raises(TypeError):
            method([4, 8], True)
        with pytest.raises(TypeError):
            method([4, 8], 2.0)
        for den in (0, -1):
            with pytest.raises(ValueError):
                method([4, 8], den)
    with pytest.raises(ValueError):
        lat.contains([1, 2, 3])
    assert lat.contains([4, 8], 4) and not lat.contains([4, 8], 8)
    assert lat.coords([4, 8], 2) == (2, 4)
    assert lat.divisibility([4, 8], 2) == 2
    assert lat.contains(["1/2", "3/2"], 2) is False
    assert lat.coords([Fraction(3, 2), 1], 3) is None


@settings(max_examples=200, deadline=None)
@given(lattice_and_vector())
def test_rational_coords_match_fraction_solve(case):
    lat, num, den = case
    want = fraction_coords(lat, num, den)
    # _q_coords(num) is None exactly off the Q-span, and otherwise a
    # positive integer multiple m of the coordinates of num = den * (num/den),
    # with m = 1 when num lies in the lattice
    got = lat._q_coords(num)
    if want is None:
        assert got is None
        return
    y = [den * c for c in want]
    m = next((Fraction(g) / c for g, c in zip(got, y) if c), Fraction(1))
    assert m.denominator == 1 and m > 0
    assert [Fraction(g) for g in got] == [m * c for c in y]
    if all(c.denominator == 1 for c in y):
        assert m == 1


@settings(max_examples=200, deadline=None)
@given(lattices(), st.data())
def test_combine_basis_matches_dense_sum(lat, data):
    coeff_rows = data.draw(
        st.lists(st.lists(st.integers(-9, 9), min_size=lat.rank, max_size=lat.rank), max_size=3)
    )
    want = []
    for coeffs in coeff_rows:
        vec = [0] * lat.ambient_dim
        for c, row in zip(coeffs, lat.int_basis):
            vec = [a + c * x for a, x in zip(vec, row)]
        want.append(vec)
    assert _combine_rows(coeff_rows, lat._sparse, lat.ambient_dim) == want


def test_sparse_rows_are_the_nonzeros_of_the_basis(h4):
    lat = h4.lattice
    assert lat._sparse == tuple(
        tuple((c, x) for c, x in enumerate(row) if x) for row in lat.int_basis
    )
    assert [r[0][0] for r in lat._sparse] == oracles.pivot_columns(lat.int_basis)
    assert sum(len(r) for r in lat._sparse) == 371
    assert sorted(len(r) for r in lat._sparse) == [1] * 253 + [2] * 22 + [74]
    # a new form reuses the rows and the solve plan
    assert lat.coords(lat.int_basis[0], lat.den) is not None
    assert lat.with_form(None)._sparse is lat._sparse
    assert lat.with_form(None)._plan is lat._plan is not None


def test_solve_plan_of_the_degree4_basis(h4):
    # 23 rows substituted one by one; the 253 pivot-only rows, all of
    # pivot 10, solved in one group; every column is a pivot
    multi, groups, free, order = kernels.solve_plan(h4.lattice._sparse, h4.lattice.ambient_dim)
    assert len(multi) == 23 and free is None
    assert [(h, len(gather(range(276)))) for h, gather in groups] == [(10, 253)]
    assert sorted(order(range(276))) == list(range(276))


# -- det_int -----------------------------------------------------------------


@st.composite
def square_matrices(draw, entries=entry):
    n = draw(st.integers(0, 12))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2:
        shape = draw(st.sampled_from(["plain", "duplicate_row", "zero_row", "zero_col"]))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if shape == "duplicate_row" and i != j:
            rows[i] = list(rows[j])
        elif shape == "zero_row":
            rows[i] = [0] * n
        elif shape == "zero_col":
            for r in rows:
                r[j] = 0
    return rows


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_det_int_matches_bareiss(rows):
    assert det_int(rows) == kernels.det_bareiss(rows)


@settings(max_examples=60, deadline=None)
@given(square_matrices(st.integers(-(2**60), 2**60)))
def test_det_int_matches_bareiss_on_60_bit_entries(rows):
    assert det_int(rows) == kernels.det_bareiss(rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.permutations(range(n)), st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))))
def test_det_int_of_signed_permutation(case):
    perm, signs = case
    n = len(perm)
    rows = [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    assert det_int(rows) == kernels.det_bareiss(rows)
    assert abs(det_int(rows)) == 1


_P = next(_nullspace_primes())


@pytest.fixture()
def echelon_moduli(monkeypatch):
    """The modulus of each ``_echelon_mod`` call made during the test."""
    moduli = []
    real = exact_linalg._echelon_mod

    def counting(rows, m):
        moduli.append(m)
        return real(rows, m)

    monkeypatch.setattr(exact_linalg, "_echelon_mod", counting)
    return moduli


@settings(max_examples=60, deadline=None)
@given(square_matrices(st.integers(-3, 3).map(lambda x: _P * x) | entry))
def test_det_int_matches_bareiss_on_multiples_of_a_proth_prime(rows):
    # entries divisible by the first Proth prime make pivots that are not
    # units modulo a product of primes; such a round is dropped
    assert det_int(rows) == kernels.det_bareiss(rows)


def test_a_non_unit_pivot_drops_the_product_round(echelon_moduli):
    q = _nullspace_primes()
    p, p2 = next(q), next(q)
    # the bound 2 * (p + 1) needs two primes; the pivot p is not a unit
    # modulo p * p2, so each prime takes its own round
    assert det_int([[p, 0], [0, 1]]) == p
    assert echelon_moduli == [p * p2, p, p2]


def test_the_fujiki_gram_determinant_is_one_elimination(echelon_moduli):
    rows = fujiki_rows()
    bound = 2 * (isqrt(prod(sum(x * x for x in r) for r in rows)) + 1)
    assert det_int(rows) == 25 * 2**46
    # one elimination modulo the product of the five primes the bound needs
    primes = list(islice(_nullspace_primes(), 5))
    assert prod(primes[:4]) <= bound < prod(primes)
    assert echelon_moduli == [prod(primes)]


def _echelon_or_refusal(echelon, rows, m):
    try:
        return echelon(rows, m)
    except ValueError:
        return "non-unit pivot"


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 10, 12, 32749]),
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(entry | st.just(0), min_size=n, max_size=n), max_size=9
        )
    ),
)
def test_echelon_mod_matches_the_scanning_oracle(m, rows):
    # the same pivots, in the same order, with the same items; a composite
    # modulus refuses the same non-unit pivot
    sparse = exact_linalg._sparse_rows(rows)
    assert _echelon_or_refusal(exact_linalg._echelon_mod, sparse, m) == _echelon_or_refusal(
        oracles.echelon_mod, sparse, m
    )


def test_echelon_mod_drops_a_fill_in_that_vanishes_mod_m():
    # mod 12 the pivot row (1, 6, 0) clears the 2 of (2, 0, 1): the fill-in
    # -2 * 6 is 0 mod 12 at a column the row did not have, which stays out
    rows = exact_linalg._sparse_rows([[1, 6, 0], [2, 0, 1]])
    assert exact_linalg._echelon_mod(rows, 12) == oracles.echelon_mod(rows, 12) == [
        (0, 0, 1, [(1, 6)]),
        (1, 2, 1, []),
    ]
    # an update that cancels an entry the row had removes it
    rows = exact_linalg._sparse_rows([[1, 6, 0], [1, 6, 1]])
    assert exact_linalg._echelon_mod(rows, 12) == oracles.echelon_mod(rows, 12) == [
        (0, 0, 1, [(1, 6)]),
        (1, 2, 1, []),
    ]
    # a pivot that is not a unit mod 12 is refused by both
    rows = exact_linalg._sparse_rows([[1, 6, 0], [2, 0, 1], [0, 0, 4]])
    for echelon in (exact_linalg._echelon_mod, oracles.echelon_mod):
        with pytest.raises(ValueError):
            echelon(rows, 12)


def test_echelon_mod_on_the_276_matrices_matches_the_oracle():
    modulus = prod(islice(_nullspace_primes(), 5))
    for rows in (
        exact_linalg._sparse_rows(fujiki_rows()),
        double_cover_sym2_matrix().sparse_rows(),
    ):
        assert exact_linalg._echelon_mod(rows, modulus) == oracles.echelon_mod(rows, modulus)


def test_det_int_small_cases():
    assert det_int([]) == 1
    assert det_int([[0]]) == 0
    assert det_int([[-7]]) == -7
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 2], [3, 4]]) == -2


def test_det_int_rejects_non_square():
    with pytest.raises(ValueError):
        det_int([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        det_int([[1, 2], [3]])
    with pytest.raises(ValueError):
        Mat([[1, 2, 3], [4, 5, 6]]).det()


def test_det_int_on_the_three_276_matrices(h4):
    coords = _coord_matrix(sym2_lattice(), h4.lattice)
    d = det_int(coords)
    assert d == kernels.det_bareiss(coords)
    assert abs(d) == 5 * 2**23 == sublattice_index(sym2_lattice(), h4.lattice)
    assert det_int(fujiki_rows()) == fujiki_det() == 25 * 2**46
    dc = double_cover_sym2_matrix()
    assert dc.det() == 5 * 2**45
    assert det_int(dc.scaled_int_rows()[1]) == kernels.det_bareiss(dc.scaled_int_rows()[1])


def test_det_int_of_rational_mat_matches_bareiss():
    rng = random.Random(5)
    for n in range(1, 7):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        m = Mat(rows)
        den, ints = m.scaled_int_rows()
        assert m.det() == Fraction(kernels.det_bareiss(ints), den**n)
