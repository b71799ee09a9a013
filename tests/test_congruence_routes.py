"""The Smith-free routes against their Smith-form oracles: saturation by
congruences, the glue-code torsion quotient, and the deformation kernel
lifted p-adically from one elimination."""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import SmithTorsionQuotient, smith_saturation_int
from test_nullspace import bareiss_nullspace

from hklattice import exact_linalg, kernels
from hklattice.bb_lattice import sample_exceptional
from hklattice.deformation_fix import random_instance, solve_fixed_space
from hklattice.exact_linalg import (
    Lattice,
    _nullspace_primes,
    lattice_join,
    rational_nullspace,
    saturate_in,
    saturation_int,
)
from hklattice.h4_model import (
    AMBIENT,
    H4Class,
    H4Lattice,
    TorsionQuotient,
    build_h4_lattice,
    default_h4_lattice,
    default_torsion_quotient,
    h4_span,
    sym2_lattice,
)

# -- saturation -------------------------------------------------------------


@st.composite
def generator_stacks(draw):
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["small", "sparse", "large", "low_rank"]))
    small = st.integers(-9, 9)

    def row(entries):
        return draw(st.lists(entries, min_size=n, max_size=n))

    if kind == "large":
        rows = [row(st.integers(-(2**40), 2**40)) for _ in range(k)]
    elif kind == "sparse":
        rows = [row(st.sampled_from([0, 0, 0, 0, 2, -3, 6, 10, 2**40])) for _ in range(k)]
    elif kind == "low_rank":
        r = draw(st.integers(1, min(k, n)))
        basis = [row(small) for _ in range(r)]
        rows = []
        for _ in range(k):
            cs = draw(st.lists(st.integers(-4, 4), min_size=r, max_size=r))
            rows.append([sum(c * b[j] for c, b in zip(cs, basis)) for j in range(n)])
    else:
        rows = [row(small) for _ in range(k)]
    # scaled copies make the span unsaturated; duplicates and zero rows
    for i in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        rows.append([draw(st.sampled_from([2, -3, 12])) * x for x in rows[i]])
    for i in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        rows.append(list(rows[i]))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
    return rows


@settings(max_examples=400, deadline=None)
@given(generator_stacks())
def test_saturation_matches_the_smith_route(rows):
    want = smith_saturation_int(rows)
    got = saturation_int(rows)
    assert got == (kernels.hnf(want) if want else [])
    # an HNF basis of a saturated lattice that holds every row
    if got:
        assert kernels.hnf(got) == got
        assert saturation_int(got) == got
        sat = Lattice.from_int_rows(got)
        assert all(sat.contains(r) for r in rows)
        assert sat.rank == len(kernels.hnf(rows))


def test_saturation_small_cases():
    assert saturation_int([[2, 4]]) == [[1, 2]]
    assert saturation_int([[0, 0, 0]]) == []
    assert saturation_int([[6, 0], [0, 10], [6, 10]]) == [[1, 0], [0, 1]]
    assert saturation_int([[2, 0, 2], [0, 2, 2]]) == [[1, 0, 1], [0, 1, 1]]
    assert saturation_int([[4, 6, 8]]) == [[2, 3, 4]]


def test_saturate_in_the_degree4_lattice_matches_the_smith_route(h4):
    # saturate_in's coordinate rows in a 276-dimensional basis
    lat = h4.lattice
    rows = lat.int_basis[:2]
    sub = h4_span([H4Class._of(tuple(3 * x for x in row), lat.den) for row in rows])
    sat = saturate_in(sub, lat)
    coords = [list(lat.coords(row, sub.den)) for row in sub.int_basis]
    den, gens = exact_linalg.combine_basis(smith_saturation_int(coords), lat)
    assert sat == Lattice.from_int_rows(gens, den, AMBIENT, lat.form)
    assert sat == h4_span([H4Class._of(row, lat.den) for row in rows])


# -- torsion quotient -------------------------------------------------------


@pytest.fixture(scope="module")
def quotients():
    sampled = build_h4_lattice(sample_exceptional(random.Random(31)))
    default = default_h4_lattice()
    return [
        (default_torsion_quotient(), SmithTorsionQuotient(default)),
        (TorsionQuotient(sampled), SmithTorsionQuotient(sampled)),
    ]


def test_torsion_quotient_moduli_match_the_smith_route(quotients):
    for tq, oracle in quotients:
        assert tq.moduli == oracle.moduli == (2,) * 22 + (10,)
        assert tq.group.invariant_factors == oracle.moduli


def _element(data, lat):
    """A random element of the lattice: a small combination of basis rows."""
    rows = data.draw(st.lists(st.integers(0, AMBIENT - 1), min_size=1, max_size=6))
    num = [0] * AMBIENT
    for j in rows:
        c = data.draw(st.integers(-7, 7))
        for k, x in lat._sparse[j]:
            num[k] += c * x
    return H4Class._of(tuple(num), lat.den)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_torsion_quotient_against_the_smith_route(quotients, data):
    tq, oracle = quotients[data.draw(st.integers(0, 1))]
    lat = tq.h4.lattice
    u, v = _element(data, lat), _element(data, lat)
    z = H4Class._of(
        tuple(data.draw(st.lists(st.integers(-5, 5), min_size=AMBIENT, max_size=AMBIENT))), 1
    )
    cu, cv = tq.class_of(u), tq.class_of(v)
    # a homomorphism that kills Z^276
    assert tq.class_of(u + v) == tq.add(cu, cv)
    assert tq.class_of(z) == tq.zero()
    assert tq.class_of(u + z) == cu
    # the same kernel and the same subgroups as the Smith route
    ou, ov = oracle.class_of(u), oracle.class_of(v)
    assert (cu == tq.zero()) == (ou == tq.zero())
    assert tq.element_order(cu) == tq.element_order(ou)
    assert tq.subgroup([cu, cv]) == tq.subgroup([ou, ov])
    # lifts return to their class, and lift into the lattice
    t = tuple(data.draw(st.integers(0, d - 1)) for d in tq.moduli)
    w = tq.lift(t)
    assert tq.h4.contains(w)
    assert tq.class_of(w) == t
    assert tq.subgroup([t]) == tq.subgroup([oracle.class_of(w)])


def test_torsion_quotient_certifies_its_input(h4):
    def with_lattice(lat):
        return H4Lattice(lat, h4.delta_used, h4.abasis, h4.a_gram, h4.b_inv, h4.q, h4.v0)

    # the trivial quotient of Z^276 by itself
    assert TorsionQuotient(with_lattice(sym2_lattice())).moduli == ()
    quarter = H4Class._of((1,) + (0,) * (AMBIENT - 1), 4)
    with pytest.raises(ArithmeticError):
        # 4 = 2^2 divides the denominator
        TorsionQuotient(with_lattice(lattice_join(sym2_lattice(), h4_span([quarter]))))
    with pytest.raises(ArithmeticError):
        # 2 * Z^276 plus a glue vector does not contain Z^276
        twice = sym2_lattice().scaled(2)
        ones = H4Class._of((1,) * AMBIENT, 1)
        TorsionQuotient(with_lattice(lattice_join(twice, h4_span([ones]))))


# -- deformation kernel -----------------------------------------------------


@contextmanager
def counted_echelons():
    """The primes of each ``_echelon_mod`` call made inside the block."""
    calls = []
    real = exact_linalg._echelon_mod

    def counting(rows, p):
        calls.append(p)
        return real(rows, p)

    exact_linalg._echelon_mod = counting
    try:
        yield calls
    finally:
        exact_linalg._echelon_mod = real


def test_21_variable_deformation_solve_eliminates_once():
    inst = random_instance(random.Random(7), 21)
    with counted_echelons() as calls:
        sol = solve_fixed_space(inst)
    assert sol.dimension == 2
    assert len(calls) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(2, 7), st.randoms(use_true_random=False))
def test_unlucky_first_prime_still_gives_the_bareiss_basis(rank, ncols, rnd):
    # small rows of rank at most `rank`; their minors are far below the
    # first prime p, so their rank is also their rank mod p
    p = next(_nullspace_primes())
    basis = [[rnd.randint(-5, 5) for _ in range(ncols)] for _ in range(rank)]
    rows = [
        [sum(c * b[j] for c, b in zip(cs, basis)) for j in range(ncols)]
        for cs in ([rnd.randint(-3, 3) for _ in range(rank)] for _ in range(rank + 2))
    ]
    rank_p = len(kernels.hnf(rows))
    # moving one entry by p leaves the rows unchanged mod p, while over Q
    # their rank may rise
    rows[rnd.randrange(len(rows))][rnd.randrange(ncols)] += p
    with counted_echelons() as calls:
        got = rational_nullspace(rows, ncols)
    assert got == bareiss_nullspace(rows, ncols)
    assert calls[0] == p
    if len(kernels.hnf(rows)) > rank_p:
        assert len(calls) >= 2


def test_rank_drop_mod_the_first_prime_restarts():
    p = next(_nullspace_primes())
    # equal rows mod p, independent over Q: rank 1 mod p, 2 over Q
    rows = [[1, 2, 3, 4], [1, 2 + p, 3, 4 + 2 * p]]
    with counted_echelons() as calls:
        got = rational_nullspace(rows, 4)
    assert got == bareiss_nullspace(rows, 4)
    assert len(got) == 2
    assert calls[0] == p and len(calls) == 2
