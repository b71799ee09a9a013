"""The Smith-free routes against their Smith-form oracles: saturation by
congruences, the glue-code torsion quotient, and the deformation kernel
certified by the rank modulo a prime."""

import random
from contextlib import contextmanager
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import SmithTorsionQuotient, smith_saturation_int
from test_nullspace import bareiss_nullspace, certified

from hklattice import cli, exact_linalg, kernels
from hklattice.bb_lattice import sample_exceptional
from hklattice.deformation_fix import random_instance, solve_fixed_space
from hklattice.exact_linalg import (
    _WORD_PRIME,
    Lattice,
    _combine_rows,
    _nullspace_primes,
    _rank_primes,
    certified_kernel,
    lattice_join,
    saturate_in,
)
from hklattice.h4_model import (
    AMBIENT,
    H4Class,
    H4Lattice,
    TorsionQuotient,
    build_h4_lattice,
    default_h4_lattice,
    default_torsion_quotient,
    glue_classes,
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


def _saturation(rows) -> Lattice:
    """The saturation of the span of integer rows inside Z^n, by ``saturate_in``."""
    n = len(rows[0])
    return saturate_in(Lattice.from_int_rows(rows, 1, n), Lattice.standard(n))


@settings(max_examples=400, deadline=None)
@given(generator_stacks())
def test_saturation_matches_the_smith_route(rows):
    want = smith_saturation_int(rows)
    sat = _saturation(rows)
    assert sat.den == 1
    assert [list(r) for r in sat.int_basis] == (kernels.hnf(want) if want else [])
    # a saturated lattice that holds every row
    assert saturate_in(sat, Lattice.standard(len(rows[0]))) == sat
    assert all(sat.contains(r) for r in rows)
    assert sat.rank == len(kernels.hnf(rows))


def test_saturation_small_cases():
    for rows, want in [
        ([[2, 4]], [[1, 2]]),
        ([[0, 0, 0]], []),
        ([[6, 0], [0, 10], [6, 10]], [[1, 0], [0, 1]]),
        ([[2, 0, 2], [0, 2, 2]], [[1, 0, 1], [0, 1, 1]]),
        ([[4, 6, 8]], [[2, 3, 4]]),
    ]:
        assert [list(r) for r in _saturation(rows).int_basis] == want


def test_saturate_in_the_degree4_lattice_matches_the_smith_route(h4):
    # saturate_in's coordinate rows in a 276-dimensional basis
    lat = h4.lattice
    rows = lat.int_basis[:2]
    sub = h4_span([H4Class._of(tuple(3 * x for x in row), lat.den) for row in rows])
    sat = saturate_in(sub, lat)
    coords = [list(lat.coords(row, sub.den)) for row in sub.int_basis]
    gens = _combine_rows(smith_saturation_int(coords), lat._sparse, AMBIENT)
    assert sat == Lattice.from_int_rows(gens, lat.den, AMBIENT, lat.form)
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
    twice = sym2_lattice().scaled(2)
    with pytest.raises(ArithmeticError):
        # 2 * Z^276 plus a glue vector does not contain Z^276
        ones = H4Class._of((1,) * AMBIENT, 1)
        TorsionQuotient(with_lattice(lattice_join(twice, h4_span([ones]))))
    # a squarefree denominator above 1
    fifth = H4Class._of((1,) + (0,) * (AMBIENT - 1), 5)
    assert TorsionQuotient(with_lattice(lattice_join(sym2_lattice(), h4_span([fifth])))).moduli == (5,)
    for glue in (
        H4Class._of((1,) * AMBIENT, 5),
        fifth,
        H4Class._of((1,) * AMBIENT, 10),
    ):
        lat = lattice_join(twice, h4_span([glue]))
        assert lat.den == glue.den
        with pytest.raises(ArithmeticError):
            # 2 * Z^276 plus glue over 5 or 10 misses Z^276
            TorsionQuotient(with_lattice(lat))
    # rank 275, den 1: the 275 unit pivots agree with the empty glue code,
    # but the quotient is infinite
    unit_rows = [[int(i == j) for j in range(AMBIENT)] for i in range(AMBIENT - 1)]
    with pytest.raises(ArithmeticError):
        TorsionQuotient(with_lattice(Lattice.from_int_rows(unit_rows, 1, AMBIENT, h4.lattice.form)))


# -- glue-index certificate ---------------------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 7, 31])
def test_glue_certificate_agrees_with_the_join(seed):
    tq = default_torsion_quotient()
    d = sample_exceptional(random.Random(seed))
    assert tq.generated_by(glue_classes(d)) is True
    assert build_h4_lattice(d) == default_h4_lattice()


def test_glue_certificate_rejects(h4):
    tq = default_torsion_quotient()
    glue = glue_classes()
    assert tq.generated_by(glue)
    # one glue class dropped: the rank mod 5 or mod 2 falls, and the index
    # with it, although every class still lies in L
    assert not tq.generated_by(glue[:-1])
    assert not tq.generated_by(glue[1:])
    x0_sq = (1,) + (0,) * (AMBIENT - 1)
    # v0 + x_0^2/3 is not in L
    assert not tq.generated_by(glue[:-1] + [h4.v0 + H4Class._of(x0_sq, 3)])
    # nor is a class over denominator 40
    assert not tq.generated_by(glue + [H4Class._of(x0_sq, 40)])
    # the glue of a sampled class with one of the default lattice's own
    d = sample_exceptional(random.Random(5))
    assert tq.generated_by(glue_classes(d)[:-1] + [h4.v0])


def test_delta_independence_check_builds_no_276_row_hermite_form(monkeypatch):
    sizes = []
    hnf = kernels.hnf

    def recording(rows, *args, **kwargs):
        sizes.append(len(rows))
        return hnf(rows, *args, **kwargs)

    default_torsion_quotient()
    monkeypatch.setattr(kernels, "hnf", recording)
    checks = {c[0]: c[2] for c in cli._suite_h4_torsion(random.Random(7), None, "quadratic")}
    assert checks["delta_independence"]() is True
    assert max(sizes, default=0) < AMBIENT
    # the join that the certificate replaces is one
    build_h4_lattice(sample_exceptional(random.Random(7)))
    assert max(sizes) >= AMBIENT


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
    # small rows of rank at most `rank`; their rank mod p is at most their
    # rank over Q, so if the rank over Q rises below, p cannot prove it
    p = next(_rank_primes())
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
        got = certified(rows, ncols)
    assert got == bareiss_nullspace(rows, ncols)
    assert calls[0] == p
    if len(kernels.hnf(rows)) > rank_p:
        assert len(calls) >= 2


def test_rank_drop_mod_the_first_prime_restarts():
    p = next(_rank_primes())
    # equal rows mod p, independent over Q: rank 1 mod p, 2 over Q
    rows = [[1, 2, 3, 4], [1, 2 + p, 3, 4 + 2 * p]]
    with counted_echelons() as calls:
        got = certified(rows, 4)
    assert got == bareiss_nullspace(rows, 4)
    assert len(got) == 2
    assert calls[0] == p and len(calls) == 2


def test_rank_proofs_start_at_the_word_size_prime():
    p = _WORD_PRIME
    assert all(p % d for d in range(2, isqrt(p) + 1))
    # no prime lies between p and 2^15
    assert all(any(n % d == 0 for d in range(2, isqrt(n) + 1)) for n in range(p + 1, 2**15))
    # residue products stay one-digit CPython ints
    assert (p - 1) ** 2 < 2**30
    primes = _rank_primes()
    assert [next(primes) for _ in range(4)] == [p] + [
        q for q, _ in zip(_nullspace_primes(), range(3))
    ]


def test_rank_drop_mod_the_word_size_prime_moves_to_a_proth_prime():
    rows = [[1, 1, 0], [1, 1 + _WORD_PRIME, 0]]
    with counted_echelons() as calls:
        got = certified(rows, 3)
    assert calls == [_WORD_PRIME, next(_nullspace_primes())]
    assert got == bareiss_nullspace(rows, 3) == [[0, 0, 1]]


def test_a_refutation_counts_the_word_size_prime():
    # rank 2 over Q, claimed rank 3 (no candidates): every prime fails, and
    # the search stops at the shortest prefix of the primes whose product
    # passes the Hadamard bound of the three rows, 32749 among them
    rows = [[1, 2, 3], [2, 4, 7], [3, 6, 10]]
    bound = isqrt(prod(sum(x * x for x in r) for r in rows)) + 1
    assert _WORD_PRIME > bound
    with counted_echelons() as calls, pytest.raises(ArithmeticError):
        certified_kernel(rows, 3, [])
    assert calls == [_WORD_PRIME]
