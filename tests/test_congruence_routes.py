"""The Smith-free routes against their Smith-form oracles: saturation by
congruences, the glue-code torsion quotient, and the deformation kernel
certified by the rank modulo a prime."""

import random
from contextlib import contextmanager
from itertools import islice
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    SmithTorsionQuotient,
    algebraic_quotient_bound_by_smith,
    generated_by_index,
    smith_saturation_int,
    subgroup_by_smith,
)
from test_nullspace import bareiss_nullspace, certified

from hklattice import cli, exact_linalg, h4_model, hodge_classes, kernels
from hklattice.bb_lattice import (
    sample_exceptional,
    sample_polarization_even,
    sample_polarization_odd,
)
from hklattice.deformation_fix import random_instance, solve_fixed_space
from hklattice.exact_linalg import (
    _WORD_PRIME,
    Lattice,
    _combine_rows,
    _nullspace_primes,
    _rank_primes,
    _sparse_rows,
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
    second_chern_class,
    sym2_embed,
    sym2_lattice,
)
from hklattice.hodge_classes import algebraic_quotient_bound

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


@st.composite
def repeated_columns(draw):
    """Integer rows whose columns repeat a few distinct columns, in any
    order, some scaled by a factor: the congruence steps of
    ``_saturation_basis`` run once per distinct residue column."""
    k = draw(st.integers(1, 4))
    pool = draw(st.lists(st.lists(st.integers(-12, 12), min_size=k, max_size=k), min_size=1, max_size=4))
    cols = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    rows = [list(r) for r in zip(*cols)]
    f = draw(st.sampled_from([2, 4, 6, 16]))
    for i in draw(st.lists(st.integers(0, k - 1), max_size=2, unique=True)):
        rows[i] = [f * x for x in rows[i]]
    return rows


@settings(max_examples=200, deadline=None)
@given(repeated_columns())
def test_saturation_basis_over_repeated_columns_matches_the_smith_route(rows):
    want = smith_saturation_int(rows)
    got = exact_linalg._saturation_basis(rows)
    assert (kernels.hnf(got) if got else []) == (kernels.hnf(want) if want else [])


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
    z = sym2_lattice()
    twice = Lattice.from_int_rows([[2 * x for x in r] for r in z.int_basis], form=z.form)
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


# -- subgroups, generating sets and the 2x2 bound against the Smith route ----


def _with_lattice(h4, lat):
    return H4Lattice(lat, h4.delta_used, h4.abasis, h4.a_gram, h4.b_inv, h4.q, h4.v0)


X0_SQ = (1,) + (0,) * (AMBIENT - 1)


@pytest.fixture(scope="module")
def small_quotients(h4):
    """Quotients with other moduli than the default's: (5,) from Z^276 and
    x_0^2/5, and the trivial one of Z^276."""
    fifth = lattice_join(sym2_lattice(), h4_span([H4Class._of(X0_SQ, 5)]))
    return [TorsionQuotient(_with_lattice(h4, lat)) for lat in (fifth, sym2_lattice())]


@st.composite
def residue_tuples(draw, moduli):
    """0 to 4 residue tuples: random ones, zero tuples, repeats and
    multiples of earlier ones, unit vectors and entries outside [0, d)."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "multiple", "unit", "wide"]))
        if kind in ("repeat", "multiple") and out:
            t = draw(st.sampled_from(out))
            k = 1 if kind == "repeat" else draw(st.integers(-3, 12))
            out.append(tuple(k * x for x in t))
        elif kind == "zero" or not moduli:
            out.append((0,) * len(moduli))
        elif kind == "unit":
            i = draw(st.integers(0, len(moduli) - 1))
            out.append(tuple(int(j == i) for j in range(len(moduli))))
        elif kind == "wide":
            out.append(tuple(draw(st.integers(-3 * d, 3 * d)) for d in moduli))
        else:
            out.append(tuple(draw(st.integers(0, d - 1)) for d in moduli))
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subgroup_matches_the_smith_route(small_quotients, data):
    tq = data.draw(st.sampled_from([default_torsion_quotient(), *small_quotients]))
    elements = data.draw(residue_tuples(tq.moduli))
    assert tq.subgroup(elements) == subgroup_by_smith(tq, elements)


@pytest.fixture(scope="module")
def sampled_glue():
    """The glue classes of four sampled exceptional classes."""
    return [glue_classes(sample_exceptional(random.Random(seed))) for seed in (1, 2, 4, 6)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_generated_by_matches_the_index_route(sampled_glue, data):
    tq = default_torsion_quotient()
    glue = list(data.draw(st.sampled_from(sampled_glue)))
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(["drop", "sum", "multiple", "foreign", "extra"]))
        i, j = (data.draw(st.integers(0, len(glue) - 1)) for _ in range(2))
        if kind == "drop":
            del glue[i]
        elif kind == "sum":
            glue[i] = glue[i] + glue[j]
        elif kind == "multiple":
            glue[i] = data.draw(st.sampled_from([-1, 2, 3, 5, 7, 10])) * glue[i]
        else:
            num = [0] * AMBIENT
            for k in data.draw(st.lists(st.integers(0, AMBIENT - 1), min_size=1, max_size=3)):
                num[k] = data.draw(st.integers(-9, 9))
            den = data.draw(st.sampled_from([1, 2, 3, 4, 5, 10, 20]))
            foreign = H4Class._of(tuple(num), den)
            if kind == "foreign":
                glue[i] = foreign
            else:
                glue.insert(i, foreign)
    assert tq.generated_by(glue) is generated_by_index(tq, glue)


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_algebraic_quotient_bound_matches_the_smith_route(rnd, odd):
    l0 = sample_polarization_odd(rnd) if odd else sample_polarization_even(rnd)
    got = algebraic_quotient_bound(l0)
    assert got == algebraic_quotient_bound_by_smith(l0)
    assert got.invariant_factors == ((3,) if odd else (24,))


def test_algebraic_quotient_bound_reads_a_non_unit_first_divisor(monkeypatch):
    # twice both classes: V is saturated, so it stays, and the quotient
    # Z/n grows to Z/2 x Z/2n, whose first determinantal divisor is 2
    monkeypatch.setattr(hodge_classes, "sym2_embed", lambda a, b: 2 * sym2_embed(a, b))
    monkeypatch.setattr(
        hodge_classes, "second_chern_class", lambda d, q: 2 * second_chern_class(d, q)
    )
    rnd = random.Random(3)
    for l0, n in ((sample_polarization_odd(rnd), 3), (sample_polarization_even(rnd), 24)):
        assert algebraic_quotient_bound(l0).invariant_factors == (2, 2 * n)


# -- the torsion quotient's guards fire ---------------------------------------


@pytest.fixture()
def fresh_quotient(h4):
    """A torsion quotient built for the test, with the cached default one
    cleared before and after, so that no value built under a mutant
    outlives the test. The default lattice is built before any mutant and
    is never cleared (see ``test_h4.py``)."""
    default_torsion_quotient.cache_clear()
    yield TorsionQuotient(h4)
    default_torsion_quotient.cache_clear()


def test_a_glue_rank_short_of_the_index_is_refused(fresh_quotient, monkeypatch):
    real = h4_model._reduced_basis_mod

    def dropping_the_last_row(rows, p):
        basis = real(rows, p)
        basis.popitem()
        return basis

    monkeypatch.setattr(h4_model, "_reduced_basis_mod", dropping_the_last_row)
    with pytest.raises(ArithmeticError, match="glue ranks do not give the index"):
        TorsionQuotient(fresh_quotient.h4)


def test_a_lift_off_its_class_is_refused(fresh_quotient, monkeypatch):
    real = h4_model._reduced_basis_mod

    def unreduced(rows, p):
        # the first row plus the second: the same span and rank, but the
        # first row no longer vanishes on the second pivot
        basis = real(rows, p)
        if len(basis) > 1:
            (c0, r0), (_, r1) = list(basis.items())[:2]
            row = dict(r0)
            for k, x in r1:
                row[k] = (row.get(k, 0) + x) % p
            basis[c0] = tuple(sorted((k, x) for k, x in row.items() if x))
        return basis

    monkeypatch.setattr(h4_model, "_reduced_basis_mod", unreduced)
    with pytest.raises(ArithmeticError, match="does not return to its class"):
        TorsionQuotient(fresh_quotient.h4)


def test_an_odd_invariant_factor_stops_the_delta_pairing_count(small_quotients):
    # x_0^2/5 pairs to 0 against every product with d, so its lift passes
    # the integrality test, and the order-5 quotient has no mod-2 count
    fifth, _ = small_quotients
    assert fifth.moduli == (5,)
    assert fifth.delta_pairing_mod2((1,)) == (0,) * 23
    with pytest.raises(ArithmeticError, match="expected even invariant factors"):
        fifth.delta_pairing_kernel_order()
    with pytest.raises(ValueError, match="not in the degree-4 lattice"):
        fifth.class_of(H4Class._of(X0_SQ, 3))


def test_a_lift_that_pairs_off_the_integers_is_refused(h4):
    # x_0 x_1 pairs to -2 against a product with d, so x_0 x_1 / 5 does not
    # pair integrally
    glue = H4Class._of((0, 1) + (0,) * (AMBIENT - 2), 5)
    tq = TorsionQuotient(_with_lattice(h4, lattice_join(sym2_lattice(), h4_span([glue]))))
    with pytest.raises(ArithmeticError, match="pairing against the lattice must be integral"):
        tq.delta_pairing_mod2((1,))


def test_a_half_product_image_off_the_2_torsion_is_refused(fresh_quotient, monkeypatch):
    h4 = fresh_quotient.h4
    assert len(fresh_quotient.half_product_kernel_mod2()) == 1
    # the seam hands back the order-10 point class for every half product
    monkeypatch.setattr(h4_model, "half_product_class", lambda d, a: h4.v0)
    with pytest.raises(ArithmeticError, match="half-product image is not 2-torsion"):
        fresh_quotient.half_product_kernel_mod2()


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


def test_21_variable_deformation_solve_eliminates_once(monkeypatch):
    # a passing proof forms no Hadamard bound
    monkeypatch.setattr(exact_linalg, "isqrt", lambda _: pytest.fail("bound formed"))
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
        certified_kernel(_sparse_rows(rows), 3, [])
    assert calls == [_WORD_PRIME]


def test_a_passing_proof_is_one_elimination_and_no_bound(monkeypatch):
    # Hadamard's bound is formed only after a prime fails
    monkeypatch.setattr(exact_linalg, "isqrt", lambda _: pytest.fail("bound formed"))
    rows = [[2, 0, 1, 5], [0, 3, 1, 0], [1, 1, 0, 7]]
    with counted_echelons() as calls:
        got = certified(rows, 4)
    assert calls == [_WORD_PRIME]
    assert got == bareiss_nullspace(rows, 4)


def test_pivots_divisible_by_the_word_size_prime_certify_through_a_proth_prime():
    p = _WORD_PRIME
    # triangular over Q with the pivots p, p and 5p: rank 3 over Q, 1 mod p
    rows = [[p, 2 * p, 0, 1], [0, p, 0, 2], [0, 0, 5 * p, 3]]
    with counted_echelons() as calls:
        got = certified(rows, 4)
    assert calls == [p, next(_nullspace_primes())]
    assert got == bareiss_nullspace(rows, 4) and len(got) == 1


PQ = prod(islice(_nullspace_primes(), 2))


@pytest.mark.parametrize("rows, nprimes", [
    # rank 2 over Q and 0 mod the first two Proth primes
    ([[PQ * x for x in r] for r in [[1, 2, 3], [2, 4, 7], [3, 6, 10]]], 7),
    ([[2**60, 3, 1], [2**61, 6, 2], [1, 1, 1]], 2),
], ids=["proth-multiples", "large"])
def test_a_deficient_system_fails_after_the_primes_its_bound_asks_for(rows, nprimes):
    # no candidates claim rank = ncols, one more than the rank over Q; the
    # primes tried are the shortest prefix of _rank_primes whose product
    # passes H = isqrt(product of the largest squared row norms) + 1
    ncols = len(rows[0])
    norms = sorted(sum(x * x for x in r) for r in rows)
    bound = isqrt(prod(norms[-ncols:])) + 1
    want, modulus = [], 1
    for p in _rank_primes():
        want.append(p)
        modulus *= p
        if modulus > bound:
            break
    with counted_echelons() as calls, pytest.raises(ArithmeticError):
        certified_kernel(_sparse_rows(rows), ncols, [])
    assert calls == want and len(want) == nprimes
    # fewer nonzero rows than the claimed rank: no elimination at all
    with counted_echelons() as calls, pytest.raises(ArithmeticError):
        certified_kernel(_sparse_rows(rows[:ncols - 2]), ncols, [])
    assert calls == []
