"""Acceptance gate: twelve exact-arithmetic criteria, one test each.

Every test asserts exact equality (no tolerances) and prints a single
summary line on success; a few carry wall-clock budgets that are part of
the contract. Random draws all come from seeded generators so failures
replay byte for byte.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from hklattice.bb_lattice import (
    RANK,
    H2Class,
    bb_form,
    delta0,
    hyperbolic_pair,
    sample_exceptional,
    sample_polarization_even,
    sample_polarization_odd,
    sample_primitive,
)
from hklattice.blowup_corr import (
    BlowupCenter,
    FourfoldH4,
    blowup_h4,
    potential_jacobian_search,
    residue_transform,
)
from hklattice.cubic_fano import build_cubic_model, lines_hodge_basis, pfaffian_check
from hklattice.deformation_fix import (
    random_instance,
    solve_fixed_space,
    verify_generators,
)
from hklattice.exact_linalg import Lattice, Mat, divisibility, sublattice_index
from hklattice.h4_model import (
    AMBIENT,
    TorsionQuotient,
    build_h4_lattice,
    double_cover_sym2_matrix,
    fujiki_mat,
    fujiki_pair,
    fujiki_with_product,
    half_product_class,
    sym2_embed,
    sym2_lattice,
)
from hklattice.hodge_classes import (
    PicardData,
    algebraic_quotient_bound,
    canonical_hodge_lattice,
    even_class_predicates,
    hodge_image_in_torsion,
    minimal_class_search,
    minimality_scalar,
    transcendental,
)
from oracles import h4_coords

F = Fraction


def _ok(k, msg):
    print(f"[CRITERION {k:02d}] PASS - {msg}")


def test_criterion_01_torsion_order_and_factors():
    t0 = time.perf_counter()
    fresh = build_h4_lattice()
    index = sublattice_index(sym2_lattice(), fresh.lattice)
    group = TorsionQuotient(fresh).group
    elapsed = time.perf_counter() - t0
    assert index == 5 * 2**23 == 41943040
    assert group.invariant_factors == (2,) * 22 + (10,)
    assert group.order() == index
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    _ok(1, f"index 5*2^23 with factors 2^22,10 in {elapsed:.1f}s")


def test_criterion_02_double_cover_determinant():
    t0 = time.perf_counter()
    det = double_cover_sym2_matrix().det()
    elapsed = time.perf_counter() - t0
    assert det == 5 * 2**45 == 175921860444160
    assert elapsed < 10, f"budget exceeded: {elapsed:.1f}s"
    _ok(2, f"det 5*2^45 in {elapsed:.2f}s")


def test_criterion_03_fujiki_constants(h4):
    rng = random.Random(3)
    for _ in range(100):
        a, b = sample_primitive(rng), sample_primitive(rng)
        assert fujiki_with_product(h4.q, a, b) == 25 * bb_form(a, b)
    tfq = F(2, 5) * h4.q
    assert fujiki_pair(tfq, tfq) == 92
    for k in range(10):
        l0 = (
            sample_polarization_odd(rng)
            if k % 2
            else sample_polarization_even(rng, True)
        )
        b0 = bb_form(l0, l0)
        sq = sym2_embed(l0, l0)
        gram = Mat(
            [
                [fujiki_pair(sq, sq), fujiki_pair(sq, tfq)],
                [fujiki_pair(tfq, sq), fujiki_pair(tfq, tfq)],
            ]
        )
        assert gram == Mat([[3 * b0 * b0, 10 * b0], [10 * b0, 92]])
        assert gram.det() == 176 * b0 * b0
    _ok(3, "pairing constant 25 on 100 pairs; (2/5 q)^2 = 92; 10 Gram matrices")


def test_criterion_04_unimodular_and_delta_independent(h4):
    assert abs(h4.gram_det()) == 1
    rng = random.Random(4)
    for _ in range(5):
        d = sample_exceptional(rng)
        assert build_h4_lattice(d) == h4
    _ok(4, "|det Gram| = 1; lattice equal under 5 sampled exceptional classes")


def test_criterion_05_divisibility_and_parity_sextuple(h4):
    rng = random.Random(5)
    for _ in range(50):
        a = sample_primitive(rng)
        d1, d2 = sample_exceptional(rng), sample_exceptional(rng)
        assert all(c % 2 == 0 for c in (d1.h2 - d2.h2).coords)
        diff = sym2_embed(d1.h2, d1.h2) - sym2_embed(d2.h2, d2.h2)
        assert h4.contains(F(1, 8) * diff)
        assert h4.contains(half_product_class(d1, a))
    agree = 0
    for k in range(200):
        if k % 4 == 0:
            l0 = sample_polarization_even(rng, bool(k % 8))
        else:
            l0 = sample_primitive(rng)
        preds = even_class_predicates(l0)
        assert len(preds) == 6
        if len(set(preds.values())) == 1:
            agree += 1
    assert agree == 200
    _ok(5, "50 divisibility triples; sextuple agreement on 200 primitives")


def test_criterion_06_rank2_span_structure(h4):
    rng = random.Random(6)
    tfq = F(2, 5) * h4.q
    for _ in range(20):
        l0 = sample_polarization_odd(rng)
        sq = sym2_embed(l0, l0)
        want = Lattice.from_generators(
            [list(h4_coords(sq)), list(h4_coords(tfq))],
            ambient_dim=AMBIENT,
            form=fujiki_mat(),
        )
        assert canonical_hodge_lattice(l0) == want
    for k in range(20):
        l0 = sample_polarization_even(rng, bool(k % 2))
        sq = sym2_embed(l0, l0)
        gen2 = F(1, 8) * (sq + tfq)
        want = Lattice.from_generators(
            [list(h4_coords(sq)), list(h4_coords(gen2))],
            ambient_dim=AMBIENT,
            form=fujiki_mat(),
        )
        assert canonical_hodge_lattice(l0) == want
    _ok(6, "20 odd and 20 even integral spans match the closed forms exactly")


def test_criterion_07_minimal_class_obstruction(h4):
    rng = random.Random(7)
    for k in range(20):
        l0 = (
            sample_polarization_odd(rng)
            if k % 2
            else sample_polarization_even(rng, True)
        )
        rep = minimal_class_search(PicardData.rank_one(l0))
        assert not rep.feasible
        assert rep.witness is None
        assert rep.image_generator.denominator == 1
        assert rep.image_generator % 2 == 0
    e1, f1 = hyperbolic_pair(0)
    l0 = 2 * (e1 + f1) + delta0()
    p = PicardData.from_vectors(
        [list(delta0().coords), list((e1 + f1).coords)], l0
    )
    rep = minimal_class_search(p)
    assert rep.feasible and rep.image_generator == 1
    assert rep.witness is not None and h4.contains(rep.witness)
    assert minimality_scalar(rep.witness, transcendental(p)) == 1
    _ok(7, "20 rank-1 searches infeasible with even image; rank-2 control hits 1")


def test_criterion_08_torsion_structure_maps(tq):
    v0bar = tq.point_image()
    assert tq.element_order(v0bar) == 10
    w0 = tq.order5_generator()
    assert w0 == tq.scale(2, v0bar)
    assert tq.element_order(w0) == 5
    assert tq.delta_pairing_kernel_order() == 5
    assert tq.delta_pairing_mod2(w0) == (0,) * RANK
    assert tq.subgroup([w0]).invariant_factors == (5,)
    assert tq.half_product_kernel_mod2() == [tuple(c % 2 for c in delta0().coords)]
    for i in range(RANK):
        a = H2Class.basis_vector(i)
        assert tq.delta_pairing_mod2(tq.half_product_image(a)) == tuple(
            bb_form(a, H2Class.basis_vector(j)) % 2 for j in range(RANK)
        )
    _ok(8, "orders 10/5, both kernels as stated, pairing matches the form mod 2")


def test_criterion_09_images_and_quotient_bounds():
    rng = random.Random(9)
    e1, f1 = hyperbolic_pair(0)
    odds = [e1 + f1, sample_polarization_odd(rng)]
    evens = [2 * (e1 + f1) + delta0(), sample_polarization_even(rng, True)]
    for l0 in odds:
        assert hodge_image_in_torsion(l0).invariant_factors == (5,)
        assert algebraic_quotient_bound(l0).invariant_factors == (3,)
    for l0 in evens:
        assert hodge_image_in_torsion(l0).invariant_factors == (10,)
        assert algebraic_quotient_bound(l0).invariant_factors == (24,)
    _ok(9, "torsion images Z/5 and Z/10; quotient bounds Z/3 and Z/24")


def test_criterion_10_cubic_suite(h4):
    e1, f1 = hyperbolic_pair(0)
    g1 = 2 * (e1 + f1) + delta0()
    m = build_cubic_model(g1)
    sq = sym2_embed(g1, g1)
    assert fujiki_pair(sq, sq) == 108
    assert fujiki_pair(m.g2, sq) == 45
    assert h4.contains(m.g2)
    T = transcendental(PicardData.rank_one(g1))
    rows = [H2Class([int(x) for x in r]) for r in T.basis_rows()]
    for a, b in combinations_with_replacement(rows, 2):
        assert fujiki_with_product(m.g2, a, b) == 0
    resid = m.residual_generator()
    assert h4.contains(resid)
    assert divisibility(list(h4_coords(resid)), h4.lattice) == 1
    assert lines_hodge_basis(m) == canonical_hodge_lattice(g1)
    rep = pfaffian_check()
    assert rep["lambda0_square"] == 6
    assert rep["lambda0_even"] is True
    assert rep["assumption_holds"] is True and rep["ok"] is True
    _ok(10, "degree-6 model constants, residual class, span, and Pfaffian case")


def test_criterion_11_deformation_suite():
    rng = random.Random(11)
    for _ in range(50):
        inst = random_instance(rng, rng.randint(3, 10))
        sol = solve_fixed_space(inst)
        assert sol.dimension == 2, (inst.A_inv.json_text(), inst.s)
        assert verify_generators(sol, inst), (inst.A_inv.json_text(), inst.s)
    t0 = time.perf_counter()
    inst21 = random_instance(rng, 21)
    sol21 = solve_fixed_space(inst21)
    elapsed = time.perf_counter() - t0
    assert sol21.dimension == 2
    assert verify_generators(sol21, inst21)
    assert elapsed < 120, f"budget exceeded: {elapsed:.1f}s"
    _ok(11, f"50 instances plus the 21-variable case in {elapsed:.1f}s")


def test_criterion_12_blowup_suite():
    U = [[0, 1], [1, 0]]
    y = FourfoldH4.standard(U, transcendental_rows=[[1, 0]])
    yp = blowup_h4(y, BlowupCenter.point())
    assert yp.lattice.gram()[(2, 2)] == -1
    assert [list(r) for r in yp.transcendental.basis_rows()] == [[1, 0, 0]]
    yc = blowup_h4(y, BlowupCenter.curve(7))
    g = yc.lattice.gram()
    assert (g[(2, 2)], g[(2, 3)], g[(3, 3)]) == (7, -1, 0)
    assert [list(r) for r in yc.transcendental.basis_rows()] == [[1, 0, 0, 0]]
    sub = Lattice.from_generators([[1, 0]], ambient_dim=2)
    ys = blowup_h4(y, BlowupCenter.surface(U, transcendental_sub=sub))
    gs = ys.lattice.gram()
    assert (gs[(2, 2)], gs[(2, 3)], gs[(3, 3)]) == (0, -1, 0)
    for conv in ("quadratic", "paper"):
        for e0 in (1, 3, 5):
            for e in (2, 3, 4):
                assert residue_transform(e0, e, conv) % 2 == 1
    r1 = potential_jacobian_search([1], 2)
    assert (1,) in r1.solutions
    r2 = potential_jacobian_search([2], 4)
    assert r2.solutions == [] and r2.provably_empty
    _ok(12, "Gram blocks, transcendental transport, residue parity, searches")
