"""Command-line verification harness.

Four commands: ``verify`` runs a named suite of exact checks and reports
pass/fail per check; ``query`` answers one-off lattice questions from a JSON
payload; ``sample`` emits seeded random classes that pass their validating
predicates; ``search`` runs the combination search. Reports are JSON
(canonical, deterministic for a fixed seed except the elapsed_ms field) or
a plain-text table. Exit codes: 0 all checks pass, 1 any check failed,
2 usage or payload errors.

All randomness flows through ``random.Random(seed)`` (the standard
Mersenne-Twister); a fixed seed reproduces every sampled class, and thus the
whole report, byte for byte.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from .bb_lattice import (
    RANK,
    H2Class,
    bb_form,
    delta0,
    hyperbolic_pair,
    is_even,
    is_exceptional,
    is_primitive,
    polarization_condition,
    sample_exceptional,
    sample_polarization_even,
    sample_polarization_odd,
    sample_primitive,
)
from .blowup_corr import (
    BlowupCenter,
    Combination,
    Correspondence,
    FourfoldH4,
    blowup_h4,
    combine_pairing,
    potential_jacobian_search,
    rational_map_indices,
    residue_transform,
)
from .cubic_fano import (
    build_cubic_model,
    c2_consistency,
    lines_hodge_basis,
    pfaffian_check,
    sample_square6_even,
)
from .deformation_fix import (
    FixInstance,
    random_instance,
    solve_fixed_space,
    verify_generators,
)
from .exact_linalg import Lattice, Mat, _frac_str
from .h4_model import (
    H4Class,
    build_h4_lattice,
    default_h4_lattice,
    default_torsion_quotient,
    double_cover_sym2_matrix,
    fujiki_det,
    fujiki_with_product,
    h4_span,
    half_product_class,
    sym2_embed,
    verify_cup_product_table,
)
from .hodge_classes import (
    PicardData,
    algebraic_quotient_bound,
    canonical_hodge_lattice,
    even_class_predicates,
    hodge_image_in_torsion,
    minimal_class_search,
    minimality_scalar,
    transcendental,
)

SCHEMA_VERSION = "1"
SUITES = (
    "h4-torsion",
    "minimal-class",
    "even-odd",
    "cubic",
    "deformation",
    "blowup",
    "t4-structure",
    "all",
)


class _Checks:
    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self.items: list[dict] = []

    def add(self, name, expected, actual, anchor):
        e, a = str(expected), str(actual)
        self.items.append(
            {
                "name": self.prefix + name,
                "status": "pass" if e == a else "fail",
                "expected": e,
                "actual": a,
                "anchor": anchor,
            }
        )


# ---------------------------------------------------------------------------
# suites


def _suite_h4_torsion(ck: _Checks, rng: random.Random, trials: int | None):
    h4 = default_h4_lattice()
    tq = default_torsion_quotient()
    # TorsionQuotient proves its group order equal to this index when built
    ck.add(
        "index_sym2_in_L",
        5 * 2**23,
        tq.order(),
        "index of the monomial lattice in the full degree-4 lattice",
    )
    facs = tq.group.invariant_factors
    ck.add(
        "invariant_factors",
        "2^22,10",
        f"2^{sum(1 for f in facs if f == 2)},{facs[-1]}" if facs else "none",
        "invariant factors of the degree-4 quotient group",
    )
    ck.add(
        "gram_det_abs",
        1,
        abs(h4.gram_det()),
        "unimodularity of the full degree-4 lattice",
    )
    ck.add(
        "fujiki_gram_det_abs",
        25 * 2**46,
        abs(fujiki_det()),
        "determinant of the monomial intersection Gram",
    )
    ck.add(
        "det_double_cover",
        5 * 2**45,
        double_cover_sym2_matrix().det(),
        "determinant of the double-cover comparison matrix",
    )
    d2 = sample_exceptional(rng)
    ck.add(
        "delta_independence",
        True,
        build_h4_lattice(d2) == h4,
        "the degree-4 lattice does not depend on the exceptional class",
    )
    rep = verify_cup_product_table(h4)
    ck.add(
        "cup_product_table",
        "all_ok",
        "all_ok" if all(rep.values()) else ",".join(k for k, v in rep.items() if not v),
        "closed-form product table over the dictionary basis",
    )


def _suite_t4_structure(ck: _Checks, rng: random.Random, trials: int | None):
    tq = default_torsion_quotient()
    p = tq.point_image()
    ck.add("point_class_order", 10, tq.element_order(p), "order of the point class in the quotient")
    w0 = tq.order5_generator()
    ck.add("order5_element_order", 5, tq.element_order(w0), "order of twice the point class")
    ck.add(
        "order5_subgroup",
        "(5,)",
        tq.subgroup([w0]).invariant_factors,
        "subgroup generated by twice the point class",
    )
    ck.add(
        "psi_kernel_order",
        5,
        tq.delta_pairing_kernel_order(),
        "kernel size of the mod-2 pairing on the quotient",
    )
    ck.add(
        "psi_kills_order5",
        (0,) * RANK,
        tq.delta_pairing_mod2(w0),
        "the mod-2 pairing vanishes on the order-5 subgroup",
    )
    ker = tq.half_product_kernel_mod2()
    expect = (tuple(c % 2 for c in tq.h4.delta_used.h2.coords),)
    ck.add(
        "half_product_kernel_mod2",
        expect,
        tuple(ker),
        "kernel of the half-product reduction is {0, exceptional}",
    )
    good = 0
    for k in range(RANK):
        img = tq.half_product_image(H2Class.basis_vector(k))
        row = tq.delta_pairing_mod2(img)
        want = tuple(
            bb_form(H2Class.basis_vector(k), H2Class.basis_vector(j)) % 2
            for j in range(RANK)
        )
        if row == want:
            good += 1
    ck.add(
        "pairing_after_half_product",
        f"{RANK}/{RANK}",
        f"{good}/{RANK}",
        "mod-2 pairing after half-product equals the form mod 2",
    )
    ok = 0
    n = trials or 10
    for _ in range(n):
        a = sample_primitive(rng)
        b = sample_primitive(rng)
        lhs = tq.half_product_image(a + b)
        rhs = tq.add(tq.half_product_image(a), tq.half_product_image(b))
        if lhs == rhs and tq.scale(2, rhs) == tq.zero():
            ok += 1
    ck.add(
        "half_product_additive_2torsion",
        f"{n}/{n}",
        f"{ok}/{n}",
        "half-product reduction is additive with 2-torsion values",
    )


def _suite_minimal_class(ck: _Checks, rng: random.Random, trials: int | None):
    h4 = default_h4_lattice()
    e1, f1 = hyperbolic_pair(0)
    u = e1 + f1
    T1 = transcendental(PicardData.rank_one(u))
    ck.add(
        "functional_on_q_scaled",
        10,
        minimality_scalar(Fraction(2, 5) * h4.q, T1),
        "the canonical dual class pairs with multiplier 10 after scaling by 2/5",
    )
    ck.add(
        "functional_on_square",
        bb_form(u, u),
        minimality_scalar(sym2_embed(u, u), T1),
        "the square of the polarization pairs with its own square",
    )
    n = trials or 20
    bad = []
    for k in range(n):
        l0 = sample_polarization_odd(rng) if k % 2 else sample_polarization_even(rng, True)
        rep = minimal_class_search(PicardData.rank_one(l0), h4)
        if rep.feasible or rep.image_generator % 2 != 0:
            bad.append(list(l0.coords))
    ck.add(
        "rank1_assumption_infeasible",
        f"{n}/{n} infeasible with even image",
        f"{n - len(bad)}/{n} infeasible with even image",
        "no minimal class over rank-1 algebraic data under the side condition",
    )
    l0e = 2 * u + delta0()
    pd = PicardData.from_vectors([delta0().coords, u.coords], l0e)
    rep = minimal_class_search(pd, h4)
    wit_ok = (
        rep.feasible
        and rep.image_generator == 1
        and rep.witness is not None
        and minimality_scalar(rep.witness, transcendental(pd)) == 1
        and h4.contains(rep.witness)
    )
    ck.add(
        "positive_control_witness",
        True,
        wit_ok,
        "rank-2 algebraic data containing the exceptional class admits m = 1",
    )


def _suite_even_odd(ck: _Checks, rng: random.Random, trials: int | None):
    h4 = default_h4_lattice()
    tq = default_torsion_quotient()
    n = trials or 40
    agree = 0
    for k in range(n):
        if k % 4 == 0:
            l0 = sample_polarization_even(rng, bool(k % 8))
        else:
            l0 = sample_primitive(rng)
        preds = even_class_predicates(l0, tq)
        if len(set(preds.values())) == 1:
            agree += 1
    ck.add(
        "sextuple_agreement",
        f"{n}/{n}",
        f"{agree}/{n}",
        "six characterizations of evenness agree on sampled primitive classes",
    )
    m = max(4, (trials or 20) // 2)
    ok = 0
    tfq = Fraction(2, 5) * h4.q
    for _ in range(m):
        l0 = sample_polarization_odd(rng)
        V = canonical_hodge_lattice(l0, h4)
        if V == h4_span([sym2_embed(l0, l0), tfq]):
            ok += 1
    ck.add(
        "v_structure_odd",
        f"{m}/{m}",
        f"{ok}/{m}",
        "odd polarization: integral span generated by the square and (2/5)q",
    )
    ok = 0
    for k in range(m):
        l0 = sample_polarization_even(rng, bool(k % 2))
        V = canonical_hodge_lattice(l0, h4)
        gen2 = Fraction(1, 8) * (sym2_embed(l0, l0) + tfq)
        if V == h4_span([sym2_embed(l0, l0), gen2]):
            ok += 1
    ck.add(
        "v_structure_even",
        f"{m}/{m}",
        f"{ok}/{m}",
        "even polarization: second generator divides by 8",
    )
    k = max(5, (trials or 50) // 2)
    ok = 0
    for _ in range(k):
        d1 = sample_exceptional(rng)
        d2 = sample_exceptional(rng)
        a = sample_primitive(rng)
        c1 = all(c % 2 == 0 for c in (d1.h2 - d2.h2).coords)
        sq_diff = sym2_embed(d1.h2, d1.h2) - sym2_embed(d2.h2, d2.h2)
        c2 = h4.contains(Fraction(1, 8) * sq_diff)
        c3 = h4.contains(half_product_class(d1, a))
        if c1 and c2 and c3:
            ok += 1
    ck.add(
        "divisibility_suite",
        f"{k}/{k}",
        f"{ok}/{k}",
        "half differences, eighth square differences, half products all integral",
    )
    img_o = hodge_image_in_torsion(hyperbolic_pair(0)[0] + hyperbolic_pair(0)[1], tq)
    img_e = hodge_image_in_torsion(2 * (hyperbolic_pair(0)[0] + hyperbolic_pair(0)[1]) + delta0(), tq)
    ck.add(
        "hodge_image_orders",
        "(5,)/(10,)",
        f"{img_o.invariant_factors}/{img_e.invariant_factors}",
        "torsion image cyclic of order 5 (odd) and 10 (even)",
    )
    zo = algebraic_quotient_bound(hyperbolic_pair(0)[0] + hyperbolic_pair(0)[1], h4)
    ze = algebraic_quotient_bound(2 * (hyperbolic_pair(0)[0] + hyperbolic_pair(0)[1]) + delta0(), h4)
    ck.add(
        "z4_quotient_bounds",
        "(3,)/(24,)",
        f"{zo.invariant_factors}/{ze.invariant_factors}",
        "quotient by the two unconditional algebraic classes",
    )


def _suite_cubic(ck: _Checks, rng: random.Random, trials: int | None):
    h4 = default_h4_lattice()
    e1, f1 = hyperbolic_pair(0)
    g1 = 2 * (e1 + f1) + delta0()
    m = build_cubic_model(g1, h4)
    sq = sym2_embed(g1, g1)
    from .h4_model import fujiki_pair

    ck.add("g1_fourth_power", 108, fujiki_pair(sq, sq), "fourth power of the degree-2 polarization")
    ck.add("g2_dot_g1_squared", 45, fujiki_pair(m.g2, sq), "pairing of g2 against the polarization square")
    ck.add("g2_integral", True, h4.contains(m.g2), "g2 lies in the degree-4 lattice")
    resid = m.residual_generator()
    ck.add(
        "residual_integral_primitive",
        True,
        h4.contains(resid) and h4.divisibility(resid) == 1,
        "(g1^2 - g2)/3 integral and primitive",
    )
    ck.add(
        "lines_basis_equals_v",
        True,
        lines_hodge_basis(m) == canonical_hodge_lattice(g1, h4),
        "g2 and the residual class generate the whole rank-2 integral span",
    )
    T = transcendental(PicardData.rank_one(g1))
    rows = [H2Class._of(r) for r in T.int_basis]
    bad = 0
    for _ in range(trials or 20):
        a, b = rng.choice(rows), rng.choice(rows)
        if fujiki_with_product(m.g2, a, b) != 0:
            bad += 1
    ck.add(
        "g2_kills_transcendental",
        "0 nonzero",
        f"{bad} nonzero",
        "g2 pairs to zero against transcendental pairs",
    )
    n = max(3, (trials or 10) // 2)
    ok = 0
    for _ in range(n):
        g = sample_square6_even(rng)
        try:
            mm = build_cubic_model(g, h4)
            if lines_hodge_basis(mm) == canonical_hodge_lattice(g, h4):
                ok += 1
        except (ValueError, ArithmeticError):
            pass
    ck.add(
        "sampled_embeddings",
        f"{n}/{n}",
        f"{ok}/{n}",
        "model invariants hold for sampled square-6 even classes",
    )
    rep = pfaffian_check()
    ck.add("pfaffian_lambda0_square", 6, rep["lambda0_square"], "square of 2b - 5d for b of square 14")
    ck.add("pfaffian_even", True, rep["lambda0_even"], "2b - 5d is even")
    ck.add("pfaffian_assumption", True, rep["assumption_holds"], "the polarization side condition holds")
    ck.add("c2_consistency", True, c2_consistency(trials=3, rng=rng), "(1/3) of the degree-4 characteristic class equals (2/5)q")
    rep1 = minimal_class_search(PicardData.rank_one(g1), h4)
    ck.add(
        "lines_rank1_obstruction",
        "infeasible,2",
        f"{'infeasible' if not rep1.feasible else 'feasible'},{_frac_str(rep1.image_generator)}",
        "rank-1 algebraic data on the fourfold of lines has image 2Z",
    )


def _fixed_space_status(inst: FixInstance) -> str:
    """One instance as the deformation checks read it. A system whose kernel
    the structural generators do not span is a failing check, not an error."""
    try:
        sol = solve_fixed_space(inst)
    except ArithmeticError:
        return "kernel not spanned by the structural generators"
    return f"dim {sol.dimension}, span {'ok' if verify_generators(sol, inst) else 'bad'}"


def _suite_deformation(ck: _Checks, rng: random.Random, trials: int | None):
    ck.add(
        "hand_instance",
        "dim 2, span ok",
        _fixed_space_status(FixInstance(Mat.identity(2), [1, 0])),
        "two-dimensional fixed space on the 2x2 identity instance",
    )
    n = trials or 10
    ok = 0
    for _ in range(n):
        inst = random_instance(rng, rng.randint(3, 10))
        if _fixed_space_status(inst) == "dim 2, span ok":
            ok += 1
    ck.add(
        "random_instances",
        f"{n}/{n}",
        f"{ok}/{n}",
        "fixed space is spanned by the inverse matrix and the outer square",
    )
    ck.add(
        "full_size_instance",
        "dim 2, span ok",
        _fixed_space_status(random_instance(rng, 21)),
        "the 21-variable instance matching the geometric setup",
    )


def _suite_blowup(ck: _Checks, rng: random.Random, trials: int | None, convention: str):
    U = [[0, 1], [1, 0]]
    y = FourfoldH4.standard(U, transcendental_rows=[[1, 0]])
    yp = blowup_h4(y, BlowupCenter.point())
    g = yp.lattice.gram()
    ck.add("point_block", -1, g[(2, 2)], "a point contributes an orthogonal square -1 class")
    yc = blowup_h4(y, BlowupCenter.curve(5))
    g = yc.lattice.gram()
    blk = (g[(2, 2)], g[(2, 3)], g[(3, 3)])
    ck.add("curve_block", (5, -1, 0), tuple(int(x) for x in blk), "a degree-d curve contributes [[d,-1],[-1,0]]")
    sub = Lattice.from_int_rows([[1, 0]])
    ys = blowup_h4(y, BlowupCenter.surface(U, transcendental_sub=sub, label="S"))
    g = ys.lattice.gram()
    ck.add("surface_block_negated", (0, -1), (int(g[(2, 2)]), int(g[(2, 3)])), "a surface contributes its negated degree-2 Gram")
    pt_preserved = [list(r) for r in yp.transcendental.basis_rows()] == [
        list(r) + [Fraction(0)] for r in y.transcendental.basis_rows()
    ]
    cv_preserved = [list(r) for r in yc.transcendental.basis_rows()] == [
        list(r) + [Fraction(0), Fraction(0)] for r in y.transcendental.basis_rows()
    ]
    ck.add(
        "transcendental_invariance",
        True,
        pt_preserved and cv_preserved and ys.transcendental.rank == 2,
        "points and curves leave the transcendental part unchanged; surfaces add theirs",
    )
    total = odd = 0
    for conv in ("quadratic", "paper"):
        for e0 in (1, 3, 5):
            for e in (2, 3, 4):
                total += 1
                if residue_transform(e0, e, conv) % 2 == 1:
                    odd += 1
    ck.add(
        "residue_parity",
        f"{total}/{total} odd",
        f"{odd}/{total} odd",
        "the residue construction preserves oddness under both conventions",
    )
    ck.add(
        "residue_value_3_3",
        27 if convention == "quadratic" else 9,
        residue_transform(3, 3, convention),
        "worked value of the selected residue convention",
    )
    r1 = potential_jacobian_search([1], 1)
    ck.add(
        "search_unit_multiplier",
        "[(-1,), (1,)]",
        sorted(r1.solutions),
        "a unit multiplier already gives a minimal combination",
    )
    r2 = potential_jacobian_search([2], 3)
    ck.add(
        "search_even_multiplier",
        "empty,certified",
        f"{'empty' if not r2.solutions else 'found'},{'certified' if r2.provably_empty else 'open'}",
        "even multipliers can never combine to 1",
    )
    ck.add("rational_map_indices", (-1, 1), rational_map_indices(), "bookkeeping indices of the two projection maps")
    comb = Combination([(1, Correspondence("a", 3)), (1, Correspondence("b", 2))])
    ck.add("combine_pairing", 5, combine_pairing(comb), "disjoint surfaces combine quadratically")


def run_suite(suite: str, seed: int, trials: int | None, convention: str) -> dict:
    t0 = time.perf_counter()
    ck = _Checks()
    runners = {
        "h4-torsion": lambda c, r: _suite_h4_torsion(c, r, trials),
        "t4-structure": lambda c, r: _suite_t4_structure(c, r, trials),
        "minimal-class": lambda c, r: _suite_minimal_class(c, r, trials),
        "even-odd": lambda c, r: _suite_even_odd(c, r, trials),
        "cubic": lambda c, r: _suite_cubic(c, r, trials),
        "deformation": lambda c, r: _suite_deformation(c, r, trials),
        "blowup": lambda c, r: _suite_blowup(c, r, trials, convention),
    }
    if suite == "all":
        for name, fn in runners.items():
            sub = _Checks(prefix=name + ".")
            fn(sub, random.Random(seed))
            ck.items.extend(sub.items)
    else:
        runners[suite](ck, random.Random(seed))
    ck.items.sort(key=lambda item: item["name"])
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "seed": seed,
        "checks": ck.items,
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
    }


# ---------------------------------------------------------------------------
# queries


_NAMED_CLASSES = {
    "q": lambda h4: h4.q,
    "two-fifths-q": lambda h4: Fraction(2, 5) * h4.q,
    "v0": lambda h4: h4.v0,
    "c2": lambda h4: 3 * (Fraction(2, 5) * h4.q),
}


def _payload_class(payload: dict, h4) -> H4Class:
    if "named" in payload:
        name = payload["named"]
        if name not in _NAMED_CLASSES:
            raise ValueError(f"unknown named class {name!r}; know {sorted(_NAMED_CLASSES)}")
        return _NAMED_CLASSES[name](h4)
    if "class" in payload:
        return H4Class.from_json(payload["class"])
    if "lambda0" in payload:
        l0 = H2Class(payload["lambda0"])
        cls = sym2_embed(l0, l0)
        if payload.get("plus_two_fifths_q"):
            cls = cls + Fraction(2, 5) * h4.q
        return cls
    raise ValueError("payload needs one of: named, class, lambda0")


def run_query(kind: str, payload: dict) -> dict:
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    h4 = default_h4_lattice()
    if kind == "membership":
        cls = _payload_class(payload, h4)
        member = h4.contains(cls)
        out = {"member": member}
        if member and not cls.is_zero():
            out["divisibility"] = h4.divisibility(cls)
        return out
    if kind == "divisibility":
        cls = _payload_class(payload, h4)
        return {"divisibility": h4.divisibility(cls)}
    if kind == "vlambda":
        l0 = H2Class(payload["lambda0"])
        V = canonical_hodge_lattice(l0, h4)
        rows = [H4Class._of(r, V.den) for r in V.int_basis]
        gram = V.gram()
        return {
            "parity": "even" if is_even(l0) else "odd",
            "square": bb_form(l0, l0),
            "basis": [r.to_json() for r in rows],
            "gram": [[_frac_str(gram[(i, j)]) for j in range(2)] for i in range(2)],
            "gram_det": _frac_str(gram.det()),
        }
    if kind == "minimal-search":
        l0 = H2Class(payload["lambda0"])
        if "picard" in payload:
            pd = PicardData.from_vectors(payload["picard"], l0)
        else:
            pd = PicardData.rank_one(l0)
        rep = minimal_class_search(pd, h4)
        return rep.to_json()
    raise ValueError(f"unknown query kind {kind!r}")


_POLARIZATION_SAMPLERS = {
    "polarization-odd": sample_polarization_odd,
    "polarization-even": sample_polarization_even,
}


def run_sample(kind: str, count: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        if kind == "exceptional":
            d = sample_exceptional(rng)
            out.append(
                {
                    "coords": list(d.h2.coords),
                    "square": bb_form(d.h2, d.h2),
                    "valid": is_exceptional(d.h2),
                }
            )
        elif kind in _POLARIZATION_SAMPLERS:
            l0 = _POLARIZATION_SAMPLERS[kind](rng)
            out.append(
                {
                    "coords": list(l0.coords),
                    "square": bb_form(l0, l0),
                    "parity": "even" if is_even(l0) else "odd",
                    "primitive": is_primitive(l0),
                    "assumption": polarization_condition(l0),
                }
            )
        else:
            raise ValueError(f"unknown sample kind {kind!r}")
    return out


# ---------------------------------------------------------------------------
# rendering and entry point


def _render_text(report: dict) -> str:
    lines = []
    width = max((len(c["name"]) for c in report["checks"]), default=10)
    npass = 0
    for c in report["checks"]:
        mark = "PASS" if c["status"] == "pass" else "FAIL"
        npass += c["status"] == "pass"
        lines.append(
            f"{mark}  {c['name']:<{width}}  expected={c['expected']}  actual={c['actual']}"
        )
    lines.append(
        f"suite {report['suite']}: {npass}/{len(report['checks'])} checks passed"
        f" in {report['elapsed_ms']} ms (seed {report['seed']})"
    )
    return "\n".join(lines)


def _emit(args, obj, is_report: bool) -> int:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if is_report and not args.json:
        print(_render_text(obj))
    else:
        print(text)
    if is_report:
        return 0 if all(c["status"] == "pass" for c in obj["checks"]) else 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    common.add_argument("--out", help="also write the JSON report to this file")

    p = argparse.ArgumentParser(
        prog="hklattice",
        description="Exact verification of the degree-4 integral lattice model",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", parents=[common], help="run a verification suite")
    pv.add_argument("suite", choices=SUITES)
    pv.add_argument("--trials", type=int, default=None, help="sample count for randomized checks")
    pv.add_argument(
        "--convention",
        choices=("quadratic", "paper"),
        default="quadratic",
        help="residue transform convention",
    )

    pq = sub.add_parser("query", parents=[common], help="one-off lattice question")
    pq.add_argument("kind", choices=("membership", "divisibility", "vlambda", "minimal-search"))
    pq.add_argument("--payload", required=True, help="JSON payload")

    ps = sub.add_parser("sample", parents=[common], help="seeded random classes")
    ps.add_argument("kind", choices=("exceptional", "polarization-odd", "polarization-even"))
    ps.add_argument("--count", type=int, default=5)

    pr = sub.add_parser("search", parents=[common], help="combination searches")
    pr.add_argument("kind", choices=("jacobian-combos",))
    pr.add_argument("--multipliers", required=True, help="comma-separated integers, e.g. 3,2")
    pr.add_argument("--bound", type=int, default=3)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            if args.trials is not None and args.trials < 1:
                raise ValueError("trials must be at least 1")
            report = run_suite(args.suite, args.seed, args.trials, args.convention)
            return _emit(args, report, is_report=True)
        if args.command == "query":
            try:
                payload = json.loads(args.payload)
            except json.JSONDecodeError as exc:
                raise ValueError(f"payload is not valid JSON: {exc}") from None
            return _emit(args, run_query(args.kind, payload), is_report=False)
        if args.command == "sample":
            if args.count < 1:
                raise ValueError("count must be at least 1")
            return _emit(args, run_sample(args.kind, args.count, args.seed), is_report=False)
        if args.command == "search":
            mults = [int(x) for x in args.multipliers.split(",") if x.strip()]
            res = potential_jacobian_search(mults, args.bound)
            return _emit(args, res.to_json(), is_report=False)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
