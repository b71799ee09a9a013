"""Command-line verification harness.

Four commands: ``verify`` runs a named suite of exact checks and reports
pass/fail per check; ``query`` answers one-off lattice questions from a JSON
payload; ``sample`` emits seeded random classes that pass their validating
predicates; ``search`` runs the combination search. Reports are JSON
(canonical, deterministic for a fixed seed except the elapsed_ms field) or
a plain-text table. Each check runs on its own: an exception inside one is
that check's ``error`` status, and the others still run. Exit codes: 0 all
checks pass, 1 any check failed or raised, 2 argv or payload errors found
before any computation (one ``error:`` line on stderr). An ``--out`` file
that cannot be opened for writing is an argv error: it is opened first.

The parsers are built once per process, on the first call. A plain
``query`` argv (the kind, then only ``--json`` and ``--payload {...}``) is
read directly into the namespace argparse would build. Any other argv that
starts with a subcommand name goes straight to that subcommand's parser;
the top-level parser reads only the rest (no argv, ``-h``, an unknown
command), and so serves only its help and its errors. The named classes
of a ``query`` payload are built once too, on the first lookup.

All randomness flows through ``random.Random(seed)`` (the standard
Mersenne-Twister); a fixed seed reproduces every sampled class, and thus the
whole report, byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import re
import sys
import time
from fractions import Fraction
from functools import cache

from .bb_lattice import (
    RANK,
    H2Class,
    bb_form,
    delta0,
    gram_apply,
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
    default_h4_lattice,
    default_torsion_quotient,
    double_cover_sym2_matrix,
    fujiki_det,
    fujiki_pair,
    fujiki_product_covector,
    glue_classes,
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


def _check(name: str, expected, thunk, anchor: str) -> dict:
    """Evaluate one check. An exception from its thunk is status ``"error"``
    with ``"<Type>: <message>"`` as the actual value, so one failing
    computation never hides the other checks."""
    e = str(expected)
    try:
        a = str(thunk())
    except Exception as exc:
        status, a = "error", f"{type(exc).__name__}: {exc}"
    else:
        status = "pass" if e == a else "fail"
    return {"name": name, "status": status, "expected": e, "actual": a, "anchor": anchor}


def _tally(n: int, trial) -> int:
    """How many of trial(0), ..., trial(n - 1) hold. Every trial runs, in
    order, so a sampled trial draws the same numbers whatever the others
    answered."""
    return sum(1 for k in range(n) if trial(k))


# ---------------------------------------------------------------------------
# suites: each returns its checks (name, expected, thunk, anchor) in the
# order they run. Thunks draw from rng in that order, and shared work sits in
# helpers memoized for one run.


def _suite_h4_torsion(rng: random.Random, trials: int | None, convention: str):
    tq = default_torsion_quotient

    def invariant_factors():
        facs = tq().group.invariant_factors
        return f"2^{sum(1 for f in facs if f == 2)},{facs[-1]}" if facs else "none"

    def cup_product_table():
        rep = verify_cup_product_table(default_h4_lattice())
        return "all_ok" if all(rep.values()) else ",".join(k for k, v in rep.items() if not v)

    return [
        # TorsionQuotient proves its group order equal to this index when built
        ("index_sym2_in_L", 5 * 2**23, lambda: tq().order(),
         "index of the monomial lattice in the full degree-4 lattice"),
        ("invariant_factors", "2^22,10", invariant_factors,
         "invariant factors of the degree-4 quotient group"),
        ("gram_det_abs", 1, lambda: abs(default_h4_lattice().gram_det()),
         "unimodularity of the full degree-4 lattice"),
        ("fujiki_gram_det_abs", 25 * 2**46, lambda: abs(fujiki_det()),
         "determinant of the monomial intersection Gram"),
        ("det_double_cover", 5 * 2**45, lambda: double_cover_sym2_matrix().det(),
         "determinant of the double-cover comparison matrix"),
        # the glue classes of a sampled d generate the default lattice with
        # Z^276 exactly when build_h4_lattice(d) equals it
        ("delta_independence", True,
         lambda: tq().generated_by(glue_classes(sample_exceptional(rng))),
         "the degree-4 lattice does not depend on the exceptional class"),
        ("cup_product_table", "all_ok", cup_product_table,
         "closed-form product table over the dictionary basis"),
    ]


def _suite_t4_structure(rng: random.Random, trials: int | None, convention: str):
    tq = default_torsion_quotient
    w0 = cache(lambda: tq().order5_generator())
    n = trials or 10

    def pairing_after_half_product(k):
        e = H2Class.basis_vector
        row = tq().delta_pairing_mod2(tq().half_product_image(e(k)))
        # b(e_k, e_j) = (G e_k)_j, as the Gram matrix G is symmetric
        return row == tuple(x % 2 for x in gram_apply(e(k)))

    def additive_2torsion(_):
        a = sample_primitive(rng)
        b = sample_primitive(rng)
        lhs = tq().half_product_image(a + b)
        rhs = tq().add(tq().half_product_image(a), tq().half_product_image(b))
        return lhs == rhs and tq().scale(2, rhs) == tq().zero()

    return [
        ("point_class_order", 10, lambda: tq().element_order(tq().point_image()),
         "order of the point class in the quotient"),
        ("order5_element_order", 5, lambda: tq().element_order(w0()),
         "order of twice the point class"),
        ("order5_subgroup", "(5,)", lambda: tq().subgroup([w0()]).invariant_factors,
         "subgroup generated by twice the point class"),
        ("psi_kernel_order", 5, lambda: tq().delta_pairing_kernel_order(),
         "kernel size of the mod-2 pairing on the quotient"),
        ("psi_kills_order5", (0,) * RANK, lambda: tq().delta_pairing_mod2(w0()),
         "the mod-2 pairing vanishes on the order-5 subgroup"),
        ("half_product_kernel_mod2", (tuple(c % 2 for c in delta0().coords),),
         lambda: tuple(tq().half_product_kernel_mod2()),
         "kernel of the half-product reduction is {0, exceptional}"),
        ("pairing_after_half_product", f"{RANK}/{RANK}",
         lambda: f"{_tally(RANK, pairing_after_half_product)}/{RANK}",
         "mod-2 pairing after half-product equals the form mod 2"),
        ("half_product_additive_2torsion", f"{n}/{n}",
         lambda: f"{_tally(n, additive_2torsion)}/{n}",
         "half-product reduction is additive with 2-torsion values"),
    ]


def _suite_minimal_class(rng: random.Random, trials: int | None, convention: str):
    h4 = default_h4_lattice
    e1, f1 = hyperbolic_pair(0)
    u = e1 + f1
    T1 = cache(lambda: transcendental(PicardData.rank_one(u)))
    n = trials or 20

    def infeasible_with_even_image(k):
        l0 = sample_polarization_odd(rng) if k % 2 else sample_polarization_even(rng, True)
        rep = minimal_class_search(PicardData.rank_one(l0))
        return not rep.feasible and rep.image_generator % 2 == 0

    def positive_control_witness():
        # the search re-verifies its witness on every transcendental pair, and
        # the witness lies in the search lattice, which lies in L by construction
        pd = PicardData.from_vectors([delta0().coords, u.coords], 2 * u + delta0())
        rep = minimal_class_search(pd)
        return rep.feasible and rep.image_generator == 1 and rep.witness is not None

    return [
        ("functional_on_q_scaled", 10,
         lambda: minimality_scalar(Fraction(2, 5) * h4().q, T1()),
         "the canonical dual class pairs with multiplier 10 after scaling by 2/5"),
        # b(u, u) = 2 for u = e1 + f1
        ("functional_on_square", 2, lambda: minimality_scalar(sym2_embed(u, u), T1()),
         "the square of the polarization pairs with its own square"),
        ("rank1_assumption_infeasible", f"{n}/{n} infeasible with even image",
         lambda: f"{_tally(n, infeasible_with_even_image)}/{n} infeasible with even image",
         "no minimal class over rank-1 algebraic data under the side condition"),
        ("positive_control_witness", True, positive_control_witness,
         "rank-2 algebraic data containing the exceptional class admits m = 1"),
    ]


def _suite_even_odd(rng: random.Random, trials: int | None, convention: str):
    h4 = default_h4_lattice
    tfq = cache(lambda: Fraction(2, 5) * h4().q)
    e1, f1 = hyperbolic_pair(0)
    odd, even = e1 + f1, 2 * (e1 + f1) + delta0()
    n = trials or 40
    m = max(4, (trials or 20) // 2)
    k = max(5, (trials or 50) // 2)

    def sextuple_agreement(j):
        l0 = sample_polarization_even(rng, bool(j % 8)) if j % 4 == 0 else sample_primitive(rng)
        return len(set(even_class_predicates(l0).values())) == 1

    def v_structure_odd(_):
        l0 = sample_polarization_odd(rng)
        return canonical_hodge_lattice(l0) == h4_span([sym2_embed(l0, l0), tfq()])

    def v_structure_even(j):
        l0 = sample_polarization_even(rng, bool(j % 2))
        V = canonical_hodge_lattice(l0)
        return V == h4_span([sym2_embed(l0, l0), Fraction(1, 8) * (sym2_embed(l0, l0) + tfq())])

    def divisibility(_):
        d1 = sample_exceptional(rng)
        d2 = sample_exceptional(rng)
        a = sample_primitive(rng)
        sq_diff = sym2_embed(d1.h2, d1.h2) - sym2_embed(d2.h2, d2.h2)
        return (
            all(c % 2 == 0 for c in (d1.h2 - d2.h2).coords)
            and h4().contains(Fraction(1, 8) * sq_diff)
            and h4().contains(half_product_class(d1, a))
        )

    def odd_even(group):
        return lambda: f"{group(odd).invariant_factors}/{group(even).invariant_factors}"

    return [
        ("sextuple_agreement", f"{n}/{n}", lambda: f"{_tally(n, sextuple_agreement)}/{n}",
         "six characterizations of evenness agree on sampled primitive classes"),
        ("v_structure_odd", f"{m}/{m}", lambda: f"{_tally(m, v_structure_odd)}/{m}",
         "odd polarization: integral span generated by the square and (2/5)q"),
        ("v_structure_even", f"{m}/{m}", lambda: f"{_tally(m, v_structure_even)}/{m}",
         "even polarization: second generator divides by 8"),
        ("divisibility_suite", f"{k}/{k}", lambda: f"{_tally(k, divisibility)}/{k}",
         "half differences, eighth square differences, half products all integral"),
        ("hodge_image_orders", "(5,)/(10,)",
         odd_even(hodge_image_in_torsion),
         "torsion image cyclic of order 5 (odd) and 10 (even)"),
        ("z4_quotient_bounds", "(3,)/(24,)", odd_even(algebraic_quotient_bound),
         "quotient by the two unconditional algebraic classes"),
    ]


def _suite_cubic(rng: random.Random, trials: int | None, convention: str):
    h4 = default_h4_lattice
    e1, f1 = hyperbolic_pair(0)
    g1 = 2 * (e1 + f1) + delta0()
    sq = cache(lambda: sym2_embed(g1, g1))
    model = cache(lambda: build_cubic_model(g1))
    pfaffian = cache(lambda: pfaffian_check())
    rows = cache(lambda: [H2Class._of(r) for r in transcendental(PicardData.rank_one(g1)).int_basis])
    n = max(3, (trials or 10) // 2)

    def residual_integral_primitive():
        # one substitution: no content outside L, and primitive when it is 1
        return h4().content(model().residual_generator()) == 1

    def nonzero_on_transcendental():
        # g2 . a*b for every pair a <= b of the basis: one covector per b
        g2, basis = model().g2, rows()
        count = 0
        for j, b in enumerate(basis):
            cov = fujiki_product_covector(g2, b)
            count += sum(1 for a in basis[: j + 1] if sum([x * y for x, y in zip(a.coords, cov)]))
        return f"{count} nonzero"

    def sampled_embedding(_):
        """Equal to the saturated span, g2 and the residual are an integral
        basis of it, so the residual is primitive. Not implied, so checked
        too: g^4 = 108, g2 . g^2 = 45 and the residual (g^2 + (2/5)q)/8."""
        g = sample_square6_even(rng)
        try:
            m = build_cubic_model(g)
            gsq = sym2_embed(g, g)
            return (
                lines_hodge_basis(m) == canonical_hodge_lattice(g)
                and fujiki_pair(gsq, gsq) == 108
                and fujiki_pair(m.g2, gsq) == 45
                and m.residual_generator() == Fraction(1, 8) * (gsq + Fraction(2, 5) * h4().q)
            )
        except (ValueError, ArithmeticError):
            return False

    def lines_rank1_obstruction():
        rep = minimal_class_search(PicardData.rank_one(g1))
        return f"{'infeasible' if not rep.feasible else 'feasible'},{_frac_str(rep.image_generator)}"

    return [
        ("g1_fourth_power", 108, lambda: fujiki_pair(sq(), sq()),
         "fourth power of the degree-2 polarization"),
        ("g2_dot_g1_squared", 45, lambda: fujiki_pair(model().g2, sq()),
         "pairing of g2 against the polarization square"),
        ("g2_integral", True, lambda: h4().contains(model().g2), "g2 lies in the degree-4 lattice"),
        ("residual_integral_primitive", True, residual_integral_primitive,
         "(g1^2 - g2)/3 integral and primitive"),
        ("lines_basis_equals_v", True,
         lambda: lines_hodge_basis(model()) == canonical_hodge_lattice(g1),
         "g2 and the residual class generate the whole rank-2 integral span"),
        ("g2_kills_transcendental", "0 nonzero", nonzero_on_transcendental,
         "g2 pairs to zero against transcendental pairs"),
        ("sampled_embeddings", f"{n}/{n}", lambda: f"{_tally(n, sampled_embedding)}/{n}",
         "model invariants hold for sampled square-6 even classes"),
        ("pfaffian_lambda0_square", 6, lambda: pfaffian()["lambda0_square"],
         "square of 2b - 5d for b of square 14"),
        ("pfaffian_even", True, lambda: pfaffian()["lambda0_even"], "2b - 5d is even"),
        ("pfaffian_assumption", True, lambda: pfaffian()["assumption_holds"],
         "the polarization side condition holds"),
        ("c2_consistency", True, lambda: c2_consistency(trials=3, rng=rng),
         "(1/3) of the degree-4 characteristic class equals (2/5)q"),
        ("lines_rank1_obstruction", "infeasible,2", lines_rank1_obstruction,
         "rank-1 algebraic data on the fourfold of lines has image 2Z"),
    ]


def _fixed_space_status(inst: FixInstance) -> str:
    """One instance as the deformation checks read it. A system whose kernel
    the structural generators do not span is a failing check, not an error."""
    try:
        sol = solve_fixed_space(inst)
    except ArithmeticError:
        return "kernel not spanned by the structural generators"
    return f"dim {sol.dimension}, span {'ok' if verify_generators(sol, inst) else 'bad'}"


def _suite_deformation(rng: random.Random, trials: int | None, convention: str):
    n = trials or 10

    def spanned(_):
        inst = random_instance(rng, rng.randint(3, 10))
        return _fixed_space_status(inst) == "dim 2, span ok"

    return [
        ("hand_instance", "dim 2, span ok",
         lambda: _fixed_space_status(FixInstance(Mat.identity(2), [1, 0])),
         "two-dimensional fixed space on the 2x2 identity instance"),
        ("random_instances", f"{n}/{n}", lambda: f"{_tally(n, spanned)}/{n}",
         "fixed space is spanned by the inverse matrix and the outer square"),
        ("full_size_instance", "dim 2, span ok",
         lambda: _fixed_space_status(random_instance(rng, 21)),
         "the 21-variable instance matching the geometric setup"),
    ]


def _suite_blowup(rng: random.Random, trials: int | None, convention: str):
    U = [[0, 1], [1, 0]]
    y = cache(lambda: FourfoldH4.standard(U, transcendental_rows=[[1, 0]]))
    yp = cache(lambda: blowup_h4(y(), BlowupCenter.point()))
    yc = cache(lambda: blowup_h4(y(), BlowupCenter.curve(5)))
    ys = cache(
        lambda: blowup_h4(
            y(),
            BlowupCenter.surface(U, transcendental_sub=Lattice.from_int_rows([[1, 0]])),
        )
    )
    residues = [(e0, e, conv) for conv in ("quadratic", "paper") for e0 in (1, 3, 5) for e in (2, 3, 4)]
    total = len(residues)

    def gram_entries(fourfold, *entries):
        g = fourfold().lattice.gram()
        return tuple(int(g[ij]) for ij in entries)

    def transcendental_invariance():
        rows = [list(r) for r in y().transcendental.basis_rows()]
        return (
            [list(r) for r in yp().transcendental.basis_rows()] == [r + [Fraction(0)] for r in rows]
            and [list(r) for r in yc().transcendental.basis_rows()] == [r + [Fraction(0)] * 2 for r in rows]
            and ys().transcendental.rank == 2
        )

    def search_even_multiplier():
        r2 = potential_jacobian_search([2], 3)
        return f"{'empty' if not r2.solutions else 'found'},{'certified' if r2.provably_empty else 'open'}"

    return [
        ("point_block", -1, lambda: gram_entries(yp, (2, 2))[0],
         "a point contributes an orthogonal square -1 class"),
        ("curve_block", (5, -1, 0), lambda: gram_entries(yc, (2, 2), (2, 3), (3, 3)),
         "a degree-d curve contributes [[d,-1],[-1,0]]"),
        ("surface_block_negated", (0, -1), lambda: gram_entries(ys, (2, 2), (2, 3)),
         "a surface contributes its negated degree-2 Gram"),
        ("transcendental_invariance", True, transcendental_invariance,
         "points and curves leave the transcendental part unchanged; surfaces add theirs"),
        ("residue_parity", f"{total}/{total} odd",
         lambda: f"{_tally(total, lambda k: residue_transform(*residues[k]) % 2 == 1)}/{total} odd",
         "the residue construction preserves oddness under both conventions"),
        ("residue_value_3_3", 27 if convention == "quadratic" else 9,
         lambda: residue_transform(3, 3, convention), "worked value of the selected residue convention"),
        ("search_unit_multiplier", "[(-1,), (1,)]",
         lambda: sorted(potential_jacobian_search([1], 1).solutions),
         "a unit multiplier already gives a minimal combination"),
        ("search_even_multiplier", "empty,certified", search_even_multiplier,
         "even multipliers can never combine to 1"),
        ("rational_map_indices", (-1, 1), rational_map_indices,
         "bookkeeping indices of the two projection maps"),
        ("combine_pairing", 5,
         lambda: combine_pairing(Combination([(1, Correspondence("a", 3)), (1, Correspondence("b", 2))])),
         "disjoint surfaces combine quadratically"),
    ]


# the order ``verify all`` runs them in
_SUITES = {
    "h4-torsion": _suite_h4_torsion,
    "t4-structure": _suite_t4_structure,
    "minimal-class": _suite_minimal_class,
    "even-odd": _suite_even_odd,
    "cubic": _suite_cubic,
    "deformation": _suite_deformation,
    "blowup": _suite_blowup,
}
SUITES = (*_SUITES, "all")


def run_suite(suite: str, seed: int, trials: int | None, convention: str) -> dict:
    t0 = time.perf_counter()
    checks = []
    for name in _SUITES if suite == "all" else (suite,):
        prefix = name + "." if suite == "all" else ""
        for check_name, expected, thunk, anchor in _SUITES[name](random.Random(seed), trials, convention):
            checks.append(_check(prefix + check_name, expected, thunk, anchor))
    checks.sort(key=lambda c: c["name"])
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "seed": seed,
        "checks": checks,
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
    }


# ---------------------------------------------------------------------------
# queries


@cache
def _named_classes() -> dict[str, H4Class]:
    """The classes a payload may name, constants of the default lattice,
    built on the first lookup and shared by later ones: (2/5)q is scaled
    from q once, and ``plus_two_fifths_q`` adds this one. A test that
    rebuilds the default lattice (ROADMAP item 10's mutant fixture) clears
    this cache along with the four caches of ``h4_model``."""
    h4 = default_h4_lattice()
    return {
        "q": h4.q,
        "two-fifths-q": Fraction(2, 5) * h4.q,
        "v0": h4.v0,
        "c2": Fraction(6, 5) * h4.q,
    }


_CLASS_FORMS = ("named", "class", "lambda0")

# the keys a payload of each query kind may hold; any other is an error
_PAYLOAD_KEYS = {
    "membership": (*_CLASS_FORMS, "plus_two_fifths_q"),
    "divisibility": (*_CLASS_FORMS, "plus_two_fifths_q"),
    "vlambda": ("lambda0",),
    "minimal-search": ("lambda0", "picard"),
}

# the query kinds, in the order ``query -h`` lists them
_QUERY_KINDS = tuple(_PAYLOAD_KEYS)

# the keys a payload of each query kind must hold; a membership or
# divisibility payload needs one class form instead (see _payload_class)
_REQUIRED_KEYS = {
    "vlambda": ("lambda0",),
    "minimal-search": ("lambda0",),
}


def _payload_class(payload: dict) -> H4Class:
    forms = [k for k in _CLASS_FORMS if k in payload]
    if len(forms) != 1:
        raise ValueError(
            f"payload needs exactly one of: {', '.join(_CLASS_FORMS)}; got {', '.join(forms) or 'none'}"
        )
    (form,) = forms
    if form != "lambda0" and "plus_two_fifths_q" in payload:
        raise ValueError(f"plus_two_fifths_q goes only with lambda0, not with {form}")
    if form == "named":
        name = payload["named"]
        named = _named_classes()
        if name not in named:
            raise ValueError(f"unknown named class {name!r}; know {sorted(named)}")
        return named[name]
    if form == "class":
        return H4Class.from_json(payload["class"])
    l0 = H2Class(payload["lambda0"])
    cls = sym2_embed(l0, l0)
    plus = payload.get("plus_two_fifths_q", False)
    if plus is not True and plus is not False:
        raise ValueError(f"plus_two_fifths_q must be true or false, got {json.dumps(plus)}")
    if plus:
        cls = cls + _named_classes()["two-fifths-q"]
    return cls


def _unique_keys(pairs) -> dict:
    """A JSON object that names each key once; a repeated key, at any
    depth, is a payload error rather than a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"payload repeats the key {json.dumps(key)}")
        obj[key] = value
    return obj


def run_query(kind: str, payload: dict) -> dict:
    if kind not in _PAYLOAD_KEYS:
        raise ValueError(f"unknown query kind {kind!r}")
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    allowed = _PAYLOAD_KEYS[kind]
    for key in payload:
        if key not in allowed:
            raise ValueError(
                f"unknown payload key {json.dumps(key)} for {kind}; allowed: {', '.join(allowed)}"
            )
    for key in _REQUIRED_KEYS.get(kind, ()):
        if key not in payload:
            raise ValueError(f"{kind} payload needs the key {json.dumps(key)}")
    h4 = default_h4_lattice()
    if kind == "membership":
        # one substitution answers both: the content (the gcd of the
        # coordinates, built nowhere) is None outside the lattice, 0 for
        # the zero class and otherwise the divisibility of the member
        c = h4.content(_payload_class(payload))
        out = {"member": c is not None}
        if c:
            out["divisibility"] = c
        return out
    if kind == "divisibility":
        cls = _payload_class(payload)
        return {"divisibility": h4.divisibility(cls)}
    if kind == "vlambda":
        l0 = H2Class(payload["lambda0"])
        V = canonical_hodge_lattice(l0)
        rows = [H4Class._of(r, V.den) for r in V.int_basis]
        gram = V.gram()
        return {
            "parity": "even" if is_even(l0) else "odd",
            "square": bb_form(l0, l0),
            "basis": [r.to_json() for r in rows],
            "gram": [[_frac_str(gram[(i, j)]) for j in range(2)] for i in range(2)],
            "gram_det": _frac_str(gram.det()),
        }
    # minimal-search
    l0 = H2Class(payload["lambda0"])
    if "picard" in payload:
        pd = PicardData.from_vectors(payload["picard"], l0)
    else:
        pd = PicardData.rank_one(l0)
    return minimal_class_search(pd).to_json()


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
        npass += c["status"] == "pass"
        lines.append(
            f"{c['status'].upper()}  {c['name']:<{width}}  expected={c['expected']}  actual={c['actual']}"
        )
    lines.append(
        f"suite {report['suite']}: {npass}/{len(report['checks'])} checks passed"
        f" in {report['elapsed_ms']} ms (seed {report['seed']})"
    )
    return "\n".join(lines)


def _emit(args, out, obj, is_report: bool) -> int:
    """Print obj (a report as text unless ``--json``) and write its JSON to
    ``out``, the file opened for ``--out``, when there is one. That file is
    opened for appending and emptied only here, so a run that stops before
    its answer leaves an existing file as it was."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out is not None:
        out.truncate(0)
        out.write(text + "\n")
    if is_report and not args.json:
        print(_render_text(obj))
    else:
        print(text)
    if is_report:
        return 0 if all(c["status"] == "pass" for c in obj["checks"]) else 1
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports an argv error as one ``error:`` line on stderr and exit code 2;
    subparsers are built from the same class.

    An argument that starts with a minus sign is read as an option unless
    it looks like a negative number, and a comma-separated integer list
    that starts with one, such as the ``--multipliers`` value ``-3,2``,
    counts as one too. Any other text after a minus sign, such as the
    payload ``-1e+16``, still reads as an option and must be joined to its
    option (``--payload=-1e+16``).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        number = self._negative_number_matcher.pattern
        self._negative_number_matcher = re.compile(f"{number}|^-[0-9]+(,(-?[0-9]+)?)+$")

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _integer(text: str) -> int:
    """An integer in argv: ASCII digits after an optional minus sign, so
    neither ``1_0`` nor non-ASCII digits are read as a number."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argv parser, built on the first call and shared by later ones:
    parsing reads it and never changes it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--seed", type=_integer, default=0, help="PRNG seed (default 0)")
    common.add_argument("--out", help="also write the JSON report to this file")

    p = _Parser(
        prog="hklattice",
        description="Exact verification of the degree-4 integral lattice model",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", parents=[common], help="run a verification suite")
    pv.add_argument("suite", choices=SUITES)
    pv.add_argument("--trials", type=_integer, default=None, help="sample count for randomized checks")
    pv.add_argument(
        "--convention",
        choices=("quadratic", "paper"),
        default="quadratic",
        help="residue transform convention",
    )

    pq = sub.add_parser("query", parents=[common], help="one-off lattice question")
    pq.add_argument("kind", choices=_QUERY_KINDS)
    pq.add_argument("--payload", required=True, help="JSON payload")

    ps = sub.add_parser("sample", parents=[common], help="seeded random classes")
    ps.add_argument("kind", choices=("exceptional", "polarization-odd", "polarization-even"))
    ps.add_argument("--count", type=_integer, default=5)

    pr = sub.add_parser("search", parents=[common], help="combination searches")
    pr.add_argument("kind", choices=("jacobian-combos",))
    pr.add_argument("--multipliers", required=True, help="comma-separated integers, e.g. 3,2")
    pr.add_argument("--bound", type=_integer, default=3)
    return p


@cache
def _subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's own parser by name: the map through which the
    top-level parser's subparsers action dispatches."""
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@cache
def _query_defaults() -> dict:
    """The namespace argparse builds for the smallest plain ``query`` argv,
    as a dict: every attribute ``_plain_query`` does not read is argparse's
    own default."""
    args = _subcommand_parsers()["query"].parse_args(["membership", "--payload", "{}"])
    args.command = "query"
    return vars(args)


def _plain_query(argv: list):
    """The namespace of a plain ``query`` argv, read with no argparse pass,
    or None for any other argv.

    A plain argv is ``query KIND`` followed only by ``--json`` and
    ``--payload P`` tokens, with P a string that starts with ``{`` and at
    least one ``--payload``; a repeated option takes its last value, as
    argparse does. None of these tokens is read any other way by argparse,
    which builds the same namespace (``tests/argv_parity.py`` checks it)."""
    n = len(argv)
    if n < 4 or argv[0] != "query" or argv[1] not in _QUERY_KINDS:
        return None
    as_json = False
    payload = None
    i = 2
    while i < n:
        token = argv[i]
        if token == "--json":
            as_json = True
            i += 1
        elif token == "--payload" and i + 1 < n:
            payload = argv[i + 1]
            if not isinstance(payload, str) or payload[:1] != "{":
                return None
            i += 2
        else:
            return None
    if payload is None:
        return None
    args = argparse.Namespace(**_query_defaults())
    args.kind, args.payload, args.json = argv[1], payload, as_json
    return args


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` with one pass over argv: a plain
    ``query`` argv (``_plain_query``) is read directly; otherwise, when
    ``argv[0]`` names a subcommand, the rest goes straight to that
    subcommand's parser, as the top-level one would pass it on. Any other
    argv (none, ``-h``, an unknown command, or ``None`` for ``sys.argv``)
    goes through the top-level parser, which prints its help and errors."""
    if argv is not None:
        argv = list(argv)
        args = _plain_query(argv)
        if args is not None:
            return args
        sub = _subcommand_parsers().get(argv[0]) if argv else None
        if sub is not None:
            args = sub.parse_args(argv[1:])
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        out = open(args.out, "a") if args.out else contextlib.nullcontext()
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return 2
    with out as fh:
        return _run(args, fh)


def _run(args, out) -> int:
    try:
        if args.command == "verify":
            if args.trials is not None and args.trials < 1:
                raise ValueError("trials must be at least 1")
            report = run_suite(args.suite, args.seed, args.trials, args.convention)
            return _emit(args, out, report, is_report=True)
        if args.command == "query":
            try:
                payload = json.loads(args.payload, object_pairs_hook=_unique_keys)
            except json.JSONDecodeError as exc:
                raise ValueError(f"payload is not valid JSON: {exc}") from None
            return _emit(args, out, run_query(args.kind, payload), is_report=False)
        if args.command == "sample":
            if args.count < 1:
                raise ValueError("count must be at least 1")
            return _emit(args, out, run_sample(args.kind, args.count, args.seed), is_report=False)
        if args.command == "search":
            mults = [_integer(x.strip()) for x in args.multipliers.split(",") if x.strip()]
            res = potential_jacobian_search(mults, args.bound)
            return _emit(args, out, res.to_json(), is_report=False)
    except (ValueError, KeyError, TypeError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
