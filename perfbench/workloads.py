"""The two benchmark workloads and the checks on their outputs.

Both are closed loops: one client in one process and one thread sends the
next request only after the previous one returned.

``verify-all`` runs every suite of ``hklattice verify all --seed S`` through
``cli.run_suite``, one suite at a time in the order ``verify all`` uses, and
reassembles the report ``verify all`` prints. Its load falls on the
``exact_linalg`` Fraction plumbing (the lattice suites) and on the
``kernels`` bigint echelon (``deformation``), so a gain in one can be
checked against no change in the other.

``query-mix`` is a seeded, shuffled stream of ``query`` invocations through
``cli.main``: many cheap lookups (membership and divisibility against the
cached degree-4 basis) and fewer lattice constructions (``vlambda`` and
rank-1 ``minimal-search``). It never reaches the deformation echelon, the
torsion quotient or the cubic model.

Nothing here imports ``hklattice`` at module level: the worker times that
import as set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time

# the order ``cli.run_suite("all", ...)`` runs the suites in
SUITES = (
    "h4-torsion",
    "t4-structure",
    "minimal-class",
    "even-odd",
    "cubic",
    "deformation",
    "blowup",
)

# Facts the verify suites prove, used to check lookup answers.
NAMED_MEMBERSHIP = {
    "q": {"member": False},
    "two-fifths-q": {"member": True, "divisibility": 1},
    "v0": {"member": True, "divisibility": 1},
    "c2": {"member": True, "divisibility": 3},
}
NAMED_DIVISIBILITY = {"two-fifths-q": 1, "v0": 1, "c2": 3}

LOOKUP = "lookup"
CONSTRUCT = "construct"

# A run holds a fixed amount of work sized from ``--seconds``, so a faster
# program finishes early. The query mix is chosen, not observed: no record
# of real query traffic exists. At 40 s it holds 100 constructions, the
# fewest that leave ten samples beyond their p90, and 10 lookups per
# construction, as many as the run's time budget leaves room for. The
# constructions alternate between the two kinds and the lookups are drawn
# evenly from four kinds (see ``query_stream``). On a 2-vCPU Xeon VM with
# CPython 3.11 and the pure-Python kernels a construction takes about 0.4 s
# and a lookup about 5 ms, so the stream takes about 45 s, like one pass of
# verify-all, and lookups are about a tenth of it.
CONSTRUCTIONS_PER_SECOND = 2.5
LOOKUPS_PER_CONSTRUCTION = 10
VERIFY_ALL_PASS_SECONDS = 45.0
LOOKUP_SECONDS = 0.005


def expected_seconds(workload: str, seconds: float) -> float:
    """Time the planned work of one untraced run takes on that machine."""
    if workload == "verify-all":
        return verify_all_passes(seconds) * VERIFY_ALL_PASS_SECONDS
    n_construct = construction_count(seconds)
    return n_construct * (
        1.0 / CONSTRUCTIONS_PER_SECOND + LOOKUPS_PER_CONSTRUCTION * LOOKUP_SECONDS
    )


def construction_count(seconds: float) -> int:
    return max(2, round(CONSTRUCTIONS_PER_SECOND * seconds))


# ---------------------------------------------------------------------------
# verify-all


def canonical_digest(report: dict) -> str:
    """SHA-256 of a report in canonical JSON with ``elapsed_ms`` removed."""
    body = {k: v for k, v in report.items() if k != "elapsed_ms"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def verify_all_passes(seconds: float) -> int:
    return max(1, round(seconds / VERIFY_ALL_PASS_SECONDS))


def run_verify_all(cli, seed: int) -> dict:
    """One pass of ``verify all``: the reassembled report and suite times."""
    checks = []
    suite_s = {}
    t_all = time.perf_counter()
    for suite in SUITES:
        t = time.perf_counter()
        rep = cli.run_suite(suite, seed, None, "quadratic")
        suite_s[suite] = time.perf_counter() - t
        checks.extend(dict(c, name=f"{suite}.{c['name']}") for c in rep["checks"])
    wall_s = time.perf_counter() - t_all
    checks.sort(key=lambda c: c["name"])
    report = {
        "schema_version": cli.SCHEMA_VERSION,
        "suite": "all",
        "seed": seed,
        "checks": checks,
    }
    return {"report": report, "suite_s": suite_s, "wall_s": wall_s}


def check_verify_all(report: dict, digests: dict) -> dict:
    """Failed checks, and whether the digest matches the recorded one.

    ``digest_ok`` is None when no digest is recorded for the seed.
    """
    failed = [c["name"] for c in report["checks"] if c["status"] != "pass"]
    digest = canonical_digest(report)
    want = digests.get(str(report["seed"]))
    return {
        "attempted": len(report["checks"]),
        "failed": failed,
        "digest": digest,
        "digest_ok": None if want is None else digest == want,
    }


# ---------------------------------------------------------------------------
# query-mix


def query_stream(seed: int, seconds: float, bb) -> list[dict]:
    """The seeded, shuffled request stream of one query-mix run.

    ``bb`` is ``hklattice.bb_lattice``; its seeded samplers draw the
    polarizations and its form gives the square and parity each
    construction must report. Each request holds the argv for ``cli.main``,
    its class (lookup or construct) and the expected answer.
    """
    rng = random.Random(seed)
    n_construct = construction_count(seconds)
    polarizations = []
    for i in range(n_construct):
        l0 = bb.sample_polarization_odd(rng) if i % 2 else bb.sample_polarization_even(rng)
        polarizations.append(
            {
                "lambda0": list(l0.coords),
                "parity": "even" if bb.is_even(l0) else "odd",
                "square": bb.bb_form(l0, l0),
            }
        )

    stream = []
    for i, pol in enumerate(polarizations):
        kind = "vlambda" if i % 4 < 2 else "minimal-search"
        stream.append(_request(kind, {"lambda0": pol["lambda0"]}, CONSTRUCT, pol))
    for _ in range(n_construct * LOOKUPS_PER_CONSTRUCTION):
        pick = rng.randrange(4)
        if pick == 0:
            name = rng.choice(sorted(NAMED_MEMBERSHIP))
            stream.append(
                _request("membership", {"named": name}, LOOKUP, NAMED_MEMBERSHIP[name])
            )
        elif pick == 1:
            name = rng.choice(sorted(NAMED_DIVISIBILITY))
            stream.append(
                _request(
                    "divisibility",
                    {"named": name},
                    LOOKUP,
                    {"divisibility": NAMED_DIVISIBILITY[name]},
                )
            )
        else:
            # lambda0 squared, alone or plus (2/5)q: both lie in the lattice
            payload = {"lambda0": rng.choice(polarizations)["lambda0"]}
            if pick == 3:
                payload["plus_two_fifths_q"] = True
            stream.append(_request("membership", payload, LOOKUP, {"member": True}))
    rng.shuffle(stream)
    return stream


def _request(kind: str, payload: dict, cls: str, expect: dict) -> dict:
    return {
        "argv": ["query", kind, "--json", "--payload", json.dumps(payload)],
        "kind": kind,
        "class": cls,
        "expect": expect,
    }


def call_cli(cli, argv: list[str]) -> tuple[int, str, float]:
    """Run ``cli.main(argv)`` with stdout captured: (exit code, stdout, s)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        t = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t
    return rc, buf.getvalue(), dt


def check_answer(req: dict, rc: int, out: str, contains) -> bool:
    """Whether one query answer is right.

    ``contains(h4_class_json)`` tells whether a class lies in the degree-4
    lattice; it is only called for ``vlambda`` answers.
    """
    if rc != 0:
        return False
    try:
        ans = json.loads(out)
    except ValueError:
        return False
    want = req["expect"]
    kind = req["kind"]
    if kind == "membership":
        if ans.get("member") is not want["member"]:
            return False
        if not want["member"]:
            return "divisibility" not in ans
        div = ans.get("divisibility")
        if "divisibility" in want:
            return div == want["divisibility"]
        return type(div) is int and div >= 1
    if kind == "divisibility":
        return ans.get("divisibility") == want["divisibility"]
    if kind == "vlambda":
        basis = ans.get("basis")
        return (
            ans.get("parity") == want["parity"]
            and ans.get("square") == want["square"]
            and isinstance(basis, list)
            and len(basis) == 2
            and all(contains(row) for row in basis)
        )
    if kind == "minimal-search":
        gen = ans.get("image_generator")
        return (
            ans.get("feasible") is False
            and isinstance(gen, str)
            and gen.lstrip("-").isdigit()
            and int(gen) % 2 == 0
        )
    return False


def gmean(values: list[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geometric mean of no values")
    return math.exp(math.fsum(math.log(x) for x in values) / len(values))


def quantile(values: list[float], q: float) -> float:
    """The q-quantile by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
