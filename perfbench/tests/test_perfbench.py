"""Tests of the benchmark itself (not of hklattice).

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import time

import pytest

import compare
import hostspeed
import run
import tracer as tracer_mod
import worker
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- inputs ------------------------------------------------------------------


def test_same_seed_same_query_stream():
    from hklattice import bb_lattice

    a = workloads.query_stream(11, 4, bb_lattice)
    b = workloads.query_stream(11, 4, bb_lattice)
    c = workloads.query_stream(12, 4, bb_lattice)
    assert a == b
    assert a != c
    kinds = {r["class"] for r in a}
    assert kinds == {workloads.LOOKUP, workloads.CONSTRUCT}
    n_construct = sum(r["class"] == workloads.CONSTRUCT for r in a)
    assert n_construct == 10
    assert len(a) == n_construct * (1 + workloads.LOOKUPS_PER_CONSTRUCTION)


# -- tracing -----------------------------------------------------------------


class FakeClock:
    """perf_counter that advances by one on each reading."""

    def __init__(self):
        self.t = -1.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_time_of_nested_toy_tree(monkeypatch):
    monkeypatch.setattr(time, "perf_counter", FakeClock())
    tr = tracer_mod.Tracer("toy")
    c = tr.wrap(lambda: None, "toy.c")
    b = tr.wrap(lambda: c(), "toy.b")
    a = tr.wrap(lambda: (b(), b()), "toy.a")

    def rec(n):
        if n:
            r(n - 1)

    r = tr.wrap(rec, "other.r")
    root = tr.open(tracer_mod.ROOT)  # t=0
    a()  # a: 1..10, b: 2..5 and 6..9, c: 3..4 and 7..8
    r(1)  # outer r: 11..14, inner r: 12..13
    tr.close(root)  # t=15

    s = tr.summary()
    by = s["by_name"]
    assert by[tracer_mod.ROOT]["self_s"] == 15 - 9 - 3
    assert by["toy.a"] == {"calls": 1, "self_s": 3.0, "total_s": 9.0}
    assert by["toy.b"] == {"calls": 2, "self_s": 4.0, "total_s": 6.0}
    assert by["toy.c"] == {"calls": 2, "self_s": 2.0, "total_s": 2.0}
    # the recursive call is not counted twice in total_s
    assert by["other.r"] == {"calls": 2, "self_s": 3.0, "total_s": 3.0}
    assert s["layers"] == {"perfbench": 3.0, "toy": 9.0, "other": 3.0}
    assert sum(s["layers"].values()) == tr.end[root] - tr.start[root]


def test_install_wraps_every_binding_and_uninstall_restores():
    import hklattice.cli  # noqa: F401  (imports every module of the package)
    from hklattice import exact_linalg, hodge_classes, kernels, _pykernels

    original = exact_linalg.saturate_in
    tr = tracer_mod.Tracer("install")
    tr.install()
    try:
        assert exact_linalg.saturate_in is hodge_classes.saturate_in
        assert exact_linalg.saturate_in is not original
        assert kernels.hnf is _pykernels.hnf
        assert hasattr(exact_linalg.Lattice.contains, "__wrapped__")
        assert exact_linalg.Lattice.standard(3).contains([1, 2, 3])
        names = [tr.names[i] for i in tr.name]
        assert "exact_linalg.Lattice.standard" in names
        assert "exact_linalg.Lattice.contains" in names
        assert "kernels.solve_left_int_row" in names
    finally:
        tr.uninstall()
    assert exact_linalg.saturate_in is original
    assert hodge_classes.saturate_in is original
    assert not hasattr(exact_linalg.Lattice.contains, "__wrapped__")


def test_counters():
    assert tracer_mod.max_bits([[3, -(1 << 40)], (7,), None]) == 41
    tr = tracer_mod.Tracer("counters")
    probe = tr._repeat_probe("x.f", lambda args: args[0])
    for key in ((1, 2), (1, 2), (3,), (1, 2)):
        probe((key,), {}, None)
    assert tr.counters["x.f"] == {"calls": 4, "distinct": 2}


def test_every_per_layer_metric_resolves():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    counters = {f"kernels.{k}": {"max_bits_in": 1, "max_bits_out": 2} for k in tracer_mod.BIT_KERNELS}
    counters["exact_linalg.Mat.is_symmetric"] = {"calls": 6, "distinct": 2}
    counters["bb_lattice.orth_complement_basis"] = {"calls": 0, "distinct": 0}
    traced = {"trace": {"wall_s": 2.0, "spans": 5, "layers": {}, "by_name": {}, "counters": counters}}
    base = {"wall_s": 1.5, "raw_work_s": 1.5, "suite_s": dict.fromkeys(workloads.SUITES, 0.1)}
    vals = {m["name"]: run.layer_metric(m["name"], traced, base, "verify-all")
            for m in spec["per_layer"]}
    assert vals["trace.overhead_s"] == 0.5
    assert vals["exact_linalg.Mat.is_symmetric.repeat_ratio"] == 3
    assert vals["kernels.row_echelon_bareiss.max_bits_out"] == 2
    assert vals["lookup_ms_p50"] == 0.0


# -- correctness checks ------------------------------------------------------


def _report():
    checks = [
        {"name": "s.a", "status": "pass", "expected": "1", "actual": "1", "anchor": "x"},
        {"name": "s.b", "status": "pass", "expected": "(2, 10)", "actual": "(2, 10)", "anchor": "y"},
    ]
    return {"schema_version": "1", "suite": "all", "seed": 7, "checks": checks}


def test_digest_guard_rejects_changed_actual():
    rep = _report()
    digests = {"7": workloads.canonical_digest(rep)}
    timed = dict(rep, elapsed_ms=12345)
    assert workloads.check_verify_all(timed, digests)["digest_ok"] is True
    bad = copy.deepcopy(rep)
    bad["checks"][1]["actual"] = "(2, 5)"
    out = workloads.check_verify_all(bad, digests)
    assert out["digest_ok"] is False
    assert workloads.check_verify_all(dict(rep, seed=8), digests)["digest_ok"] is None


def test_failed_checks_are_counted():
    rep = _report()
    rep["checks"][0]["status"] = "fail"
    out = worker.check_verify_all(
        {"passes": [{"report": rep, "wall_s": 1.0, "speed": 1.0,
                     "suite_s": dict.fromkeys(workloads.SUITES, 0.1)}],
        },
        {},
    )
    assert (out["attempted"], out["failed"], out["failed_names"]) == (2, 1, ["s.a"])


def test_wrong_expected_answer_counts_as_failed():
    ok = workloads._request("divisibility", {"named": "c2"}, workloads.LOOKUP, {"divisibility": 3})
    wrong = workloads._request("divisibility", {"named": "c2"}, workloads.LOOKUP, {"divisibility": 2})
    member = workloads._request("membership", {"named": "q"}, workloads.LOOKUP, {"member": False})
    search = workloads._request("minimal-search", {"lambda0": []}, workloads.CONSTRUCT, {})
    stream = [ok, wrong, member, ok, search]
    answers = [
        (0, '{"divisibility": 3}', 0.004),
        (0, '{"divisibility": 3}', 0.004),
        (0, '{"member": false}', 0.003),
        (2, "", 0.001),  # a non-zero exit fails whatever it printed
        (0, '{"feasible": false, "image_generator": "2"}', 0.3),
    ]
    out = worker.check_query_mix(stream, {"answers": answers, "wall_s": 0.312, "speed": 1.0})
    assert (out["attempted"], out["failed"]) == (5, 2)
    assert (out["lookup_n"], out["construct_n"]) == (4, 1)
    assert [name.split(":")[0] for name in out["failed_names"]] == ["1", "3"]


def test_minimal_search_answer_needs_even_generator():
    req = workloads._request("minimal-search", {"lambda0": []}, workloads.CONSTRUCT, {})
    assert workloads.check_answer(req, 0, '{"feasible": false, "image_generator": "10"}', None)
    assert not workloads.check_answer(req, 0, '{"feasible": false, "image_generator": "5"}', None)
    assert not workloads.check_answer(req, 0, '{"feasible": true, "image_generator": "2"}', None)


# -- comparing records -------------------------------------------------------


def test_compare_refuses_mixed_backends():
    rec = {"meta": {"implementation": "python", "python": "3.11.7"}}
    other = {"meta": {"implementation": "compiled", "python": "3.11.7"}}
    newer = {"meta": {"implementation": "python", "python": "3.12.1"}}
    assert compare.comparable([rec, rec]) is None
    assert "compiled" in compare.comparable([rec, other])
    assert compare.comparable([rec, newer]) is not None


def test_quantile():
    assert workloads.quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert workloads.quantile([0.0, 10.0], 0.9) == pytest.approx(9.0)


def test_gmean_weighs_requests_by_count():
    assert workloads.gmean([4.0, 1.0]) == pytest.approx(2.0)
    # ten lookups to one construction: doubling the lookups nearly doubles it
    mix = [5.0] * 10 + [400.0]
    slow = [10.0] * 10 + [400.0]
    assert workloads.gmean(slow) / workloads.gmean(mix) == pytest.approx(2 ** (10 / 11))


def test_deadline_follows_planned_work():
    for w in ("verify-all", "query-mix"):
        work = workloads.expected_seconds(w, 40)
        assert run.deadline_s(w, 40, 0) > 2 * work
        # a traced run does the workload twice
        assert run.deadline_s(w, 40, 1) > 4 * work
        # three times the work (three verify-all passes) gets more than twice the time
        assert run.deadline_s(w, 120, 1) > 2 * run.deadline_s(w, 40, 1)


def test_host_speed_scales_to_nominal():
    hs = hostspeed.HostSpeed()
    n = hostspeed.NOMINAL_S
    # loop times of 2x, 1x and 0.5x nominal: speeds 0.5, 1 and 2
    hs.samples = [(0.0, 2 * n), (1.0, n), (5.0, n / 2)]
    assert hs.factor(0.0, 2.0) == pytest.approx(0.75)
    # a region with no sample of its own takes the mean over all samples
    assert hs.factor(10.0, 10.01) == pytest.approx(3.5 / 3)
    hs.start()
    time.sleep(3 * hostspeed.PERIOD_S)
    hs.stop()
    assert hs.samples and hs.factor(0.0, time.perf_counter()) > 0
