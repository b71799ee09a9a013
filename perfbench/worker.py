"""One workload in a fresh interpreter; prints one JSON line of results.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace PATH]

``perfbench/run.py`` starts this with ``src`` on ``PYTHONPATH`` and the
pure-Python kernels forced. Set-up (``import hklattice`` plus the cached
default lattice and torsion quotient) is timed first, before anything else
touches the package. With ``--trace`` the tracer wraps the package after
set-up, the workload runs under one root span, and the spans are written
to PATH. Outputs are checked after the timed (and traced) region.

A ``hostspeed.HostSpeed`` thread samples the host's speed from the start.
The end-to-end times (``setup_s``, ``work_s``, ``request_ms_gmean``) are
scaled by it to a host at nominal speed; the raw wall times are reported
next to them and are what the per-layer metrics use.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import hostspeed
import workloads


def setup() -> tuple[float, float]:
    """Import the package and build its cached defaults: (start, end)."""
    t = time.perf_counter()
    import hklattice  # noqa: F401
    from hklattice.h4_model import default_h4_lattice, default_torsion_quotient

    default_h4_lattice()
    default_torsion_quotient()
    return t, time.perf_counter()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_digests() -> dict:
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")) as fh:
        return json.load(fh)["verify_all_digests"]


def run_verify_all(cli, seed, seconds, tracer, speed) -> dict:
    passes = []
    for _ in range(workloads.verify_all_passes(seconds)):
        if tracer is not None:
            tracer.current_request += 1
        t = time.perf_counter()
        p = workloads.run_verify_all(cli, seed)
        p["speed"] = speed.factor(t, time.perf_counter())
        passes.append(p)
    return {"passes": passes, "rss": peak_rss_mb()}


def check_verify_all(out: dict, digests: dict) -> dict:
    checked = [workloads.check_verify_all(p["report"], digests) for p in out["passes"]]
    failed = [name for chk in checked for name in chk["failed"]]
    oks = [chk["digest_ok"] for chk in checked if chk["digest_ok"] is not None]
    walls = [p["wall_s"] for p in out["passes"]]
    nominal = [p["wall_s"] * p["speed"] for p in out["passes"]]
    suite_s = {
        s: workloads.quantile([p["suite_s"][s] for p in out["passes"]], 0.5)
        for s in workloads.SUITES
    }
    return {
        "attempted": sum(chk["attempted"] for chk in checked),
        "failed": len(failed),
        "failed_names": failed,
        "digest": checked[-1]["digest"],
        "digest_ok": all(oks) if oks else None,
        "work_s": workloads.quantile(nominal, 0.5),
        "raw_work_s": workloads.quantile(walls, 0.5),
        "wall_s": sum(walls),
        "suite_s": suite_s,
        "request_ms_gmean": workloads.gmean(
            [1000.0 * t * p["speed"] for p in out["passes"] for t in p["suite_s"].values()]
        ),
        "speed": [p["speed"] for p in out["passes"]],
    }


def run_query_mix(cli, stream, tracer, speed) -> dict:
    answers = []
    t = time.perf_counter()
    for req in stream:
        if tracer is not None:
            tracer.current_request += 1
        answers.append(workloads.call_cli(cli, req["argv"]))
    t1 = time.perf_counter()
    return {"answers": answers, "wall_s": t1 - t, "speed": speed.factor(t, t1),
            "rss": peak_rss_mb()}


def check_query_mix(stream, out) -> dict:
    from hklattice.h4_model import H4Class, default_h4_lattice

    h4 = default_h4_lattice()

    def contains(row):
        return h4.contains(H4Class.from_json(row))

    lat = {workloads.LOOKUP: [], workloads.CONSTRUCT: []}
    failed = []
    for i, (req, (rc, text, dt)) in enumerate(zip(stream, out["answers"])):
        lat[req["class"]].append(dt * 1000.0)
        if not workloads.check_answer(req, rc, text, contains):
            failed.append(f"{i}:{req['kind']}:{req['argv'][-1][:80]}")
    res = {
        "attempted": len(stream),
        "failed": len(failed),
        "failed_names": failed,
        "work_s": out["wall_s"] * out["speed"],
        "raw_work_s": out["wall_s"],
        "wall_s": out["wall_s"],
        "queries_per_s": len(stream) / out["wall_s"],
        "request_ms_gmean": out["speed"]
        * workloads.gmean(lat[workloads.LOOKUP] + lat[workloads.CONSTRUCT]),
        "speed": [out["speed"]],
    }
    for cls, xs in lat.items():
        res[f"{cls}_n"] = len(xs)
        res[f"{cls}_ms_p50"] = workloads.quantile(xs, 0.5)
        res[f"{cls}_ms_p90"] = workloads.quantile(xs, 0.9)
    return res


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=("verify-all", "query-mix"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", help="write spans here and trace the workload")
    args = ap.parse_args()

    speed = hostspeed.HostSpeed().start()
    t0, t1 = setup()
    setup_s = (t1 - t0) * speed.factor(t0, t1)
    if args.setup_only:
        speed.stop()
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": t1 - t0}))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    from hklattice import bb_lattice, cli, kernels

    stream = None
    if args.workload == "query-mix":
        stream = workloads.query_stream(args.seed, args.seconds, bb_lattice)

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(f"{args.workload}-{args.seed}")
        tracer.install()
        root = tracer.open(tracer_mod.ROOT)
    if args.workload == "verify-all":
        out = run_verify_all(cli, args.seed, args.seconds, tracer, speed)
    else:
        out = run_query_mix(cli, stream, tracer, speed)
    speed.stop()
    trace = None
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
        summary = tracer.summary()
        summary["wall_s"] = tracer.end[root] - tracer.start[root]
        summary["counters"] = tracer.counters
        tracer.dump(args.trace)
        trace = summary

    if args.workload == "verify-all":
        res = check_verify_all(out, load_digests())
    else:
        res = check_query_mix(stream, out)
    res.update(
        setup_s=setup_s,
        raw_setup_s=t1 - t0,
        peak_rss_mb=out["rss"],
        implementation=kernels.IMPLEMENTATION,
        trace=trace,
    )
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
