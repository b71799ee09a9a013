"""The hklattice benchmark.

    python3 perfbench/run.py --workload verify-all --seed 7 --seconds 40 --trace 0

Run from the root of a source checkout. Each run starts fresh interpreters
(``perfbench/worker.py``) with ``src`` on ``PYTHONPATH`` and the
pure-Python kernels forced, so nothing is built or installed.

With ``--trace 0`` the run measures the workload untraced and reports the
end-to-end metrics of ``BENCHMARK.json``, their times scaled to nominal
host speed (``perfbench/hostspeed.py``); set-up is timed in the workload's
own process and in ``SETUP_PROBES`` more fresh processes, and the median is
reported. With ``--trace 1`` it runs the workload twice, untraced and then
traced, and reports the per-layer metrics, including the tracing overhead
(traced minus untraced wall time).

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record, stamped with the backend, the
Python version, ``nproc``, the seed and the source revision, goes to
``.perfbench_out/`` together with the spans of a traced run. Compare
records with ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 3
# The deadline of a run is this many times the expected time of its workers,
# so only a hung or grossly slow worker is stopped; a slower program still
# gets measured.
DEADLINE_SLACK = 3.0
SETUP_ALLOWANCE_S = 5.0

# Per-layer entries that split the untraced workload by request class;
# each applies to one workload and reads 0 on the other.
SUITE_METRICS = {
    "h4_torsion_s": "h4-torsion",
    "minimal_class_s": "minimal-class",
    "even_odd_s": "even-odd",
    "cubic_s": "cubic",
    "deformation_s": "deformation",
}
QUERY_METRICS = (
    "lookup_ms_p50",
    "lookup_ms_p90",
    "construct_ms_p50",
    "construct_ms_p90",
    "queries_per_s",
)


class BenchError(Exception):
    pass


def source_digest(root: str) -> str:
    """SHA-256 over the package's Python sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "hklattice")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_meta(root: str, args, implementation: str) -> dict:
    return {
        "implementation": implementation,
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


def deadline_s(workload: str, seconds: float, trace: int) -> float:
    """Time allowed for all workers of one run, from its planned work.

    A traced run does the workload twice (untraced, then traced); an
    untraced one starts ``SETUP_PROBES`` set-up workers after it.
    """
    work = (1 + trace) * workloads.expected_seconds(workload, seconds)
    workers = (1 + trace) if trace else 1 + SETUP_PROBES
    return DEADLINE_SLACK * (work + workers * SETUP_ALLOWANCE_S)


class Runner:
    """Starts workers in fresh interpreters, all within one deadline."""

    def __init__(self, root: str, budget_s: float):
        self.deadline = time.monotonic() + budget_s
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.env["HKLATTICE_PURE_PYTHON"] = "1"
        self.env["PYTHONHASHSEED"] = "0"

    def worker(self, *argv: str) -> dict:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), *argv],
                env=self.env, capture_output=True, text=True, timeout=left,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {' '.join(argv)} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(
                f"worker {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metric(name: str, traced: dict, base: dict, workload: str) -> float:
    """Value of one per-layer metric of ``BENCHMARK.json``."""
    tr = traced["trace"]
    if name == "verify_all_s":
        return base["raw_work_s"] if workload == "verify-all" else 0.0
    if name in SUITE_METRICS:
        return base["suite_s"][SUITE_METRICS[name]] if workload == "verify-all" else 0.0
    if name in QUERY_METRICS:
        return base[name] if workload == "query-mix" else 0.0
    if name == "trace.wall_s":
        return tr["wall_s"]
    if name == "trace.untraced_wall_s":
        return base["wall_s"]
    if name == "trace.overhead_s":
        return tr["wall_s"] - base["wall_s"]
    if name == "trace.spans":
        return tr["spans"]
    head, _, stat = name.rpartition(".")
    if "." not in head and stat == "self_s":
        return tr["layers"].get(head, 0.0)
    if stat in ("calls", "self_s", "total_s"):
        return tr["by_name"].get(head, {}).get(stat, 0)
    counter = tr["counters"].get(head)
    if counter is not None and stat in counter:
        return counter[stat]
    if counter is not None and stat == "repeat_ratio":
        return counter["calls"] / counter["distinct"] if counter["distinct"] else 0.0
    raise BenchError(f"no way to measure per-layer metric {name!r}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hklattice", "__init__.py")):
        print("perfbench: run from the root of an hklattice checkout "
              "(src/hklattice not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; know {workloads}",
              file=sys.stderr)
        return 2

    runner = Runner(root, deadline_s(args.workload, args.seconds, args.trace))
    wargs = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        base = runner.worker(*wargs)
        runs = [base]
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")
            traced = runner.worker(*wargs, "--trace", spans_path)
            runs.append(traced)
            values = {m["name"]: layer_metric(m["name"], traced, base, args.workload)
                      for m in spec["per_layer"]}
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            setups = [base["setup_s"]]
            setups += [runner.worker("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
            values = {
                "setup_s": statistics.median(setups),
                "peak_rss_mb": base["peak_rss_mb"],
                "work_s": base["work_s"],
                "request_ms_gmean": base["request_ms_gmean"],
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            missing = set(units) - set(values)
            if missing:
                raise BenchError(f"no way to measure {sorted(missing)}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failed = sum(r["failed"] for r in runs)
    digest_bad = any(r.get("digest_ok") is False for r in runs)
    backend_ok = all(r["implementation"] == "python" for r in runs)
    result = {
        "correct": failed == 0 and not digest_bad and backend_ok,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    details = [{k: v for k, v in r.items() if k != "trace"} for r in runs]
    if args.trace:
        details[-1]["trace"] = {k: traced["trace"][k] for k in ("layers", "by_name", "counters")}
    record = {"meta": run_meta(root, args, runs[0]["implementation"]),
              "result": result, "details": details}
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for r in runs:
        for name in r["failed_names"]:
            print(f"perfbench: FAILED {name}", file=sys.stderr)
        if r.get("digest") is not None:
            state = {None: "no digest recorded", True: "matches", False: "MISMATCH"}
            print(f"perfbench: verify-all seed {args.seed} digest {r['digest']} "
                  f"({state[r['digest_ok']]})", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
