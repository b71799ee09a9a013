"""Compare two sets of benchmark records.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a record that ``perfbench/run.py`` wrote to ``.perfbench_out/``.
Records whose kernel backend or Python version differ are not comparable
(the compiled kernels alone move ``verify all`` by several per cent), so
the comparison is refused with exit code 2. Otherwise, per workload and
metric, it prints each side's median and quartiles (``workloads.quantile``,
the one quantile definition the benchmark uses), the ratio of the medians,
and for end-to-end metrics whether the new median is worse than the base by
more than the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from workloads import quantile


def load(paths: list[str]) -> list[dict]:
    out = []
    for p in paths:
        with open(p) as fh:
            out.append(json.load(fh))
    return out


def comparable(records: list[dict]) -> str | None:
    """None when all records share backend and Python version, else why not."""
    keys = {(r["meta"]["implementation"], r["meta"]["python"]) for r in records}
    if len(keys) > 1:
        return "records mix backends or Python versions: " + ", ".join(
            f"{impl}/{py}" for impl, py in sorted(keys)
        )
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--spec", default="BENCHMARK.json")
    args = ap.parse_args()

    base, new = load(args.base), load(args.new)
    why = comparable(base + new)
    if why:
        print(f"compare: refusing: {why}", file=sys.stderr)
        return 2
    with open(args.spec) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    def values(records, workload, metric):
        return [r["result"]["metrics"][metric]["value"] for r in records
                if r["meta"]["workload"] == workload and metric in r["result"]["metrics"]]

    workloads = sorted({r["meta"]["workload"] for r in base + new})
    metrics = sorted({m for r in base + new for m in r["result"]["metrics"]})
    regressed = False
    for w in workloads:
        for m in metrics:
            a, b = values(base, w, m), values(new, w, m)
            if not a or not b:
                continue
            qa = [quantile(a, q) for q in (0.25, 0.5, 0.75)]
            qb = [quantile(b, q) for q in (0.25, 0.5, 0.75)]
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            verdict = ""
            if m in bounds:
                worse = ratio - 1 if better[m] == "lower" else 1 - ratio
                bad = worse > bounds[m]["bound"]
                regressed |= bad
                verdict = "REGRESSED" if bad else "ok"
            print(f"{w:12s} {m:45s} base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] n={len(a)}"
                  f"  new {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b)}"
                  f"  new/base {ratio:.4f} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
