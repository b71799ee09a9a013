"""The same bytes under other interpreters, with the standard library only.

    python tests/interpreters.py PYTHON [PYTHON ...]

Run from anywhere, by hand: the name keeps pytest from collecting it.
Each PYTHON is an interpreter binary or an installation directory (whose
``bin/python3`` is used). For each one the script:

* runs ``python -m hklattice verify all --seed S --json`` for S = 1..10
  and compares the canonical digest of each report (SHA-256 of the report
  as JSON with sorted keys and compact separators, ``elapsed_ms`` removed)
  with ``verify_all_digests`` in ``perfbench/baseline.json``, which it only
  reads;
* runs ``python -m hklattice`` on every argv of ``CORPUS`` in
  ``tests/argv_parity.py`` and compares stdout, stderr and the exit code
  with those of the interpreter that runs the script. Each argv runs in a
  fresh temporary directory, so an ``--out`` file lands there, and the
  elapsed milliseconds of a verify report are blanked before comparing.

It prints one line per mismatch and one summary line per interpreter, and
exits 1 if anything differs.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)
ELAPSED = re.compile(rb'("elapsed_ms": |checks passed in )[0-9]+')


def interpreter(path: str) -> str:
    p = Path(path)
    return str(p / "bin" / "python3") if p.is_dir() else str(p)


def run(python: str, argv) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``python -m hklattice argv``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [python, "-m", "hklattice", *argv], cwd=cwd, env=env, capture_output=True
        )
    return proc.returncode, proc.stdout, proc.stderr


def blanked(result):
    """A ``run`` result with the elapsed milliseconds of a report blanked."""
    code, out, err = result
    return code, ELAPSED.sub(rb"\1_", out), ELAPSED.sub(rb"\1_", err)


def digest(stdout: bytes) -> str:
    body = {k: v for k, v in json.loads(stdout).items() if k != "elapsed_ms"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def corpus() -> list[list[str]]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from argv_parity import CORPUS

    return CORPUS


def main(paths) -> int:
    want = json.loads((ROOT / "perfbench" / "baseline.json").read_text())["verify_all_digests"]
    argvs = corpus()
    reference = [blanked(run(sys.executable, argv)) for argv in argvs]
    bad = 0
    for path in paths:
        python = interpreter(path)
        version = subprocess.run(
            [python, "-c", "import sys; print(sys.version.split()[0])"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        digests = 0
        for seed in SEEDS:
            code, out, err = run(python, ["verify", "all", "--seed", str(seed), "--json"])
            if code == 0 and digest(out) == want[str(seed)]:
                digests += 1
            else:
                print(f"{path}: verify all --seed {seed}: exit {code}, digest differs\n{err.decode()}")
        same = 0
        for argv, ref in zip(argvs, reference):
            got = blanked(run(python, argv))
            if got == ref:
                same += 1
            else:
                parts = [n for n, a, b in zip(("exit code", "stdout", "stderr"), got, ref) if a != b]
                print(f"{path}: {argv}: {', '.join(parts)} differ")
        bad += (digests != len(SEEDS)) + (same != len(argvs))
        print(
            f"python {version} ({path}): {digests}/{len(SEEDS)} verify-all digests match "
            f"perfbench/baseline.json; {same}/{len(argvs)} corpus argv give the bytes of "
            f"python {sys.version.split()[0]}"
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
