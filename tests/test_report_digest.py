"""The report contract in Tier-1: ``verify all --seed 7 --json`` has the
canonical digest recorded for seed 7 in ``perfbench/baseline.json``.

The digest is the SHA-256 of the report as JSON with sorted keys and
compact separators, ``elapsed_ms`` removed. A change that means to alter
reports re-records the baseline.
"""

import hashlib
import json
from pathlib import Path

from hklattice import cli

BASELINE = Path(__file__).resolve().parent.parent / "perfbench" / "baseline.json"


def test_verify_all_seed7_has_the_recorded_digest(capsys):
    want = json.loads(BASELINE.read_text())["verify_all_digests"]["7"]
    code = cli.main(["verify", "all", "--seed", "7", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    body = {k: v for k, v in report.items() if k != "elapsed_ms"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == want
