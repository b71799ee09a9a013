"""The report contract in Tier-1: ``verify all --seed 7 --json`` has the
canonical digest recorded for seed 7 in ``perfbench/baseline.json``,
``verify deformation --seed S --json`` for S = 1..5 and fixed ``sample``
and ``query`` invocations have the digests recorded here.

The report digest is the SHA-256 of the report as JSON with sorted keys
and compact separators, ``elapsed_ms`` removed; the others are the SHA-256
of stdout. A change that means to alter output re-records the digests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hklattice import cli

BASELINE = Path(__file__).resolve().parent.parent / "perfbench" / "baseline.json"


def _report_digest(capsys, argv):
    code = cli.main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    body = {k: v for k, v in report.items() if k != "elapsed_ms"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_all_seed7_has_the_recorded_digest(capsys):
    want = json.loads(BASELINE.read_text())["verify_all_digests"]["7"]
    assert _report_digest(capsys, ["verify", "all", "--seed", "7", "--json"]) == want


DEFORMATION_DIGESTS = {
    1: "ac9dee4326572bb3a1e9ba7cbf7e5a8b620ee743d292616ec901cb262f247cdb",
    2: "1babcf677eea3fea70129de06b5f84aa8f2b628bdd4bbf8c5d714c2bf4aec4f5",
    3: "ced82dce091ec72b899608ba8ebc32f1a07cc20e9de15d21e2c444432c98a94a",
    4: "f2108a38403178ce67badbd5e284a9c3ba245588269502eced87c9a4b8e98012",
    5: "204d32c50a1891d3317aab4fa4d3a55e960f6d1ec440fdf8a1fd3bbad4173f01",
}


@pytest.mark.parametrize("seed", list(DEFORMATION_DIGESTS))
def test_verify_deformation_has_the_recorded_digest(capsys, seed):
    argv = ["verify", "deformation", "--seed", str(seed), "--json"]
    assert _report_digest(capsys, argv) == DEFORMATION_DIGESTS[seed]


# SHA-256 of stdout for fixed ``sample`` and ``query`` invocations: the
# exit code and the bytes are pinned together.
ODD = [1, 1] + [0] * 21  # e1 + f1, square 2
EVEN = [2, 2] + [0] * 20 + [1]  # 2(e1 + f1) + delta0, square 6
EMPTY = hashlib.sha256(b"").hexdigest()

SAMPLE_DIGESTS = {
    ("exceptional", 0): "fa2be7608fd80ee6def1bee1682fe55c3b1be0ff05c6f1d3d66b5e449d59d533",
    ("exceptional", 3): "a31b5ca83715b2b44a9a343f6e3148d1a4dbd13ec7ccd85f51164187e2058ec3",
    ("polarization-odd", 0): "8482dc72bbaa664fa3e62655a7cdf9e0069347d8c2928837f73df369476db124",
    ("polarization-odd", 3): "f51b85429cc05d9b6647cc11602c06e90a2b6b213dfa039d620141f260d75616",
    ("polarization-even", 0): "73b239291e19d0322c6b623e12af2a29c06fa229c983d7e44ac3f9ebe356b1a0",
    ("polarization-even", 3): "67b15e471803bd1472090a51afd80c47dbb42a093386198b0cdb1a4d05c3513d",
}

QUERY_DIGESTS = {
    ("membership", "q"): (0, "d02ba242cb261c22fe7573813011af3d4e223e42a9f0063c557965ef3c1de603"),
    ("membership", "two-fifths-q"): (0, "76747b5206d4d8d8d2b1a79fb9b459491c37c884557fcb7d09c2b962f6466945"),
    ("membership", "v0"): (0, "76747b5206d4d8d8d2b1a79fb9b459491c37c884557fcb7d09c2b962f6466945"),
    ("membership", "c2"): (0, "7c1161fc923cb1184ce71625e7938b65fe4958c53a5abaad5f842c8eabe426ab"),
    # q is not in the lattice: a payload error, nothing on stdout
    ("divisibility", "q"): (2, EMPTY),
    ("divisibility", "two-fifths-q"): (0, "5974f34bfd3b1cb3e43efdb81c4b9372c6bbf42739a9e37fffbf10a0ce043ff9"),
    ("divisibility", "v0"): (0, "5974f34bfd3b1cb3e43efdb81c4b9372c6bbf42739a9e37fffbf10a0ce043ff9"),
    ("divisibility", "c2"): (0, "b4316df0bd221b80664e0f765832137a7654e54f1fea1d19472cd53f079642a4"),
    # lambda0 squared, alone and plus (2/5)q, and classes over the denominator 2
    ("membership", "lambda0-odd"): (0, "76747b5206d4d8d8d2b1a79fb9b459491c37c884557fcb7d09c2b962f6466945"),
    ("membership", "lambda0-even"): (0, "76747b5206d4d8d8d2b1a79fb9b459491c37c884557fcb7d09c2b962f6466945"),
    ("membership", "lambda0-odd-plus"): (0, "76747b5206d4d8d8d2b1a79fb9b459491c37c884557fcb7d09c2b962f6466945"),
    ("membership", "lambda0-even-plus"): (0, "7c32d7640cb9597722329601eb56cda3229849c115e6c04f6d5616e4a4fe50a0"),
    ("membership", "half"): (0, "76747b5206d4d8d8d2b1a79fb9b459491c37c884557fcb7d09c2b962f6466945"),
    ("membership", "three-halves"): (0, "7c1161fc923cb1184ce71625e7938b65fe4958c53a5abaad5f842c8eabe426ab"),
    ("membership", "half-outside"): (0, "d02ba242cb261c22fe7573813011af3d4e223e42a9f0063c557965ef3c1de603"),
    ("divisibility", "lambda0-odd"): (0, "5974f34bfd3b1cb3e43efdb81c4b9372c6bbf42739a9e37fffbf10a0ce043ff9"),
    ("divisibility", "lambda0-even"): (0, "5974f34bfd3b1cb3e43efdb81c4b9372c6bbf42739a9e37fffbf10a0ce043ff9"),
    ("divisibility", "lambda0-odd-plus"): (0, "5974f34bfd3b1cb3e43efdb81c4b9372c6bbf42739a9e37fffbf10a0ce043ff9"),
    ("divisibility", "lambda0-even-plus"): (0, "8b0e7d3345ca94bc63254c29c2946be17872e8fb233182c9872485558cb1c7ce"),
    ("divisibility", "half"): (0, "5974f34bfd3b1cb3e43efdb81c4b9372c6bbf42739a9e37fffbf10a0ce043ff9"),
    ("divisibility", "three-halves"): (0, "b4316df0bd221b80664e0f765832137a7654e54f1fea1d19472cd53f079642a4"),
    ("divisibility", "half-outside"): (2, EMPTY),
    ("vlambda", "odd"): (0, "ff7d28d996f896561e11b5253674ece8e8543a25965df6e1eceb01940824d863"),
    ("vlambda", "even"): (0, "1d7ef249b4d34dd69015fb5d784665f264029ca06692f0e67241226e277f18f0"),
    ("minimal-search", "odd"): (0, "3c35c54d029f3799823852fff29122dc14379f1acb5248b7cfe5d54598505e68"),
    ("minimal-search", "even"): (0, "b228c8483574c029885d186dd963af4543eb741ef81276e2b51f4a7e1a73821e"),
}


# the membership and divisibility payloads other than a named class
LOOKUP_PAYLOADS = {
    "lambda0-odd": {"lambda0": ODD},
    "lambda0-even": {"lambda0": EVEN},
    "lambda0-odd-plus": {"lambda0": ODD, "plus_two_fifths_q": True},
    "lambda0-even-plus": {"lambda0": EVEN, "plus_two_fifths_q": True},
    "half": {"class": {"(0,0)": "1/2", "(0,22)": "1/2"}},
    "three-halves": {
        "class": {"(0,0)": "3/2", "(0,22)": "3/2", "(5,5)": "-3/2", "(5,22)": "-3/2", "(1,2)": "6"}
    },
    "half-outside": {"class": {"(0,1)": "1/2"}},
}


def _payload(kind, arg):
    if kind in ("membership", "divisibility"):
        return LOOKUP_PAYLOADS.get(arg, {"named": arg})
    return {"lambda0": ODD if arg == "odd" else EVEN}


def _stdout_digest(capsys, argv):
    code = cli.main(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("kind, seed", list(SAMPLE_DIGESTS))
def test_sample_has_the_recorded_digest(capsys, kind, seed):
    argv = ["sample", kind, "--count", "5", "--seed", str(seed)]
    assert _stdout_digest(capsys, argv) == (0, SAMPLE_DIGESTS[kind, seed])


@pytest.mark.parametrize("kind, arg", list(QUERY_DIGESTS))
def test_query_has_the_recorded_digest(capsys, kind, arg):
    argv = ["query", kind, "--payload", json.dumps(_payload(kind, arg))]
    assert _stdout_digest(capsys, argv) == QUERY_DIGESTS[kind, arg]
