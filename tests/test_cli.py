"""Command-line harness: suite reports, queries, samples, searches, exit
codes, and reproducibility of JSON output."""

import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklattice import _pykernels, cli, cubic_fano, deformation_fix, h4_model, hodge_classes, kernels
from hklattice.h4_model import H4Class, H4Lattice, default_h4_lattice, sym2_embed


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _call(argv):
    """(exit code, stdout, stderr) of one in-process ``cli.main`` call; an
    argparse exit (an argv error or ``--help``) gives its SystemExit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def call_fresh(tmp_path_factory):
    """The same as ``_call``, run in a new ``python -m hklattice`` process.
    The children write their bytecode to one temporary cache, which the
    later ones read, so not every child compiles the package again."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path_factory.mktemp("pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def call(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "hklattice", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    return call


_ELAPSED = re.compile(r'"elapsed_ms": [0-9]+|in [0-9]+ ms')


def _patch_everywhere(monkeypatch, owner, name, fake):
    """Set owner.name, and each binding of the same function that a module
    of the package imported by name, to fake."""
    real = getattr(owner, name)
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "hklattice" and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, fake)


def _fujiki_pair_doubled(monkeypatch):
    real = h4_model.fujiki_pair
    _patch_everywhere(monkeypatch, h4_model, "fujiki_pair", lambda u, v: 2 * real(u, v))


def _point_surface_plus_q_over_20(monkeypatch):
    # d^2/8 + q/10 in place of d^2/8 + q/20
    real = h4_model.point_surface_class
    fake = lambda d, q: real(d, q) + Fraction(1, 20) * q
    _patch_everywhere(monkeypatch, h4_model, "point_surface_class", fake)


def _second_chern_minus_2_d_squared(monkeypatch):
    # 24 v0 - 2 d^2 in place of 24 v0 - 3 d^2
    def fake(d, q):
        return 24 * h4_model.point_surface_class(d, q) - 2 * sym2_embed(d.h2, d.h2)

    _patch_everywhere(monkeypatch, h4_model, "second_chern_class", fake)


def _q_doubled(monkeypatch):
    # the cubic code gets the default lattice with q doubled
    h4 = default_h4_lattice()
    kept = ("lattice", "delta_used", "abasis", "a_gram", "b_inv", "v0")
    wrong = H4Lattice(**{n: getattr(h4, n) for n in kept}, q=2 * h4.q)
    monkeypatch.setattr(cubic_fano, "default_h4_lattice", lambda: wrong)


def _residual_sign(monkeypatch):
    # (g1^2 + g2)/3 in place of (g1^2 - g2)/3
    fake = lambda m: Fraction(1, 3) * (sym2_embed(m.g1, m.g1) + m.g2)
    monkeypatch.setattr(cubic_fano.CubicModel, "residual_generator", fake)


def _residual_plus_g2(monkeypatch):
    # integral and primitive, and with g2 a basis of the same lattice
    real = cubic_fano.CubicModel.residual_generator
    monkeypatch.setattr(cubic_fano.CubicModel, "residual_generator", lambda m: real(m) + m.g2)


def _witness_off_by_a_row(monkeypatch):
    # the witness plus the first basis row on which the functional is nonzero
    real = hodge_classes.coset_feasible

    def fake(lat, functional, target, den=1):
        ok, wit, g = real(lat, functional, target, den)
        if ok:
            row = next(r for r in lat.int_basis if sum(x * f for x, f in zip(r, functional)))
            wit = tuple(w + x for w, x in zip(wit, row))
        return ok, wit, g

    monkeypatch.setattr(hodge_classes, "coset_feasible", fake)


# fault -> (its seam, then the suite, name and status of a check that still
# catches it). Each fault failed a proof that is no longer repeated:
# build_cubic_model's fourth power 108 (the doubled pairing); c2_consistency's
# 8 v0 = (2/5)q + d^2 and (1/3)(24 v0 - 3 d^2) = (2/5)q (the point class);
# build_cubic_model's residual in L, primitive and equal to (g1^2 + (2/5)q)/8
# (the residuals); the positive control's second minimality_scalar (the
# witness). A wrong c2 formula failed only the comparison kept, of which the
# two removed were restatements.
_REMOVED_PROOFS = {
    "fujiki_pair_doubled": (_fujiki_pair_doubled, "cubic", "g1_fourth_power", "fail"),
    "point_surface_plus_q_over_20": (
        _point_surface_plus_q_over_20, "cubic", "c2_consistency", "fail"
    ),
    "second_chern_minus_2_d_squared": (
        _second_chern_minus_2_d_squared, "cubic", "c2_consistency", "fail"
    ),
    "residual_sign": (_residual_sign, "cubic", "residual_integral_primitive", "fail"),
    "residual_plus_g2": (_residual_plus_g2, "cubic", "sampled_embeddings", "fail"),
    "witness_off_by_a_row": (
        _witness_off_by_a_row, "minimal-class", "positive_control_witness", "error"
    ),
}


class TestVerify:
    def test_blowup_suite_passes(self, capsys):
        code, out, _ = _run(capsys, ["verify", "blowup", "--json"])
        assert code == 0
        rep = json.loads(out)
        assert rep["suite"] == "blowup"
        assert rep["schema_version"] == cli.SCHEMA_VERSION
        assert all(c["status"] == "pass" for c in rep["checks"])

    def test_checks_sorted_and_complete(self, capsys):
        code, out, _ = _run(capsys, ["verify", "t4-structure", "--json", "--seed", "5"])
        assert code == 0
        rep = json.loads(out)
        names = [c["name"] for c in rep["checks"]]
        assert names == sorted(names)
        for c in rep["checks"]:
            assert set(c) == {"name", "status", "expected", "actual", "anchor"}

    def test_deterministic_under_seed(self):
        a = cli.run_suite("blowup", seed=11, trials=None, convention="quadratic")
        b = cli.run_suite("blowup", seed=11, trials=None, convention="quadratic")
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert a == b

    def test_python_dash_m_runs_the_cli(self, capsys, call_fresh):
        """``python -m hklattice`` from a checkout prints what ``cli.main``
        prints, byte for byte except ``elapsed_ms``."""
        argv = ["verify", "blowup", "--json"]
        fresh_code, fresh_out, _ = call_fresh(argv)
        code, out, _ = _run(capsys, argv)
        assert fresh_code == code == 0
        assert _ELAPSED.sub("", fresh_out) == _ELAPSED.sub("", out)

    def test_seed_changes_sampled_checks(self):
        a = cli.run_suite("deformation", seed=1, trials=2, convention="quadratic")
        b = cli.run_suite("deformation", seed=2, trials=2, convention="quadratic")
        assert [c["status"] for c in a["checks"]] == ["pass"] * len(a["checks"])
        assert [c["status"] for c in b["checks"]] == ["pass"] * len(b["checks"])

    def test_text_rendering(self, capsys):
        code, out, _ = _run(capsys, ["verify", "blowup", "--seed", "3"])
        assert code == 0
        assert "PASS" in out
        assert "suite blowup:" in out.splitlines()[-1]

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "rational_map_indices", lambda: (0, 0))
        code, out, _ = _run(capsys, ["verify", "blowup", "--json"])
        assert code == 1
        rep = json.loads(out)
        bad = [c for c in rep["checks"] if c["status"] == "fail"]
        assert len(bad) == 1
        assert bad[0]["name"] == "rational_map_indices"

    @pytest.mark.parametrize("kind", [ValueError, KeyError, TypeError, ArithmeticError])
    def test_raising_check_is_an_error_and_the_others_run(self, capsys, monkeypatch, kind):
        want = cli.run_suite("blowup", seed=0, trials=None, convention="quadratic")["checks"]

        def raising(comb):
            raise kind("library fault")

        monkeypatch.setattr(cli, "combine_pairing", raising)
        code, out, _ = _run(capsys, ["verify", "blowup", "--json"])
        assert code == 1
        err = f"{kind.__name__}: {kind('library fault')}"
        assert json.loads(out)["checks"] == [
            dict(c, status="error", actual=err) if c["name"] == "combine_pairing" else c
            for c in want
        ]

        code, out, _ = _run(capsys, ["verify", "blowup"])
        assert code == 1
        marks = {line.split()[1]: line.split()[0] for line in out.splitlines()[:-1]}
        assert marks.pop("combine_pairing") == "ERROR"
        assert set(marks.values()) == {"PASS"}

    def test_raising_shared_helper_errors_exactly_its_checks(self, monkeypatch):
        def raising(g1):
            raise RuntimeError("no model")

        monkeypatch.setattr(cli, "build_cubic_model", raising)
        rep = cli.run_suite("cubic", seed=0, trials=1, convention="quadratic")
        status = {c["name"]: c["status"] for c in rep["checks"]}
        users = {
            "g2_dot_g1_squared",
            "g2_integral",
            "residual_integral_primitive",
            "lines_basis_equals_v",
            "g2_kills_transcendental",
            "sampled_embeddings",
        }
        assert {n for n, s in status.items() if s == "error"} == users
        assert {s for n, s in status.items() if n not in users} == {"pass"}

    def test_a_wrong_q_fails_the_cubic_checks_with_their_values(self, monkeypatch):
        # with q doubled the model still builds from its checked input, and
        # each result check reports the value it found instead of an error
        _q_doubled(monkeypatch)
        rep = cli.run_suite("cubic", seed=0, trials=None, convention="quadratic")
        failed = {c["name"]: c["actual"] for c in rep["checks"] if c["status"] != "pass"}
        assert {c["status"] for c in rep["checks"]} == {"pass", "fail"}
        assert failed == {
            "c2_consistency": "False",
            "g2_dot_g1_squared": "45/2",
            "g2_integral": "False",
            "g2_kills_transcendental": "35 nonzero",
            "lines_basis_equals_v": "False",
            "residual_integral_primitive": "False",
            "sampled_embeddings": "0/5",
        }

    def test_a_wrong_q_fails_c2_with_no_sampled_class(self, monkeypatch):
        # for the frozen class, c2 = (6/5)q holds for any q; c2 . c2 = 828
        # pins the q the lattice carries
        _q_doubled(monkeypatch)
        assert cubic_fano.c2_consistency(random.Random(0), trials=0) is False

    @pytest.mark.parametrize("seed", range(5))
    def test_a_wrong_q_fails_g2_on_every_transcendental_pair(self, monkeypatch, seed):
        # every pair is read, so one trial is enough
        _q_doubled(monkeypatch)
        rep = cli.run_suite("cubic", seed=seed, trials=1, convention="quadratic")
        check = {c["name"]: c for c in rep["checks"]}["g2_kills_transcendental"]
        assert (check["status"], check["actual"]) == ("fail", "35 nonzero")

    @pytest.mark.parametrize("fault", list(_REMOVED_PROOFS))
    def test_every_removed_proof_is_still_caught(self, monkeypatch, fault):
        """Each fault failed a proof that a constructor or a check used to
        repeat; the check named for it still does not pass."""
        seam, suite, name, status = _REMOVED_PROOFS[fault]
        seam(monkeypatch)
        rep = cli.run_suite(suite, seed=0, trials=1, convention="quadratic")
        assert {c["name"]: c["status"] for c in rep["checks"]}[name] == status

    def test_refuted_fixed_space_fails_its_checks(self, capsys, monkeypatch):
        # one structural generator dropped: the kernel is not their span, and
        # every deformation check fails instead of the run ending in an error
        real = deformation_fix.expected_generators
        monkeypatch.setattr(deformation_fix, "expected_generators", lambda inst: real(inst)[:1])
        code, out, _ = _run(capsys, ["verify", "deformation", "--json", "--trials", "2"])
        assert code == 1
        rep = json.loads(out)
        assert [c["status"] for c in rep["checks"]] == ["fail"] * 3
        assert rep["checks"][0]["actual"] == "kernel not spanned by the structural generators"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("x" * 100_000)
        code, out, _ = _run(capsys, ["verify", "blowup", "--json", "--out", str(target)])
        assert code == 0
        assert target.read_text() == out
        rep = json.loads(target.read_text())
        assert rep["suite"] == "blowup"

    def test_out_to_a_missing_directory_is_a_usage_error(self, capsys, monkeypatch, tmp_path):
        def run_suite(*args):
            raise AssertionError("the suite ran before --out was opened")

        monkeypatch.setattr(cli, "run_suite", run_suite)
        target = tmp_path / "missing" / "report.json"
        code, out, err = _run(capsys, ["verify", "blowup", "--json", "--out", str(target)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "blowup", "--trials", "0"],
            ["query", "membership", "--payload", "{oops"],
            ["query", "membership", "--payload", '{"named": "nope"}'],
            ["sample", "exceptional", "--count", "0"],
            ["search", "jacobian-combos", "--multipliers", "3,x"],
        ],
    )
    def test_exit_2_leaves_an_existing_out_file(self, capsys, tmp_path, argv):
        target = tmp_path / "report.json"
        target.write_text('{"kept": true}\n')
        code, out, err = _run(capsys, [*argv, "--json", "--out", str(target)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert target.read_text() == '{"kept": true}\n'

    def test_convention_flag(self, capsys):
        code, out, _ = _run(
            capsys, ["verify", "blowup", "--json", "--convention", "paper"]
        )
        assert code == 0
        rep = json.loads(out)
        byname = {c["name"]: c for c in rep["checks"]}
        assert byname["residue_value_3_3"]["expected"] == "9"

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_nonpositive_trials_usage_error(self, capsys, trials):
        code, out, err = _run(capsys, ["verify", "blowup", "--json", "--trials", trials])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "blowup", "--text"],
            ["search", "jacobian-combos", "--multipliers", "1", "--convention", "paper"],
        ],
    )
    def test_removed_options_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "membership", "--payload", "-1e+16"],
        ["query", "membership", "--payload", "-1e+16,2"],
        ["verify", "bogus"],
        ["verify", "blowup", "--seed", "\u0663"],
        ["sample", "exceptional", "--count", "1_0"],
    ],
)
def test_argv_error_is_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


class TestEntryPoint:
    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        argv = ["query", "membership", "--payload", '{"named": "v0"}']
        assert _run(capsys, argv)[0] == 0
        built = []
        real = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        for _ in range(2):
            assert _run(capsys, argv)[0] == 0
        assert built == []

    def test_calls_in_one_process_answer_as_in_a_fresh_one(
        self, monkeypatch, tmp_path, call_fresh
    ):
        """A sequence of calls run twice in this process prints, call by
        call, what each prints first in its own process: no option value,
        default or ``--out`` file carries from one call into the next."""
        monkeypatch.setenv("COLUMNS", "80")  # the width --help wraps at

        def sequence(out):
            l0 = json.dumps({"lambda0": [1, 1] + [0] * 21})
            return [
                ["verify", "blowup", "--json", "--seed", "3", "--out", str(out)],
                ["query", "membership", "--payload", '{"named": "c2"}'],
                ["query", "vlambda", "--payload", l0],
                ["sample", "polarization-odd", "--count", "2", "--seed", "5"],
                ["sample", "exceptional"],
                ["verify", "deformation", "--json", "--trials", "2"],
                ["verify", "deformation"],
                ["search", "jacobian-combos", "--multipliers", "3,2", "--bound", "1"],
                ["search", "jacobian-combos", "--multipliers", "3,2"],
                ["sample", "exceptional", "--count", "1_0"],
                ["query", "vlambda", "--payload", "{}"],
                ["--help"],
                ["query", "--help"],
            ]

        def masked(result):
            code, out, err = result
            return code, _ELAPSED.sub("", out), err

        fresh_out = tmp_path / "fresh.json"
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            fresh = [masked(r) for r in pool.map(call_fresh, sequence(fresh_out))]
        assert [r[0] for r in fresh] == [0] * 9 + [2, 2, 0, 0]
        for run in range(2):
            out = tmp_path / f"run{run}.json"
            assert [masked(_call(argv)) for argv in sequence(out)] == fresh
            assert _ELAPSED.sub("", out.read_text()) == _ELAPSED.sub("", fresh_out.read_text())


class TestQuery:
    def test_membership_named(self, capsys):
        code, out, _ = _run(capsys, ["query", "membership", "--payload", '{"named": "v0"}'])
        assert code == 0
        obj = json.loads(out)
        assert obj["member"] is True
        assert obj["divisibility"] == 1

    def test_membership_lookup_solves_once(self, capsys, monkeypatch):
        # the first lookup builds the lattice and its solve plan; a second
        # one builds no plan and makes exactly one substitution of the plan,
        # whichever reader (coordinates or their content) asks for it
        argv = ["query", "membership", "--payload", '{"named": "c2"}']
        assert _run(capsys, argv)[0] == 0
        plans, calls = [], []
        solve_plan, substitute = kernels.solve_plan, _pykernels._substitute

        def counting_plan(rows, n):
            plans.append(n)
            return solve_plan(rows, n)

        def counting(plan, b):
            calls.append(b)
            return substitute(plan, b)

        monkeypatch.setattr(kernels, "solve_plan", counting_plan)
        monkeypatch.setattr(_pykernels, "_substitute", counting)
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert json.loads(out) == {"member": True, "divisibility": 3}
        assert (len(plans), len(calls)) == (0, 1)

    def test_divisibility_c2(self, capsys):
        code, out, _ = _run(
            capsys, ["query", "divisibility", "--payload", '{"named": "c2"}']
        )
        assert code == 0
        assert json.loads(out)["divisibility"] == 3

    def test_vlambda(self, capsys):
        l0 = [1, 1] + [0] * 21
        code, out, _ = _run(
            capsys, ["query", "vlambda", "--payload", json.dumps({"lambda0": l0})]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["parity"] == "odd"
        assert obj["square"] == 2
        assert obj["gram_det"] == "704"  # 176 * 2^2

    @pytest.mark.parametrize(
        "l0, digest",
        [
            ([1, 1] + [0] * 21,
             "ff7d28d996f896561e11b5253674ece8e8543a25965df6e1eceb01940824d863"),
            ([2, 2] + [0] * 20 + [1],
             "1d7ef249b4d34dd69015fb5d784665f264029ca06692f0e67241226e277f18f0"),
        ],
        ids=["odd", "even"],
    )
    def test_vlambda_json_bytes(self, capsys, l0, digest):
        # the SHA-256 of the whole stdout, recorded before the basis rows
        # were written from the shared monomial key table
        argv = ["query", "vlambda", "--json", "--payload", json.dumps({"lambda0": l0})]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_named_classes_are_built_once(self, capsys, monkeypatch):
        # after the first named lookup, (2/5)q and c2 = 3 * (2/5)q are read
        # from the cache: no lookup scales q again
        assert _run(capsys, ["query", "membership", "--payload", '{"named": "two-fifths-q"}'])[0] == 0
        scaled = []
        scale = H4Class.scale

        def counting(self, c):
            scaled.append(c)
            return scale(self, c)

        monkeypatch.setattr(H4Class, "scale", counting)
        l0 = [1, 1] + [0] * 21
        for payload in (
            {"named": "two-fifths-q"},
            {"named": "c2"},
            {"lambda0": l0, "plus_two_fifths_q": True},
        ):
            for kind in ("membership", "divisibility"):
                assert _run(capsys, ["query", kind, "--payload", json.dumps(payload)])[0] == 0
        assert scaled == []

    def test_minimal_search(self, capsys):
        l0 = [1, 2] + [0] * 21  # square 4, odd
        code, out, _ = _run(
            capsys,
            ["query", "minimal-search", "--payload", json.dumps({"lambda0": l0})],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["feasible"] is False
        assert obj["image_generator"] == "2"

    def test_minimal_search_stdout_is_pinned(self, capsys):
        # basis_hash is computed when the report is written; these bytes
        # were printed when every search computed it up front
        l0 = [1, 2] + [0] * 21
        code, out, _ = _run(
            capsys,
            ["query", "minimal-search", "--json", "--payload", json.dumps({"lambda0": l0})],
        )
        assert code == 0
        assert out == (
            '{\n  "basis_hash": "991bf5273bbf952c",\n  "delta_used": [\n'
            + "    0,\n" * 22
            + '    1\n  ],\n  "feasible": false,\n  "image_generator": "2",\n'
            '  "search_rank": 2,\n  "witness": null\n}\n'
        )
        # an even polarization with a witness
        l0 = [2, 4] + [0] * 20 + [1]
        code, out, _ = _run(
            capsys,
            ["query", "minimal-search", "--json", "--payload", json.dumps({"lambda0": l0})],
        )
        assert code == 0
        assert '"basis_hash": "92c74a476f12aeaa"' in out
        assert len(out) == 2008
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5590e6b88249939849ab6337374d963aa8146a26c1d29303bf81f6f387b81754"
        )

    def test_lambda_plus_q_membership(self, capsys):
        # (lambda0^2 + (2/5)q)/1 with even lambda0 is divisible by 8
        l0 = [2, 2] + [0] * 20 + [1]
        payload = json.dumps({"lambda0": l0, "plus_two_fifths_q": True})
        code, out, _ = _run(capsys, ["query", "membership", "--payload", payload])
        assert code == 0
        obj = json.loads(out)
        assert obj["member"] is True
        assert obj["divisibility"] % 8 == 0

    def test_bad_json_payload(self, capsys):
        code, _, err = _run(capsys, ["query", "membership", "--payload", "{oops"])
        assert code == 2
        assert "JSON" in err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_unknown_named_class(self, capsys):
        code, _, err = _run(
            capsys, ["query", "membership", "--payload", '{"named": "zzz"}']
        )
        assert code == 2
        assert "unknown named class" in err


class TestStrictPayload:
    """Payload numbers are exact: a float is never truncated, a bool is never
    read as 1, and either one is a payload error (exit 2, one error line)."""

    def _rejected(self, capsys, kind, payload):
        self._rejected_text(capsys, kind, json.dumps(payload))

    def _rejected_text(self, capsys, kind, text):
        code, out, err = _run(capsys, ["query", kind, "--json", "--payload", text])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_float_lambda0_rejected(self, capsys):
        self._rejected(capsys, "vlambda", {"lambda0": [1.9, 1] + [0] * 21})

    def test_bool_lambda0_rejected(self, capsys):
        self._rejected(capsys, "vlambda", {"lambda0": [True, 1] + [0] * 21})

    def test_float_class_value_rejected(self, capsys):
        self._rejected(capsys, "membership", {"class": {"(0,0)": 0.1}})

    def test_float_picard_rejected(self, capsys):
        l0 = [1, 1] + [0] * 21
        self._rejected(
            capsys, "minimal-search", {"lambda0": l0, "picard": [[1.0, 1] + [0] * 21]}
        )

    def test_malformed_fraction_text_rejected(self, capsys):
        self._rejected(capsys, "membership", {"class": {"(0,0)": "0.1"}})
        self._rejected(capsys, "membership", {"class": {"(0,0)": "1/0"}})

    def test_payload_of_the_wrong_shape_rejected(self, capsys):
        self._rejected(capsys, "membership", {"class": []})
        self._rejected(capsys, "membership", None)
        self._rejected(capsys, "vlambda", [])

    def test_non_ascii_digits_in_a_monomial_key_rejected(self, capsys):
        self._rejected(capsys, "membership", {"class": {"(\u0663,\u0663)": "1"}})

    @pytest.mark.parametrize("flag", ["false", "true", 2, 0, 1, None, [], {}])
    def test_plus_two_fifths_q_takes_only_json_booleans(self, capsys, flag):
        l0 = [5, 5] + [0] * 21
        self._rejected(capsys, "divisibility", {"lambda0": l0, "plus_two_fifths_q": flag})

    def test_plus_two_fifths_q_false_is_the_plain_square(self, capsys):
        l0 = [5, 5] + [0] * 21
        answers = []
        for payload in (
            {"lambda0": l0},
            {"lambda0": l0, "plus_two_fifths_q": False},
            {"lambda0": l0, "plus_two_fifths_q": True},
        ):
            code, out, _ = _run(
                capsys, ["query", "divisibility", "--json", "--payload", json.dumps(payload)]
            )
            assert code == 0
            answers.append(json.loads(out))
        assert answers == [{"divisibility": 25}, {"divisibility": 25}, {"divisibility": 1}]

    @pytest.mark.parametrize("kind", ["membership", "divisibility"])
    def test_more_than_one_class_form_rejected(self, capsys, kind):
        l0 = [5, 5] + [0] * 21
        for payload in (
            {"named": "c2", "lambda0": [1] + [0] * 22},
            {"named": "q", "class": {"(0,0)": 1}},
            {"class": {"(0,0)": 1}, "lambda0": l0},
            {"named": "v0", "class": {}, "lambda0": l0, "plus_two_fifths_q": False},
        ):
            self._rejected(capsys, kind, payload)

    def test_plus_two_fifths_q_only_next_to_lambda0(self, capsys):
        for payload in (
            {"named": "q", "plus_two_fifths_q": False},
            {"class": {"(0,0)": 1}, "plus_two_fifths_q": True},
            {"plus_two_fifths_q": True},
        ):
            self._rejected(capsys, "membership", payload)

    def test_repeated_key_rejected_at_any_depth(self, capsys):
        # json.dumps never repeats a key, so the payloads are written out
        l0, other = json.dumps([5, 5] + [0] * 21), json.dumps([1] + [0] * 22)
        self._rejected_text(capsys, "membership", f'{{"lambda0": {l0}, "lambda0": {other}}}')
        self._rejected_text(capsys, "divisibility", '{"class": {"(0,0)": 1, "(0,0)": 2}}')
        self._rejected_text(capsys, "vlambda", f'{{"lambda0": {l0}, "lambda0": {l0}}}')
        self._rejected_text(
            capsys, "minimal-search", f'{{"lambda0": {l0}, "picard": [{l0}], "picard": []}}'
        )

    def test_unknown_payload_key_rejected(self, capsys):
        l0 = [5, 5] + [0] * 21
        for kind, payload in (
            ("membership", {"named": "q", "extra": 1}),
            ("divisibility", {"lambda0": l0, "picard": [l0]}),
            ("vlambda", {"lambda0": l0, "plus_two_fifths_q": False}),
            ("minimal-search", {"lambda0": l0, "named": "q"}),
        ):
            self._rejected(capsys, kind, payload)

    @pytest.mark.parametrize("kind", ["membership", "divisibility"])
    def test_monomial_given_twice_rejected(self, capsys, kind):
        # two spellings of x0*x1: a stripped space, a leading zero
        for other in (" (0,1)", "(00,1)", "(0,01)"):
            self._rejected(capsys, kind, {"class": {"(0,1)": "1", other: "2"}})

    def test_class_given_as_json_text_rejected(self, capsys):
        # a class is a JSON object; JSON text inside a string is not parsed,
        # so it cannot slip a repeated key past the payload parser
        for text in ('{"(0,0)": 1}', '{"(0,0)": 1, "(0,0)": 2}'):
            self._rejected(capsys, "membership", {"class": text})

    def test_divisibility_of_the_zero_class_is_an_error(self, capsys):
        code, out, err = _run(capsys, ["query", "divisibility", "--payload", '{"class": {}}'])
        assert (code, out) == (2, "")
        assert err == "error: divisibility of the zero vector is undefined\n"

    @pytest.mark.parametrize(
        "kind, payload", [("vlambda", "{}"), ("minimal-search", '{"picard": [[1]]}')]
    )
    def test_missing_required_key_is_named(self, capsys, kind, payload):
        code, out, err = _run(capsys, ["query", kind, "--payload", payload])
        assert (code, out) == (2, "")
        assert err == f'error: {kind} payload needs the key "lambda0"\n'

    def test_exact_numbers_still_accepted(self, capsys):
        code, out, _ = _run(
            capsys,
            ["query", "membership", "--payload", '{"class": {"(0,0)": "1/2", "(0,1)": 3}}'],
        )
        assert code == 0
        assert json.loads(out) == {"member": False}


class TestSample:
    def test_exceptional_deterministic(self, capsys):
        code, out1, _ = _run(capsys, ["sample", "exceptional", "--count", "3", "--seed", "9"])
        assert code == 0
        code, out2, _ = _run(capsys, ["sample", "exceptional", "--count", "3", "--seed", "9"])
        assert out1 == out2
        rows = json.loads(out1)
        assert len(rows) == 3
        assert all(r["valid"] and r["square"] == -2 for r in rows)

    def test_polarizations(self, capsys):
        code, out, _ = _run(capsys, ["sample", "polarization-odd", "--count", "2"])
        assert code == 0
        assert all(r["parity"] == "odd" and r["assumption"] for r in json.loads(out))
        code, out, _ = _run(capsys, ["sample", "polarization-even", "--count", "2"])
        assert code == 0
        assert all(r["parity"] == "even" and r["assumption"] for r in json.loads(out))

    def test_bad_count(self, capsys):
        code, out, err = _run(capsys, ["sample", "exceptional", "--count", "0"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


_small = st.integers(-3, 3)
_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6),
    st.text(max_size=4),
)
_vector = st.one_of(
    # on the first hyperbolic pair: square 2xy, often positive
    st.builds(lambda x, y: [x, y] + [0] * 21, _small, _small),
    st.lists(_small, min_size=23, max_size=23),
    st.lists(st.one_of(_small, _junk), max_size=24),
    _junk,
)
_monomial_key = st.one_of(
    st.sampled_from(["(0,0)", "(0,22)", "(3,7)", "(22,22)", " (1,2) "]),
    st.sampled_from(["(1,0)", "(0,23)", "(0, 0)", "0,0", "(-1,2)", "(a,b)", ""]),
    st.text(max_size=6),
)
_value = st.one_of(_small, st.sampled_from(["1/2", "-3/10", "1/0", "0.1", "x"]), _junk)
_payload = st.one_of(
    st.fixed_dictionaries({"named": st.sampled_from(["v0", "q", "c2", "two-fifths-q"])}),
    st.fixed_dictionaries({"lambda0": _vector}),
    st.fixed_dictionaries(
        {},
        optional={
            "named": st.one_of(st.sampled_from(["v0", "q", "c2", "two-fifths-q", "zzz"]), _junk),
            "class": st.one_of(st.dictionaries(_monomial_key, _value, max_size=4), _junk),
            "lambda0": _vector,
            "plus_two_fifths_q": _junk,
            "picard": st.one_of(st.lists(_vector, max_size=2), _junk),
        },
    ),
    _junk,
    st.lists(_small, max_size=3),
)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["membership", "divisibility", "vlambda", "minimal-search"]),
    payload=_payload,
    as_json=st.booleans(),
)
def test_query_payload_fuzz(kind, payload, as_json):
    """Any payload either answers (exit 0) or is a payload error (exit 2,
    one ``error:`` line on stderr); no exception escapes ``cli.main``."""
    argv = ["query", kind, f"--payload={json.dumps(payload)}"] + (["--json"] if as_json else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
    else:
        json.loads(out.getvalue())


class TestSearch:
    def test_jacobian_combos(self, capsys):
        code, out, _ = _run(
            capsys,
            ["search", "jacobian-combos", "--multipliers", "2,4", "--bound", "3"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["provably_empty"] is True

    @pytest.mark.parametrize("mults", ["-3,2", "-3,-2,", "-1,,4"])
    def test_negative_first_multiplier(self, capsys, mults):
        # a list that starts with a minus sign is the option's value, as
        # when it is joined to the option
        argv = ["search", "jacobian-combos", "--bound", "2", "--json"]
        joined = _run(capsys, [*argv, f"--multipliers={mults}"])
        assert joined[0] == 0
        assert _run(capsys, [*argv, "--multipliers", mults]) == joined
        assert json.loads(joined[1])["multipliers"] == [int(x) for x in mults.split(",") if x]

    def test_multiplier_parse_error(self, capsys):
        for mults in ["2,x", "1_0,\u0663"]:
            code, out, err = _run(capsys, ["search", "jacobian-combos", "--multipliers", mults])
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_all_suite_prefixes_names():
    rep = cli.run_suite("all", seed=0, trials=2, convention="quadratic")
    names = [c["name"] for c in rep["checks"]]
    assert names == sorted(names)
    assert any(n.startswith("h4-torsion.") for n in names)
    assert any(n.startswith("blowup.") for n in names)
    assert all(c["status"] == "pass" for c in rep["checks"])
