"""Command-line harness: suite reports, queries, samples, searches, exit
codes, and reproducibility of JSON output."""

import json

import pytest

from hklattice import cli, deformation_fix


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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
        code, _, _ = _run(capsys, ["verify", "blowup", "--json", "--out", str(target)])
        assert code == 0
        rep = json.loads(target.read_text())
        assert rep["suite"] == "blowup"

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


class TestQuery:
    def test_membership_named(self, capsys):
        code, out, _ = _run(capsys, ["query", "membership", "--payload", '{"named": "v0"}'])
        assert code == 0
        obj = json.loads(out)
        assert obj["member"] is True
        assert obj["divisibility"] == 1

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
        code, out, err = _run(
            capsys, ["query", kind, "--json", "--payload", json.dumps(payload)]
        )
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


class TestSearch:
    def test_jacobian_combos(self, capsys):
        code, out, _ = _run(
            capsys,
            ["search", "jacobian-combos", "--multipliers", "2,4", "--bound", "3"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["provably_empty"] is True

    def test_multiplier_parse_error(self, capsys):
        code, _, _ = _run(
            capsys, ["search", "jacobian-combos", "--multipliers", "2,x"]
        )
        assert code == 2


def test_all_suite_prefixes_names():
    rep = cli.run_suite("all", seed=0, trials=2, convention="quadratic")
    names = [c["name"] for c in rep["checks"]]
    assert names == sorted(names)
    assert any(n.startswith("h4-torsion.") for n in names)
    assert any(n.startswith("blowup.") for n in names)
    assert all(c["status"] == "pass" for c in rep["checks"])
