import json
from pathlib import Path

import pytest

from explodingmoments.cli import (
    ExperimentConfig,
    _build_parser,
    _config_from_args,
    dispatch,
    main,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLimitsCommand:
    def test_elliptic_rho_one_table(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--model", "elliptic", "--kmax", "4",
                               "--rho", "1")
        assert code == 0
        doc = json.loads(out)
        values = {row["k"]: row["value"] for row in doc["values"]}
        assert values[4] == "3/1"  # 2 rho^2 + C_{2,2} at rho = 1
        assert values[2] == "1/1"

    def test_circulant_paper_formula_flag(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--model", "circulant", "--kmax", "4",
                               "--paper-formula")
        doc = json.loads(out)
        assert code == 0
        assert {r["k"]: r["value"] for r in doc["values"]}[4] == "7/1"

    def test_config_echoed(self, capsys):
        _, out, _ = run_cli(capsys, "limits", "--model", "iid", "--kmax", "3")
        doc = json.loads(out)
        assert doc["config"]["model"] == "iid"
        assert doc["schema"] == 1


class TestUsageErrors:
    def test_unknown_model_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["limits", "--model", "toeplitz"])
        assert exc.value.code == 2

    def test_bad_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, "limits", "--config", str(cfg))
        assert code == 2
        assert "line 1" in err

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "iid", "bogus": 1}))
        code, _, err = run_cli(capsys, "limits", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err


    @pytest.mark.parametrize(
        "command,cap",
        [("limits", 10), ("covariance", 6), ("oracle", 6), ("simulate", 8), ("verify", 8)],
    )
    def test_kmax_above_cap_exits_2(self, capsys, command, cap):
        argv = [command, "--model", "elliptic", "--n", "5", "--reps", "20"]
        code, out, _ = run_cli(capsys, *argv, "--kmax", str(cap))
        doc = json.loads(out)
        assert code == (0 if doc.get("all_passed", True) else 1)
        listed = doc.get("values") or doc.get("means") or doc["rows"]
        assert max(row["k"] for row in listed) == cap
        code, out, err = run_cli(capsys, *argv, "--kmax", str(cap + 1))
        assert (code, out) == (2, "")
        assert err == f"error: {command} supports --kmax up to {cap}, got {cap + 1}\n"

    @pytest.mark.parametrize("reps", [1, -5])
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_reps_below_two_exits_2(self, capsys, command, reps):
        code, out, err = run_cli(capsys, command, "--model", "circulant", "--n", "8",
                                 "--reps", str(reps))
        assert (code, out) == (2, "")
        assert err == f"error: {command} needs --reps of at least 2, got {reps}\n"


class TestConfigPrecedence:
    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "circulant", "kmax": 2, "seed": 9}))
        _, out, _ = run_cli(capsys, "limits", "--config", str(cfg), "--kmax", "3")
        doc = json.loads(out)
        assert doc["config"]["kmax"] == 3
        assert doc["config"]["model"] == "circulant"
        assert doc["config"]["seed"] == 9

    def test_circulant_light_script_config(self):
        path = SCRIPTS / "verify_circulant_light.json"
        args = _build_parser().parse_args(["verify", "--config", str(path)])
        assert _config_from_args(args) == ExperimentConfig(
            command="verify", model="circulant", n=(512,), kmax=3, reps=20000,
            seed=20240801, profile="light",
        )


class TestVerifyCommand:
    def test_small_light_run_passes(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--model", "circulant", "--profile", "light",
            "--n", "32", "--kmax", "2", "--reps", "200", "--seed", "5",
            "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["all_passed"] is True
        assert doc["rows"]

    def test_report_round_trips_to_identical_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--model", "circulant", "--profile", "light",
            "--n", "16", "--kmax", "2", "--reps", "100", "--seed", "8",
        )
        doc = json.loads(out)
        cfg = ExperimentConfig.from_dict(doc["config"])
        code2, doc2 = dispatch(cfg)
        assert doc2["rows"] == doc["rows"]
        assert code2 == code

    def test_failing_row_exits_1(self, capsys):
        # an absurd z threshold forces failures
        code, out, _ = run_cli(
            capsys, "verify", "--model", "circulant", "--profile", "light",
            "--n", "16", "--kmax", "2", "--reps", "100", "--seed", "8",
            "--z-threshold", "1e-12",
        )
        assert code == 1
        assert json.loads(out)["all_passed"] is False

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--model", "circulant", "--profile", "light",
            "--n", "16", "--kmax", "1", "--reps", "100", "--seed", "8",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "k,l,predicted,oracle,empirical,stderr,zscore,pass,note"


    @pytest.mark.parametrize("model", ["elliptic", "circulant"])
    def test_oracle_column_stops_at_oracle_kmax(self, capsys, model):
        # the exact mean goes up to k = 6; rows above it compare with the limit only
        _, out, _ = run_cli(capsys, "verify", "--model", model, "--n", "6", "--kmax", "8",
                            "--reps", "20")
        oracle = {r["k"]: r["oracle"] for r in json.loads(out)["rows"] if r["l"] is None}
        assert [k for k, value in oracle.items() if value == ""] == [7, 8]


class TestOracleCommand:
    def test_circulant_values(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--model", "circulant",
                               "--n", "7", "--kmax", "4")
        assert code == 0
        doc = json.loads(out)
        vals = {(r["N"], r["k"]): r["value"] for r in doc["values"] if "l" not in r}
        assert vals[(7, 4)] == "25/7"
        assert doc["provenance"]["package"] == "explodingmoments"

    def test_oracle_guard(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--model", "circulant",
                               "--n", "99", "--kmax", "2")
        assert code == 2
        assert "N <= 15" in err


class TestWeaverCommand:
    def test_even_and_odd(self, capsys):
        for n in ("12", "13"):
            code, out, _ = run_cli(capsys, "weaver", "--n", n, "--seed", "2")
            doc = json.loads(out)
            assert code == 0 and doc["ok"]
            assert doc["orthogonality_residual"] < 1e-12


class TestSimulateCommand:
    def test_deterministic(self, capsys):
        args = ["simulate", "--model", "iid", "--n", "32", "--kmax", "2",
                "--reps", "50", "--seed", "3"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        doc = json.loads(out1)
        assert len(doc["means"]) == 2


class TestProfileFile:
    def test_law_from_file(self, tmp_path, capsys):
        from explodingmoments.profiles import pair_law_to_dict, design_correlated_sign_law

        path = tmp_path / "law.json"
        path.write_text(json.dumps({"pair_law": pair_law_to_dict(design_correlated_sign_law(1))}))
        code, out, _ = run_cli(capsys, "limits", "--model", "elliptic", "--kmax", "4",
                               "--profile", str(path))
        assert code == 0
        assert {r["k"]: r["value"] for r in json.loads(out)["values"]}[4] == "3/1"
