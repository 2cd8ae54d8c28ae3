import argparse
import contextlib
import csv
import io
import json
import tempfile
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explodingmoments.cli import (
    _COMMANDS,
    ExperimentConfig,
    _build_parser,
    _config_from_args,
    _resolve_setup,
    _verify_targets,
    dispatch,
    main,
)
from explodingmoments import estimator, oracle
from explodingmoments.oracle import MAX_N_POLY
from explodingmoments.profiles import (
    MODELS,
    SparseScalarLaw,
    design_correlated_sign_law,
    law_to_dict,
    light_profile,
    profile_of_scalar_law,
    profile_of_sparse_law,
    profile_to_dict,
    sign_scalar_law,
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
        "doc,message",
        [
            ({"kmax": "3"}, "config field 'kmax' must be an integer, got '3'"),
            ({"kmax": True}, "config field 'kmax' must be an integer, got True"),
            ({"seed": 1.5}, "config field 'seed' must be an integer, got 1.5"),
            ({"z_threshold": "x"}, "config field 'z_threshold' must be a number, got 'x'"),
            ({"out": 5}, "config field 'out' must be a string or null, got 5"),
            ({"profile": 3}, "config field 'profile' must be a string, got 3"),
            ({"paper_formula": "no"},
             "config field 'paper_formula' must be true or false, got 'no'"),
            ({"n": [16.7]}, "config field 'n' must be a list of integers, got [16.7]"),
            ({"fmt": "xml"}, "config field 'fmt' must be one of ('json', 'csv'), got 'xml'"),
            ([], "config must be a JSON object, got list"),
            ([[1]], "config must be a JSON object, got list"),
            # json reads 1e400 as an infinite float
            ('{"rho": 1e400}', "--rho must be a rational in [-1, 1], got inf"),
        ],
    )
    def test_config_field_type_exits_2(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run_cli(capsys, "oracle", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["simulate", "--n", "0"], "simulate needs --n of at least 1, got 0"),
            (["oracle", "--n", "5", "--n", "-2"], "oracle needs --n of at least 1, got -2"),
            (["limits", "--rho", "abc"], "--rho must be a rational in [-1, 1], got 'abc'"),
            (["verify", "--rho", "3/2"], "--rho must be a rational in [-1, 1], got '3/2'"),
            (["oracle", "--model", "block", "--rho", "1/0"],
             "--rho must be a rational in [-1, 1], got '1/0'"),
            (["simulate", "--model", "circulant", "--seed", "-3"],
             "simulate needs --seed of at least -1, got -3"),
            (["weaver", "--seed", "-1"], "weaver needs --seed of at least 0, got -1"),
            (["verify", "--z-threshold", "nan"], "verify needs a finite --z-threshold, got nan"),
            (["verify", "--z-threshold", "inf"], "verify needs a finite --z-threshold, got inf"),
            (["limits", "--kmax", "0"], "limits needs --kmax of at least 1, got 0"),
            (["covariance", "--kmax", "0"], "covariance needs --kmax of at least 1, got 0"),
            (["oracle", "--kmax", "0"], "oracle needs --kmax of at least 1, got 0"),
            (["simulate", "--kmax", "0"], "simulate needs --kmax of at least 1, got 0"),
            (["verify", "--kmax", "-1"], "verify needs --kmax of at least 1, got -1"),
            (["limits", "--format", "csv"], "--format csv applies only to verify"),
            (["covariance", "--format", "csv"], "--format csv applies only to verify"),
            (["simulate", "--format", "csv"], "--format csv applies only to verify"),
            (["oracle", "--format", "csv"], "--format csv applies only to verify"),
            (["weaver", "--format", "csv"], "--format csv applies only to verify"),
        ],
    )
    def test_bad_numeric_input_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "--reps", "5")
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "--model", "centrosymmetric", "--profile", "light", "--n", "9000"],
             "Gaussian sampling is dense; n=9000 exceeds the dense limit 4096"),
            (["weaver", "--n", "5000"],
             "Gaussian sampling is dense; n=5000 exceeds the dense limit 4096"),
            (["oracle", "--model", "iid", "--profile", "pair_law", "--n", "5"],
             "the iid model needs a scalar or Gaussian law, not a pair law"),
            (["oracle", "--model", "circulant", "--profile", "pair_law", "--n", "5",
              "--n", "64", "--kmax", "6"],
             "the circulant model needs a scalar or Gaussian law, not a pair law"),
        ],
    )
    def test_law_or_size_the_model_cannot_take_exits_2(self, capsys, profile_files, argv,
                                                       message):
        # rejected before any matrix is drawn or exact sum is run
        argv = [profile_files.get(arg, arg) for arg in argv]
        code, out, err = run_cli(capsys, *argv, "--reps", "5")
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_integer_z_threshold_past_float_range_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"z_threshold": 1%s}' % ("0" * 400))
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg), "--reps", "5")
        assert (code, out) == (2, "")
        assert err == f"error: verify needs a finite --z-threshold, got {10**400}\n"

    def test_verify_oracle_error_comes_before_sampling(self, tmp_path, capsys, monkeypatch):
        # odd diagonal moments put N^(3/2) into the iid oracle at non-square N
        law = SparseScalarLaw(
            activation=1,
            atoms=((1, Fraction(1, 2)), (-1, Fraction(1, 2))),
            diagonal_atoms=((Fraction(-1, 2), Fraction(2, 3)), (1, Fraction(1, 3))),
        )
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"scalar_law": law_to_dict(law)}))
        calls = []
        monkeypatch.setattr(estimator, "run_experiment", lambda *a: calls.append(a) or 1 / 0)
        code, out, err = run_cli(capsys, "verify", "--model", "iid", "--profile", str(path),
                                 "--n", "5", "--kmax", "3", "--reps", "50")
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("error: exact value involves N^(") and err.count("\n") == 1

    @pytest.mark.parametrize("raw", ["abc", "1.5", "0"])
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_malformed_thread_count_exits_2_before_sampling(self, capsys, monkeypatch,
                                                             command, raw):
        calls = []
        monkeypatch.setattr(estimator, "run_experiment", lambda *a: calls.append(a) or 1 / 0)
        monkeypatch.setenv("EXPLODINGMOMENTS_THREADS", raw)
        code, out, err = run_cli(capsys, command, "--model", "elliptic", "--n", "50",
                                 "--kmax", "2", "--reps", "10")
        assert (code, out, calls) == (2, "", [])
        assert err == f"error: EXPLODINGMOMENTS_THREADS must be a positive integer, got {raw!r}\n"

    def test_lowest_seed_still_runs(self, capsys):
        # replica r draws from seed + r, so --seed -1 hands numpy 0, 1, ...
        code, out, _ = run_cli(capsys, "simulate", "--model", "circulant", "--n", "8",
                               "--kmax", "2", "--reps", "5", "--seed", "-1")
        assert code == 0 and len(json.loads(out)["means"]) == 2

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

    def test_every_command_takes_the_same_options(self):
        # the subparsers share one declaration of the config fields' flags
        (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        options = {name: sorted(flag for action in p._actions for flag in action.option_strings)
                   for name, p in sub.choices.items()}
        assert set(options) == set(_COMMANDS)
        flags = sorted(["-h", "--help", "--config", "--model", "--n", "--kmax", "--reps",
                        "--seed", "--rho", "--profile", "--z-threshold", "--paper-formula",
                        "--format", "--out"])
        assert all(found == flags for found in options.values())

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
        argv = ["verify", "--model", "circulant", "--profile", "light",
                "--n", "16", "--kmax", "1", "--reps", "100", "--seed", "8"]
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "k,l,predicted,oracle,empirical,stderr,zscore,pass,note"
        _, json_out, _ = run_cli(capsys, *argv)
        want = json.loads(json_out)["rows"][0]
        row = next(csv.DictReader(out.splitlines()))
        for column in ("predicted", "oracle"):
            assert Fraction(row[column]) == Fraction(want[column])
        assert row["l"] == "" and float(row["empirical"]) == float(want["empirical"])


    @pytest.mark.parametrize("model", ["elliptic", "circulant"])
    def test_oracle_column_stops_at_oracle_kmax(self, capsys, model):
        # the exact mean goes up to k = 6; rows above it compare with the limit only
        _, out, _ = run_cli(capsys, "verify", "--model", model, "--n", "6", "--kmax", "8",
                            "--reps", "20")
        oracle = {r["k"]: r["oracle"] for r in json.loads(out)["rows"] if r["l"] is None}
        assert [k for k, value in oracle.items() if value == ""] == [7, 8]


    @pytest.mark.parametrize("model", ["elliptic", "circulant"])
    def test_oracle_column_at_every_n(self, model):
        # every row carries an exact value up to the oracle's N guard, none above it
        for n, filled in ((512, True), (MAX_N_POLY, True), (MAX_N_POLY + 1, False)):
            cfg = ExperimentConfig(command="verify", model=model, n=(n,), kmax=6)
            law, profile = _resolve_setup(cfg)
            predictions, oracle = _verify_targets(cfg, law, profile)
            assert len(predictions) == 6 + 6
            assert set(oracle) == ({(k, l) for k, l, _ in predictions} if filled else set())


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
                               "--n", str(MAX_N_POLY + 1), "--kmax", "2")
        assert code == 2
        assert f"up to {MAX_N_POLY}" in err

    def test_each_walk_sum_runs_once(self, capsys, monkeypatch):
        # 6 means and 6 joint moments, each summed once for all three N; no
        # mean is summed again for a covariance
        calls = []
        summed = oracle._circulant_sum
        monkeypatch.setattr(oracle, "_circulant_sum", lambda *a: calls.append(a) or summed(*a))
        code, out, _ = run_cli(capsys, "oracle", "--model", "circulant", "--n", "7", "--n", "11",
                               "--n", "13", "--kmax", "6")
        assert code == 0 and len(json.loads(out)["values"]) == 36
        assert len(calls) == 12
        assert sorted(lengths for _table, lengths, _ns in calls) == sorted(
            [(k,) for k in range(1, 7)] + [(k, l) for k in (1, 2, 3) for l in range(k, 4)]
        )

    def test_circulant_rows_at_large_n(self, capsys):
        # the residue-counted oracle has no small-N guard: means and covariances at N = 512
        code, out, _ = run_cli(capsys, "oracle", "--model", "circulant",
                               "--n", "512", "--kmax", "3")
        assert code == 0
        vals = {(r["k"], r.get("l")): r["value"] for r in json.loads(out)["values"]}
        assert vals[(2, None)] == "2/1"
        assert vals[(1, 3)] == "515/512"
        assert len(vals) == 3 + 6


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


GRID_COMMANDS = ("limits", "covariance", "simulate", "verify", "oracle", "weaver")
GRID_PROFILES = ("sign", "light", "pair_law", "scalar_law", "profile")


@pytest.fixture(scope="module")
def profile_files(tmp_path_factory):
    """One law or profile JSON file per document kind the CLI reads."""
    docs = {
        "pair_law": law_to_dict(design_correlated_sign_law(Fraction(1, 2))),
        "scalar_law": law_to_dict(sign_scalar_law()),
        "profile": profile_to_dict(light_profile()),
    }
    root = tmp_path_factory.mktemp("profiles")
    paths = {}
    for key, doc in docs.items():
        paths[key] = root / f"{key}.json"
        paths[key].write_text(json.dumps({key: doc}))
    return {key: str(path) for key, path in paths.items()}


@pytest.mark.parametrize("profile", GRID_PROFILES)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("command", GRID_COMMANDS)
def test_command_model_profile_grid(capsys, profile_files, command, model, profile):
    # every pairing of a law with a model either runs or is a usage error
    code, out, err = run_cli(capsys, command, "--model", model,
                             "--profile", profile_files.get(profile, profile),
                             "--n", "6", "--kmax", "2", "--reps", "3")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


class TestProfileFile:
    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"scalar_law": {"activation": [1, 1], "atoms": [[1, 1, 1, 2], [-1, 1, 1, 2]]}},
             "scalar_law lacks field 'diagonal_atoms'"),
            ({"pair_law": {"activation": [1, 1], "atoms": [[1, 1]], "diagonal_atoms": []}},
             "malformed pair_law"),
            ({"scalar_law": {"activation": [1, 0], "atoms": [], "diagonal_atoms": []}},
             "malformed scalar_law"),
            ({"profile": {"alpha": [1, 1], "kmax": "x"}}, "malformed profile"),
            ({"profile": {"kmax": 4}}, "profile lacks field 'alpha'"),
            # a pair atom row of two rationals, a scalar row of three
            ({"pair_law": {"activation": [1, 1], "atoms": [[1, 1, 1, 2], [-1, 1, 1, 2]],
                           "diagonal_atoms": [[0, 1, 1, 1]]}}, "malformed pair_law"),
            ({"scalar_law": {"activation": [1, 1],
                             "atoms": [[1, 1, 5, 1, 1, 2], [-1, 1, 5, 1, 1, 2]],
                             "diagonal_atoms": [[0, 1, 1, 1]]}}, "malformed scalar_law"),
            # the sign law once its trailing 7 is dropped
            ({"scalar_law": {"activation": [1, 1], "atoms": [[1, 1, 1, 2, 7], [-1, 1, 1, 2]],
                             "diagonal_atoms": [[0, 1, 1, 1]]}}, "malformed scalar_law"),
            # a float or a bool is not an integer, so nothing is truncated to one
            ({"scalar_law": {"activation": [1.9, 1], "atoms": [[1, 1, 1, 2], [-1, 1, 1, 2]],
                             "diagonal_atoms": [[0, 1, 1, 1]]}}, "malformed scalar_law"),
            ({"scalar_law": {"activation": [1, 1], "atoms": [[True, 1, 1, 2], [-1, 1, 1, 2]],
                             "diagonal_atoms": [[0, 1, 1, 1]]}}, "malformed scalar_law"),
            ({"profile": {"alpha": [1, 1], "kmax": 4.9,
                          "scalar_table": [[2, 1, 1], [3, 0, 1], [4, 1, 1]]}}, "malformed profile"),
            ({"profile": {"alpha": [1, 1], "kmax": 4,
                          "scalar_table": [[2, 1.7, 1], [3, 0, 1], [4, 1, 1]]}}, "malformed profile"),
            ({"profile": {"alpha": [1, 1], "kmax": "4",
                          "scalar_table": [[2, 1, 1], [3, 0, 1], [4, 1, 1]]}}, "malformed profile"),
        ],
    )
    def test_malformed_law_exits_2(self, tmp_path, capsys, doc, message):
        path = tmp_path / "law.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "limits", "--model", "iid", "--profile", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("command", ["limits", "covariance"])
    def test_profile_alpha_other_than_one_exits_2(self, tmp_path, capsys, command, model):
        # the limit formulas hold at alpha = 1 only; none is evaluated elsewhere
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"profile": profile_to_dict(replace(light_profile(), alpha=2))}))
        code, out, err = run_cli(capsys, command, "--model", model, "--kmax", "4",
                                 "--profile", str(path))
        assert (code, out) == (2, "")
        assert err == "error: limit evaluation requires alpha = 1, got alpha = 2\n"

    @pytest.mark.parametrize(
        "model,profile,message",
        [
            ("elliptic", profile_of_sparse_law(design_correlated_sign_law(Fraction(1, 2)), kmax=4),
             "pair table has no entry C_(3,3)"),
            # a missing C_3 is not read as 0
            ("circulant", profile_of_scalar_law(sign_scalar_law(), kmax=2),
             "scalar table has no entry C_3"),
        ],
    )
    def test_profile_shorter_than_kmax_exits_2(self, tmp_path, capsys, model, profile, message):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"profile": profile_to_dict(profile)}))
        code, out, err = run_cli(capsys, "limits", "--model", model, "--kmax", "6",
                                 "--profile", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_profile_of_kmax_4_gives_the_elliptic_limits_up_to_5(self, tmp_path, capsys):
        # the C_(m,m) with 2m <= 4 are all the tree sums up to k = 5 read
        short = profile_of_sparse_law(design_correlated_sign_law(Fraction(1, 2)), kmax=4)
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"profile": profile_to_dict(short)}))
        code, out, _ = run_cli(capsys, "limits", "--model", "elliptic", "--kmax", "5",
                               "--profile", str(path))
        _, full, _ = run_cli(capsys, "limits", "--model", "elliptic", "--kmax", "5",
                             "--rho", "1/2")
        assert code == 0
        assert json.loads(out)["values"] == json.loads(full)["values"]

    def test_profile_with_huge_kmax_exits_2_quickly(self, tmp_path, capsys):
        # one missing-entry line per table, found in time bounded by the table
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(
            {"profile": {"alpha": [1, 1], "kmax": 10**6, "scalar_table": [[2, 1, 1]]}}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "limits", "--model", "elliptic", "--kmax", "2",
                                 "--profile", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 1024
        assert "pair table lacks 500001499998 of 500001499998 entries, first C_(0,2)" in err

    def test_law_from_file(self, tmp_path, capsys):
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"pair_law": law_to_dict(design_correlated_sign_law(1))}))
        code, out, _ = run_cli(capsys, "limits", "--model", "elliptic", "--kmax", "4",
                               "--profile", str(path))
        assert code == 0
        assert {r["k"]: r["value"] for r in json.loads(out)["values"]}[4] == "3/1"


# JSON values of every type, with the non-finite and overflowing numbers a
# document can hold; strings stay short so that none names a file, and no
# object key is "out", which would write the report to a file
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 20), st.sampled_from([10**400, -10**400]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=3).filter(lambda key: key != "out"), inner, max_size=3),
    max_leaves=6,
)
_NOT_STRINGS = _JSON_SCALARS.filter(lambda x: not isinstance(x, str))
# integers up to 16 only: a size or a replica count
_SMALL_NUMBERS = _NOT_STRINGS.filter(lambda x: not isinstance(x, int) or x <= 16)


def _mostly(usual, other):
    """``usual`` three draws in four, so that most cases get past the first check."""
    return st.one_of(usual, usual, usual, other)


# a config object's fields; n and reps stay small so that no case samples a
# large matrix, and out is never a path
_CONFIG_OBJECTS = st.fixed_dictionaries(
    {
        "n": _mostly(st.lists(st.integers(-1, 16), min_size=1, max_size=2),
                     st.lists(_SMALL_NUMBERS, max_size=2) | _NOT_STRINGS),
        "reps": _mostly(st.integers(-1, 8), st.floats(allow_nan=True) | st.text(max_size=3)),
    },
    optional={
        "model": _mostly(st.sampled_from(MODELS), _JSON_VALUES),
        "kmax": _mostly(st.integers(-1, 11), _JSON_SCALARS),
        "seed": _mostly(st.integers(-3, 10**6), _JSON_SCALARS),
        "rho": _mostly(st.sampled_from(["1/2", "-1", "3/2", "x", "1/0"]), _JSON_SCALARS),
        "profile": _mostly(st.sampled_from(["sign", "light"]), _NOT_STRINGS),
        "z_threshold": _mostly(st.floats(-10, 10), _JSON_SCALARS),
        "paper_formula": _mostly(st.booleans(), _JSON_SCALARS),
        "fmt": _mostly(st.sampled_from(["json", "csv"]), _JSON_SCALARS),
        "out": _NOT_STRINGS,
    },
)
_KMAX_CAPS = {"limits": 10, "covariance": 6, "oracle": 6, "simulate": 8, "verify": 8, "weaver": 8}


@st.composite
def _argv(draw, command, sized: bool):
    """Flags of ``command``: each valid or just out of range, or absent;
    --n and --reps are always present unless ``sized`` (by a config)."""
    flags = {
        "--n": st.integers(-1, 16),
        "--reps": st.integers(-1, 8),
        "--model": st.sampled_from(MODELS),
        "--kmax": st.integers(-1, _KMAX_CAPS[command] + 1),
        "--seed": st.integers(-3, 20),
        "--rho": st.sampled_from(["1/2", "1", "-1", "3/2", "abc", "1/0", "1e400"]),
        "--z-threshold": st.sampled_from(["4", "0.5", "nan", "inf", "1e400"]),
        "--format": st.sampled_from(["json", "csv"]),
    }
    argv = [command]
    for flag, values in flags.items():
        if (flag in ("--n", "--reps") and not sized) or draw(st.booleans()):
            argv += [flag, str(draw(values))]
    if draw(st.booleans()):
        argv.append("--paper-formula")
    return argv


@st.composite
def _law_documents(draw):
    """A law or profile document: sound, with alpha other than 1, a short
    kmax or one field replaced by any JSON value, or any JSON value at all."""
    profile = light_profile(kmax=draw(st.integers(2, 8)))
    docs = {
        "profile": profile_to_dict(replace(profile, alpha=draw(st.sampled_from([1, 2, -1])))),
        "pair_law": law_to_dict(design_correlated_sign_law(Fraction(1, 2))),
        "scalar_law": law_to_dict(sign_scalar_law()),
    }
    key = draw(st.sampled_from(["profile", "profile", "pair_law", "scalar_law"]))
    doc = docs[key]
    if draw(st.integers(0, 3)) == 0:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JSON_VALUES)
    return draw(_mostly(st.just({key: doc}), _JSON_VALUES))


def _assert_runs_or_usage_error(argv, config=None, law=None):
    """Run the CLI on argv, its @CONFIG and @PROFILE standing for files that
    hold these documents: it runs, or is a usage error of one line."""
    with tempfile.TemporaryDirectory() as root:
        files = {"@CONFIG": Path(root) / "config.json", "@PROFILE": Path(root) / "law.json"}
        files["@CONFIG"].write_text(json.dumps(config))
        files["@PROFILE"].write_text(json.dumps(law))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(files.get(arg, arg)) for arg in argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@given(st.data())
@settings(derandomize=True, deadline=None, max_examples=150)
def test_fuzzed_flags_and_config_exit_cleanly(data):
    command = data.draw(st.sampled_from(GRID_COMMANDS))
    config = data.draw(st.none() | _CONFIG_OBJECTS | _JSON_VALUES)
    sized = isinstance(config, dict) and {"n", "reps"} <= set(config)
    argv = data.draw(_argv(command, sized=sized))
    if config is not None:
        argv += ["--config", "@CONFIG"]
    _assert_runs_or_usage_error(argv, config=config)


@given(st.data())
@settings(derandomize=True, deadline=None, max_examples=150)
def test_fuzzed_law_and_profile_documents_exit_cleanly(data):
    command = data.draw(st.sampled_from(GRID_COMMANDS[:-1]))  # weaver reads no law
    argv = data.draw(_argv(command, sized=False)) + ["--profile", "@PROFILE"]
    _assert_runs_or_usage_error(argv, law=data.draw(_law_documents()))
