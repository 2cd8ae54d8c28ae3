"""Command-line entry point tying profiles, ensembles, predictions, oracle,
and Monte Carlo into reproducible experiment runs.

Subcommands:

  limits      print the limiting trace-moment table of a model
  covariance  print the limiting fluctuation covariance kernel
  simulate    run a seeded Monte Carlo experiment and dump its statistics
  verify      predictions + oracle + simulation, with pass/fail rows
  oracle      exact finite-N values, exportable as a JSON table
  weaver      demonstrate the centrosymmetric orthogonal reduction

Configuration may come from a single JSON document (--config); explicit
flags override file fields, and every run embeds its fully resolved
configuration in the output for provenance.  Exit status: 0 on success,
1 if any verify row fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

import numpy as np

from . import __version__
from .ensembles import (
    EnsembleSpec,
    GaussianLaw,
    sample,
    weaver_reduce,
)
from .estimator import (
    KMAX_TRACE_POWERS,
    compare_report,
    rows_to_csv,
    run_experiment,
)
from .limits import (
    KMAX_COV,
    KMAX_TRACE,
    circulant_limit_moment,
    covariance_trace,
    limit_trace_moment,
)
from .oracle import EXACT_MODELS, MAX_K_FLUCT, MAX_K_MEAN, MAX_N_POLY, exact_table
from .profiles import (
    MODELS,
    PAIR_MODELS,
    MomentProfile,
    SparsePairLaw,
    SparseScalarLaw,
    design_correlated_sign_law,
    law_from_dict,
    light_profile,
    profile_from_dict,
    profile_of_scalar_law,
    profile_of_sparse_law,
    sign_scalar_law,
    validate_profile,
)

SCHEMA_VERSION = 1

_ENSEMBLE_KIND = {
    "elliptic": "elliptic",
    "iid": "iid",
    "block": "block2",
    "centrosymmetric": "centrosymmetric",
    "circulant": "circulant",
}
_FORMATS = ("json", "csv")


class UsageError(Exception):
    pass


# the JSON types each config field takes (a bool is not an int), and how an
# error names them
_FIELD_TYPES = {
    "command": ((str,), "a string"),
    "model": ((str,), "a string"),
    "n": ((list, tuple), "a list of integers"),
    "kmax": ((int,), "an integer"),
    "reps": ((int,), "an integer"),
    "seed": ((int,), "an integer"),
    "rho": ((str, int, float), "a string or a number"),
    "profile": ((str,), "a string"),
    "z_threshold": ((int, float), "a number"),
    "paper_formula": ((bool,), "true or false"),
    "fmt": ((str,), "a string"),
    "out": ((str, type(None)), "a string or null"),
}


@dataclass
class ExperimentConfig:
    """Fully resolved run configuration; embedded in every report."""

    command: str
    model: str = "elliptic"
    n: tuple[int, ...] = (100,)
    kmax: int = 4
    reps: int = 200
    seed: int = 1
    rho: str = "1/2"
    profile: str = "sign"  # "sign" | "light" | path to a law/profile JSON
    z_threshold: float = 4.0
    paper_formula: bool = False
    fmt: str = "json"  # "json" | "csv"
    out: Optional[str] = None

    def as_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["n"] = list(self.n)
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        """Build a config from a document of field values, checking each
        field's type; raises UsageError for the first that does not fit."""
        doc = dict(doc)
        for name, value in doc.items():
            if name not in _FIELD_TYPES:
                continue  # ExperimentConfig(**doc) rejects it
            kinds, wanted = _FIELD_TYPES[name]
            if type(value) not in kinds or (name == "n" and any(type(x) is not int for x in value)):
                raise UsageError(f"config field {name!r} must be {wanted}, got {value!r}")
        if doc.get("fmt", "json") not in _FORMATS:
            raise UsageError(f"config field 'fmt' must be one of {_FORMATS}, got {doc['fmt']!r}")
        if "n" in doc:
            doc["n"] = tuple(doc["n"])
        return ExperimentConfig(**doc)


def _resolve_setup(cfg: ExperimentConfig):
    """Return (law or None, prediction profile) for the configured model."""
    kmax_profile = max(8, 2 * min(cfg.kmax, 6))
    if cfg.profile == "sign":
        if cfg.model in PAIR_MODELS:
            law = design_correlated_sign_law(Fraction(cfg.rho))
            return law, profile_of_sparse_law(law, kmax=kmax_profile)
        law = sign_scalar_law()
        return law, profile_of_scalar_law(law, kmax=kmax_profile)
    if cfg.profile == "light":
        if cfg.model in PAIR_MODELS:
            raise UsageError(f"the light profile has no dependent-pair law for model {cfg.model}")
        return GaussianLaw(), light_profile(kmax=kmax_profile)
    try:
        with open(cfg.profile) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read profile file {cfg.profile!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"profile file {cfg.profile!r}: invalid JSON at line {exc.lineno} column {exc.colno}"
        ) from exc
    readers = (
        ("pair_law", partial(law_from_dict, SparsePairLaw), profile_of_sparse_law),
        ("scalar_law", partial(law_from_dict, SparseScalarLaw), profile_of_scalar_law),
        ("profile", profile_from_dict, None),
    )
    for key, read, constants in readers:
        if key not in doc:
            continue
        try:
            value = read(doc[key])
        except KeyError as exc:
            raise UsageError(f"profile file {cfg.profile!r}: {key} lacks field {exc}") from exc
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"profile file {cfg.profile!r}: malformed {key}: {exc}") from exc
        if constants is None:
            return None, value
        return value, constants(value, kmax=kmax_profile)
    raise UsageError(
        f"profile file {cfg.profile!r} must contain 'pair_law', 'scalar_law', or 'profile'"
    )


def _validated_profile(cfg: ExperimentConfig, profile: MomentProfile) -> MomentProfile:
    violations = validate_profile(profile, cfg.model)
    if violations:
        raise UsageError(
            f"profile invalid for model {cfg.model}: " + "; ".join(str(v) for v in violations)
        )
    return profile


def _limit_mean(cfg: ExperimentConfig, profile: MomentProfile, k: int) -> Fraction:
    """Limit of the model's trace mean: of Tr(C^k) for circulant, where
    --paper-formula picks the uncorrected display, of Tr(A^k)/N otherwise."""
    if cfg.model == "circulant":
        return circulant_limit_moment(k, profile, paper_formula=cfg.paper_formula)
    return limit_trace_moment(cfg.model, k, profile)


def _cmd_limits(cfg: ExperimentConfig) -> tuple[int, dict]:
    _law, profile = _resolve_setup(cfg)
    _validated_profile(cfg, profile)
    values = [
        {"k": k, "value": _limit_mean(cfg, profile, k)} for k in range(1, cfg.kmax + 1)
    ]
    return 0, {"values": values}


def _cmd_covariance(cfg: ExperimentConfig) -> tuple[int, dict]:
    _law, profile = _resolve_setup(cfg)
    _validated_profile(cfg, profile)
    values = []
    for k in range(1, cfg.kmax + 1):
        for l in range(k, cfg.kmax + 1):
            val = covariance_trace(k, l, cfg.model, profile)
            values.append({"k": k, "l": l, "value": val})
    return 0, {"values": values}


def _usage_checked(build, *args):
    """build(*args), whose ValueError (a law the sampler or oracle does not
    take, a size past the dense limit) is a usage error."""
    try:
        return build(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _make_spec(cfg: ExperimentConfig, law) -> EnsembleSpec:
    if law is None:
        raise UsageError("this command needs an entry law, not just a profile")
    return _usage_checked(EnsembleSpec, _ENSEMBLE_KIND[cfg.model], cfg.n[0], law, cfg.seed)


def _cmd_simulate(cfg: ExperimentConfig) -> tuple[int, dict]:
    law, _profile = _resolve_setup(cfg)
    spec = _make_spec(cfg, law)
    stats = run_experiment(spec, cfg.kmax, cfg.reps)
    doc = {
        "means": [
            {"k": k + 1, "empirical": stats.mean_traces[k], "stderr": stats.se_mean[k]}
            for k in range(cfg.kmax)
        ],
        "covariances": [
            {
                "k": k + 1,
                "l": l + 1,
                "empirical": stats.cov_z[k, l],
                "stderr": stats.se_cov[k, l],
            }
            for k in range(cfg.kmax)
            for l in range(k, cfg.kmax)
        ],
    }
    return 0, doc


def _verify_targets(cfg: ExperimentConfig, law, profile: MomentProfile):
    """(mean and covariance predictions, oracle values) for verify."""
    n = cfg.n[0]
    # the estimator reports Tr(C^k)/N, so circulant means scale down by N
    scale = n if cfg.model == "circulant" else 1
    kcov = min(cfg.kmax, MAX_K_FLUCT)
    predictions = [(k, None, _limit_mean(cfg, profile, k) / scale) for k in range(1, cfg.kmax + 1)]
    predictions += [
        (k, l, covariance_trace(k, l, cfg.model, profile))
        for k in range(1, kcov + 1)
        for l in range(k, kcov + 1)
    ]
    if n > MAX_N_POLY or cfg.model not in EXACT_MODELS:
        return predictions, {}  # the oracle column stays empty
    table = _usage_checked(exact_table, cfg.model, law, (n,), cfg.kmax)[n]
    return predictions, {(k, l): v / scale if l is None else v for (k, l), v in table.items()}


def _cmd_verify(cfg: ExperimentConfig) -> tuple[int, dict]:
    law, profile = _resolve_setup(cfg)
    _validated_profile(cfg, profile)
    spec = _make_spec(cfg, law)
    predictions, oracle_values = _verify_targets(cfg, law, profile)
    stats = run_experiment(spec, cfg.kmax, cfg.reps)
    rows = compare_report(stats, predictions, oracle_values, z_threshold=cfg.z_threshold)
    passed = all(row.passed for row in rows)
    return (0 if passed else 1), {"rows": [row.as_record() for row in rows], "all_passed": passed}


def _cmd_oracle(cfg: ExperimentConfig) -> tuple[int, dict]:
    law, _profile = _resolve_setup(cfg)
    if law is None:
        raise UsageError("oracle runs need an entry law")
    tables = _usage_checked(exact_table, cfg.model, law, cfg.n, cfg.kmax)
    values = []
    for n in cfg.n:
        for (k, l), val in tables[n].items():
            row = {"model": cfg.model, "N": n, "k": k}
            if l is not None:
                row["l"] = l
            row["value"] = val
            values.append(row)
    provenance = {"package": "explodingmoments", "version": __version__}
    return 0, {"provenance": provenance, "values": values}


def _cmd_weaver(cfg: ExperimentConfig) -> tuple[int, dict]:
    n = cfg.n[0]
    spec = _usage_checked(EnsembleSpec, "centrosymmetric", n, GaussianLaw(), cfg.seed)
    m = sample(spec).dense()
    red = weaver_reduce(m)
    reduced = red.reduced()
    q = red.q_matrix
    resid_orth = float(np.abs(q.T @ q - np.eye(n)).max())
    transformed = q.T @ m @ q
    resid_block = float(np.abs(transformed - reduced).max())
    coeff_full = np.poly(m)
    # the first diagonal block holds A + JC and, at odd n, the center row and column
    t = n - red.block_minus.shape[0]
    eigs = list(np.linalg.eigvals(reduced[:t, :t])) + list(np.linalg.eigvals(reduced[t:, t:]))
    coeff_blocks = np.poly(np.array(eigs))
    scale = np.maximum(np.abs(coeff_full), 1e-3)
    resid_charpoly = float(np.abs(np.real(coeff_blocks) - coeff_full).max() / scale.max())
    ok = resid_orth < 1e-10 and resid_block < 1e-10 and resid_charpoly < 1e-6
    doc = {
        "orthogonality_residual": resid_orth,
        "block_residual": resid_block,
        "charpoly_residual": resid_charpoly,
        "ok": ok,
    }
    return (0 if ok else 1), doc


# the largest --kmax each command evaluates
_KMAX_CAP = {
    "limits": KMAX_TRACE,
    "covariance": KMAX_COV,
    "oracle": MAX_K_MEAN,
    "simulate": KMAX_TRACE_POWERS,
    "verify": KMAX_TRACE_POWERS,
}
_MONTE_CARLO = ("simulate", "verify")
# commands that read --n, and the offset of the first seed each hands numpy
_READS_N = ("simulate", "verify", "oracle", "weaver")
_FIRST_SEED = {"simulate": 1, "verify": 1, "weaver": 0}

# each returns (exit status, report fields); dispatch heads them with the
# schema, command and config
_COMMANDS = {
    "limits": _cmd_limits,
    "covariance": _cmd_covariance,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "weaver": _cmd_weaver,
}


def dispatch(cfg: ExperimentConfig) -> tuple[int, dict]:
    """Run one configured command; returns (exit status, report document)."""
    if cfg.command not in _COMMANDS:
        raise UsageError(f"unknown command {cfg.command!r}")
    if cfg.model not in MODELS:
        raise UsageError(f"unknown model {cfg.model!r}")
    cap = _KMAX_CAP.get(cfg.command)
    if cap is not None and cfg.kmax > cap:
        raise UsageError(f"{cfg.command} supports --kmax up to {cap}, got {cfg.kmax}")
    if cfg.command in _MONTE_CARLO and cfg.reps < 2:
        raise UsageError(f"{cfg.command} needs --reps of at least 2, got {cfg.reps}")
    if cfg.command in _READS_N and min(cfg.n, default=0) < 1:
        raise UsageError(f"{cfg.command} needs --n of at least 1, got {min(cfg.n, default=0)}")
    offset = _FIRST_SEED.get(cfg.command)
    if offset is not None and cfg.seed + offset < 0:
        raise UsageError(f"{cfg.command} needs --seed of at least {-offset}, got {cfg.seed}")
    if cfg.command != "weaver" and cfg.profile == "sign" and cfg.model in PAIR_MODELS:
        try:
            rho = Fraction(cfg.rho)
        except (TypeError, ValueError, ZeroDivisionError):
            rho = None
        if rho is None or not -1 <= rho <= 1:
            raise UsageError(f"--rho must be a rational in [-1, 1], got {cfg.rho!r}")
    if cfg.command == "verify" and not math.isfinite(cfg.z_threshold):
        raise UsageError(f"verify needs a finite --z-threshold, got {cfg.z_threshold}")
    code, fields = _COMMANDS[cfg.command](cfg)
    head = {"schema": SCHEMA_VERSION, "command": cfg.command, "config": cfg.as_dict()}
    return code, {**head, **fields}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="explodingmoments",
        description="trace-moment limits and Monte Carlo verification for "
        "exploding-moment random matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--model", choices=MODELS)
        p.add_argument("--n", type=int, action="append", help="matrix size (repeatable for oracle)")
        p.add_argument("--kmax", type=int)
        p.add_argument("--reps", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--rho", help="pair correlation for the sign law, e.g. 1/2")
        p.add_argument("--profile", help="sign | light | path to a law/profile JSON")
        p.add_argument("--z-threshold", type=float, dest="z_threshold")
        p.add_argument("--paper-formula", action="store_true", default=None,
                       help="use the uncorrected circulant moment display")
        p.add_argument("--format", choices=_FORMATS, dest="fmt")
        p.add_argument("--out", help="write the report document to this path")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    base: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                base = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config {args.config!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(
                f"config {args.config!r}: invalid JSON at line {exc.lineno} column {exc.colno}"
            ) from exc
        unknown = set(base) - {f.name for f in dataclasses.fields(ExperimentConfig)}
        if unknown:
            raise UsageError(f"config {args.config!r} has unknown fields: {sorted(unknown)}")
    base["command"] = args.command
    for name in ("model", "kmax", "reps", "seed", "rho", "profile", "z_threshold", "fmt", "out"):
        value = getattr(args, name)
        if value is not None:
            base[name] = value
    if args.n:
        base["n"] = tuple(args.n)
    if args.paper_formula is not None:
        base["paper_formula"] = args.paper_formula
    return ExperimentConfig.from_dict(base)


def _emit(doc: dict, cfg: ExperimentConfig):
    if cfg.fmt == "csv" and "rows" in doc:
        text = rows_to_csv(doc["rows"])
    else:
        text = json.dumps(doc, indent=2, default=_json_default) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _json_default(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"not JSON serializable: {type(x)}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        code, doc = dispatch(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(doc, cfg)
    return code


if __name__ == "__main__":
    sys.exit(main())
