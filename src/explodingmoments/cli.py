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
import sys
from dataclasses import dataclass
from fractions import Fraction
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
    ReportRow,
    compare_report,
    rows_to_csv,
    run_experiment,
)
from .limits import (
    KMAX_COV,
    KMAX_TRACE,
    circulant_covariance,
    circulant_limit_moment,
    covariance_trace,
    limit_trace_moment,
)
from .oracle import (
    MAX_K_CIRC,
    MAX_K_FLUCT,
    MAX_K_MEAN,
    MAX_N_CIRC,
    MAX_N_FLUCT,
    exact_circulant_trace_mean,
    exact_fluct_covariance_small,
    exact_trace_mean,
)
from .profiles import (
    MomentProfile,
    design_correlated_sign_law,
    light_profile,
    pair_law_from_dict,
    profile_from_dict,
    profile_of_scalar_law,
    profile_of_sparse_law,
    scalar_law_from_dict,
    sign_scalar_law,
    validate_profile,
)

SCHEMA_VERSION = 1

MODELS = ("elliptic", "iid", "block", "centrosymmetric", "circulant")
_ENSEMBLE_KIND = {
    "elliptic": "elliptic",
    "iid": "iid",
    "block": "block2",
    "centrosymmetric": "centrosymmetric",
    "circulant": "circulant",
}
_PAIR_LAW_MODELS = ("elliptic", "block")


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
        doc = dict(doc)
        if "n" in doc:
            doc["n"] = tuple(int(x) for x in doc["n"])
        return ExperimentConfig(**doc)


class UsageError(Exception):
    pass


def _resolve_setup(cfg: ExperimentConfig):
    """Return (law or None, prediction profile) for the configured model."""
    kmax_profile = max(8, 2 * min(cfg.kmax, 6))
    if cfg.profile == "sign":
        if cfg.model in _PAIR_LAW_MODELS:
            law = design_correlated_sign_law(Fraction(cfg.rho))
            return law, profile_of_sparse_law(law, kmax=kmax_profile)
        law = sign_scalar_law()
        return law, profile_of_scalar_law(law, kmax=kmax_profile)
    if cfg.profile == "light":
        if cfg.model in _PAIR_LAW_MODELS:
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
    if "pair_law" in doc:
        law = pair_law_from_dict(doc["pair_law"])
        return law, profile_of_sparse_law(law, kmax=kmax_profile)
    if "scalar_law" in doc:
        law = scalar_law_from_dict(doc["scalar_law"])
        return law, profile_of_scalar_law(law, kmax=kmax_profile)
    if "profile" in doc:
        return None, profile_from_dict(doc["profile"])
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


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _cmd_limits(cfg: ExperimentConfig) -> tuple[int, dict]:
    _law, profile = _resolve_setup(cfg)
    _validated_profile(cfg, profile)
    values = []
    for k in range(1, cfg.kmax + 1):
        if cfg.model == "circulant":
            val = circulant_limit_moment(k, profile, paper_formula=cfg.paper_formula)
        else:
            val = limit_trace_moment(cfg.model, k, profile)
        values.append({"k": k, "value": _frac_str(val)})
    doc = {"schema": SCHEMA_VERSION, "command": "limits", "config": cfg.as_dict(), "values": values}
    return 0, doc


def _cmd_covariance(cfg: ExperimentConfig) -> tuple[int, dict]:
    _law, profile = _resolve_setup(cfg)
    _validated_profile(cfg, profile)
    values = []
    for k in range(1, cfg.kmax + 1):
        for l in range(k, cfg.kmax + 1):
            val = covariance_trace(k, l, cfg.model, profile)
            values.append({"k": k, "l": l, "value": _frac_str(val)})
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "covariance",
        "config": cfg.as_dict(),
        "values": values,
    }
    return 0, doc


def _make_spec(cfg: ExperimentConfig, law) -> EnsembleSpec:
    if law is None:
        raise UsageError("this command needs an entry law, not just a profile")
    n = cfg.n[0]
    kind = _ENSEMBLE_KIND[cfg.model]
    return EnsembleSpec(kind=kind, n=n, law=law, seed=cfg.seed)


def _cmd_simulate(cfg: ExperimentConfig) -> tuple[int, dict]:
    law, _profile = _resolve_setup(cfg)
    spec = _make_spec(cfg, law)
    stats = run_experiment(spec, cfg.kmax, cfg.reps)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "simulate",
        "config": cfg.as_dict(),
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
    """(mean predictions, covariance predictions, oracle values) for verify."""
    n = cfg.n[0]
    predictions = []
    oracle_values = {}
    for k in range(1, cfg.kmax + 1):
        if cfg.model == "circulant":
            # the estimator reports Tr(C^k)/N; scale the Tr(C^k) limit down
            pred = circulant_limit_moment(k, profile, paper_formula=cfg.paper_formula) / n
            if n <= MAX_N_CIRC and k <= MAX_K_CIRC:
                oracle_values[(k, None)] = exact_circulant_trace_mean(law, n, k) / n
        else:
            pred = limit_trace_moment(cfg.model, k, profile)
            if cfg.model in ("elliptic", "iid") and k <= MAX_K_MEAN:
                oracle_values[(k, None)] = exact_trace_mean(cfg.model, law, n, k)
        predictions.append((k, None, pred))
    kcov = min(cfg.kmax, 3)
    for k in range(1, kcov + 1):
        for l in range(k, kcov + 1):
            if cfg.model == "circulant":
                pred = circulant_covariance(k, l)
            else:
                pred = covariance_trace(k, l, cfg.model, profile)
            if n <= MAX_N_FLUCT and cfg.model in ("elliptic", "iid", "circulant"):
                oracle_values[(k, l)] = exact_fluct_covariance_small(cfg.model, law, n, k, l)
            predictions.append((k, l, pred))
    return predictions, oracle_values


def _cmd_verify(cfg: ExperimentConfig) -> tuple[int, dict]:
    law, profile = _resolve_setup(cfg)
    _validated_profile(cfg, profile)
    spec = _make_spec(cfg, law)
    stats = run_experiment(spec, cfg.kmax, cfg.reps)
    predictions, oracle_values = _verify_targets(cfg, law, profile)
    rows = compare_report(stats, predictions, oracle_values, z_threshold=cfg.z_threshold)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "config": cfg.as_dict(),
        "rows": [row.as_record() for row in rows],
        "all_passed": all(row.passed for row in rows),
    }
    return (0 if doc["all_passed"] else 1), doc


def _cmd_oracle(cfg: ExperimentConfig) -> tuple[int, dict]:
    law, _profile = _resolve_setup(cfg)
    if law is None:
        raise UsageError("oracle runs need an entry law")
    values = []
    for n in cfg.n:
        for k in range(1, cfg.kmax + 1):
            if cfg.model == "circulant":
                if n > MAX_N_CIRC:
                    raise UsageError(f"circulant oracle needs N <= {MAX_N_CIRC}, got {n}")
                val = exact_circulant_trace_mean(law, n, k)
            elif cfg.model in ("elliptic", "iid"):
                val = exact_trace_mean(cfg.model, law, n, k)
            else:
                raise UsageError(f"no exact oracle for model {cfg.model}")
            values.append({"model": cfg.model, "N": n, "k": k, "value": _frac_str(val)})
        if n <= MAX_N_FLUCT and cfg.model in ("elliptic", "iid", "circulant"):
            for k in range(1, min(cfg.kmax, MAX_K_FLUCT) + 1):
                for l in range(k, min(cfg.kmax, MAX_K_FLUCT) + 1):
                    val = exact_fluct_covariance_small(cfg.model, law, n, k, l)
                    values.append(
                        {"model": cfg.model, "N": n, "k": k, "l": l, "value": _frac_str(val)}
                    )
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "oracle",
        "config": cfg.as_dict(),
        "provenance": {"package": "explodingmoments", "version": __version__},
        "values": values,
    }
    return 0, doc


def _cmd_weaver(cfg: ExperimentConfig) -> tuple[int, dict]:
    n = cfg.n[0]
    spec = EnsembleSpec(kind="centrosymmetric", n=n, law=GaussianLaw(), seed=cfg.seed)
    m = sample(spec).dense()
    red = weaver_reduce(m)
    q = red.q_matrix
    resid_orth = float(np.abs(q.T @ q - np.eye(n)).max())
    transformed = q.T @ m @ q
    resid_block = float(np.abs(transformed - red.reduced()).max())
    coeff_full = np.poly(m)
    eigs = list(np.linalg.eigvals(red.block_plus)) + list(np.linalg.eigvals(red.block_minus))
    if red.center is not None:
        cx, cy, cq = red.center
        s = red.block_plus.shape[0]
        arrow = np.zeros((s + 1, s + 1))
        arrow[:s, :s] = red.block_plus
        arrow[:s, s] = cx
        arrow[s, :s] = cy
        arrow[s, s] = cq
        eigs = list(np.linalg.eigvals(arrow)) + list(np.linalg.eigvals(red.block_minus))
    coeff_blocks = np.poly(np.array(eigs))
    scale = np.maximum(np.abs(coeff_full), 1e-3)
    resid_charpoly = float(np.abs(np.real(coeff_blocks) - coeff_full).max() / scale.max())
    ok = resid_orth < 1e-10 and resid_block < 1e-10 and resid_charpoly < 1e-6
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "weaver",
        "config": cfg.as_dict(),
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
    "oracle": min(MAX_K_MEAN, MAX_K_CIRC),
    "simulate": KMAX_TRACE_POWERS,
    "verify": KMAX_TRACE_POWERS,
}
_MONTE_CARLO = ("simulate", "verify")

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
    return _COMMANDS[cfg.command](cfg)


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
        p.add_argument("--format", choices=("json", "csv"), dest="fmt")
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
    try:
        return ExperimentConfig.from_dict(base)
    except TypeError as exc:
        raise UsageError(str(exc)) from exc


def _emit(doc: dict, cfg: ExperimentConfig):
    if cfg.fmt == "csv" and "rows" in doc:
        rows = [ReportRow(
            k=r["k"], l=r["l"] if r["l"] != "" else None, predicted=r["predicted"],
            oracle=r["oracle"] or None, empirical=float(r["empirical"]),
            stderr=float(r["stderr"]),
            zscore=float(r["zscore"]) if r["zscore"] != "" else None,
            passed=r["pass"], note=r["note"],
        ) for r in doc["rows"]]
        text = rows_to_csv(rows)
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
