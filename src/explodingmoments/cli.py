"""Command-line entry point tying profiles, ensembles, predictions, oracle,
and Monte Carlo into reproducible experiment runs.

Commands, all taking one set of options, before or after the command:

  limits      print the limiting trace-moment table of a model
  covariance  print the limiting fluctuation covariance kernel
  simulate    run a seeded Monte Carlo experiment and dump its statistics
  verify      predictions + oracle + simulation, with pass/fail rows
  oracle      exact finite-N values, exportable as a JSON table
  weaver      demonstrate the centrosymmetric orthogonal reduction

Configuration may come from a single JSON document (--config); explicit
flags override file fields, and every run embeds its fully resolved
configuration in the output for provenance.  Each input is checked once: the
config checks its own fields, ``_resolve_law`` reads the law or profile
file, and ``dispatch`` maps the library's input errors in setup and exact
work, not in sampling, to usage errors.  Exit status: 0 on success, 1 if any
verify row fails, 2 on usage errors (one ``explodingmoments: error:`` line).
Every ``predicted`` cell comes from ``limits.predicted``.

Only the commands that sample (simulate, verify, weaver) import the
sampling modules, and with them numpy; limits, covariance and oracle run on
the exact layers alone, which import neither numpy nor ``dataclasses``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from . import __version__
from .limits import KMAX_COV, KMAX_TRACE, at_size, predicted
from .oracle import EXACT_MODELS, MAX_K_FLUCT, MAX_K_MEAN, MAX_N_POLY, exact_table
from .profiles import (
    KMAX_TRACE_POWERS,
    MODELS,
    PAIR_MODELS,
    DocumentError,
    GaussianLaw,
    MomentProfile,
    MomentTableError,
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

if TYPE_CHECKING:
    from .ensembles import EnsembleSpec

SCHEMA_VERSION = 1

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


class _ConfigFields(NamedTuple):
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


class ExperimentConfig(_ConfigFields):
    """Fully resolved run configuration; embedded in every report.  However
    it is built, it raises UsageError for the first field its command cannot run."""

    __slots__ = ()

    def __new__(cls, *args, **fields):
        self = super().__new__(cls, *args, **fields)
        for name, (kinds, wanted) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if type(value) not in kinds or (name == "n" and any(type(x) is not int for x in value)):
                raise UsageError(f"config field {name!r} must be {wanted}, got {value!r}")
        self = self._replace(n=tuple(self.n))
        if self.fmt not in _FORMATS:
            raise UsageError(f"config field 'fmt' must be one of {_FORMATS}, got {self.fmt!r}")
        if self.command not in _COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.fmt == "csv" and self.command != "verify":
            raise UsageError("--format csv applies only to verify")
        if self.model not in MODELS:
            raise UsageError(f"unknown model {self.model!r}")
        cmd, row = self.command, _COMMANDS[self.command]
        if row.kmax_cap is not None and self.kmax < 1:
            raise UsageError(f"{cmd} needs --kmax of at least 1, got {self.kmax}")
        if row.kmax_cap is not None and self.kmax > row.kmax_cap:
            raise UsageError(f"{cmd} supports --kmax up to {row.kmax_cap}, got {self.kmax}")
        if row.needs_reps and self.reps < 2:
            raise UsageError(f"{cmd} needs --reps of at least 2, got {self.reps}")
        if row.reads_n and min(self.n, default=0) < 1:
            raise UsageError(f"{cmd} needs --n of at least 1, got {min(self.n, default=0)}")
        if row.draw and len(self.n) > 1:
            raise UsageError(f"{cmd} takes one --n, got {list(self.n)}")
        if row.reads_n and len(set(self.n)) < len(self.n):
            raise UsageError(f"{cmd} takes each --n once, got {list(self.n)}")
        if row.first_seed is not None and self.seed + row.first_seed < 0:
            raise UsageError(f"{cmd} needs --seed of at least {-row.first_seed}, got {self.seed}")
        # --rho and --z-threshold are checked even where the command, model or
        # profile ignores them: reports record them
        try:
            rho = Fraction(self.rho)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            rho = None  # OverflowError: an infinite float
        if rho is None or not -1 <= rho <= 1:
            raise UsageError(f"--rho must be a rational in [-1, 1], got {self.rho!r}")
        # nan, the infinities and integers past the float range all fail this
        if not abs(self.z_threshold) <= sys.float_info.max:
            raise UsageError(f"{cmd} needs a finite --z-threshold, got {self.z_threshold}")
        if self.z_threshold <= 0:
            raise UsageError(f"{cmd} needs a positive --z-threshold, got {self.z_threshold}")
        return self

    def as_dict(self) -> dict:
        return {**self._asdict(), "n": list(self.n)}

    @staticmethod
    def from_dict(doc, **overrides) -> "ExperimentConfig":
        """The config of a JSON object's fields, ``overrides`` replacing those
        it also names; another document or an unknown field is a UsageError."""
        if not isinstance(doc, dict):
            raise UsageError(f"config must be a JSON object, got {type(doc).__name__}")
        fields = {**doc, **overrides}
        unknown = set(fields) - set(_FIELD_TYPES)
        if unknown:
            raise UsageError(f"config has unknown fields: {sorted(unknown)}")
        return ExperimentConfig(**fields)


def _read_json(what: str, path: str):
    """The JSON document at ``path``; ``what`` names the file in a usage error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{what} {path!r}: invalid JSON at line {exc.lineno} column {exc.colno}"
        ) from exc
    except ValueError as exc:  # bytes that are not UTF-8, an integer past the digit limit
        raise UsageError(f"{what} {path!r}: {exc}") from exc


def _resolve_law(cfg: ExperimentConfig):
    """Return (law or None, constants) for the configured model, where
    ``constants(kmax=...)`` builds the prediction profile; a profile
    document has no law, so a command reading --n rejects it."""
    if cfg.profile == "sign":
        if cfg.model in PAIR_MODELS:
            law = design_correlated_sign_law(Fraction(cfg.rho))
            return law, partial(profile_of_sparse_law, law)
        law = sign_scalar_law()
        return law, partial(profile_of_scalar_law, law)
    if cfg.profile == "light":
        if cfg.model in PAIR_MODELS:
            raise UsageError(f"the light profile has no dependent-pair law for model {cfg.model}")
        return GaussianLaw(), light_profile
    doc = _read_json("profile file", cfg.profile)
    readers = (
        ("pair_law", partial(law_from_dict, SparsePairLaw), profile_of_sparse_law),
        ("scalar_law", partial(law_from_dict, SparseScalarLaw), profile_of_scalar_law),
        ("profile", profile_from_dict, None),
    )
    for key, read, constants in readers:
        if not isinstance(doc, dict) or key not in doc:
            continue
        try:
            value = read(doc[key])
        except DocumentError as exc:
            raise UsageError(f"profile file {cfg.profile!r}: {exc}") from exc
        if constants is not None:
            return value, partial(constants, value)
        if _COMMANDS[cfg.command].reads_n:
            raise UsageError(f"{cfg.command} needs an entry law, not just a profile")
        return None, lambda kmax: value
    raise UsageError(
        f"profile file {cfg.profile!r} must contain 'pair_law', 'scalar_law', or 'profile'"
    )


def _resolve_setup(cfg: ExperimentConfig):
    """Return (law or None, prediction profile) for the configured model."""
    law, constants = _resolve_law(cfg)
    return law, constants(kmax=max(8, 2 * min(cfg.kmax, 6)))


def _predictions(cfg: ExperimentConfig, profile: MomentProfile, kmean: int, kcov: int,
                 n: Optional[int] = None) -> list:
    """The (k, l, predicted) cells, means (l None) to kmean, then covariances
    to kcov, at size ``n``, once the profile passes the model's table checks."""
    violations = validate_profile(profile, cfg.model)
    if violations:
        raise UsageError(
            f"profile invalid for model {cfg.model}: " + "; ".join(str(v) for v in violations)
        )
    cells = [(k, None) for k in range(1, kmean + 1)]
    cells += [(k, l) for k in range(1, kcov + 1) for l in range(k, kcov + 1)]
    return [(k, l, predicted(cfg.model, profile, k, l, n, cfg.paper_formula)) for k, l in cells]


def _cmd_limits(cfg: ExperimentConfig) -> dict:
    _law, profile = _resolve_setup(cfg)
    values = _predictions(cfg, profile, cfg.kmax, 0)
    return {"values": [{"k": k, "value": val} for k, _l, val in values]}


def _cmd_covariance(cfg: ExperimentConfig) -> dict:
    _law, profile = _resolve_setup(cfg)
    values = _predictions(cfg, profile, 0, cfg.kmax)
    return {"values": [{"k": k, "l": l, "value": val} for k, l, val in values]}


def _sampling_setup(cfg: ExperimentConfig) -> tuple[EnsembleSpec, MomentProfile]:
    from .ensembles import EnsembleSpec
    from .estimator import thread_count

    thread_count()  # a malformed thread count stops the run before it samples
    law, profile = _resolve_setup(cfg)
    return EnsembleSpec(cfg.model, cfg.n[0], law, cfg.seed), profile


def _cmd_simulate(cfg: ExperimentConfig, setup) -> tuple[int, dict]:
    from .estimator import run_experiment

    spec, _profile = setup
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
    predictions = _predictions(cfg, profile, cfg.kmax, min(cfg.kmax, MAX_K_FLUCT), n)
    if n > MAX_N_POLY or cfg.model not in EXACT_MODELS:
        return predictions, {}  # the oracle column stays empty
    table = exact_table(cfg.model, law, (n,), cfg.kmax)[n]
    return predictions, {(k, l): at_size(cfg.model, v, l, n) for (k, l), v in table.items()}


def _verify_setup(cfg: ExperimentConfig):
    spec, profile = _sampling_setup(cfg)
    return (spec, *_verify_targets(cfg, spec.law, profile))


def _cmd_verify(cfg: ExperimentConfig, setup) -> tuple[int, dict]:
    from .estimator import compare_report, run_experiment

    spec, predictions, oracle_values = setup
    stats = run_experiment(spec, cfg.kmax, cfg.reps)
    rows = compare_report(stats, predictions, oracle_values, z_threshold=cfg.z_threshold)
    passed = all(row.passed for row in rows)
    return (0 if passed else 1), {"rows": [row.as_record() for row in rows], "all_passed": passed}


def _cmd_oracle(cfg: ExperimentConfig) -> dict:
    law, _constants = _resolve_law(cfg)
    tables = exact_table(cfg.model, law, cfg.n, cfg.kmax)
    values = []
    for n in cfg.n:
        for (k, l), val in tables[n].items():
            row = {"model": cfg.model, "N": n, "k": k}
            if l is not None:
                row["l"] = l
            row["value"] = val
            values.append(row)
    provenance = {"package": "explodingmoments", "version": __version__}
    return {"provenance": provenance, "values": values}


def _weaver_setup(cfg: ExperimentConfig) -> EnsembleSpec:
    from .ensembles import EnsembleSpec

    return EnsembleSpec("centrosymmetric", cfg.n[0], GaussianLaw(), cfg.seed)


def _cmd_weaver(cfg: ExperimentConfig, spec: EnsembleSpec) -> tuple[int, dict]:
    import numpy as np

    from .ensembles import sample, weaver_reduce

    n = spec.n
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


class _Command(NamedTuple):
    """One command.  ``setup(cfg)`` reads the law and does the exact
    work, and ``dispatch`` maps the library input errors it raises to usage
    errors.  ``draw(cfg, setup's result)`` samples and returns (exit status,
    report fields); a command without one reports what its setup returned."""

    setup: Callable
    draw: Optional[Callable]
    kmax_cap: Optional[int]  # the largest --kmax it evaluates; None: it reads none
    reads_n: bool  # it works at a finite N
    needs_reps: bool  # --reps of at least 2
    first_seed: Optional[int]  # offset of the first seed it hands numpy


_COMMANDS = {
    "limits": _Command(_cmd_limits, None, KMAX_TRACE, False, False, None),
    "covariance": _Command(_cmd_covariance, None, KMAX_COV, False, False, None),
    "simulate": _Command(_sampling_setup, _cmd_simulate, KMAX_TRACE_POWERS, True, True, 1),
    "verify": _Command(_verify_setup, _cmd_verify, KMAX_TRACE_POWERS, True, True, 1),
    "oracle": _Command(_cmd_oracle, None, MAX_K_MEAN, True, False, None),
    "weaver": _Command(_weaver_setup, _cmd_weaver, None, True, False, 0),
}


def dispatch(cfg: ExperimentConfig) -> tuple[int, dict]:
    """Run one configured command; returns (exit status, report document)."""
    command = _COMMANDS[cfg.command]
    try:
        made = command.setup(cfg)
    except (ValueError, MomentTableError) as exc:
        # a law, profile or size the sampler, oracle or limit formula does not take
        raise UsageError(str(exc)) from exc
    code, fields = command.draw(cfg, made) if command.draw else (0, made)
    head = {"schema": SCHEMA_VERSION, "command": cfg.command, "config": cfg.as_dict()}
    return code, {**head, **fields}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error in one line, without the usage block."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    # one parser with the command as a positional: subparsers would build one
    # parser per command, each add_argument of each reading the terminal size
    parser = _Parser(
        prog="explodingmoments",
        description="trace-moment limits and Monte Carlo verification for "
        "exploding-moment random matrices",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--model", choices=MODELS)
    parser.add_argument("--n", type=int, action="append",
                        help="matrix size (repeatable for oracle)")
    parser.add_argument("--kmax", type=int)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--rho", help="pair correlation for the sign law, e.g. 1/2")
    parser.add_argument("--profile", help="sign | light | path to a law/profile JSON")
    parser.add_argument("--z-threshold", type=float, dest="z_threshold")
    parser.add_argument("--paper-formula", action="store_true", default=None,
                        help="use the uncorrected circulant moment display")
    parser.add_argument("--format", choices=_FORMATS, dest="fmt")
    parser.add_argument("--out", help="write the report document to this path")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    doc = _read_json("config", args.config) if args.config else {}
    flags = {name: value for name in _FIELD_TYPES if (value := getattr(args, name)) is not None}
    return ExperimentConfig.from_dict(doc, **flags)


def _emit(doc: dict, cfg: ExperimentConfig):
    if cfg.fmt == "csv":
        from .estimator import rows_to_csv

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
    raise TypeError(f"not JSON serializable: {type(x)}")


def main(argv: Optional[list[str]] = None) -> int:
    args = (parser := _build_parser()).parse_args(argv)
    try:
        cfg = _config_from_args(args)
        # checked, not opened, before the run: no sampling is lost, no empty file left
        folder = os.path.dirname(cfg.out or "") or "."
        if cfg.out and (os.path.isdir(cfg.out) or not os.path.isdir(folder)
                        or not os.access(folder, os.W_OK)):
            raise UsageError(f"--out {cfg.out!r} is not a file in a writable directory")
        code, doc = dispatch(cfg)
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    _emit(doc, cfg)
    return code


if __name__ == "__main__":
    sys.exit(main())
