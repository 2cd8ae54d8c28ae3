"""Correctness check of job reports against the stored reference reports.

A reference holds each job's exit code and parsed report at one seed.  On a
stored seed every field the reference fills is compared: exact values as
equal ``Fraction``s, the Monte Carlo fields ``empirical``, ``stderr`` and
``zscore`` to a relative 1e-9, everything else (``pass`` flags, exit codes)
as equal.  Fields the reference lacks or leaves empty are not compared, and
list entries are matched by their (model, N, k, l) identity, so columns and
rows added later do not count as failures.

On any other seed, exact jobs are compared in full against the default
seed's reference; Monte Carlo jobs are checked for well-formed finite rows
whose predictions equal the reference's and whose exit code agrees with
their ``pass`` flags.
"""

from __future__ import annotations

import copy
import json
import math
import re
from fractions import Fraction
from pathlib import Path

from workloads import DEFAULT_SEED, MC_COMMANDS

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MC_FLOAT_FIELDS = ("empirical", "stderr", "zscore")
REL_TOL = 1e-9
IDENTITY_FIELDS = ("model", "N", "k", "l")
IGNORED_FIELDS = ("provenance",)  # package name and version, not a result
_FRACTION = re.compile(r"-?\d+(/\d+)?")


def reference_path(seed: int) -> Path:
    return REFERENCE_DIR / f"seed-{seed}.json"


def load_references() -> dict[int, dict]:
    """{seed: {workload: [{"argv", "exit_code", "report"}, ...]}}"""
    refs = {}
    for path in sorted(REFERENCE_DIR.glob("seed-*.json")):
        doc = json.loads(path.read_text())
        refs[doc["seed"]] = doc["workloads"]
    if DEFAULT_SEED not in refs:
        raise FileNotFoundError(f"no reference for the default seed in {REFERENCE_DIR}")
    return refs


def _identity(entry: dict) -> tuple:
    return tuple(entry.get(f) for f in IDENTITY_FIELDS)


def _float(x) -> float:
    return float(x) if isinstance(x, (str, int, float)) and not isinstance(x, bool) else math.nan


def _diff(actual, ref, path: str):
    """First difference of ``actual`` from ``ref`` as a message, or None."""
    if ref is None or ref == "":
        return None
    if isinstance(ref, dict):
        if not isinstance(actual, dict):
            return f"{path}: expected an object"
        for key, value in ref.items():
            if key in IGNORED_FIELDS:
                continue
            if key not in actual:
                return f"{path}.{key}: missing"
            found = _diff(actual[key], value, f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(ref, list):
        if not isinstance(actual, list):
            return f"{path}: expected a list"
        if ref and all(isinstance(r, dict) and any(f in r for f in IDENTITY_FIELDS) for r in ref):
            by_id = {_identity(a): a for a in actual if isinstance(a, dict)}
            pairs = [(by_id.get(_identity(r)), r) for r in ref]
        elif len(actual) != len(ref):
            return f"{path}: {len(actual)} entries, expected {len(ref)}"
        else:
            pairs = list(zip(actual, ref))
        for i, (a, r) in enumerate(pairs):
            if a is None:
                return f"{path}[{i}]: no entry {dict(zip(IDENTITY_FIELDS, _identity(r)))}"
            found = _diff(a, r, f"{path}[{i}]")
            if found:
                return found
        return None
    field = path.rsplit(".", 1)[-1]
    if field in MC_FLOAT_FIELDS:
        a, r = _float(actual), _float(ref)
        if not math.isclose(a, r, rel_tol=REL_TOL):
            return f"{path}: {actual!r} != {ref!r} (rel {REL_TOL})"
        return None
    if isinstance(ref, str) and _FRACTION.fullmatch(ref):
        if not (isinstance(actual, str) and _FRACTION.fullmatch(actual)):
            return f"{path}: {actual!r} is not an exact rational"
        if Fraction(actual) != Fraction(ref):
            return f"{path}: {actual} != {ref}"
        return None
    if type(actual) is not type(ref) or actual != ref:
        return f"{path}: {actual!r} != {ref!r}"
    return None


def _well_formed_rows(report: dict, ref_report: dict, exit_code) -> str | None:
    """Monte Carlo report on an unstored seed: finite, self-consistent rows
    with the reference's exact predictions and oracle values."""
    rows = report.get("rows")
    if not isinstance(rows, list) or not rows:
        return "report has no rows"
    ref_rows = [
        {key: row[key] for key in ("k", "l", "predicted", "oracle")}
        for row in ref_report["rows"]
    ]
    found = _diff(rows, ref_rows, "rows")
    if found:
        return found
    for i, row in enumerate(rows):
        emp, se, z = _float(row.get("empirical")), _float(row.get("stderr")), row.get("zscore")
        if not (math.isfinite(emp) and math.isfinite(se) and se >= 0):
            return f"rows[{i}]: empirical/stderr not finite"
        if not isinstance(row.get("pass"), bool):
            return f"rows[{i}]: pass is not a flag"
        if z != "":
            z = _float(z)
            expected = (emp - float(Fraction(row["predicted"]))) / se if se else math.nan
            if not math.isclose(z, expected, rel_tol=REL_TOL):
                return f"rows[{i}]: zscore {z!r} != (empirical - predicted) / stderr"
    all_passed = all(row["pass"] for row in rows)
    if report.get("all_passed") != all_passed or exit_code != (0 if all_passed else 1):
        return f"exit code {exit_code} disagrees with the rows' pass flags"
    return None


def check_job(job: dict, refs: dict[int, dict], workload: str, index: int, seed: int):
    """None if job ``index`` of ``workload`` run at ``seed`` is correct,
    else the reason it failed."""
    if job["status"] != "ok":
        return job["status"]
    try:
        report = json.loads(job["stdout"])
    except json.JSONDecodeError:
        return "report is not JSON"
    job_seed = seed + index
    stored = seed in refs
    ref = refs[seed if stored else DEFAULT_SEED][workload][index]
    if ref["argv"][:-1] != job["argv"][:-1]:
        return "reference was recorded for another job list"
    if not stored and job["argv"][0] in MC_COMMANDS:
        return _well_formed_rows(report, ref["report"], job["exit_code"])
    if job["exit_code"] != ref["exit_code"]:
        return f"exit code {job['exit_code']}, expected {ref['exit_code']}"
    expected = ref["report"]
    if not stored:
        expected = copy.deepcopy(expected)
        expected["config"]["seed"] = job_seed
    return _diff(report, expected, "report")
