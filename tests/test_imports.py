"""The exact layers and commands run without numpy or scipy, and without
``dataclasses`` and the ``inspect`` it loads: importing the package loads
none of them, and the sampling names resolve on first access.  The
sampling commands and the library's sparse samples load numpy alone, and
they run where scipy cannot be imported at all; a single-threaded run loads
no thread pool.  Each check runs in a fresh interpreter, since this process
has loaded all of them long before."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("numpy", "scipy", "scipy.sparse", "scipy.sparse.csgraph", "scipy.sparse.linalg")
SPARSE_MODELS = ("elliptic", "iid", "block", "centrosymmetric")
# standard modules that cost milliseconds to import; numpy loads both
SLOW_STDLIB = ("dataclasses", "inspect")

# every name the package exports, the lazy sampling names first
EXPORTED = [
    "EnsembleSpec", "GaussianLaw", "MatrixSample", "circulant_eigenvalues", "sample",
    "weaver_reduce", "SampleStats", "compare_report", "run_experiment", "trace_powers",
    "classify", "asymptotic_order", "circulant_covariance", "circulant_limit_moment",
    "covariance_trace", "limit_trace_moment", "tau", "wick_joint", "ExactMomentTable",
    "exact_table", "walk_partitions", "MomentProfile", "SparsePairLaw", "SparseScalarLaw",
    "design_correlated_sign_law", "degenerate_profile_of", "light_profile",
    "profile_of_scalar_law", "profile_of_sparse_law", "sign_scalar_law",
    "tilde_transform", "validate_profile", "wigner_profile", "__version__",
]


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this checkout."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    return proc.stdout


def loaded_after(*argvs, watch=HEAVY):
    """{'import' or command: exit status and the ``watch`` modules loaded},
    in one fresh interpreter that imports the package and its CLI, then runs
    each argv through ``cli.main`` in turn."""
    probe = f"""
import contextlib, io, json, sys
import explodingmoments, explodingmoments.cli as cli
loaded = lambda: [m for m in {watch!r} if m in sys.modules]
report = {{"import": [0, loaded()]}}
for argv in {list(argvs)!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        report[argv[0]] = [cli.main(argv), loaded()]
print(json.dumps(report))
"""
    return json.loads(run_fresh(probe))


def test_import_and_exact_commands_load_no_numpy_or_scipy():
    # nor dataclasses or inspect
    report = loaded_after(
        ["limits", "--model", "elliptic", "--kmax", "6"],
        ["covariance", "--model", "iid", "--kmax", "3"],
        ["oracle", "--model", "circulant", "--n", "7", "--n", "11", "--kmax", "6"],
        watch=HEAVY + SLOW_STDLIB,
    )
    assert report == {name: [0, []] for name in ("import", "limits", "covariance", "oracle")}


def test_circulant_simulate_loads_numpy_but_not_scipy_sparse():
    report = loaded_after(["simulate", "--model", "circulant", "--n", "8", "--reps", "5"])
    assert report["simulate"] == [0, ["numpy"]]


def test_sparse_simulate_and_verify_load_numpy_alone():
    report = loaded_after(
        ["simulate", "--model", "block", "--n", "20", "--reps", "5"],
        ["verify", "--model", "iid", "--n", "40", "--reps", "5", "--kmax", "4"],
    )
    assert report["simulate"] == [0, ["numpy"]] and report["verify"] == [0, ["numpy"]]


def test_single_threaded_verify_loads_no_thread_pool():
    # concurrent.futures loads logging and queue; only a run of two or more
    # threads needs it
    code = """
import contextlib, io, json, os, sys
import explodingmoments.cli as cli
report = []
for threads in ("1", "2"):
    os.environ["EXPLODINGMOMENTS_THREADS"] = threads
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--model", "circulant", "--n", "64", "--kmax", "3", "--reps", "50"])
    report.append([threads, code in (0, 1), "concurrent.futures" in sys.modules])
print(json.dumps(report))
"""
    assert json.loads(run_fresh(code)) == [["1", True, False], ["2", True, True]]


def test_sparse_sample_traces_and_dense_load_numpy_alone():
    code = f"""
import json, sys
from fractions import Fraction
from explodingmoments import (EnsembleSpec, design_correlated_sign_law, sample,
                              sign_scalar_law, trace_powers)
laws = {{"elliptic": design_correlated_sign_law(Fraction(1, 2)), "iid": sign_scalar_law(),
        "block": design_correlated_sign_law(Fraction(1, 3)), "centrosymmetric": sign_scalar_law()}}
report = {{}}
for kind, law in laws.items():
    m = sample(EnsembleSpec(kind, 20, law, 3))
    trace_powers(m, 6), m.dense()
    report[kind] = [type(m.matrix).__name__, [name for name in {HEAVY!r} if name in sys.modules]]
print(json.dumps(report))
"""
    want = ["SparseChunk", ["numpy"]]
    assert json.loads(run_fresh(code)) == {kind: want for kind in SPARSE_MODELS}


def test_sampling_commands_run_where_scipy_cannot_be_imported():
    # a None entry in sys.modules makes every import of scipy fail
    argvs = [[command, "--model", kind, "--n", "30", "--kmax", "4", "--reps", "5"]
             for kind in SPARSE_MODELS for command in ("simulate", "verify")]
    argvs.append(["weaver", "--n", "9"])
    probe = f"""
import contextlib, io, json, sys
sys.modules["scipy"] = None
import explodingmoments.cli as cli
reports = []
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    reports.append([argv[0], code, json.loads(out.getvalue())["command"]])
print(json.dumps(reports))
"""
    reports = json.loads(run_fresh(probe))
    assert [command for command, _code, _reported in reports] == [argv[0] for argv in argvs]
    for command, code, reported in reports:
        # verify may fail a row at so few replicas, and exits 1 then
        assert reported == command and code in ((0, 1) if command == "verify" else (0,))


def test_every_exported_name_resolves():
    code = f"""
import explodingmoments
missing = [n for n in {EXPORTED!r} if not hasattr(explodingmoments, n)]
assert not missing, missing
assert not hasattr(explodingmoments, "no_such_name")
from explodingmoments import run_experiment, sample
from explodingmoments.estimator import run_experiment as defined
assert run_experiment is defined and sample is explodingmoments.ensembles.sample
"""
    run_fresh(code)
