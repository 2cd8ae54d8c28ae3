"""Combinatorial limit theory and Monte Carlo verification for linear
eigenvalue statistics of random matrices with exploding entry moments.

The exact layers load eagerly and import neither numpy nor ``dataclasses``:
their value types are NamedTuples.  The sampling names resolve on first
access (PEP 562), so importing the package costs only what the exact
layers need."""

__version__ = "0.1.0"

import importlib

from .graphs import classify
from .limits import (
    asymptotic_order,
    circulant_covariance,
    circulant_limit_moment,
    covariance_trace,
    limit_trace_moment,
    tau,
    wick_joint,
)
from .oracle import ExactMomentTable, exact_table
from .partitions import walk_partitions
from .profiles import (
    GaussianLaw,
    MomentProfile,
    SparsePairLaw,
    SparseScalarLaw,
    design_correlated_sign_law,
    degenerate_profile_of,
    light_profile,
    profile_of_scalar_law,
    profile_of_sparse_law,
    sign_scalar_law,
    tilde_transform,
    validate_profile,
    wigner_profile,
)

# the sampling names and the module defining each; they import numpy
_SAMPLING = {
    "EnsembleSpec": "ensembles",
    "MatrixSample": "ensembles",
    "circulant_eigenvalues": "ensembles",
    "sample": "ensembles",
    "weaver_reduce": "ensembles",
    "SampleStats": "estimator",
    "compare_report": "estimator",
    "run_experiment": "estimator",
    "trace_powers": "estimator",
}


def __getattr__(name: str):
    module = _SAMPLING.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_SAMPLING])
