"""Combinatorial limit theory and Monte Carlo verification for linear
eigenvalue statistics of random matrices with exploding entry moments."""

__version__ = "0.1.0"

from .ensembles import (
    EnsembleSpec,
    GaussianLaw,
    MatrixSample,
    circulant_eigenvalues,
    sample,
    weaver_reduce,
)
from .estimator import SampleStats, compare_report, run_experiment, trace_powers
from .graphs import TraceGraph, classify, graph_of_partition, stats
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
from .partitions import (
    SetPartition,
    enumerate_integer_partitions_min2,
    enumerate_pair_partitions,
    enumerate_set_partitions,
    walk_partitions,
)
from .profiles import (
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
