"""The benchmark's workloads: fixed lists of ``explodingmoments`` CLI jobs.

Job j of a workload runs with ``--seed <seed> + j``.  Each workload states
why it exists and the layer shares measured when it was chosen (cProfile on
a 2-core x86 VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, single thread),
so a later change can tell which workload exercises it and which one should
not move.
"""

from __future__ import annotations

DEFAULT_SEED = 20240801

WORKLOADS = {
    "exact_tables": {
        "why": (
            "Exact Fraction tables (limits, gluing covariances, finite-N oracle): "
            "cost is Bell-number enumeration, no sampling."
        ),
        "shares": (
            "partitions + graphs ~3/4 of the time, circulant tuple oracle ~1/8; "
            "includes the k=10 mean and the (5,5) gluing, the iid/centrosymmetric "
            "limits that are zero by construction, and the N^(k-1) circulant oracle"
        ),
        "jobs": [
            ["limits", "--model", "elliptic", "--kmax", "10", "--rho", "1/2"],
            ["limits", "--model", "iid", "--kmax", "9"],
            ["limits", "--model", "centrosymmetric", "--kmax", "8"],
            ["covariance", "--model", "elliptic", "--kmax", "5", "--rho", "1/2"],
            ["covariance", "--model", "iid", "--kmax", "4"],
            ["oracle", "--model", "elliptic", "--n", "8", "--n", "1000", "--kmax", "6",
             "--rho", "1/2"],
            ["oracle", "--model", "circulant", "--n", "7", "--n", "11", "--n", "13",
             "--kmax", "6"],
        ],
    },
    "mc_sparse": {
        "why": (
            "Few large sparse replicas on all four sparse samplers: sparse trace "
            "powers and sampling dominate; enumeration and bootstrap should not move it."
        ),
        "shares": (
            "sparse trace_powers ~65-75%, sampling 20-35%, bootstrap, limits and "
            "oracle each under 5%"
        ),
        "jobs": [
            ["verify", "--model", model, "--n", n, "--kmax", "6", "--reps", "500"]
            for model, n in (
                ("elliptic", "2000"),
                ("iid", "2000"),
                ("block", "1000"),
                ("centrosymmetric", "2000"),
            )
        ],
    },
    "mc_circulant": {
        "why": (
            "Many small circulant replicas: the 200-resample bootstrap and per-replica "
            "generators dominate, and a gain bought with memory shows in peak RSS."
        ),
        "shares": (
            "bootstrap ~55-60%, one default_rng per replica ~10%; N=512 runs no oracle"
        ),
        "jobs": [
            ["verify", "--model", "circulant", "--profile", "light", "--n", "512",
             "--kmax", "3", "--reps", "20000"],
            ["verify", "--model", "circulant", "--profile", "sign", "--n", "512",
             "--kmax", "6", "--reps", "20000"],
        ],
    },
}

MC_COMMANDS = ("verify",)  # commands whose reports hold Monte Carlo rows


def job_argvs(workload: str, seed: int) -> list[list[str]]:
    """The workload's CLI argument lists; job j gets ``--seed seed + j``."""
    return [
        list(argv) + ["--seed", str(seed + j)]
        for j, argv in enumerate(WORKLOADS[workload]["jobs"])
    ]
