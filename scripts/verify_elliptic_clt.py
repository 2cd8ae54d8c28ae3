#!/usr/bin/env python3
"""Acceptance-scale elliptic run: trace means against the exact finite-N
oracle, and the (2,2) / (1,2) fluctuation covariances against the gluing
kernel.

Degenerate kernel entries (limit 0 with an O(1/N) finite-N value, e.g. the
Z(1) variance, which is exactly Var(x_11)/N) are excluded: at this replica
count the Monte Carlo resolves the 1/N term, so comparing them to the
asymptotic 0 is a test of the simulator, not of the theory.  The CLI
`verify` command reports those rows too and flags them as failures by
design.
"""

import sys
from fractions import Fraction

from explodingmoments.ensembles import EnsembleSpec
from explodingmoments.estimator import compare_report, run_experiment
from explodingmoments.limits import covariance_trace
from explodingmoments.oracle import exact_table
from explodingmoments.profiles import design_correlated_sign_law, profile_of_sparse_law


def main():
    n, reps, seed = 1000, 2000, 20240801
    law = design_correlated_sign_law(Fraction(1, 2))
    profile = profile_of_sparse_law(law)
    stats = run_experiment(EnsembleSpec(kind="elliptic", n=n, law=law, seed=seed), 4, reps)
    means = exact_table("elliptic", law, (n,), 4)[n]
    predictions = [(k, None, means[(k, None)]) for k in range(1, 5)]
    predictions += [
        (2, 2, covariance_trace(2, 2, "elliptic", profile)),
        (1, 2, covariance_trace(1, 2, "elliptic", profile)),
    ]
    rows = compare_report(stats, predictions)
    for row in rows:
        l = row.l if row.l is not None else "-"
        print(
            f"k={row.k} l={l}: predicted={row.predicted} "
            f"empirical={row.empirical:+.5f} z={row.zscore:+.2f} pass={row.passed}"
        )
    ok = all(row.passed for row in rows)
    print("all passed" if ok else "FAILURES above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
