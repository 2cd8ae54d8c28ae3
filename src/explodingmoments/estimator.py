"""Monte Carlo trace statistics: normalized trace powers over replicas,
fluctuation covariances, bootstrap standard errors, and predicted-versus-
observed comparison rows.

Replica r uses the derived seed ``spec.seed + r`` (r = 1..M), so runs are
deterministic end to end and replicas can be generated in any order or in
parallel.  Z_N(k) is centered at the empirical replica mean; the O(1/M)
centering bias is covered by the bootstrap standard errors.

Circulant replicas never form a matrix.  Their generators are drawn in
chunks, one row per replica seed, and one kernel gives Tr(C^k)/N for a
sample or a chunk: the real FFT of the generator gives the half-spectrum
lambda_0..lambda_(N//2), and since lambda_(N-j) = conj(lambda_j) for a real
generator, the power sum over all N eigenvalues is a weighted real sum over
that half.

The bootstrap never gathers a resampled copy of the traces.  Each resample
is one ``rng.integers`` draw of M indices from its own seeded stream, turned
into per-replica counts; a block of count rows times the per-replica power
features (z, z_i z_j, z^3, z^4 of the fully centred Z) gives every
resample's power sums in one matrix product, and the centred power-sum
identities turn those into the resample's covariance and fourth moment.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np
from scipy import sparse

from .ensembles import (
    EnsembleSpec,
    MatrixSample,
    sample,
    sample_circulant_generator,
)

KMAX_TRACE_POWERS = 8
BOOTSTRAP_DEFAULT = 200
THREADS_ENV = "EXPLODINGMOMENTS_THREADS"


def trace_powers(m: MatrixSample, k_max: int) -> np.ndarray:
    """[Tr(A^k) / N for k = 1..k_max]; N is the sample's trace normalizer.

    Circulant samples go through half-spectrum eigenvalue powers
    (:func:`_circulant_power_sums`), sparse samples through sparse
    closed-walk products, dense samples through repeated multiplication; the
    three paths agree on common inputs.
    """
    if not 1 <= k_max <= KMAX_TRACE_POWERS:
        raise ValueError(f"k_max={k_max} outside 1..{KMAX_TRACE_POWERS}")
    if m.kind == "circulant" and m.matrix is None:
        return _circulant_power_sums(m.generator_values, k_max)
    norm = m.trace_norm
    mat = power = m.matrix
    out = np.empty(k_max)
    for k in range(k_max):
        out[k] = power.diagonal().sum() / norm
        if k + 1 < k_max:
            power = power @ mat
    return out


@dataclass
class SampleStats:
    """Empirical trace means, fluctuation covariances, and bootstrap SEs."""

    spec: EnsembleSpec
    k_max: int
    replicates: int
    traces: np.ndarray  # (M, k_max) of Tr(A^k)/N
    mean_traces: np.ndarray
    se_mean: np.ndarray
    cov_z: np.ndarray  # (k_max, k_max) plug-in covariance of Z_N(k)
    se_cov: np.ndarray
    zmoment4: np.ndarray  # E[Z_N(k)^4] per k
    se_zmoment4: np.ndarray

    def seed_range(self) -> tuple[int, int]:
        return (self.spec.seed + 1, self.spec.seed + self.replicates)


def _circulant_power_sums(x: np.ndarray, k_max: int) -> np.ndarray:
    """[Tr(C^k) / N for k = 1..k_max] of the circulant C with generator x
    (unscaled, along the last axis; leading axes are replicas).

    A real generator has lambda_(N-j) = conj(lambda_j), so Tr(C^k) / N =
    sum_j w_j Re(lambda_j^k) over the rfft half-spectrum j = 0..N//2, with
    w_j = 1/N for j = 0 and, at even N, for j = N/2, and w_j = 2/N otherwise.
    The rfft is the conjugate of the ``circulant_eigenvalues`` spectrum, which
    leaves the real parts unchanged."""
    n = x.shape[-1]
    lam = np.fft.rfft(x, axis=-1) / np.sqrt(n)
    w = np.full(lam.shape[-1], 2.0 / n)
    w[0] = 1.0 / n
    if n % 2 == 0:
        w[-1] = 1.0 / n
    out = np.empty(x.shape[:-1] + (k_max,))
    acc = lam.copy()
    for k in range(k_max):
        out[..., k] = acc.real @ w
        if k + 1 < k_max:
            acc *= lam
    return out


def _replica_traces(spec: EnsembleSpec, k_max: int, m: int) -> np.ndarray:
    kind = spec.kind
    if kind == "circulant":
        return _circulant_replica_traces(spec, k_max, m)
    threads = int(os.environ.get(THREADS_ENV, "1") or "1")
    seeds = [spec.seed + r for r in range(1, m + 1)]

    def one(seed: int) -> np.ndarray:
        return trace_powers(sample(replace(spec, seed=seed)), k_max)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(one, seeds))
    else:
        rows = [one(s) for s in seeds]
    return np.vstack(rows)


def _circulant_replica_traces(spec: EnsembleSpec, k_max: int, m: int) -> np.ndarray:
    """Replica i draws its generator from ``default_rng(spec.seed + 1 + i)``,
    as ``sample`` does at that seed.  Each chunk of replicas is one
    ``sample_circulant_generator`` call and one batched real FFT through the
    half-spectrum kernel :func:`_circulant_power_sums`, the kernel of
    ``trace_powers`` for a single circulant sample."""
    n = spec.n
    out = np.empty((m, k_max))
    chunk = max(1, min(m, 4 * 10**6 // max(n, 1)))
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        rngs = [np.random.default_rng(spec.seed + 1 + i) for i in range(lo, hi)]
        out[lo:hi] = _circulant_power_sums(sample_circulant_generator(spec.law, n, rngs), k_max)
    return out


def run_experiment(
    spec: EnsembleSpec,
    k_max: int,
    replicates: int,
    bootstrap_resamples: int = BOOTSTRAP_DEFAULT,
) -> SampleStats:
    """Generate M replicas from derived seeds seed+1..seed+M and aggregate.

    Fully deterministic given the spec; the bootstrap resampler is seeded
    from the spec as well.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    if not 1 <= k_max <= KMAX_TRACE_POWERS:
        raise ValueError(f"k_max={k_max} outside 1..{KMAX_TRACE_POWERS}")
    traces = _replica_traces(spec, k_max, replicates)
    return aggregate_stats(spec, traces, bootstrap_resamples)


def aggregate_stats(
    spec: EnsembleSpec, traces: np.ndarray, bootstrap_resamples: int = BOOTSTRAP_DEFAULT
) -> SampleStats:
    """Means, the plug-in covariance and fourth moments of Z_N(k), and their
    bootstrap standard errors.

    Resample b draws M replica indices with one ``rng.integers(0, M, size=M)``
    call, in order, from ``SeedSequence((|seed|, 0xB007))``, and keeps only
    their counts.  With z = sqrt(N) (traces - mean) centred once at the full
    mean, a count row w gives the resample's power sums S_p = w . z^p / M,
    and from them, with mu = S_1, the recentred statistics
    ``cov = S_2 - mu mu^T`` and ``m4 = S_4 - 4 mu S_3 + 6 mu^2 S_2 - 3 mu^4``.
    Centring first keeps the expansion stable (mu is O(1/sqrt(M))); the SEs
    equal those of recomputing each resample from its gathered copy up to
    rounding.  A non-finite trace makes every SE that involves its column NaN.
    """
    m, k_max = traces.shape
    mean = traces.mean(axis=0)
    z = np.sqrt(spec.n) * (traces - mean)
    cov = z.T @ z / m
    m4 = (z**4).mean(axis=0)
    se_mean = traces.std(axis=0, ddof=1) / np.sqrt(m)
    # per-replica features: z, z_i z_j for i <= j, z^3, z^4
    iu, ju = np.triu_indices(k_max)
    features = np.hstack([z, z[:, iu] * z[:, ju], z**3, z**4])
    sums = np.empty((bootstrap_resamples, features.shape[1]))
    rng = np.random.default_rng(np.random.SeedSequence((abs(spec.seed), 0xB007)))
    chunk = max(1, min(bootstrap_resamples, 5 * 10**5 // m))  # 4 MB of counts
    counts = np.empty((chunk, m))
    for lo in range(0, bootstrap_resamples, chunk):
        hi = min(lo + chunk, bootstrap_resamples)
        for b in range(hi - lo):
            counts[b] = np.bincount(rng.integers(0, m, size=m), minlength=m)
        sums[lo:hi] = counts[: hi - lo] @ features / m
    mu, s2, s3, s4 = np.split(sums, np.cumsum([k_max, len(iu), k_max]), axis=1)
    covs = s2 - mu[:, iu] * mu[:, ju]
    m4s = s4 - 4 * mu * s3 + 6 * mu**2 * s2[:, iu == ju] - 3 * mu**4
    se_cov = np.empty((k_max, k_max))
    se_cov[iu, ju] = se_cov[ju, iu] = covs.std(axis=0, ddof=1)
    return SampleStats(
        spec=spec,
        k_max=k_max,
        replicates=m,
        traces=traces,
        mean_traces=mean,
        se_mean=se_mean,
        cov_z=cov,
        se_cov=se_cov,
        zmoment4=m4,
        se_zmoment4=m4s.std(axis=0, ddof=1),
    )


def reduction_block_moments(
    spec: EnsembleSpec, k_values: Sequence[int], replicates: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empirical moments of the entries of the first orthogonal-reduction
    block A + JC of centrosymmetric samples.

    Returns (per-replica matrix, means, standard errors) of
    E[(entry * sqrt(N))^k] / N^(k/2-1), averaged over all block entries.
    """
    if spec.kind != "centrosymmetric":
        raise ValueError("reduction moments are defined for centrosymmetric samples")
    n = spec.n
    s = n // 2
    mirror_rows = np.arange(n - 1, n - 1 - s, -1)
    per_rep = np.empty((replicates, len(k_values)))
    for r in range(replicates):
        m = sample(replace(spec, seed=spec.seed + 1 + r)).matrix
        if not sparse.issparse(m):
            m = sparse.csr_matrix(m)
        block = (m[:s, :s] + m[mirror_rows][:, :s]).tocoo()
        vals = block.data
        for col, k in enumerate(k_values):
            # (w*sqrt(N))^k / (s^2 * N^(k/2-1)) summed over all s^2 entries
            per_rep[r, col] = n * float(np.sum(vals**k)) / s**2
    means = per_rep.mean(axis=0)
    ses = per_rep.std(axis=0, ddof=1) / np.sqrt(replicates)
    return per_rep, means, ses


Number = Union[int, float, Fraction]


@dataclass
class ReportRow:
    """One predicted-versus-observed comparison.

    ``l`` is None for a trace-mean row and an integer for a covariance row.
    The z-score compares the empirical value to the prediction; the oracle
    column, when present, is the exact finite-N value and is annotated when
    it differs from the prediction.
    """

    k: int
    l: Optional[int]
    predicted: Number
    oracle: Optional[Number]
    empirical: float
    stderr: float
    zscore: Optional[float]
    passed: bool
    note: str = ""

    def as_record(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "predicted": _num_str(self.predicted),
            "oracle": _num_str(self.oracle) if self.oracle is not None else "",
            "empirical": repr(self.empirical),
            "stderr": repr(self.stderr),
            "zscore": "" if self.zscore is None else repr(self.zscore),
            "pass": self.passed,
            "note": self.note,
        }


def _num_str(x: Number) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(x)


def compare_report(
    stats: SampleStats,
    predictions: Sequence[tuple[int, Optional[int], Number]],
    oracle: Optional[dict[tuple[int, Optional[int]], Number]] = None,
    z_threshold: float = 4.0,
) -> list[ReportRow]:
    """One row per prediction target: z = (empirical - predicted) / SE and a
    pass flag |z| <= threshold.  A zero SE with a mismatch is flagged as a
    degenerate row instead of dividing."""
    rows = []
    oracle = oracle or {}
    for k, l, predicted in predictions:
        if l is None:
            emp = float(stats.mean_traces[k - 1])
            se = float(stats.se_mean[k - 1])
        else:
            emp = float(stats.cov_z[k - 1, l - 1])
            se = float(stats.se_cov[k - 1, l - 1])
        ovalue = oracle.get((k, l))
        note = ""
        if ovalue is not None and Fraction(ovalue) != Fraction(predicted):
            note = "oracle-differs-from-prediction"
        if se == 0.0:
            match = emp == float(predicted)
            rows.append(
                ReportRow(k, l, predicted, ovalue, emp, se, None, match,
                          note=(note + ";" if note else "") + "degenerate-zero-se")
            )
            continue
        z = (emp - float(predicted)) / se
        rows.append(ReportRow(k, l, predicted, ovalue, emp, se, z, abs(z) <= z_threshold, note))
    return rows


CSV_COLUMNS = ["k", "l", "predicted", "oracle", "empirical", "stderr", "zscore", "pass", "note"]


def rows_to_csv(records: Sequence[dict]) -> str:
    """CSV of report records (``ReportRow.as_record``); an empty ``l`` marks
    a trace-mean row."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for rec in records:
        writer.writerow({**rec, "l": "" if rec["l"] is None else rec["l"]})
    return buf.getvalue()
