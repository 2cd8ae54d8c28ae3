"""Monte Carlo trace statistics: normalized trace powers over replicas,
fluctuation covariances, bootstrap standard errors, and predicted-versus-
observed comparison rows.

Replica r uses the derived seed ``spec.seed + r`` (r = 1..M), so runs are
deterministic end to end and replicas can be generated in any order or in
parallel.  Z_N(k) is centered at the empirical replica mean; the O(1/M)
centering bias is covered by the bootstrap standard errors.

Sparse replicas are drawn in chunks of consecutive seeds.  A chunk is one
block-diagonal matrix whose block i is the sample at its seed, sized to
about 8000 rows.  Chunks come in groups of up to 8: a group's seeds go
through one vectorised SeedSequence pass, and its chunks, drawn and peeled
one at a time, share their products.  The sampler leaves a chunk as its
stored entries: the off-diagonal ones as edges, and the diagonal.  Each
chunk is peeled down to its cyclic core: the rows on a directed cycle, or
on a path between two.  A row outside it lies on no closed walk but its
loop, so it adds only the powers of its diagonal entry, formed as the
products would form them.  At activation 1 the core holds a few hundred of
a chunk's 8000 rows for the iid, block and centrosymmetric samples and
about 63% for the elliptic ones, whose pattern is symmetric.  The cores of
consecutive chunks of a group are joined, relabelled in order, into one
block-diagonal CSR matrix A_C while they total at most 8000 rows: at
N = 2000 a batch holds one elliptic core, or all eight iid cores of a
group, so what a batch holds stays bounded.  One kernel takes such a batch, or
the entries of a single sample as a batch of one.  With h = ceil(k_max/2),
it forms A_C, ..., A_C^h by sequential products, reads Tr(A^k) for k <= h
as a per-block sum of the diagonal (the values of a per-sample power loop,
bit for bit), and for k > h takes Tr(A^k) = sum_ij (A^a)_ij (A^b)_ji with
a = floor(k/2) and b = ceil(k/2), transposing each A_C^b once, summing the
core's terms apart from the other rows' loop terms, which moves the sum at
rounding level.  The products of A_C sum, row by row, the terms a chunk's
own core would, so the traces do not depend on how chunks are batched.
Group boundaries depend only on M and the matrix size, and
``EXPLODINGMOMENTS_THREADS`` threads map over groups, so results do not
depend on the thread count.
Dense (Gaussian) replicas go one per chunk through repeated products.

Circulant replicas never form a matrix.  Their generators are drawn in
chunks, one row per replica seed, sized to a fixed working set of 2^18
generator entries (2 MB of rows) whatever M: the kernel's spectrum and power
temporaries are each about that size, so a chunk stays in cache and maps no
fresh memory, and peak memory does not grow with M.  A chunk's random
generators come from one vectorised SeedSequence pass over its seeds, each
equal to ``default_rng(seed + r)``, and one kernel gives Tr(C^k)/N for a
sample or a chunk: the real FFT of the generator gives the half-spectrum
lambda_0..lambda_(N//2), and since lambda_(N-j) = conj(lambda_j) for a real
generator, the power sum over all N eigenvalues is a weighted real sum over
that half.  That sum is a BLAS matrix-vector product, whose rounding can
depend on a row's place in its chunk, so chunk boundaries depend only on M
and N and the chunk size is a constant, not a setting.

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
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .ensembles import (
    EnsembleSpec,
    MatrixSample,
    SparseChunk,
    replica_generators,
    sample,
    sample_circulant_generator,
    sample_sparse_chunk,
    seed_states,
    sparse_size,
    state_generators,
)
from .profiles import KMAX_TRACE_POWERS, GaussianLaw

BOOTSTRAP_DEFAULT = 200
THREADS_ENV = "EXPLODINGMOMENTS_THREADS"
# a sparse replica chunk is one block-diagonal matrix of about CHUNK_ROWS
# rows, four replicas at N = 2000 (16,000-row chunks ran mc_sparse faster
# before chunks were batched, but took 3.3 MB more peak RSS); a group of up
# to GROUP_CHUNKS chunks is seeded in one pass, and its chunks' cores share
# products in batches of at most BATCH_CORE_ROWS core rows (one elliptic core
# at N = 2000), which bounds what a batch holds
CHUNK_ROWS = 8000
GROUP_CHUNKS = 8
BATCH_CORE_ROWS = 8000
# generator entries per circulant replica chunk: 2 MB of float64 rows (512
# replicas at N = 512), so the chunk's FFT and power temporaries stay in cache
CIRCULANT_CHUNK_ENTRIES = 2**18


def trace_powers(m: MatrixSample, k_max: int) -> np.ndarray:
    """[Tr(A^k) / N for k = 1..k_max]; N is the sample's trace normalizer.

    Circulant samples go through half-spectrum eigenvalue powers
    (:func:`_circulant_power_sums`), sparse samples through the kernel
    :func:`_batch_traces` with a batch of one chunk, their stored entries,
    dense samples through repeated multiplication; the three paths agree on
    common inputs.
    """
    if not 1 <= k_max <= KMAX_TRACE_POWERS:
        raise ValueError(f"k_max={k_max} outside 1..{KMAX_TRACE_POWERS}")
    if m.kind == "circulant" and m.matrix is None:
        return _circulant_power_sums(m.generator_values, k_max)
    if not isinstance(m.matrix, np.ndarray):
        return _batch_traces([_peel(SparseChunk.of_csr(m.matrix), 1)], m.trace_norm, k_max)[0]
    norm = m.trace_norm
    mat = power = m.matrix
    out = np.empty(k_max)
    for k in range(k_max):
        out[k] = power.diagonal().sum() / norm
        if k + 1 < k_max:
            power = power @ mat
    return out


class _Peeled(NamedTuple):
    """A chunk of ``blocks`` samples, each of ``len(loops) // blocks`` rows,
    peeled to its cyclic core: the chunk's core rows in order, their stored
    entries relabelled 0..len(rows)-1, and the chunk's diagonal off the core
    (0 on the core)."""

    blocks: int
    rows: np.ndarray
    core: SparseChunk
    loops: np.ndarray


def _peel(chunk: SparseChunk, blocks: int) -> _Peeled:
    """The cyclic core (:func:`_core_rows`) of a chunk of ``blocks`` samples,
    and its diagonal off the core."""
    core = _core_rows(chunk.src, chunk.dst, chunk.size)
    rank = np.cumsum(core) - 1
    edges = core.take(chunk.src)
    edges &= core.take(chunk.dst)
    on = core.take(chunk.diag_at)
    loops = np.zeros(chunk.size)
    loops[chunk.diag_at] = chunk.diag
    loops[core] = 0.0
    entries = SparseChunk(
        np.count_nonzero(core),
        rank.take(chunk.src.compress(edges)),
        rank.take(chunk.dst.compress(edges)),
        chunk.val.compress(edges),
        rank.take(chunk.diag_at.compress(on)),
        chunk.diag.compress(on),
    )
    return _Peeled(blocks, np.flatnonzero(core), entries, loops)


def _batch_traces(batch: Sequence[_Peeled], norm: int, k_max: int) -> np.ndarray:
    """(blocks, k_max) array of Tr(B_r^k) / norm, k = 1..k_max, for the
    diagonal blocks B_r, all of one size, of the peeled chunks of ``batch``
    in order.

    A row outside the cyclic core lies on no directed cycle, so its only
    closed walk is its loop and it adds d_i^k to Tr(A^k), d being the
    diagonal.  That power is the running product d_i * d_i * ..., as a
    product of matrices forms it.  The chunks' cores are joined into one
    block-diagonal CSR matrix A_C, relabelled in order, so each product of
    A_C sums the same terms in the same order as the product of a whole
    chunk would.  A_C, ..., A_C^h with h = ceil(k_max/2) are formed by
    sequential products.  For k <= h, Tr(A^k) is the per-block sum of the
    diagonal of A^k, the core rows' entries read from A_C^k, bit for bit the
    values of per-sample products.  For k > h, Tr(A^k) = sum_ij (A^a)_ij
    (A^b)_ji with a = floor(k/2), b = ceil(k/2): one elementwise product of
    A_C^a and the transpose of A_C^b per k, each transpose made once, summed
    per block apart from the rows outside the core, which moves these traces
    at rounding level."""
    blocks = sum(part.blocks for part in batch)
    size = len(batch[0].loops) // batch[0].blocks
    cores = [part.core for part in batch]
    shifts = np.cumsum([0] + [core.size for core in cores])
    mat = SparseChunk(
        int(shifts[-1]),
        np.concatenate([core.src + shift for core, shift in zip(cores, shifts)]),
        np.concatenate([core.dst + shift for core, shift in zip(cores, shifts)]),
        np.concatenate([core.val for core in cores]),
        np.concatenate([core.diag_at + shift for core, shift in zip(cores, shifts)]),
        np.concatenate([core.diag for core in cores]),
    ).csr()
    # the block of each core row, counted across the batch
    first = np.cumsum([0] + [part.blocks for part in batch])
    core_block = np.concatenate([part.rows // size + lo for part, lo in zip(batch, first)])
    half = (k_max + 1) // 2
    powers = [mat]
    while len(powers) < half:
        powers.append(powers[-1] @ mat)
    diagonals = [power.diagonal() for power in powers]
    out = np.empty((blocks, k_max))
    for k in range(half + 1, k_max + 1):
        a, b = k // 2 - 1, (k + 1) // 2 - 1
        # b steps up at each odd k: drop the last transpose, then make this one
        if k % 2 or k == half + 1:
            right = None
            right = powers[b].T.tocsr()
        out[:, k - 1] = _paired_sums(powers[a], right, core_block, blocks)
    # each chunk's loop terms: the diagonal powers of its rows off the core,
    # 0 on the core
    for part, lo, shift, stop in zip(batch, first, shifts, shifts[1:]):
        loop_powers = [part.loops]
        while len(loop_powers) < half:
            loop_powers.append(loop_powers[-1] * loop_powers[0])
        sums = out[lo : lo + part.blocks]
        for k in range(1, k_max + 1):
            if k <= half:
                diagonal = loop_powers[k - 1].copy()
                diagonal[part.rows] = diagonals[k - 1][shift:stop]
                sums[:, k - 1] = diagonal.reshape(part.blocks, size).sum(axis=1)
            else:
                loops = loop_powers[k // 2 - 1] * loop_powers[(k + 1) // 2 - 1]
                sums[:, k - 1] += loops.reshape(part.blocks, size).sum(axis=1)
    return out / norm


def _paired_sums(left, right, row_block: np.ndarray, blocks: int) -> np.ndarray:
    """Per-block sums of left_ij right_ij over the rows i of each block, the
    block of row i being ``row_block[i]``.  The elementwise product is freed
    on return, before the next one is formed."""
    paired = left.multiply(right)
    return np.bincount(np.repeat(row_block, np.diff(paired.indptr)), paired.data, minlength=blocks)


def _core_rows(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask of the rows 0..n-1 in the cyclic core of the edges
    src -> dst: every row with no out-edge or no in-edge among the rows left
    is deleted, round by round, each round shrinking the edge arrays.  The
    rows left hold every row on a directed cycle and every row on a path
    between two of them; each has an edge to and from another row left."""
    while True:
        core = np.zeros(n, dtype=bool)
        core[src] = True
        has_in = np.zeros(n, dtype=bool)
        has_in[dst] = True
        core &= has_in
        keep = core.take(src)
        keep &= core.take(dst)
        if keep.all():
            return core
        src, dst = src.compress(keep), dst.compress(keep)


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


def thread_count() -> int:
    """The worker threads of a Monte Carlo run: the positive integer in
    ``EXPLODINGMOMENTS_THREADS``, or 1 when it is unset or empty.  Any other
    value is a ValueError."""
    raw = os.environ.get(THREADS_ENV, "")
    if not raw:
        return 1
    if not (raw.isascii() and raw.isdigit() and int(raw) > 0):
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def _replica_traces(spec: EnsembleSpec, k_max: int, m: int, threads: int = 1) -> np.ndarray:
    """(m, k_max) traces of replicas r = 1..m, drawn from seeds spec.seed + r.

    Sparse replicas are drawn in groups of up to ``GROUP_CHUNKS`` chunks of
    consecutive seeds (:func:`_group_traces`); dense replicas one at a time.
    Group boundaries depend only on m and the matrix size, and threads map
    over groups, so the result does not depend on the thread count."""
    if spec.kind == "circulant":
        return _circulant_replica_traces(spec, k_max, m)
    if isinstance(spec.law, GaussianLaw):
        group = 1

        def traces(seeds: range) -> np.ndarray:
            return trace_powers(sample(replace(spec, seed=seeds[0])), k_max)[None]
    else:
        chunk = max(1, min(m, CHUNK_ROWS // sparse_size(spec)))
        group = GROUP_CHUNKS * chunk

        def traces(seeds: range) -> np.ndarray:
            return _group_traces(spec, seeds, chunk, k_max)

    first = spec.seed + 1
    groups = [range(first + lo, first + min(lo + group, m)) for lo in range(0, m, group)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(groups))) as pool:
            rows = list(pool.map(traces, groups))
    else:
        rows = [traces(seeds) for seeds in groups]
    return np.vstack(rows)


def _group_traces(spec: EnsembleSpec, seeds: range, chunk: int, k_max: int) -> np.ndarray:
    """(len(seeds), k_max) traces of one group of sparse replicas.

    The group's seeds go through one vectorised SeedSequence pass; each
    chunk of ``chunk`` seeds then makes its generators (about 0.8 kB each,
    so they are made chunk by chunk: a group of one-row samples has 64,000
    seeds), draws one block-diagonal chunk (:func:`sample_sparse_chunk`) and
    peels it to its cyclic core (:func:`_peel`).  Consecutive chunks join
    one product batch (:func:`_batch_traces`) while their cores total at
    most ``BATCH_CORE_ROWS`` rows; a chunk whose core would pass that runs
    the batch before it and starts the next.  A batch holds only its
    chunks' cores and diagonals off the core."""
    states = seed_states(seeds)
    out, batch = [], []
    for lo in range(0, len(seeds), chunk):
        rngs = state_generators(states[lo : lo + chunk])
        part = _peel(sample_sparse_chunk(spec, rngs), len(rngs))
        if batch and sum(p.core.size for p in batch) + part.core.size > BATCH_CORE_ROWS:
            out.append(_batch_traces(batch, spec.n, k_max))
            batch = []
        batch.append(part)
    out.append(_batch_traces(batch, spec.n, k_max))
    return np.vstack(out)


def _circulant_replica_traces(spec: EnsembleSpec, k_max: int, m: int) -> np.ndarray:
    """Replica i draws its generator from the generator of seed
    ``spec.seed + 1 + i``, equal to ``default_rng`` at that seed, as
    ``sample`` does.  Each chunk of replicas is one vectorised seeding pass
    (:func:`replica_generators`), one ``sample_circulant_generator`` call and
    one batched real FFT through the half-spectrum kernel
    :func:`_circulant_power_sums`, the kernel of ``trace_powers`` for a single
    circulant sample.

    A chunk holds ``CIRCULANT_CHUNK_ENTRIES // N`` replicas (at least one), a
    fixed working set, so peak memory is a few chunk sizes plus the
    (m, k_max) output however large m is.  Chunk boundaries depend only on m
    and N."""
    n = spec.n
    out = np.empty((m, k_max))
    chunk = max(1, min(m, CIRCULANT_CHUNK_ENTRIES // n))
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        rngs = replica_generators(range(spec.seed + 1 + lo, spec.seed + 1 + hi))
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
    traces = _replica_traces(spec, k_max, replicates, thread_count())
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
    se_mean = traces.std(axis=0, ddof=1) / np.sqrt(m)
    # per-replica features, written in place: z, z_i z_j for i <= j, z^3, z^4
    iu, ju = np.triu_indices(k_max)
    pairs = len(iu)
    features = np.empty((m, 3 * k_max + pairs))
    features[:, :k_max] = z
    for col, (i, j) in enumerate(zip(iu, ju), start=k_max):
        np.multiply(z[:, i], z[:, j], out=features[:, col])
    np.power(z, 3, out=features[:, k_max + pairs : 2 * k_max + pairs])
    np.power(z, 4, out=features[:, 2 * k_max + pairs :])
    m4 = features[:, 2 * k_max + pairs :].mean(axis=0)
    sums = np.empty((bootstrap_resamples, features.shape[1]))
    rng = np.random.default_rng(np.random.SeedSequence((abs(spec.seed), 0xB007)))
    chunk = max(1, min(bootstrap_resamples, 5 * 10**5 // m))  # 4 MB of counts
    counts = np.empty((chunk, m))
    for lo in range(0, bootstrap_resamples, chunk):
        hi = min(lo + chunk, bootstrap_resamples)
        for b in range(hi - lo):
            counts[b] = np.bincount(rng.integers(0, m, size=m), minlength=m)
        sums[lo:hi] = counts[: hi - lo] @ features / m
    mu, s2, s3, s4 = np.split(sums, np.cumsum([k_max, pairs, k_max]), axis=1)
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
