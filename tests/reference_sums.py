"""Reference enumerations for the exact layers, used only by the tests.

These are the sums the limits and oracle layers computed before
``partitions.walk_partitions``: set partitions by their restricted-growth
strings, each turned into a trace graph and then into its counters, gluings
of two trace graphs over cross partitions of their vertex sets, and the
circulant mean and joint moment by tuple enumeration.  They are slow and
independent of the walk enumerator, which the tests require to give the same
``Fraction`` values.  A graph here is a pair (vertex count, directed edges);
only :func:`trace_counts` shares code with the package, the edge tally
``partitions.tally_step``.

``reference_aggregate_stats`` is the bootstrap as it was before the weighted
pass: each resample gathers its copy of the traces and recomputes the
statistics from it.  ``reference_circulant_generator`` is the circulant
generator draw written out for one replica, which pins the random stream of
the batched draw.  ``reference_trace_powers`` is the sparse trace kernel as
it was before replicas were batched: one sample, k_max - 1 sequential
products.  ``reference_chunk_traces`` is the sparse trace kernel as it was
before chunks were batched and rows folded: one chunk of samples peeled to
its cyclic core, with its own core matrix, products and pairings, and
``reference_replica_traces`` runs it chunk by chunk, each chunk seeded in
its own pass.  ``reference_batch_traces`` is the batch kernel as it was
before its products left scipy: the run's core as one scipy CSR matrix,
its powers by scipy's ``@``, and its pairings by scipy's elementwise
``multiply`` with each transpose.  ``of_csr``, ``to_csr`` and
``sample_sparse_blocks`` turn the package's sparse samples, held as a
``SparseChunk`` of edges and diagonal, to and from scipy CSR matrices, in
which the references work.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import perm
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy import sparse

from explodingmoments.ensembles import (
    EnsembleSpec,
    GaussianLaw,
    SparseChunk,
    replica_generators,
    sample_sparse_chunk,
    sparse_size,
)
from explodingmoments.estimator import BOOTSTRAP_DEFAULT, SampleStats, _core_rows

from explodingmoments.limits import _require_alpha_one, tau
from explodingmoments.oracle import ExactMomentTable, _eval_scaled, _Scaled
from explodingmoments.partitions import MAX_GROUND, TraceCounts, tally_step

Graph = tuple[int, tuple[tuple[int, int], ...]]


def set_partitions(k: int) -> Iterator[tuple[int, ...]]:
    """The set partitions of k positions as restricted-growth strings (Knuth,
    TAOCP 4A, 7.2.1.5), in lexicographic order: position i carries the label
    of its block, at most one more than every label before it."""
    if k == 0:
        yield ()
        return
    for head in set_partitions(k - 1):
        for b in range(max(head, default=-1) + 2):
            yield head + (b,)


def walk_graph(labels: Sequence[int], lengths: Optional[Sequence[int]] = None) -> Graph:
    """Trace graph of closed walks through the blocks of ``labels``: one edge
    per step, the walks of the given lengths (by default one walk) taking
    consecutive positions."""
    edges, start = [], 0
    for size in lengths or (len(labels),):
        edges += [(labels[start + i], labels[start + (i + 1) % size]) for i in range(size)]
        start += size
    return max(labels) + 1, tuple(edges)


def trace_counts(vertex_count: int, edges) -> TraceCounts:
    """Counters of a graph given by its edges, tallied edge by edge as in
    ``walk_partitions``, with components found by union-find."""
    loops: dict[int, int] = {}
    pairs: dict[tuple[int, int], list[int]] = {}
    root = list(range(vertex_count))

    def find(a: int) -> int:
        while root[a] != a:
            a = root[a]
        return a

    for u, v in edges:
        tally_step(loops, pairs, u, v)
        root[find(u)] = find(v)
    components = sum(find(a) == a for a in range(vertex_count))
    return TraceCounts.of(vertex_count, loops, pairs, component_count=components)


@dataclass(frozen=True)
class CrossPartition:
    """Partition of the disjoint union of vertex sets V_1..V_r where each
    block holds at most one vertex per origin.

    Vertices are tagged pairs (origin, index) with origin in 0..r-1 and
    index in 0..|V_origin|-1.
    """

    parts: tuple[int, ...]
    blocks: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        seen = set()
        for block in self.blocks:
            origins = [o for o, _ in block]
            if len(origins) != len(set(origins)):
                raise ValueError("a block holds two vertices from one origin")
            seen.update(block)
        expected = {(o, v) for o, size in enumerate(self.parts) for v in range(size)}
        if seen != expected or sum(len(b) for b in self.blocks) != len(expected):
            raise ValueError("blocks must cover the disjoint union exactly once")


def enumerate_cross_partitions(sizes: Sequence[int]) -> list[CrossPartition]:
    """All partitions of V_1 + ... + V_r with at most one vertex per origin
    in each block."""
    sizes = tuple(int(s) for s in sizes)
    if sum(sizes) > MAX_GROUND:
        raise ValueError(f"total size {sum(sizes)} exceeds {MAX_GROUND}")
    vertices = [(o, v) for o, size in enumerate(sizes) for v in range(size)]
    results: list[CrossPartition] = []
    blocks: list[list[tuple[int, int]]] = []

    def place(idx: int):
        if idx == len(vertices):
            canon = tuple(sorted(tuple(sorted(b)) for b in blocks))
            results.append(CrossPartition(parts=sizes, blocks=canon))
            return
        tag = vertices[idx]
        for b in blocks:
            if all(o != tag[0] for o, _ in b):
                b.append(tag)
                place(idx + 1)
                b.pop()
        blocks.append([tag])
        place(idx + 1)
        blocks.pop()

    place(0)
    return results


def merge_under_cross_partition(graphs: list[Graph], sigma: CrossPartition) -> tuple[Graph, bool]:
    """Union of the graphs with vertices re-addressed to sigma's blocks, its
    edges sorted.

    The flag is true iff some edge of one graph coincides with an edge of
    another graph on the same ordered endpoint blocks.
    """
    if tuple(n for n, _ in graphs) != sigma.parts:
        raise ValueError("cross partition parts do not match graph vertex counts")
    block_of = {tag: i for i, block in enumerate(sigma.blocks) for tag in block}
    edges = []
    seen_by: dict[tuple[int, int], set[int]] = {}
    for gi, (_, g_edges) in enumerate(graphs):
        for u, v in g_edges:
            edge = (block_of[(gi, u)], block_of[(gi, v)])
            edges.append(edge)
            seen_by.setdefault(edge, set()).add(gi)
    shared = any(len(owners) > 1 for owners in seen_by.values())
    return (len(sigma.blocks), tuple(sorted(edges))), shared


def covariance_graphs(g1: Graph, g2: Graph, model: str, profile) -> Fraction:
    """Sum over gluings of two trace graphs sharing at least one edge of the
    tau product of the merged graph (0 unless the merge is an admissible
    tree for the model)."""
    _require_alpha_one(profile)
    total = Fraction(0)
    for sigma in enumerate_cross_partitions((g1[0], g2[0])):
        merged, shared = merge_under_cross_partition([g1, g2], sigma)
        if shared:
            total += tau(trace_counts(*merged), model, profile)
    return total


def limit_trace_moment(model: str, k: int, profile) -> Fraction:
    """Graph-summed limit of E[Tr(A^k)] / N over all Bell(k) partitions."""
    return sum(
        (tau(trace_counts(*walk_graph(p)), model, profile) for p in set_partitions(k)),
        Fraction(0),
    )


def covariance_trace(k: int, l: int, model: str, profile) -> Fraction:
    """Graph-summed covariance kernel over all pairs of partitions and
    their cross partitions."""
    graphs2 = [walk_graph(p) for p in set_partitions(l)]
    total = Fraction(0)
    for p1 in set_partitions(k):
        for g2 in graphs2:
            total += covariance_graphs(walk_graph(p1), g2, model, profile)
    return total


def _delta0(table: ExactMomentTable, s: TraceCounts, model: str) -> _Scaled:
    """E[prod over edges of a_(phi u, phi v)] for one injective labeling."""
    coeff = Fraction(1)
    half = 0
    for loops_k, count in s.loop_counts:
        c, h = table.a_diagonal(loops_k)
        if c == 0:
            return (Fraction(0), 0)
        coeff *= c**count
        half += h * count
    for (k, l), count in s.ordered_pair_counts:
        if model == "elliptic":
            c, h = table.a_pair(k, l)
        else:
            c, h = _entry_product(table, (k, l))
            h -= k + l
        if c == 0:
            return (Fraction(0), 0)
        coeff *= c**count
        half += h * count
    return (coeff, half)


def _entry_product(table: ExactMomentTable, counts) -> _Scaled:
    """E[prod_b x_b^(counts[b])] over independent entries x_b."""
    coeff = Fraction(1)
    half = 0
    for m in counts:
        c, h = table.entry(m)
        coeff *= c
        half += h
    return (coeff, half)


def exact_trace_mean(model: str, law, n: int, k: int) -> Fraction:
    """E[Tr(A^k)] / N at finite N over all Bell(k) partitions."""
    table = ExactMomentTable(law)
    total = Fraction(0)
    for p in set_partitions(k):
        s = trace_counts(*walk_graph(p))
        coeff, half = _delta0(table, s, model)
        if coeff != 0:
            total += perm(n - 1, s.vertex_count - 1) * _eval_scaled(coeff, half, n)
    return total


def exact_fluct_covariance(model: str, law, n: int, k: int, l: int) -> Fraction:
    """Exact E[Z_N(k) Z_N(l)] for the elliptic and iid models: over pairs of
    partitions and their cross partitions, the merged moment product minus
    the product of the separate ones."""
    table = ExactMomentTable(law)
    total = Fraction(0)
    for p1 in set_partitions(k):
        g1 = walk_graph(p1)
        c1, h1 = _delta0(table, trace_counts(*g1), model)
        for p2 in set_partitions(l):
            g2 = walk_graph(p2)
            c2, h2 = _delta0(table, trace_counts(*g2), model)
            for sigma in enumerate_cross_partitions((g1[0], g2[0])):
                merged, _shared = merge_under_cross_partition([g1, g2], sigma)
                cm, hm = _delta0(table, trace_counts(*merged), model)
                omega = _eval_scaled(cm, hm, n) - _eval_scaled(c1, h1, n) * _eval_scaled(
                    c2, h2, n
                )
                if omega != 0:
                    total += perm(n, len(sigma.blocks)) * omega
    return total / n


def exact_trace_mean_enumerated(model: str, law, n: int, k: int) -> Fraction:
    """E[Tr(A^k)] / N summed tuple by tuple over [N]^k.  Exponential in k."""
    if n**k > 2 * 10**6:
        raise ValueError("tuple enumeration too large")
    table = ExactMomentTable(law)
    total = Fraction(0)
    for tup in product(range(n), repeat=k):
        s = trace_counts(n, ((tup[m], tup[(m + 1) % k]) for m in range(k)))
        total += _eval_scaled(*_delta0(table, s, model), n)
    return total / n


def exact_circulant_trace_mean(law, n: int, k: int) -> Fraction:
    """E[Tr(C^k)] at finite N: enumerate index tuples with sum = 0 mod N
    (last index solved from the congruence), factorizing by independence.
    A tuple's moment product depends only on its sorted index multiplicities,
    so tuples are tallied by that signature and each product taken once."""
    table = ExactMomentTable(law)
    signatures: Counter = Counter()
    for head in product(range(n), repeat=k - 1):
        signatures[tuple(sorted(Counter(head + ((-sum(head)) % n,)).values()))] += 1
    total_coeff: dict[int, Fraction] = {}
    for signature, tuples in signatures.items():
        c, h = _entry_product(table, signature)
        if c != 0:
            total_coeff[h] = total_coeff.get(h, Fraction(0)) + tuples * c
    total = Fraction(0)
    for h, c in total_coeff.items():
        total += _eval_scaled(c, h - (k - 2), n)
    return total


def _circulant_joint(table, n: int, k: int, l: int) -> Fraction:
    """E[Tr(C^k) Tr(C^l)] by double tuple enumeration."""
    total_coeff: dict[int, Fraction] = {}
    heads_k = list(product(range(n), repeat=k - 1))
    heads_l = list(product(range(n), repeat=l - 1))
    for hk in heads_k:
        tup1 = hk + ((-sum(hk)) % n,)
        base: dict[int, int] = {}
        for j in tup1:
            base[j] = base.get(j, 0) + 1
        for hl in heads_l:
            tup2 = hl + ((-sum(hl)) % n,)
            counts = dict(base)
            for j in tup2:
                counts[j] = counts.get(j, 0) + 1
            c, h = _entry_product(table, counts.values())
            if c != 0:
                total_coeff[h] = total_coeff.get(h, Fraction(0)) + c
    total = Fraction(0)
    for h, c in total_coeff.items():
        total += _eval_scaled(c, h - (k - 2) - (l - 2), n)
    return total


def _stats_from_traces(traces: np.ndarray, scale: float):
    m = traces.shape[0]
    mean = traces.mean(axis=0)
    z = scale * (traces - mean)
    cov = z.T @ z / m
    m4 = (z**4).mean(axis=0)
    return mean, cov, m4


def reference_aggregate_stats(
    spec: EnsembleSpec, traces: np.ndarray, bootstrap_resamples: int = BOOTSTRAP_DEFAULT
) -> SampleStats:
    m, k_max = traces.shape
    scale = np.sqrt(spec.n)
    mean, cov, m4 = _stats_from_traces(traces, scale)
    se_mean = traces.std(axis=0, ddof=1) / np.sqrt(m)
    rng = np.random.default_rng(np.random.SeedSequence((abs(spec.seed), 0xB007)))
    covs = np.empty((bootstrap_resamples,) + cov.shape)
    m4s = np.empty((bootstrap_resamples, k_max))
    for b in range(bootstrap_resamples):
        idx = rng.integers(0, m, size=m)
        _, covs[b], m4s[b] = _stats_from_traces(traces[idx], scale)
    return SampleStats(
        spec=spec,
        k_max=k_max,
        replicates=m,
        traces=traces,
        mean_traces=mean,
        se_mean=se_mean,
        cov_z=cov,
        se_cov=covs.std(axis=0, ddof=1),
        zmoment4=m4,
        se_zmoment4=m4s.std(axis=0, ddof=1),
    )


def reference_circulant_generator(law, n: int, rng, branches: Counter) -> np.ndarray:
    """One circulant generator (x_0..x_{N-1}) drawn from rng: a standard normal
    vector for the Gaussian law; otherwise a Binomial(N, q/N) count, that many
    distinct positions (a permutation prefix when 3 count >= N, else whole
    batches of uniform positions until one is distinct), and one uniform per
    position for its atom, scaled by sqrt(N).  ``branches`` counts the
    permutation draws and the redrawn batches."""
    if isinstance(law, GaussianLaw):
        return rng.standard_normal(n)
    vals = np.array([float(v) for v, _p in law.atoms])
    cum = np.cumsum([float(p) for _v, p in law.atoms])
    cum[-1] = 1.0
    count = rng.binomial(n, float(law.activation) / n)
    if 3 * count >= n:
        branches["permutation"] += 1
        active = rng.permutation(n)[:count]
    else:
        active = rng.integers(0, n, size=count)
        while len(np.unique(active)) < count:
            branches["redraw"] += 1
            active = rng.integers(0, n, size=count)
    x = np.zeros(n)
    x[active] = vals[np.searchsorted(cum, rng.random(count), side="right")] * np.sqrt(n)
    return x


def of_csr(mat: sparse.csr_matrix) -> SparseChunk:
    """The stored entries of a square CSR matrix in canonical order: each
    row's columns ascending, duplicates summed."""
    if not mat.has_canonical_format:
        mat = mat.copy()
        mat.sum_duplicates()
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    on = rows == mat.indices
    off = ~on
    return SparseChunk(mat.shape[0], rows[off], mat.indices[off], mat.data[off], rows[on], mat.data[on])


def to_csr(chunk: SparseChunk) -> sparse.csr_matrix:
    """The canonical CSR matrix of a chunk's entries: rows in order, each
    row's columns sorted."""
    rows = np.concatenate([chunk.src, chunk.diag_at])
    cols = np.concatenate([chunk.dst, chunk.diag_at])
    data = np.concatenate([chunk.val, chunk.diag])
    return sparse.coo_matrix((data, (rows, cols)), shape=(chunk.size, chunk.size)).tocsr()


def sample_sparse_blocks(spec: EnsembleSpec, seeds: Sequence[int]) -> sparse.csr_matrix:
    """The CSR matrix of ``sample_sparse_chunk``: its block i holds
    ``to_csr(sample(replace(spec, seed=seeds[i])).matrix)`` entry for entry,
    in the same stored order."""
    return to_csr(sample_sparse_chunk(spec, replica_generators(seeds)))


def reference_trace_powers(matrix, norm: int, k_max: int) -> np.ndarray:
    """[Tr(A^k) / norm for k = 1..k_max] of one sparse matrix A by
    sequential products A^k = A^(k-1) A, each in canonical order, each trace
    the sum of a diagonal."""
    out = np.empty(k_max)
    power = matrix
    for k in range(k_max):
        out[k] = power.diagonal().sum() / norm
        if k + 1 < k_max:
            power = (power @ matrix).sorted_indices()
    return out


def reference_chunk_traces(chunk: SparseChunk, blocks: int, norm: int, k_max: int) -> np.ndarray:
    """(blocks, k_max) array of Tr(B_r^k) / norm of the ``blocks`` equal
    diagonal blocks of one chunk: the rows off the cyclic core add the powers
    of their diagonal entry, the core rows become one CSR matrix A_C,
    relabelled in order, and with h = ceil(k_max/2) the traces for k <= h
    are per-block sums of the diagonals of A_C, ..., A_C^h, each product in
    canonical order, those for k > h per-block sums of (A^a)_ij (A^b)_ji
    with a = floor(k/2), b = ceil(k/2), each pairing transposing A_C^b
    afresh."""
    size = chunk.size // blocks
    core = _core_rows(chunk.src, chunk.dst, chunk.size)
    rows = np.flatnonzero(core)
    rank = np.cumsum(core) - 1
    edges = core[chunk.src] & core[chunk.dst]
    loops = core[chunk.diag_at]
    mat = to_csr(SparseChunk(
        len(rows),
        rank[chunk.src[edges]],
        rank[chunk.dst[edges]],
        chunk.val[edges],
        rank[chunk.diag_at[loops]],
        chunk.diag[loops],
    ))
    half = (k_max + 1) // 2
    powers = [mat]
    loop_powers = [np.zeros(chunk.size)]
    loop_powers[0][chunk.diag_at] = chunk.diag
    loop_powers[0][rows] = 0.0
    while len(powers) < half:
        powers.append((powers[-1] @ mat).sorted_indices())
        loop_powers.append(loop_powers[-1] * loop_powers[0])
    out = np.empty((blocks, k_max))
    for k in range(1, k_max + 1):
        if k <= half:
            diagonal = loop_powers[k - 1].copy()
            diagonal[rows] = powers[k - 1].diagonal()
            out[:, k - 1] = diagonal.reshape(blocks, size).sum(axis=1)
        else:
            a, b = k // 2 - 1, (k + 1) // 2 - 1
            paired = powers[a].multiply(powers[b].T)
            row_block = np.repeat(rows // size, np.diff(paired.indptr))
            out[:, k - 1] = np.bincount(row_block, paired.data, minlength=blocks)
            out[:, k - 1] += (loop_powers[a] * loop_powers[b]).reshape(blocks, size).sum(axis=1)
    return out / norm


def reference_replica_traces(spec: EnsembleSpec, k_max: int, m: int) -> np.ndarray:
    """(m, k_max) traces of the sparse replicas r = 1..m, seeds spec.seed + r,
    in chunks of about 8000 rows, each chunk seeded and traced on its own by
    :func:`reference_chunk_traces`."""
    chunk = max(1, min(m, 8000 // sparse_size(spec)))
    first = spec.seed + 1
    out = []
    for lo in range(0, m, chunk):
        seeds = range(first + lo, first + min(lo + chunk, m))
        sampled = sample_sparse_chunk(spec, replica_generators(seeds))
        out.append(reference_chunk_traces(sampled, len(seeds), spec.n, k_max))
    return np.vstack(out)


def reference_batch_traces(peeled, norm: int, k_max: int, out: np.ndarray) -> None:
    """``estimator._batch_traces`` with the products and pairings of scipy,
    each product in canonical order: write Tr(B_r^k) / norm, k = 1..k_max,
    for the samples B_r of ``peeled`` in order, to the rows of ``out``,
    (blocks, k_max)."""
    size, rows = peeled.size, peeled.rows
    first = np.cumsum([0] + [len(loop) for loop in peeled.loops]).tolist()
    blocks = len(out)
    mat = to_csr(peeled.core)
    half = (k_max + 1) // 2
    powers = [mat]
    while len(powers) < half:
        powers.append((powers[-1] @ mat).sorted_indices())
    diagonals = [power.diagonal() for power in powers]
    core_block = rows // size
    for k in range(half + 1, k_max + 1):
        a, b = k // 2 - 1, (k + 1) // 2 - 1
        # b steps up at each odd k: drop the last transpose, then make this one
        if k % 2 or k == half + 1:
            right = None
            right = powers[b].T.tocsr()
        out[:, k - 1] = _paired_sums(powers[a], right, core_block, blocks)
    powers = right = None
    # each chunk's other rows: the diagonal powers of the rows that left with
    # 1 - d z (0 on the core), then the Newton sums of the pivot series
    cuts = np.searchsorted(rows, first).tolist()
    for loop, lo, hi, start, stop in zip(peeled.loops, first, first[1:], cuts, cuts[1:]):
        at = rows[start:stop] - lo
        loop_powers = [loop]
        while len(loop_powers) < half:
            loop_powers.append(loop_powers[-1] * loop_powers[0])
        sums = out[lo // size : hi // size]
        for k in range(1, k_max + 1):
            if k <= half:
                diagonal = loop_powers[k - 1].copy()
                diagonal[at] = diagonals[k - 1][start:stop]
                sums[:, k - 1] = diagonal.reshape(-1, size).sum(axis=1)
            else:
                loops = loop_powers[k // 2 - 1] * loop_powers[(k + 1) // 2 - 1]
                sums[:, k - 1] += loops.reshape(-1, size).sum(axis=1)
    if peeled.terms is not None:
        out += peeled.terms[:, :k_max]
    out /= norm


def _paired_sums(left, right, row_block: np.ndarray, blocks: int) -> np.ndarray:
    """Per-block sums of left_ij right_ij over the rows i of each block, the
    block of row i being ``row_block[i]``.  The elementwise product is freed
    on return, before the next one is formed."""
    paired = left.multiply(right)
    return np.bincount(np.repeat(row_block, np.diff(paired.indptr)), paired.data, minlength=blocks)
