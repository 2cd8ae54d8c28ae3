"""Reference enumerations for the exact layers, used only by the tests.

These are the sums the limits and oracle layers computed before
``partitions.walk_partitions``: Bell-number enumeration of set partitions
filtered by graph classification, gluings of two trace graphs over cross
partitions of their vertex sets, and the circulant mean by tuple
enumeration.  They are slow and independent of the pruned enumerator, which
the tests require to give the same ``Fraction`` values.

``reference_aggregate_stats`` is the bootstrap as it was before the weighted
pass: each resample gathers its copy of the traces and recomputes the
statistics from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from explodingmoments.ensembles import EnsembleSpec
from explodingmoments.estimator import BOOTSTRAP_DEFAULT, SampleStats

from explodingmoments.graphs import TraceGraph, graph_of_partition, stats
from explodingmoments.limits import _require_alpha_one, tau
from explodingmoments.oracle import ExactMomentTable, _eval_scaled, _pattern_value, _Scaled
from explodingmoments.partitions import MAX_GROUND, enumerate_set_partitions, falling_factorial


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

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_index_of(self, origin: int, vertex: int) -> int:
        for i, block in enumerate(self.blocks):
            if (origin, vertex) in block:
                return i
        raise ValueError(f"vertex ({origin},{vertex}) not found")


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


def merge_under_cross_partition(
    graphs: list[TraceGraph], sigma: CrossPartition
) -> tuple[TraceGraph, bool]:
    """Union of the graphs with vertices re-addressed to sigma's blocks.

    The flag is true iff some edge of one graph coincides with an edge of
    another graph on the same ordered endpoint blocks.
    """
    if tuple(g.vertex_count for g in graphs) != sigma.parts:
        raise ValueError("cross partition parts do not match graph vertex counts")
    block_of = {}
    for i, block in enumerate(sigma.blocks):
        for tag in block:
            block_of[tag] = i
    edges = []
    seen_by: dict[tuple[int, int], set[int]] = {}
    for gi, g in enumerate(graphs):
        for u, v in g.edges:
            a, b = block_of[(gi, u)], block_of[(gi, v)]
            edges.append((a, b))
            seen_by.setdefault((a, b), set()).add(gi)
    shared = any(len(owners) > 1 for owners in seen_by.values())
    return TraceGraph(sigma.num_blocks, tuple(edges)), shared


def covariance_graphs(g1: TraceGraph, g2: TraceGraph, model: str, profile) -> Fraction:
    """Sum over gluings of two trace graphs sharing at least one edge of the
    tau product of the merged graph (0 unless the merge is an admissible
    tree for the model)."""
    _require_alpha_one(profile)
    total = Fraction(0)
    for sigma in enumerate_cross_partitions((g1.vertex_count, g2.vertex_count)):
        merged, shared = merge_under_cross_partition([g1, g2], sigma)
        if not shared:
            continue
        total += tau(merged, model, profile)
    return total


def limit_trace_moment(model: str, k: int, profile) -> Fraction:
    """Graph-summed limit of E[Tr(A^k)] / N over all Bell(k) partitions."""
    total = Fraction(0)
    for pi in enumerate_set_partitions(k):
        total += tau(graph_of_partition(pi), model, profile)
    return total


def covariance_trace(k: int, l: int, model: str, profile) -> Fraction:
    """Graph-summed covariance kernel over all pairs of partitions and
    their cross partitions."""
    graphs1 = [graph_of_partition(pi) for pi in enumerate_set_partitions(k)]
    graphs2 = [graph_of_partition(pi) for pi in enumerate_set_partitions(l)]
    total = Fraction(0)
    for g1 in graphs1:
        for g2 in graphs2:
            total += covariance_graphs(g1, g2, model, profile)
    return total


def _delta0(table: ExactMomentTable, g: TraceGraph, model: str) -> _Scaled:
    """E[prod over edges of a_(phi u, phi v)] for one injective labeling."""
    s = stats(g)
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
            c, h = table.a_entry_product(k, l)
        if c == 0:
            return (Fraction(0), 0)
        coeff *= c**count
        half += h * count
    return (coeff, half)


def exact_trace_mean(model: str, law, n: int, k: int) -> Fraction:
    """E[Tr(A^k)] / N at finite N over all Bell(k) partitions."""
    table = ExactMomentTable(law)
    total = Fraction(0)
    for pi in enumerate_set_partitions(k):
        g = graph_of_partition(pi)
        coeff, half = _delta0(table, g, model)
        if coeff == 0:
            continue
        total += falling_factorial(n - 1, g.vertex_count - 1) * _eval_scaled(coeff, half, n)
    return total


def exact_fluct_covariance(model: str, law, n: int, k: int, l: int) -> Fraction:
    """Exact E[Z_N(k) Z_N(l)] for the elliptic and iid models: over pairs of
    partitions and their cross partitions, the merged moment product minus
    the product of the separate ones."""
    table = ExactMomentTable(law)
    total = Fraction(0)
    for pi1 in enumerate_set_partitions(k):
        g1 = graph_of_partition(pi1)
        c1, h1 = _delta0(table, g1, model)
        for pi2 in enumerate_set_partitions(l):
            g2 = graph_of_partition(pi2)
            c2, h2 = _delta0(table, g2, model)
            for sigma in enumerate_cross_partitions((g1.vertex_count, g2.vertex_count)):
                merged, _shared = merge_under_cross_partition([g1, g2], sigma)
                cm, hm = _delta0(table, merged, model)
                omega = _eval_scaled(cm, hm, n) - _eval_scaled(c1, h1, n) * _eval_scaled(
                    c2, h2, n
                )
                if omega != 0:
                    total += falling_factorial(n, sigma.num_blocks) * omega
    return total / n


def exact_circulant_trace_mean(law, n: int, k: int) -> Fraction:
    """E[Tr(C^k)] at finite N: enumerate index tuples with sum = 0 mod N
    (last index solved from the congruence), factorizing by independence."""
    table = ExactMomentTable(law)

    @lru_cache(maxsize=None)
    def pattern(counts: tuple[int, ...]) -> _Scaled:
        return _pattern_value(table, counts)

    total_coeff: dict[int, Fraction] = {}
    for head in product(range(n), repeat=k - 1):
        last = (-sum(head)) % n
        counts: dict[int, int] = {}
        for j in head:
            counts[j] = counts.get(j, 0) + 1
        counts[last] = counts.get(last, 0) + 1
        c, h = pattern(tuple(sorted(counts.values())))
        if c != 0:
            total_coeff[h] = total_coeff.get(h, Fraction(0)) + c
    total = Fraction(0)
    for h, c in total_coeff.items():
        total += _eval_scaled(c, h - (k - 2), n)
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
