"""Directed multigraphs of closed trace walks and their tree classification.

A partition pi of {1..k} induces a directed multigraph on its blocks with one
edge block(m) -> block(m+1) per walk step (cyclically).  Whether the limit of
the corresponding trace term survives is decided entirely by the shape of
this graph:

* thick tree  - no loops, every adjacent pair joined by >= 2 edges in total,
  reduced simple graph a tree (dependent-pair models);
* fat tree    - thick tree whose every adjacent pair carries edges in one
  direction only (independent-entry models).

No closed walk, and no union of two closed walks, is a fat tree: a walk on a
tree crosses each edge as often in one direction as in the other.  The
limits layer therefore returns the independent-entry limits as 0 without
enumerating; the fat-tree rule stays here as the reference for that fact.

The partition sums of the limits and oracle layers build no graphs:
``partitions.walk_partitions`` grows the same ``TraceCounts`` edge by edge,
with the same :func:`partitions.tally_step` that :func:`stats` uses.
:func:`moment_product` turns the counters into the product of entry moments
that weighs a term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterable, Optional

from .partitions import SetPartition, TraceCounts, tally_step

ADMISSIBLE_TREE = "admissible_tree"
ZERO_SINGLE_EDGE_OR_LOOP = "zero_by_single_edge_or_loop"
ZERO_CYCLE = "zero_by_cycle"
ZERO_DIRECTION = "zero_by_direction_rule"

GRAPH_MODELS = ("elliptic", "iid")


@dataclass(frozen=True)
class TraceGraph:
    """Directed multigraph, canonically encoded as a sorted edge tuple (used
    as cache key downstream)."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) endpoint out of range")
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def make_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> TraceGraph:
    return TraceGraph(vertex_count, tuple((u, v) for u, v in edges))


def graph_of_partition(pi: SetPartition) -> TraceGraph:
    """Blocks become vertices; one edge block(m) -> block(m+1) per step, with
    k+1 identified with 1.  Exactly k edges in total."""
    k = pi.ground_size
    vertex_of = {}
    for i, block in enumerate(pi.blocks):
        for element in block:
            vertex_of[element] = i
    edges = []
    for m in range(1, k + 1):
        nxt = 1 if m == k else m + 1
        edges.append((vertex_of[m], vertex_of[nxt]))
    return TraceGraph(pi.num_blocks, tuple(edges))


def _components(vertex_count: int, pairs: Iterable[tuple[int, int]]) -> int:
    parent = list(range(vertex_count))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in pairs:
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(vertex_count)})


@lru_cache(maxsize=65536)
def stats(g: TraceGraph) -> TraceCounts:
    """All multiplicity counters of a graph; deterministic and cached."""
    loops: dict[int, int] = {}
    pairs: dict[tuple[int, int], list[int]] = {}
    for u, v in g.edges:
        tally_step(loops, pairs, u, v)
    comps = _components(g.vertex_count, pairs)
    return TraceCounts.of(g.vertex_count, loops, pairs, component_count=comps)


@lru_cache(maxsize=65536)
def classify(g: TraceGraph, model: str) -> str:
    """Decide whether a connected graph's limit term survives.

    Loops and single-multiplicity pairs zero out under every model; a cycle
    in the reduced simple graph loses an order of N; the independent-entry
    model additionally requires every adjacent pair to point one way (a pair
    with >= 2 edges in each direction costs two moment factors against one
    reduced edge and vanishes).
    """
    if model not in GRAPH_MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {GRAPH_MODELS}")
    s = stats(g)
    if s.has_loop or s.has_single_multiplicity_pair:
        return ZERO_SINGLE_EDGE_OR_LOOP
    if s.cycle_excess > 0 or s.component_count > 1:
        return ZERO_CYCLE
    if model == "iid" and not s.all_pairs_unidirectional:
        return ZERO_DIRECTION
    return ADMISSIBLE_TREE


def moment_product(counts, pair: Callable, diagonal: Optional[Callable] = None) -> tuple:
    """Product of moment factors over the loop vertices and adjacent pairs
    of a graph, read from the ``loop_counts`` and ``ordered_pair_counts`` of
    its ``partitions.TraceCounts``.

    ``diagonal(m)`` is the factor of a vertex with m loops, ``pair(a, b)``
    that of a pair u < v with a edges u -> v and b edges v -> u; each returns
    (coefficient, half-power of N), and so does the product.  It is (0, 0) as
    soon as one factor vanishes.
    """
    coeff, half = Fraction(1), 0
    factors = chain(
        ((diagonal(m), count) for m, count in counts.loop_counts),
        ((pair(a, b), count) for (a, b), count in counts.ordered_pair_counts),
    )
    for (c, h), count in factors:
        if c == 0:
            return (Fraction(0), 0)
        coeff *= c**count
        half += h * count
    return (coeff, half)
