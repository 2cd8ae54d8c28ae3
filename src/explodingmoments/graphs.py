"""Tree classification of trace graphs and the entry-moment product that
weighs a trace term.

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

Both functions read a graph's ``partitions.TraceCounts``, the record that
``partitions.walk_partitions`` grows edge by edge; no graph is built.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Callable, Optional

from .partitions import TraceCounts

ADMISSIBLE_TREE = "admissible_tree"
ZERO_SINGLE_EDGE_OR_LOOP = "zero_by_single_edge_or_loop"
ZERO_CYCLE = "zero_by_cycle"
ZERO_DIRECTION = "zero_by_direction_rule"

GRAPH_MODELS = ("elliptic", "iid")


def classify(counts: TraceCounts, model: str) -> str:
    """Decide whether a connected graph's limit term survives.

    Loops and single-multiplicity pairs zero out under every model; a cycle
    in the reduced simple graph loses an order of N; the independent-entry
    model additionally requires every adjacent pair to point one way (a pair
    with >= 2 edges in each direction costs two moment factors against one
    reduced edge and vanishes).
    """
    if model not in GRAPH_MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {GRAPH_MODELS}")
    if counts.has_loop or counts.has_single_multiplicity_pair:
        return ZERO_SINGLE_EDGE_OR_LOOP
    if counts.cycle_excess > 0 or counts.component_count > 1:
        return ZERO_CYCLE
    if model == "iid" and not counts.all_pairs_unidirectional:
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
