"""Partitions of walk positions and their block-size classes.

These index every sum in the trace-moment calculus: a normalized trace
expands over partitions of {1..k} (which index tuples by their coincidence
pattern), and a covariance kernel over partitions of the k + l positions of
two walks (restricted to each walk they give the two trace graphs, and the
blocks they merge glue them).  :func:`walk_partitions`, the one set-partition
enumerator, enumerates both, growing the trace graph as it goes, and can
drop every branch whose terms are zero under a centred law; which graphs
are thick trees is decided by ``graphs.classify`` alone.
:class:`TraceCounts` is the one record of a trace graph's counters.  A
circulant term depends on a partition only through its per-walk block
sizes, so :func:`block_classes` counts the partitions of each such class in
closed form instead.

Enumeration is guarded at small sizes (Bell(13) > 27M).  The index tuples of
a partition with |V| blocks are never materialized: there are
N (N-1) ... (N-|V|+1) of them, ``math.perm(N, |V|)``.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import factorial, prod
from operator import le, sub
from typing import Iterator, NamedTuple, Sequence

MAX_GROUND = 12


def double_factorial_odd(r: int) -> int:
    """(r-1)!! for even r, the number of perfect matchings of {1..r}."""
    if r % 2 == 1:
        return 0
    out = 1
    for m in range(r - 1, 0, -2):
        out *= m
    return out


class TraceCounts(NamedTuple):
    """Loop and pair multiplicity counters of a trace graph: blocks are the
    vertices, each walk step one directed edge.

    loop_counts[k]             - number of vertices carrying exactly k loops
    ordered_pair_counts[(k,l)] - vertex pairs u < v with k edges u->v and l edges v->u
    reduced_edge_count         - edges after forgetting multiplicity and orientation
                                 (each loop vertex and each adjacent pair counts once)
    """

    vertex_count: int
    loop_counts: tuple[tuple[int, int], ...]
    ordered_pair_counts: tuple[tuple[tuple[int, int], int], ...]
    component_count: int

    @staticmethod
    def of(vertex_count: int, loops: dict, pairs: dict, component_count: int) -> "TraceCounts":
        """Counters of the tallies kept by :func:`tally_step`."""
        return TraceCounts(
            vertex_count,
            tuple(sorted(Counter(loops.values()).items())),
            tuple(sorted(Counter(tuple(r) for r in pairs.values()).items())),
            component_count,
        )

    @property
    def reduced_edge_count(self) -> int:
        return sum(c for _, c in self.loop_counts) + sum(c for _, c in self.ordered_pair_counts)

    @property
    def cycle_excess(self) -> int:
        return self.reduced_edge_count + self.component_count - self.vertex_count

    @property
    def has_loop(self) -> bool:
        return bool(self.loop_counts)

    @property
    def has_single_loop_vertex(self) -> bool:
        return any(k == 1 for k, _ in self.loop_counts)

    @property
    def has_single_multiplicity_pair(self) -> bool:
        return any(a + b == 1 for (a, b), _ in self.ordered_pair_counts)

    @property
    def all_pairs_unidirectional(self) -> bool:
        return all(a == 0 or b == 0 for (a, b), _ in self.ordered_pair_counts)


def tally_step(loops: dict, pairs: dict, u: int, v: int, delta: int = 1) -> int:
    """Add (delta = 1) or take back (delta = -1) the step u -> v:
    ``loops[u]`` counts the loops at u, ``pairs[(a, b)]`` with a < b the
    steps [a -> b, b -> a].  Returns the change in the number of singles,
    the vertices with exactly one loop and the adjacent pairs with exactly
    one edge."""
    if u == v:
        before = loops.get(u, 0)
        after = loops[u] = before + delta
        if not after:
            del loops[u]
    else:
        key = (u, v) if u < v else (v, u)
        rec = pairs.setdefault(key, [0, 0])
        before = rec[0] + rec[1]
        rec[u > v] += delta
        after = before + delta
        if not after:
            del pairs[key]
    return (after == 1) - (before == 1)


def walk_partitions(lengths: Sequence[int], nonzero: bool = False) -> Iterator[TraceCounts]:
    """Set partitions of the positions of one or two closed walks of the
    given lengths, depth first in restricted-growth order (Knuth, TAOCP 4A,
    7.2.1.5), each yielded as the counters of the trace graph it induces.

    Positions of the first walk come first.  The graph grows by the steps
    that end at each newly placed position.  With ``nonzero`` only the
    partitions with no single are yielded: no vertex carries exactly one
    loop and no adjacent pair exactly one edge.  Under a centred law such a
    single is a factor E[x] = 0, so these are the partitions whose term can
    be nonzero.  Each later step takes at most one single away, so a branch
    is dropped as soon as its singles, counted as the steps are tallied,
    outnumber the steps still to place.  Without it every set partition is
    yielded, Bell(total) in all.  Which leaves are thick trees is
    :func:`graphs.classify`'s to say.
    """
    lengths = tuple(int(x) for x in lengths)
    total = sum(lengths)
    if not 1 <= len(lengths) <= 2 or min(lengths) < 1 or total > MAX_GROUND:
        raise ValueError(f"walk lengths {lengths}: need one or two walks, total 1..{MAX_GROUND}")
    label = [0] * total
    loops: dict[int, int] = {}
    pairs: dict[tuple[int, int], list[int]] = {}

    def place(p: int, blocks: int, slack: int) -> Iterator[TraceCounts]:
        """Place position p; ``slack`` is the steps still to place less the
        singles, so a branch with negative slack holds only zero terms."""
        if p == total:
            # each walk's steps form a closed walk, so the second walk is a
            # component of its own unless one of its positions lands on a
            # block of the first; with one walk the slice is empty
            apart = min(label[lengths[0] :], default=0) > max(label[: lengths[0]])
            yield TraceCounts.of(blocks, loops, pairs, 1 + apart)
            return
        first, last = (lengths[0], total - 1) if p >= lengths[0] else (0, lengths[0] - 1)
        for b in range(blocks + 1):
            label[p] = b
            steps = [(label[p - 1], b)] if p != first else []
            if p == last:
                steps.append((b, label[first]))
            left = slack - len(steps)
            for u, v in steps:
                left -= tally_step(loops, pairs, u, v, 1)
            if not nonzero or left >= 0:
                yield from place(p + 1, max(blocks, b + 1), left)
            for u, v in steps:
                tally_step(loops, pairs, u, v, -1)

    yield from place(0, 0, total)


def block_classes(lengths: Sequence[int]) -> dict[tuple[tuple[int, ...], ...], int]:
    """{blocks: count} over the set partitions of the positions of one or two
    closed walks of the given lengths, grouped by block sizes, keeping only
    those whose every block holds at least two positions.

    A class is the multiset of its blocks, each the tuple of its positions in
    each walk, sorted in decreasing order.  A class with per-walk block sizes
    a_bw holds prod_w k_w! / (prod_b prod_w a_bw! * prod mu!) partitions,
    where mu runs over the multiplicities of equal blocks (the exponential
    formula; Stanley, Enumerative Combinatorics 2, 5.1).  For one walk the
    classes are the integer partitions of k with parts >= 2.
    """
    lengths = tuple(int(x) for x in lengths)
    if not 1 <= len(lengths) <= 2 or min(lengths) < 1:
        raise ValueError(f"walk lengths {lengths}: need one or two walks, each of length >= 1")
    shapes = sorted(
        (a for a in product(*(range(k + 1) for k in lengths)) if sum(a) >= 2), reverse=True
    )
    classes = {}

    def grow(rest: tuple[int, ...], first: int, blocks: tuple[tuple[int, ...], ...]):
        if not any(rest):
            sizes = prod(factorial(a) for block in blocks for a in block)
            equal = prod(map(factorial, Counter(blocks).values()))
            classes[blocks] = prod(map(factorial, lengths)) // (sizes * equal)
            return
        for i, shape in enumerate(shapes[first:], first):
            if all(map(le, shape, rest)):
                grow(tuple(map(sub, rest, shape)), i, blocks + (shape,))

    grow(lengths, 0, ())
    return classes
