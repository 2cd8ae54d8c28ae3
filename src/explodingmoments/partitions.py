"""Pair partitions, partitions of walk positions, and their block-size classes.

These index every sum in the trace-moment calculus: a normalized trace
expands over partitions of {1..k} (which index tuples by their coincidence
pattern), and a covariance kernel over partitions of the k + l positions of
two walks (restricted to each walk they give the two trace graphs, and the
blocks they merge glue them).  :func:`walk_partitions`, the one set-partition
enumerator, enumerates both, growing the trace graph as it goes, and can
prune every branch on which no limit term survives.  :class:`TraceCounts` is
the one record of a trace graph's counters.  A circulant term depends on a
partition only through its per-walk block sizes, so :func:`block_classes`
counts the partitions of each such class in closed form instead.

Enumeration is guarded at small sizes (Bell(13) > 27M).  The index tuples of
a partition with |V| blocks are never materialized: there are
N (N-1) ... (N-|V|+1) of them, ``math.perm(N, |V|)``.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import factorial, prod
from operator import le, sub
from typing import Iterator, NamedTuple, Optional, Sequence

MAX_GROUND = 12


def double_factorial_odd(r: int) -> int:
    """(r-1)!! for even r, the number of perfect matchings of {1..r}."""
    if r % 2 == 1:
        return 0
    out = 1
    for m in range(r - 1, 0, -2):
        out *= m
    return out


def enumerate_pair_partitions(r: int) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings of {1..r}, each a tuple of pairs (a, b) with
    a < b in increasing a; the one empty matching for r = 0, none for odd r;
    count = (r-1)!!."""
    if not 0 <= r <= MAX_GROUND:
        raise ValueError(f"r={r} outside 0..{MAX_GROUND}")

    def match(rest: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not rest:
            yield ()
        for i in range(1, len(rest)):
            for tail in match(rest[1:i] + rest[i + 1 :]):
                yield ((rest[0], rest[i]),) + tail

    return list(match(tuple(range(1, r + 1))))


class TraceCounts(NamedTuple):
    """Loop and pair multiplicity counters of a trace graph: blocks are the
    vertices, each walk step one directed edge.

    loop_counts[k]             - number of vertices carrying exactly k loops
    ordered_pair_counts[(k,l)] - vertex pairs u < v with k edges u->v and l edges v->u
    reduced_edge_count         - edges after forgetting multiplicity and orientation
                                 (each loop vertex and each adjacent pair counts once)
    shared                     - some directed edge is a step of both walks
    """

    vertex_count: int
    loop_counts: tuple[tuple[int, int], ...]
    ordered_pair_counts: tuple[tuple[tuple[int, int], int], ...]
    component_count: int
    shared: bool = False

    @staticmethod
    def of(vertex_count: int, loops: dict, pairs: dict, **rest) -> "TraceCounts":
        """Counters of the tallies kept by :func:`tally_step`."""
        return TraceCounts(
            vertex_count,
            tuple(sorted(Counter(loops.values()).items())),
            tuple(sorted(Counter(tuple(r) for r in pairs.values()).items())),
            **rest,
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


def tally_step(loops: dict, pairs: dict, u: int, v: int, delta: int = 1):
    """Add (delta = 1) or take back (delta = -1) the step u -> v:
    ``loops[u]`` counts the loops at u, ``pairs[(a, b)]`` with a < b the
    steps [a -> b, b -> a]."""
    if u == v:
        loops[u] = loops.get(u, 0) + delta
        if not loops[u]:
            del loops[u]
        return
    key = (u, v) if u < v else (v, u)
    rec = pairs.setdefault(key, [0, 0])
    rec[u > v] += delta
    if rec == [0, 0]:
        del pairs[key]


def walk_partitions(lengths: Sequence[int], prune: bool = False) -> Iterator[TraceCounts]:
    """Set partitions of the positions of one or two closed walks of the
    given lengths, depth first in restricted-growth order (Knuth, TAOCP 4A,
    7.2.1.5), each yielded as the counters of the trace graph it induces.

    Positions of the first walk come first.  The graph grows by the steps
    that end at each newly placed position.  With ``prune`` only thick trees
    are yielded: a branch is dropped on its first loop, on a step that closes
    a cycle in the reduced graph, or when the vertex count passes (total
    length)/2 + 1 (each of a tree's |V| - 1 adjacent pairs takes two steps);
    a leaf is kept if it is connected and no adjacent pair carries a single
    edge.  Without ``prune`` every set partition is yielded, Bell(total) in
    all.
    """
    lengths = tuple(int(x) for x in lengths)
    total = sum(lengths)
    if not 1 <= len(lengths) <= 2 or min(lengths) < 1 or total > MAX_GROUND:
        raise ValueError(f"walk lengths {lengths}: need one or two walks, total 1..{MAX_GROUND}")
    max_vertices = total // 2 + 1 if prune else total
    label = [0] * total
    loops: dict[int, int] = {}
    pairs: dict[tuple[int, int], list[int]] = {}

    def components(p: int) -> int:
        """Components of the graph of positions 0..p: each walk's placed
        steps form a path or a closed walk, so the second walk is a component
        of its own until one of its positions lands on a block of the first."""
        second = label[lengths[0] : p + 1]
        return 1 + (bool(second) and min(second) > max(label[: lengths[0]]))

    def leaf(blocks: int) -> Optional[TraceCounts]:
        if prune and (len(pairs) != blocks - 1 or any(a + b == 1 for a, b in pairs.values())):
            return None  # a forest of two trees, or a pair with a single edge
        steps = [
            {(label[s + i], label[s + (i + 1) % size]) for i in range(size)}
            for s, size in zip((0, lengths[0]), lengths)
        ]
        return TraceCounts.of(
            blocks,
            loops,
            pairs,
            component_count=components(total - 1),
            shared=len(steps) == 2 and not steps[0].isdisjoint(steps[1]),
        )

    def place(p: int, blocks: int) -> Iterator[TraceCounts]:
        if p == total:
            out = leaf(blocks)
            if out is not None:
                yield out
            return
        first, last = (lengths[0], total - 1) if p >= lengths[0] else (0, lengths[0] - 1)
        for b in range(min(blocks + 1, max_vertices)):
            label[p] = b
            steps = [(label[p - 1], b)] if p != first else []
            if p == last:
                steps.append((b, label[first]))
            for u, v in steps:
                tally_step(loops, pairs, u, v, 1)
            grown = max(blocks, b + 1)
            # a loop-free graph is a forest iff it has |V| - components pairs
            if not prune or (not loops and len(pairs) == grown - components(p)):
                yield from place(p + 1, grown)
            for u, v in steps:
                tally_step(loops, pairs, u, v, -1)

    yield from place(0, 0)


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
