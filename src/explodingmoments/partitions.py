"""Set partitions, pair partitions, and partitions of walk positions.

These index every sum in the trace-moment calculus: a normalized trace
expands over partitions of {1..k} (which index tuples by their coincidence
pattern), and a covariance kernel over partitions of the k + l positions of
two walks (restricted to each walk they give the two trace graphs, and the
blocks they merge glue them).  :func:`walk_partitions` enumerates both,
growing the trace graph as it goes, and can prune every branch on which no
limit term survives.  :class:`TraceCounts` is the one record of a trace
graph's counters, for these partitions and for ``graphs.stats``.

Enumeration is guarded at small sizes (Bell(13) > 27M); index sets S_pi are
exposed as a count formula and a membership predicate, never materialized.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator, NamedTuple, Optional, Sequence

MAX_GROUND = 12


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1..ground_size} into disjoint blocks, canonically ordered
    by minimum element."""

    ground_size: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if tuple(sorted(block)) != block:
                raise ValueError("block elements must be sorted")
            seen.update(block)
        if seen != set(range(1, self.ground_size + 1)):
            raise ValueError("blocks must cover {1..k} disjointly")
        if sum(len(b) for b in self.blocks) != self.ground_size:
            raise ValueError("blocks overlap")
        if [b[0] for b in self.blocks] != sorted(b[0] for b in self.blocks):
            raise ValueError("blocks must be ordered by minimum element")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_index_of(self, element: int) -> int:
        for i, block in enumerate(self.blocks):
            if element in block:
                return i
        raise ValueError(f"element {element} not in ground set")

    def contains_tuple(self, indices: Sequence[int]) -> bool:
        """Membership in S_pi: i_m = i_n iff m ~ n under this partition."""
        if len(indices) != self.ground_size:
            raise ValueError("tuple length must equal ground size")
        label = {}
        for pos, val in enumerate(indices, start=1):
            b = self.block_index_of(pos)
            if b in label:
                if label[b] != val:
                    return False
            else:
                label[b] = val
        return len(set(label.values())) == len(label)

    def index_tuple_count(self, n: int) -> int:
        """|S_pi(N)| = N (N-1) ... (N - |pi| + 1)."""
        return falling_factorial(n, self.num_blocks)

    def __str__(self) -> str:
        return "{" + "|".join(",".join(str(e) for e in b) for b in self.blocks) + "}"


def make_partition(k: int, blocks) -> SetPartition:
    """Build a canonical SetPartition from any iterable of blocks."""
    bs = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])
    return SetPartition(ground_size=k, blocks=tuple(bs))


def falling_factorial(n: int, m: int) -> int:
    out = 1
    for j in range(m):
        out *= n - j
    return out


@lru_cache(maxsize=None)
def bell_number(k: int) -> int:
    # independent recurrence: B(n+1) = sum_j binom(n, j) B(j)
    if k == 0:
        return 1
    return sum(comb(k - 1, j) * bell_number(j) for j in range(k))


def double_factorial_odd(r: int) -> int:
    """(r-1)!! for even r, the number of perfect matchings of {1..r}."""
    if r % 2 == 1:
        return 0
    out = 1
    for m in range(r - 1, 0, -2):
        out *= m
    return out


def enumerate_set_partitions(k: int) -> list[SetPartition]:
    """All partitions of {1..k}, canonical order, count = Bell(k)."""
    if not 1 <= k <= MAX_GROUND:
        raise ValueError(f"k={k} outside 1..{MAX_GROUND}")
    results: list[SetPartition] = []
    blocks: list[list[int]] = []

    def place(element: int):
        if element > k:
            results.append(make_partition(k, blocks))
            return
        for b in blocks:
            b.append(element)
            place(element + 1)
            b.pop()
        blocks.append([element])
        place(element + 1)
        blocks.pop()

    place(1)
    return results


def enumerate_pair_partitions(r: int) -> list[SetPartition]:
    """All perfect matchings of {1..r}; empty for odd r; count = (r-1)!!."""
    if not 0 <= r <= MAX_GROUND:
        raise ValueError(f"r={r} outside 0..{MAX_GROUND}")
    if r % 2 == 1:
        return []
    results: list[SetPartition] = []

    def match(rest: tuple[int, ...], acc: list[tuple[int, int]]):
        if not rest:
            results.append(make_partition(r, acc))
            return
        a = rest[0]
        for i in range(1, len(rest)):
            b = rest[i]
            match(rest[1:i] + rest[i + 1 :], acc + [(a, b)])

    if r == 0:
        return []
    match(tuple(range(1, r + 1)), [])
    return results


class TraceCounts(NamedTuple):
    """Loop and pair multiplicity counters of a trace graph: blocks are the
    vertices, each walk step one directed edge.

    loop_counts[k]             - number of vertices carrying exactly k loops
    ordered_pair_counts[(k,l)] - vertex pairs u < v with k edges u->v and l edges v->u
    unordered_counts[k]        - vertex pairs with exactly k edges in total
    reduced_edge_count         - edges after forgetting multiplicity and orientation
                                 (each loop vertex and each adjacent pair counts once)
    block_sizes                - per vertex, ascending: (positions in walk 1, in walk 2);
                                 empty for a graph given by its edges
    shared                     - some directed edge is a step of both walks
    """

    vertex_count: int
    loop_counts: tuple[tuple[int, int], ...]
    ordered_pair_counts: tuple[tuple[tuple[int, int], int], ...]
    component_count: int
    block_sizes: tuple[tuple[int, int], ...] = ()
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
    def unordered_counts(self) -> tuple[tuple[int, int], ...]:
        totals: Counter = Counter()
        for (a, b), count in self.ordered_pair_counts:
            totals[a + b] += count
        return tuple(sorted(totals.items()))

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
    sizes: list[list[int]] = []  # per block: [positions in walk 1, in walk 2]
    loops: dict[int, int] = {}
    pairs: dict[tuple[int, int], list[int]] = {}

    def components(p: int) -> int:
        """Components of the graph of positions 0..p: each walk's placed
        steps form a path or a closed walk, so the second walk is a component
        of its own until one of its positions lands on a block of the first."""
        second = label[lengths[0] : p + 1]
        return 1 + (bool(second) and min(second) > max(label[: lengths[0]]))

    def leaf() -> Optional[TraceCounts]:
        if prune and (len(pairs) != len(sizes) - 1 or any(a + b == 1 for a, b in pairs.values())):
            return None  # a forest of two trees, or a pair with a single edge
        steps = [
            {(label[s + i], label[s + (i + 1) % size]) for i in range(size)}
            for s, size in zip((0, lengths[0]), lengths)
        ]
        return TraceCounts.of(
            len(sizes),
            loops,
            pairs,
            component_count=components(total - 1),
            block_sizes=tuple(sorted(map(tuple, sizes))),
            shared=len(steps) == 2 and not steps[0].isdisjoint(steps[1]),
        )

    def place(p: int) -> Iterator[TraceCounts]:
        if p == total:
            out = leaf()
            if out is not None:
                yield out
            return
        walk = p >= lengths[0]
        first, last = (lengths[0], total - 1) if walk else (0, lengths[0] - 1)
        for b in range(min(len(sizes) + 1, max_vertices)):
            if b == len(sizes):
                sizes.append([0, 0])
            sizes[b][walk] += 1
            label[p] = b
            steps = [(label[p - 1], b)] if p != first else []
            if p == last:
                steps.append((b, label[first]))
            for u, v in steps:
                tally_step(loops, pairs, u, v, 1)
            # a loop-free graph is a forest iff it has |V| - components pairs
            if not prune or (not loops and len(pairs) == len(sizes) - components(p)):
                yield from place(p + 1)
            for u, v in steps:
                tally_step(loops, pairs, u, v, -1)
            sizes[b][walk] -= 1
            if sizes[b] == [0, 0]:
                sizes.pop()

    yield from place(0)


def enumerate_integer_partitions_min2(k: int) -> list[tuple[int, ...]]:
    """Multisets (m_1 >= ... >= m_r >= 2) with sum k, each exactly once."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    results: list[tuple[int, ...]] = []

    def grow(remaining: int, cap: int, acc: list[int]):
        if remaining == 0:
            if acc:
                results.append(tuple(acc))
            return
        for part in range(min(cap, remaining), 1, -1):
            if remaining - part == 1:  # a leftover part of 1 is never legal
                continue
            acc.append(part)
            grow(remaining - part, part, acc)
            acc.pop()

    grow(k, k, [])
    return results
