"""Set partitions, pair partitions, and cross partitions.

These index every sum in the trace-moment calculus: a normalized trace
expands over partitions of {1..k} (which index tuples by their coincidence
pattern), and covariance kernels expand over partitions of a disjoint union
of vertex sets with at most one vertex per origin in each block.

Enumeration is guarded at small sizes (Bell(13) > 27M); index sets S_pi are
exposed as a count formula and a membership predicate, never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterator, Sequence

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


def _canonical(blocks: Iterator[Iterator[int]], k: int) -> SetPartition:
    bs = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])
    return SetPartition(ground_size=k, blocks=tuple(bs))


def make_partition(k: int, blocks) -> SetPartition:
    """Build a canonical SetPartition from any iterable of blocks."""
    return _canonical(blocks, k)


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
            results.append(_canonical((list(b) for b in blocks), k))
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
            results.append(_canonical(acc, r))
            return
        a = rest[0]
        for i in range(1, len(rest)):
            b = rest[i]
            match(rest[1:i] + rest[i + 1 :], acc + [(a, b)])

    if r == 0:
        return []
    match(tuple(range(1, r + 1)), [])
    return results


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
