from collections import Counter
from itertools import product
from math import comb, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explodingmoments.graphs import ADMISSIBLE_TREE, classify
from explodingmoments.partitions import (
    MAX_GROUND,
    block_classes,
    double_factorial_odd,
    enumerate_pair_partitions,
    walk_partitions,
)
from reference_sums import (
    CrossPartition,
    enumerate_cross_partitions,
    set_partitions,
    trace_counts,
    walk_graph,
)

# Bell numbers B(1..12), OEIS A000110
BELL = [1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]


def blocks_of(labels):
    """Blocks of 1-based positions of a restricted-growth string, ordered by
    least element."""
    blocks = {}
    for pos, b in enumerate(labels, start=1):
        blocks.setdefault(b, []).append(pos)
    return tuple(map(tuple, blocks.values()))


def pattern_of(indices):
    """Coincidence pattern of an index tuple as a restricted-growth string:
    each index labelled by the order of its first appearance."""
    first = {}
    return tuple(first.setdefault(i, len(first)) for i in indices)


def brute_force_partitions(k):
    """Independent oracle: canonicalize every function {1..k} -> {1..k} by its
    fiber structure and collect the distinct ones."""
    seen = set()
    for labels in product(range(k), repeat=k):
        fibers = {}
        for pos, lab in enumerate(labels, start=1):
            fibers.setdefault(lab, []).append(pos)
        canon = tuple(sorted((tuple(b) for b in fibers.values()), key=lambda b: b[0]))
        seen.add(canon)
    return seen


class TestSetPartitions:
    """The restricted-growth reference that ``walk_partitions`` is checked
    against."""

    @pytest.mark.parametrize("k,count", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_counts(self, k, count):
        assert sum(1 for _ in set_partitions(k)) == count

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_brute_force(self, k):
        ours = {blocks_of(p) for p in set_partitions(k)}
        assert ours == brute_force_partitions(k)

    def test_counts_match_bell_recurrence(self):
        # the table satisfies B(n+1) = sum_j C(n, j) B(j), with B(0) = 1
        bell = [1] + BELL
        for n in range(len(BELL)):
            assert bell[n + 1] == sum(comb(n, j) * bell[j] for j in range(n + 1))
        for k in range(1, 9):
            assert sum(1 for _ in set_partitions(k)) == BELL[k - 1]

    def test_k1(self):
        assert list(set_partitions(1)) == [(0,)]
        assert [leaf.vertex_count for leaf in walk_partitions((1,))] == [1]

    def test_guard(self):
        # walk_partitions is the one set-partition enumerator of the package
        with pytest.raises(ValueError):
            list(walk_partitions((MAX_GROUND + 1,)))

    def test_no_duplicates(self):
        parts = list(set_partitions(6))
        assert len(set(parts)) == len(parts)

    def test_canonical_order_enforced(self):
        # each string is canonical (a label at most one above every label
        # before it), and the strings come in lexicographic order
        parts = list(set_partitions(6))
        assert parts == sorted(parts)
        for p in parts:
            assert all(b <= max(p[:i], default=-1) + 1 for i, b in enumerate(p))


class TestIndexSets:
    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(1, 6)])
    def test_tiling(self, n, k):
        # the index sets S_pi, with N (N-1) ... (N-|pi|+1) tuples each,
        # partition the whole index space [N]^k
        assert sum(perm(n, leaf.vertex_count) for leaf in walk_partitions((k,))) == n**k

    @pytest.mark.parametrize("k,l", [(k, l) for k in range(1, 7) for l in range(1, 8 - k)])
    def test_two_walk_tiling(self, k, l):
        # the same over the positions of two walks: [N]^(k + l)
        leaves = list(walk_partitions((k, l)))
        for n in range(1, 5):
            assert sum(perm(n, leaf.vertex_count) for leaf in leaves) == n ** (k + l)

    def test_membership_matches_count(self):
        # tuples grouped by their coincidence pattern: each pattern with
        # |pi| <= N blocks holds N (N-1) ... (N-|pi|+1) tuples
        n, k = 4, 3
        classes = Counter(pattern_of(t) for t in product(range(n), repeat=k))
        assert set(classes) == {p for p in set_partitions(k) if max(p) < n}
        for p, members in classes.items():
            assert members == perm(n, max(p) + 1)


class TestPairPartitions:
    def test_counts(self):
        assert len(enumerate_pair_partitions(2)) == 1
        assert len(enumerate_pair_partitions(4)) == 3
        assert len(enumerate_pair_partitions(6)) == 15
        assert enumerate_pair_partitions(3) == []

    def test_counts_match_double_factorial(self):
        for r in range(0, 9):
            assert len(enumerate_pair_partitions(r)) == double_factorial_odd(r)

    def test_r2(self):
        assert enumerate_pair_partitions(2) == [((1, 2),)]
        assert enumerate_pair_partitions(0) == [()]

    @pytest.mark.parametrize("r", [2, 4, 6])
    def test_subset_of_set_partitions_with_size2_blocks(self, r):
        all_parts = {blocks_of(p) for p in set_partitions(r)}
        for m in enumerate_pair_partitions(r):
            assert m in all_parts
            assert all(len(b) == 2 for b in m)


class TestCrossPartitions:
    def test_sizes_2_2(self):
        assert len(enumerate_cross_partitions((2, 2))) == 7

    def test_sizes_2_2_by_filtering(self):
        # independent count: partitions of a 4-set whose blocks never contain
        # two elements of the same origin (origins: {0,1} vs {2,3})
        legal = sum(p[0] != p[1] and p[2] != p[3] for p in set_partitions(4))
        assert legal == len(enumerate_cross_partitions((2, 2)))

    def test_sizes_1_1(self):
        assert len(enumerate_cross_partitions((1, 1))) == 2

    def test_single_origin_cannot_merge(self):
        sigmas = enumerate_cross_partitions((2,))
        assert len(sigmas) == 1
        assert all(len(b) == 1 for b in sigmas[0].blocks)

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_cross_partitions((7, 6))

    def test_block_constraint_enforced(self):
        with pytest.raises(ValueError):
            CrossPartition(parts=(2,), blocks=((((0, 0)), (0, 1)),))

    @given(a=st.integers(1, 3), b=st.integers(1, 3))
    @settings(max_examples=9, deadline=None)
    def test_all_blocks_cross_origin_legal(self, a, b):
        for sigma in enumerate_cross_partitions((a, b)):
            for block in sigma.blocks:
                origins = [o for o, _v in block]
                assert len(origins) == len(set(origins))


# every one- and two-walk tuple of total <= 8
NONZERO_LENGTHS = [(k,) for k in range(1, 9)]
NONZERO_LENGTHS += [(k, l) for k in range(1, 8) for l in range(1, 9 - k)]
# every one- and two-walk tuple of total <= 9
PRUNE_LENGTHS = [(k,) for k in range(1, 10)]
PRUNE_LENGTHS += [(k, l) for k in range(1, 9) for l in range(1, 10 - k)]


class TestWalkPartitions:
    @pytest.mark.parametrize("lengths", [(1,), (4,), (7,), (1, 1), (2, 3), (3, 3), (4, 4)])
    def test_unpruned_counts_are_bell(self, lengths):
        assert sum(1 for _ in walk_partitions(lengths)) == BELL[sum(lengths) - 1]

    def test_one_walk_leaves_are_partition_graphs(self):
        # same restricted-growth order as the reference, same counters
        for k in range(1, 8):
            leaves = list(walk_partitions((k,)))
            parts = list(set_partitions(k))
            assert len(leaves) == len(parts)
            for leaf, p in zip(leaves, parts):
                s = trace_counts(*walk_graph(p))
                assert leaf.vertex_count == max(p) + 1
                assert leaf.loop_counts == s.loop_counts
                assert leaf.ordered_pair_counts == s.ordered_pair_counts
                assert not leaf.shared

    @pytest.mark.parametrize("lengths", [(5,), (1, 1), (2, 3), (3, 3)])
    def test_leaf_counters_equal_graph_stats(self, lengths):
        # a leaf is the same record the reference tallies from the walks' edges
        leaves = list(walk_partitions(lengths))
        for leaf, p in zip(leaves, set_partitions(sum(lengths))):
            s = trace_counts(*walk_graph(p, lengths))
            assert leaf._replace(shared=False) == s
        assert {leaf.component_count for leaf in leaves} == set(range(1, len(lengths) + 1))

    @pytest.mark.parametrize("k,leaves", [(2, 1), (4, 3), (6, 12), (8, 57), (10, 303)])
    def test_pruned_leaves(self, k, leaves):
        # only thick trees survive: 303 of Bell(10) = 115,975 at k = 10
        assert sum(1 for _ in walk_partitions((k,), prune=True)) == leaves

    @pytest.mark.parametrize("k,shared", [(2, 2), (4, 58), (6, 2258)])
    def test_pruned_shared_gluings(self, k, shared):
        leaves = list(walk_partitions((k, k), prune=True))
        assert sum(leaf.shared for leaf in leaves) == shared

    def test_pruned_leaves_are_thick_trees(self):
        for lengths in [(8,), (3, 5), (4, 4)]:
            for leaf in walk_partitions(lengths, prune=True):
                assert not leaf.loop_counts
                assert all(a + b >= 2 for (a, b), _count in leaf.ordered_pair_counts)
                assert sum(c for _key, c in leaf.ordered_pair_counts) == leaf.vertex_count - 1

    @pytest.mark.parametrize("lengths", PRUNE_LENGTHS, ids=str)
    def test_pruned_leaves_are_the_leaves_classify_admits(self, lengths):
        # the thick-tree rule is written twice, in the prune and in classify
        admitted = [leaf for leaf in walk_partitions(lengths)
                    if classify(leaf, "elliptic") == ADMISSIBLE_TREE]
        assert list(walk_partitions(lengths, prune=True)) == admitted

    def test_guard(self):
        for bad in [(), (0,), (7, 6), (2, 2, 2)]:
            with pytest.raises(ValueError):
                list(walk_partitions(bad))

    @pytest.mark.parametrize("lengths", NONZERO_LENGTHS, ids=str)
    def test_nonzero_leaves_are_the_unpruned_leaves_without_singles(self, lengths):
        def has_single(leaf):
            return (any(a + b == 1 for (a, b), _count in leaf.ordered_pair_counts)
                    or any(loops == 1 for loops, _count in leaf.loop_counts))

        kept = [leaf for leaf in walk_partitions(lengths) if not has_single(leaf)]
        assert list(walk_partitions(lengths, nonzero=True)) == kept

    @pytest.mark.parametrize("lengths,leaves", [((6,), 50), ((3, 3), 32)])
    def test_nonzero_leaf_counts(self, lengths, leaves):
        # of Bell(6) = 203 set partitions each
        assert sum(1 for _ in walk_partitions(lengths, nonzero=True)) == leaves


def one_walk_parts(k):
    """The integer partitions that index the one-walk block classes."""
    return [tuple(m for (m,) in blocks) for blocks in block_classes((k,))]


# every one- and two-walk tuple of total <= 8, and two of total 10
CLASS_LENGTHS = NONZERO_LENGTHS + [(10,), (5, 5)]


class TestBlockClasses:
    @pytest.mark.parametrize("lengths", CLASS_LENGTHS, ids=str)
    def test_counts_equal_enumeration(self, lengths):
        # the set partitions grouped by per-walk block shape, one-position
        # blocks dropped, are the classes with their closed-form counts
        walk_of = [w for w, k in enumerate(lengths) for _ in range(k)]
        classes = Counter()
        for p in set_partitions(sum(lengths)):
            shapes = [[0] * len(lengths) for _ in range(max(p) + 1)]
            for b, w in zip(p, walk_of):
                shapes[b][w] += 1
            if all(sum(shape) >= 2 for shape in shapes):
                classes[tuple(sorted(map(tuple, shapes), reverse=True))] += 1
        assert block_classes(lengths) == dict(classes)

    def test_guard(self):
        for bad in [(), (0,), (-1,), (3, 0), (2, 2, 2)]:
            with pytest.raises(ValueError):
                block_classes(bad)


class TestIntegerPartitionsMin2:
    """The one-walk block classes are the integer partitions with parts >= 2."""

    def test_k4(self):
        assert set(one_walk_parts(4)) == {(4,), (2, 2)}

    def test_k6(self):
        assert set(one_walk_parts(6)) == {(6,), (4, 2), (3, 3), (2, 2, 2)}

    def test_k3(self):
        assert one_walk_parts(3) == [(3,)]

    def test_small_and_empty(self):
        assert one_walk_parts(1) == []
        assert one_walk_parts(2) == [(2,)]
        with pytest.raises(ValueError):
            block_classes((0,))

    @pytest.mark.parametrize("k", range(2, 13))
    def test_brute_force_agreement(self, k):
        ours = set(one_walk_parts(k))
        ref = set()

        def grow(rest, cap, acc):
            if rest == 0:
                ref.add(tuple(acc))
                return
            for part in range(2, min(cap, rest) + 1):
                grow(rest - part, part, acc + [part])

        grow(k, k, [])
        assert ours == ref
        assert all(sum(m) == k and min(m) >= 2 for m in ours)
