from fractions import Fraction

import pytest

from explodingmoments.graphs import (
    ADMISSIBLE_TREE,
    ZERO_CYCLE,
    ZERO_DIRECTION,
    ZERO_SINGLE_EDGE_OR_LOOP,
    classify,
    moment_product,
)
from explodingmoments.partitions import walk_partitions
from reference_sums import (
    enumerate_cross_partitions,
    merge_under_cross_partition,
    set_partitions,
    trace_counts,
    walk_graph,
)

TWO_CYCLE = (2, ((0, 1), (1, 0)))
# from the pairing {1,3}{2,4}: two edges in each direction
DOUBLE_PAIR = (2, ((0, 1), (0, 1), (1, 0), (1, 0)))


def two_cycle():
    return trace_counts(*TWO_CYCLE)


class TestGraphOfPartition:
    """A one-walk leaf of ``walk_partitions`` is the graph of its partition."""

    def test_k2_singletons(self):
        leaf = list(walk_partitions((2,)))[1]
        assert leaf.vertex_count == 2
        assert leaf == two_cycle()

    def test_k2_merged(self):
        leaf = list(walk_partitions((2,)))[0]
        assert leaf.vertex_count == 1
        assert leaf.loop_counts == ((2, 1),)
        assert leaf.ordered_pair_counts == ()

    def test_k4_pairing(self):
        leaf = list(walk_partitions((4,)))[list(set_partitions(4)).index((0, 1, 0, 1))]
        assert leaf == trace_counts(*DOUBLE_PAIR)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_edge_count_equals_k(self, k):
        for leaf in walk_partitions((k,)):
            loops = sum(m * c for m, c in leaf.loop_counts)
            pair_edges = sum((a + b) * c for (a, b), c in leaf.ordered_pair_counts)
            assert loops + pair_edges == k


class TestStats:
    def test_two_cycle(self):
        s = two_cycle()
        assert dict(s.ordered_pair_counts) == {(1, 1): 1}
        assert s.reduced_edge_count == 1
        assert s.cycle_excess == 0

    def test_double_loop_counts_as_one_reduced_edge(self):
        s = trace_counts(1, [(0, 0), (0, 0)])
        assert dict(s.loop_counts) == {2: 1}
        assert s.reduced_edge_count == 1

    def test_triangle_of_double_edges(self):
        s = trace_counts(3, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)])
        assert s.reduced_edge_count == 3
        assert s.component_count == 1
        assert s.cycle_excess == 1

    def test_edge_bookkeeping(self):
        # loop incidences plus pair multiplicities account for every edge
        for k in range(1, 8):
            for p in set_partitions(k):
                vertex_count, edges = walk_graph(p)
                s = trace_counts(vertex_count, edges)
                loops = sum(nloops * cnt for nloops, cnt in s.loop_counts)
                pair_edges = sum((a + b) * cnt for (a, b), cnt in s.ordered_pair_counts)
                assert loops + pair_edges == len(edges)

    def test_cycle_excess_zero_iff_forest(self):
        # independent forest check: DFS cycle detection on the reduced graph
        # (a reduced loop is itself a cycle)
        def is_forest(vertex_count, edges):
            adj = {}
            for u, v in edges:
                if u == v:
                    return False
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
            seen = set()
            for root in range(vertex_count):
                if root in seen:
                    continue
                stack = [(root, -1)]
                seen.add(root)
                while stack:
                    node, parent = stack.pop()
                    for nxt in adj.get(node, ()):
                        if nxt == parent:
                            continue
                        if nxt in seen:
                            return False
                        seen.add(nxt)
                        stack.append((nxt, node))
            return True

        for k in range(1, 8):
            for leaf, p in zip(walk_partitions((k,)), set_partitions(k)):
                assert (leaf.cycle_excess == 0) == is_forest(*walk_graph(p))


class TestMomentProduct:
    def test_factors_and_half_powers_multiply(self):
        s = trace_counts(2, [(0, 0), (0, 0), (0, 1), (1, 0), (1, 0), (1, 1)])
        out = moment_product(
            s,
            pair=lambda a, b: (Fraction(a + 10 * b), -a - b),
            diagonal=lambda m: (Fraction(m + 1), -m),
        )
        # loops {2: 1, 1: 1}, pair (1, 2) once
        assert out == (Fraction(3 * 2 * 21), -2 - 1 - 3)

    def test_vanishing_factor_stops_early(self):
        s = trace_counts(2, [(0, 0), (0, 1), (1, 0)])

        def pair(a, b):
            raise AssertionError("not reached after a zero loop factor")

        assert moment_product(s, pair, diagonal=lambda m: (Fraction(0), 0)) == (0, 0)


class TestClassify:
    def test_two_cycle_by_model(self):
        g = two_cycle()
        assert classify(g, "elliptic") == ADMISSIBLE_TREE
        assert classify(g, "iid") == ZERO_DIRECTION

    def test_loops_forbidden_everywhere(self):
        g = trace_counts(1, [(0, 0), (0, 0)])
        for model in ("elliptic", "iid"):
            assert classify(g, model) == ZERO_SINGLE_EDGE_OR_LOOP

    def test_single_edge_pair(self):
        g = trace_counts(2, [(0, 1)])
        assert classify(g, "elliptic") == ZERO_SINGLE_EDGE_OR_LOOP

    def test_cycle_detected(self):
        g = trace_counts(3, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)])
        assert classify(g, "elliptic") == ZERO_CYCLE

    def test_fat_tree_accepts_unidirectional_triple_edge(self):
        g = trace_counts(2, [(0, 1), (0, 1), (0, 1)])
        assert classify(g, "iid") == ADMISSIBLE_TREE

    def test_fat_tree_rejects_reverse_edge(self):
        g = trace_counts(2, [(0, 1), (0, 1), (0, 1), (1, 0)])
        assert classify(g, "iid") == ZERO_DIRECTION

    def test_unknown_model(self):
        for model in ("toeplitz", "block", "centrosymmetric"):
            with pytest.raises(ValueError):
                classify(two_cycle(), model)

    def test_iid_admissible_implies_elliptic_admissible(self):
        for k in range(1, 8):
            for leaf in walk_partitions((k,)):
                if classify(leaf, "iid") == ADMISSIBLE_TREE:
                    assert classify(leaf, "elliptic") == ADMISSIBLE_TREE

    def test_single_cycle_impossibility(self):
        # a closed walk can never produce a unidirectional multi-edge tree;
        # this is why all independent-entry limit moments vanish
        for k in range(1, 8):
            for leaf in walk_partitions((k,)):
                assert classify(leaf, "iid") != ADMISSIBLE_TREE

    def test_closed_walk_trees_are_balanced(self):
        # the lemma behind the zero iid, block and centrosymmetric limits: on
        # every loop-free connected graph whose reduced graph is a tree, built
        # from one closed walk (k <= 8) or two glued ones sharing an edge
        # (k, l <= 4), each adjacent pair carries as many edges one way as the
        # other, so the fat-tree rule admits none of them
        graphs = [leaf for k in range(1, 9) for leaf in walk_partitions((k,))]
        walks = {k: [walk_graph(p) for p in set_partitions(k)] for k in range(1, 5)}
        gluings = 0
        for k in range(1, 5):
            for l in range(1, 5):
                for g1 in walks[k]:
                    for g2 in walks[l]:
                        for sigma in enumerate_cross_partitions((g1[0], g2[0])):
                            merged, shared = merge_under_cross_partition([g1, g2], sigma)
                            if shared:
                                graphs.append(trace_counts(*merged))
                                gluings += 1
        assert (len(graphs) - gluings, gluings) == (5295, 2863)
        trees = 0
        for s in graphs:
            if not s.has_loop and s.component_count == 1 and s.cycle_excess == 0:
                trees += 1
                assert all(a == b for (a, b), _count in s.ordered_pair_counts)
            assert classify(s, "iid") != ADMISSIBLE_TREE
        assert trees > 0


class TestMerge:
    def test_glue_two_cycles_fully(self):
        g = TWO_CYCLE
        sigmas = enumerate_cross_partitions((2, 2))
        by_blocks = {s.blocks: s for s in sigmas}
        aligned = by_blocks[(((0, 0), (1, 0)), ((0, 1), (1, 1)))]
        merged, shared = merge_under_cross_partition([g, g], aligned)
        assert shared
        assert merged == DOUBLE_PAIR

    def test_crossed_gluing_same_graph(self):
        g = TWO_CYCLE
        sigmas = {s.blocks: s for s in enumerate_cross_partitions((2, 2))}
        crossed = sigmas[(((0, 0), (1, 1)), ((0, 1), (1, 0)))]
        merged, shared = merge_under_cross_partition([g, g], crossed)
        assert shared
        assert merged == DOUBLE_PAIR

    def test_disjoint_union_not_shared(self):
        g = TWO_CYCLE
        sigmas = {s.blocks: s for s in enumerate_cross_partitions((2, 2))}
        singletons = sigmas[(((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),))]
        merged, shared = merge_under_cross_partition([g, g], singletons)
        assert not shared
        assert merged[0] == 4
        assert trace_counts(*merged).component_count == 2

    def test_shape_mismatch(self):
        sigma = enumerate_cross_partitions((2, 2))[0]
        with pytest.raises(ValueError):
            merge_under_cross_partition([TWO_CYCLE, (3, ((0, 1),))], sigma)
