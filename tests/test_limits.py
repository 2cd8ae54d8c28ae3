import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explodingmoments.limits import (
    LimitValue,
    asymptotic_order,
    circulant_covariance,
    circulant_limit_moment,
    covariance_trace,
    limit_trace_moment,
    tau,
    wick_joint,
)
from explodingmoments.oracle import exact_table
from explodingmoments.partitions import walk_partitions
from explodingmoments.profiles import (
    MomentProfile,
    MomentTableError,
    degenerate_profile_of,
    design_correlated_sign_law,
    profile_of_scalar_law,
    profile_of_sparse_law,
    sign_scalar_law,
    wigner_profile,
)
import reference_sums
from reference_sums import covariance_graphs, trace_counts

TWO_CYCLE = (2, ((0, 1), (1, 0)))
LOOP = (1, ((0, 0),))
# from the pairing {1,3}{2,4}: two edges in each direction
DOUBLE_PAIR = (2, ((0, 1), (1, 0), (0, 1), (1, 0)))


def two_cycle():
    return trace_counts(*TWO_CYCLE)


class TestTau:
    def test_two_cycle_elliptic(self, sign_pair_profile):
        assert tau(two_cycle(), "elliptic", sign_pair_profile) == sign_pair_profile.pair(1, 1)

    def test_two_cycle_iid_vanishes(self, sign_profile):
        assert tau(two_cycle(), "iid", sign_profile) == 0

    def test_double_pair_graph(self, sign_pair_profile):
        g = trace_counts(*DOUBLE_PAIR)
        assert tau(g, "elliptic", sign_pair_profile) == sign_pair_profile.pair(2, 2)

    def test_fat_tree_triple_edge(self):
        # C_3 != 0, so the product is told apart from a rejected graph's 0
        prof = MomentProfile(alpha=1, kmax=3, scalar_table={2: Fraction(1), 3: Fraction(5, 7)})
        g = trace_counts(2, [(0, 1), (0, 1), (0, 1)])
        assert tau(g, "iid", prof) == prof.scalar(3)

    def test_only_graph_models(self, sign_profile):
        for model in ("block", "centrosymmetric"):
            with pytest.raises(ValueError):
                tau(two_cycle(), model, sign_profile)
            with pytest.raises(ValueError):
                covariance_graphs(TWO_CYCLE, TWO_CYCLE, model, sign_profile)

    def test_table_too_short(self):
        small = MomentProfile(alpha=1, kmax=2, pair_table={(1, 1): Fraction(1),
                                                           (2, 0): Fraction(1),
                                                           (0, 2): Fraction(1)})
        g = trace_counts(*DOUBLE_PAIR)
        with pytest.raises(MomentTableError):
            tau(g, "elliptic", small)

    def test_alpha_must_be_one(self, sign_pair_profile):
        prof = MomentProfile(alpha=2, kmax=sign_pair_profile.kmax,
                             pair_table=sign_pair_profile.pair_table)
        with pytest.raises(ValueError):
            tau(two_cycle(), "elliptic", prof)

    def test_model_reduction_identity(self, sign_profile):
        # independent-entry tau equals elliptic tau on the degenerate profile
        emb = degenerate_profile_of(sign_profile.scalar_table, kmax=sign_profile.kmax)
        for k in range(1, 7):
            for leaf in walk_partitions((k,)):
                assert tau(leaf, "iid", sign_profile) == tau(leaf, "elliptic", emb)


class TestAsymptoticOrder:
    def test_two_cycle_alpha_one(self):
        out = asymptotic_order(two_cycle(), 1)
        assert out == LimitValue(kind="symbolic_order", exponent=Fraction(0))

    def test_two_cycle_alpha_two(self):
        assert asymptotic_order(two_cycle(), 2).exponent == -1

    def test_single_edge_zero_exact(self):
        g = trace_counts(2, [(0, 1)])
        for alpha in (Fraction(1, 2), 1, 2):
            assert asymptotic_order(g, alpha).kind == "zero_exact"

    def test_exponent_recomputed_from_stats(self):
        for k in range(1, 7):
            for alpha in (Fraction(1, 2), 1, 2):
                for s in walk_partitions((k,)):
                    out = asymptotic_order(s, alpha)
                    if out.kind == "symbolic_order":
                        assert out.exponent == s.vertex_count - 1 - alpha * s.reduced_edge_count

    def test_alpha_above_one_always_negative(self):
        for k in range(1, 7):
            for leaf in walk_partitions((k,)):
                out = asymptotic_order(leaf, 2)
                if out.kind == "symbolic_order":
                    assert out.exponent < 0


class TestLimitTraceMoment:
    def test_elliptic_k2(self, sign_pair_profile):
        assert limit_trace_moment("elliptic", 2, sign_pair_profile) == Fraction(1, 2)

    def test_elliptic_k4(self, sign_pair_profile):
        c11 = sign_pair_profile.pair(1, 1)
        c22 = sign_pair_profile.pair(2, 2)
        assert limit_trace_moment("elliptic", 4, sign_pair_profile) == 2 * c11**2 + c22

    def test_iid_all_vanish(self, sign_profile):
        for k in range(1, 8):
            assert limit_trace_moment("iid", k, sign_profile) == 0

    def test_block_and_centrosymmetric_vanish(self, sign_profile):
        for k in (2, 3, 4):
            assert limit_trace_moment("block", k, sign_profile) == 0
            assert limit_trace_moment("centrosymmetric", k, sign_profile) == 0

    def test_semicircle_small(self):
        prof = wigner_profile()
        assert [limit_trace_moment("elliptic", k, prof) for k in (2, 4, 6)] == [1, 2, 5]
        assert limit_trace_moment("elliptic", 3, prof) == 0

    def test_guard(self, sign_pair_profile):
        with pytest.raises(ValueError):
            limit_trace_moment("elliptic", 11, sign_pair_profile)


def enumerated_limit(k, profile):
    """The elliptic M_k as the sum of tau over the pruned enumeration."""
    return sum((tau(leaf, "elliptic", profile) for leaf in walk_partitions((k,), prune=True)),
               Fraction(0))


# 0, negative and positive rationals
CONSTANT = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=6))


class TestTreeWalkRecursion:
    """The tree-walk recursion equals the sum over the pruned enumerator."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(CONSTANT, min_size=5, max_size=5))
    def test_equals_pruned_enumeration(self, diagonal):
        # only the diagonal constants C_(m,m) weigh a closed walk on a tree
        profile = MomentProfile(alpha=1, kmax=10,
                                pair_table={(m, m): c for m, c in enumerate(diagonal, 1)})
        for k in range(1, 11):
            assert limit_trace_moment("elliptic", k, profile) == enumerated_limit(k, profile)

    def test_short_profile_fails_as_the_enumeration(self):
        # C_(m,m) with 2m <= 4 only; odd k reads no constant
        profile = profile_of_sparse_law(design_correlated_sign_law(Fraction(1, 2)), kmax=4)
        for k in range(1, 11):
            try:
                expected = enumerated_limit(k, profile)
            except MomentTableError as exc:
                with pytest.raises(MomentTableError, match=re.escape(str(exc))):
                    limit_trace_moment("elliptic", k, profile)
            else:
                assert limit_trace_moment("elliptic", k, profile) == expected
                assert k <= 5 or k % 2


class TestCovariance:
    def test_elliptic_2_2(self, sign_pair_profile):
        assert covariance_trace(2, 2, "elliptic", sign_pair_profile) == 2 * sign_pair_profile.pair(2, 2)

    def test_two_cycle_gluings_counted_by_hand(self, sign_pair_profile):
        # 7 cross partitions of (2,2); only the two full alignments share an
        # edge and merge into a thick tree
        total = covariance_graphs(TWO_CYCLE, TWO_CYCLE, "elliptic", sign_pair_profile)
        assert total == 2 * sign_pair_profile.pair(2, 2)

    def test_loop_graph_contributes_nothing(self, sign_pair_profile):
        assert covariance_graphs(LOOP, TWO_CYCLE, "elliptic", sign_pair_profile) == 0
        assert covariance_graphs(LOOP, LOOP, "elliptic", sign_pair_profile) == 0

    def test_elliptic_low_orders_vanish(self, sign_pair_profile):
        assert covariance_trace(1, 1, "elliptic", sign_pair_profile) == 0
        assert covariance_trace(1, 2, "elliptic", sign_pair_profile) == 0

    def test_symmetry(self, sign_pair_profile):
        for k in range(1, 4):
            for l in range(1, 4):
                assert covariance_trace(k, l, "elliptic", sign_pair_profile) == covariance_trace(
                    l, k, "elliptic", sign_pair_profile
                )

    def test_iid_block_centrosymmetric_kernels_vanish(self, sign_profile):
        # merged closed walks are degree-balanced, so a unidirectional pair
        # can never appear at a leaf: every fat-tree-style kernel is 0
        for model in ("iid", "block", "centrosymmetric"):
            for k in range(1, 4):
                for l in range(k, 4):
                    assert covariance_trace(k, l, model, sign_profile) == 0

    def test_positivity_proxy(self, sign_pair_profile):
        m = [[covariance_trace(k, l, "elliptic", sign_pair_profile) for l in (2, 3)] for k in (2, 3)]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert m[0][0] >= 0 and m[1][1] >= 0 and det >= 0


class TestWick:
    def test_odd_vanishes(self, sign_pair_profile):
        assert wick_joint((2, 2, 2), "elliptic", sign_pair_profile) == 0

    def test_empty_product_is_one(self, sign_pair_profile):
        # E[empty product] = 1: the sum holds the one empty matching
        assert wick_joint((), "elliptic", sign_pair_profile) == 1

    def test_single_pair(self, sign_pair_profile):
        assert wick_joint((2, 3), "elliptic", sign_pair_profile) == covariance_trace(
            2, 3, "elliptic", sign_pair_profile
        )

    def test_fourth_moment_three_matchings(self, sign_pair_profile):
        c = covariance_trace(2, 2, "elliptic", sign_pair_profile)
        assert wick_joint((2, 2, 2, 2), "elliptic", sign_pair_profile) == 3 * c**2


class TestCirculant:
    def test_k2_light(self):
        prof = profile_of_scalar_law(sign_scalar_law())
        assert circulant_limit_moment(2, prof) == 1

    def test_k3_is_c3(self):
        table = {2: Fraction(1), 3: Fraction(5, 7), 4: Fraction(0)}
        assert circulant_limit_moment(3, table) == Fraction(5, 7)

    def test_k4_sign(self, sign_profile):
        assert circulant_limit_moment(4, sign_profile) == 4
        assert circulant_limit_moment(4, sign_profile, paper_formula=True) == 7

    def test_corrected_formula_matches_oracle_along_odd_primes(self, sign_law, sign_profile):
        # the finite-N oracle drifts toward the corrected value and away from
        # the uncorrected display
        limit = circulant_limit_moment(4, sign_profile)
        uncorrected = circulant_limit_moment(4, sign_profile, paper_formula=True)
        gaps = []
        for table in exact_table("circulant", sign_law, (7, 11, 13), 4).values():
            val = table[(4, None)]
            gaps.append(abs(val - limit))
            assert abs(val - uncorrected) > abs(val - limit)
        assert gaps == sorted(gaps, reverse=True)

    @pytest.mark.parametrize("k", [0, -1])
    def test_walk_length_below_one_raises(self, k, sign_profile):
        with pytest.raises(ValueError):
            circulant_limit_moment(k, sign_profile)

    def test_missing_constant_raises(self):
        # a constant the table lacks is missing, not 0
        short = profile_of_scalar_law(sign_scalar_law(), kmax=2)
        with pytest.raises(MomentTableError, match="no entry C_3"):
            circulant_limit_moment(3, short)
        with pytest.raises(MomentTableError, match="no entry C_4"):
            circulant_limit_moment(4, {2: Fraction(1), 3: Fraction(0)})

    def test_alpha_other_than_one_raises(self):
        heavy = replace(profile_of_scalar_law(sign_scalar_law()), alpha=Fraction(2))
        with pytest.raises(ValueError, match="requires alpha = 1"):
            circulant_limit_moment(2, heavy)
        with pytest.raises(ValueError, match="requires alpha = 1"):
            covariance_trace(2, 2, "circulant", heavy)

    def test_covariance_kernel_verbatim(self):
        assert circulant_covariance(2, 2) == 2
        assert circulant_covariance(1, 2) == 0
        assert circulant_covariance(1, 1) == 1
        assert circulant_covariance(3, 3) == 6


class TestAgainstBellEnumeration:
    """The pruned walk-partition sums equal the Bell-number enumeration."""

    @pytest.fixture(scope="class", params=["1/2", "1"])
    def prof(self, request):
        return profile_of_sparse_law(design_correlated_sign_law(Fraction(request.param)), kmax=12)

    def test_means(self, prof):
        for k in range(1, 9):
            assert limit_trace_moment("elliptic", k, prof) == reference_sums.limit_trace_moment(
                "elliptic", k, prof
            )

    def test_covariances(self, prof):
        for k in range(1, 5):
            for l in range(1, 5):
                assert covariance_trace(k, l, "elliptic", prof) == (
                    reference_sums.covariance_trace(k, l, "elliptic", prof)
                )

    def test_pinned_values(self, sign_pair_profile):
        assert limit_trace_moment("elliptic", 10, sign_pair_profile) == Fraction(1119, 16)
        assert covariance_trace(6, 6, "elliptic", sign_pair_profile) == Fraction(4357, 8)


class TestModelReductionThroughLimits:
    def test_limit_moments_match(self, sign_profile):
        emb = degenerate_profile_of(sign_profile.scalar_table, kmax=sign_profile.kmax)
        for k in range(1, 7):
            assert limit_trace_moment("iid", k, sign_profile) == limit_trace_moment(
                "elliptic", k, emb
            )

    def test_oracle_agrees_with_limit_direction(self, sign_pair_law, sign_pair_profile):
        # |exact(N) - limit| shrinks like 1/N
        tables = exact_table("elliptic", sign_pair_law, (100, 1000), 4)
        for k in (2, 4):
            limit = limit_trace_moment("elliptic", k, sign_pair_profile)
            g100, g1000 = (abs(tables[n][(k, None)] - limit) for n in (100, 1000))
            assert g1000 < g100 / 5
