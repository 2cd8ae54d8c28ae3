"""Limiting values of trace moments, fluctuation covariances, and their
circulant closed forms.

At the critical exponent alpha = 1 the limit of a normalized trace term is a
product of profile constants over the adjacent pairs of its trace graph when
that graph is an admissible tree, and 0 otherwise.  Fluctuation covariances
sum the same product over gluings of two trace graphs that share an edge and
merge into an admissible tree.  For alpha != 1 only the asymptotic order
|V| - 1 - alpha * p survives (p = reduced edge count).

Of the graph-summed models only the elliptic one has surviving terms: the
iid, two-block and centrosymmetric mean and covariance limits are exactly 0
(see :func:`limit_trace_moment`) and are returned without enumeration.

All arithmetic here is exact rational; profile constants enter symbolically
and are substituted at the end.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Mapping, Optional, Sequence, Union

from .graphs import ADMISSIBLE_TREE, classify, moment_product
from .partitions import TraceCounts, block_classes, enumerate_pair_partitions, walk_partitions
from .profiles import MODELS, MomentProfile

# 10 covers the tenth Wigner moment in the acceptance suite
KMAX_TRACE = 10
KMAX_COV = 6

# models whose admissible trees would need a unidirectional adjacent pair
_ZERO_MODELS = ("iid", "block", "centrosymmetric")


@dataclass(frozen=True)
class LimitValue:
    """Either an exact zero or a symbolic asymptotic order N^exponent (the
    alpha != 1 regimes are classified, never evaluated)."""

    kind: str  # "zero_exact" | "symbolic_order"
    exponent: Optional[Fraction] = None


def _require_alpha_one(profile: MomentProfile):
    if profile.alpha != 1:
        raise ValueError(f"limit evaluation requires alpha = 1, got alpha = {profile.alpha}")


def _tree_product(counts, model: str, profile: MomentProfile) -> Fraction:
    """Pair-constant product of an admissible tree: C_{a,b} for each adjacent
    pair with a edges one way and b the other (elliptic), C_{a+b} for iid."""
    if model == "elliptic":
        return moment_product(counts, lambda a, b: (profile.pair(a, b), 0))[0]
    return moment_product(counts, lambda a, b: (profile.scalar(a + b), 0))[0]


def tau(counts: TraceCounts, model: str, profile: MomentProfile) -> Fraction:
    """Limiting trace contribution of one graph, given by its counters: the
    pair-constant product if the graph is an admissible tree for the model
    ("elliptic" or "iid"), else 0."""
    _require_alpha_one(profile)
    if classify(counts, model) != ADMISSIBLE_TREE:
        return Fraction(0)
    return _tree_product(counts, model, profile)


def asymptotic_order(counts: TraceCounts, alpha) -> LimitValue:
    """Order classification valid for every alpha > 0.

    Exact zero when some pair carries total multiplicity one or some vertex
    carries exactly one loop; otherwise the term is O(N^(|V| - 1 - alpha*p)).
    For alpha > 1 that exponent is always negative on connected graphs.
    """
    alpha = Fraction(alpha)
    if counts.has_single_multiplicity_pair or counts.has_single_loop_vertex:
        return LimitValue(kind="zero_exact")
    exponent = Fraction(counts.vertex_count - 1) - alpha * counts.reduced_edge_count
    if alpha > 1 and counts.component_count == 1 and exponent >= 0:
        raise AssertionError("connected graphs must have negative order for alpha > 1")
    return LimitValue(kind="symbolic_order", exponent=exponent)


def limit_trace_moment(model: str, k: int, profile: MomentProfile) -> Fraction:
    """Limit of the normalized trace E[Tr(A^k)] / N: the sum of
    :func:`tau` over the partitions of {1..k} whose graph is a thick tree,
    the only ones the pruned :func:`partitions.walk_partitions` visits
    (for the circulant model: limit of E[Tr(C^k)]).

    The iid, two-block and centrosymmetric limits are exactly 0, for the mean
    here and for the covariance in :func:`covariance_trace`.  Each of these
    models reduces to blocks of independent entries, whose terms survive
    only on fat trees: admissible trees whose every adjacent pair carries
    edges in one direction only.  A closed walk on a tree crosses each edge
    as often in one direction as in the other, and so does a union of two
    closed walks, so every adjacent pair of such a graph carries edges both
    ways and no term is ever admitted.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if not 1 <= k <= KMAX_TRACE:
        raise ValueError(f"k={k} outside 1..{KMAX_TRACE}")
    _require_alpha_one(profile)
    if model == "circulant":
        return circulant_limit_moment(k, profile)
    if model in _ZERO_MODELS:
        return Fraction(0)
    leaves = walk_partitions((k,), prune=True)
    return sum((_tree_product(leaf, model, profile) for leaf in leaves), Fraction(0))


def covariance_trace(k: int, l: int, model: str, profile: MomentProfile) -> Fraction:
    """Limiting Cov(z(k), z(l)) of the centered sqrt(N)-scaled trace
    fluctuations; exactly 0 for the iid, two-block and centrosymmetric
    models (see :func:`limit_trace_moment`).

    A gluing of a k-walk graph and an l-walk graph is one set partition of
    the k + l positions of the two walks; the kernel sums the tree product
    over the gluings that merge into a thick tree and share a directed edge.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if not (1 <= k <= KMAX_COV and 1 <= l <= KMAX_COV):
        raise ValueError(f"(k,l)=({k},{l}) outside 1..{KMAX_COV}")
    _require_alpha_one(profile)
    if model == "circulant":
        return circulant_covariance(k, l)
    if model in _ZERO_MODELS:
        return Fraction(0)
    leaves = walk_partitions((k, l), prune=True)
    return sum((_tree_product(leaf, model, profile) for leaf in leaves if leaf.shared), Fraction(0))


def wick_joint(ks: Sequence[int], model: str, profile: MomentProfile) -> Fraction:
    """Joint moment of the limiting Gaussian family: sum over pair partitions
    of products of covariances; 0 for an odd number of factors."""
    ks = list(ks)
    if len(ks) > KMAX_COV:
        raise ValueError(f"at most {KMAX_COV} factors")
    total = Fraction(0)
    for matching in enumerate_pair_partitions(len(ks)):
        term = Fraction(1)
        for i, j in matching:
            term *= covariance_trace(ks[i - 1], ks[j - 1], model, profile)
        total += term
    return total


def _profile_of(table) -> MomentProfile:
    """The profile itself, or the alpha = 1 profile of a table {m: C_m}."""
    if isinstance(table, MomentProfile):
        return table
    return MomentProfile(alpha=Fraction(1), kmax=max(table, default=2), scalar_table=table)


def circulant_limit_moment(
    k: int, profile: Union[MomentProfile, Mapping[int, Fraction]], paper_formula: bool = False
) -> Fraction:
    """Limit of E[Tr(C^k)] for the circulant model.

    Sums prod_b C_(m_b) over the set partitions of {1..k} into blocks of
    sizes m_b >= 2, class by class (:func:`partitions.block_classes`): the
    count k! / (prod_b m_b! prod mu!) divides by the multiplicities mu of
    equal sizes.  The uncorrected variant (paper_formula=True) omits that
    symmetry factor and is kept for comparison reports only.  A C_m the
    table lacks raises :class:`MomentTableError`, as in
    :meth:`MomentProfile.scalar`.
    """
    profile = _profile_of(profile)
    _require_alpha_one(profile)
    total = Fraction(0)
    for blocks, count in block_classes((k,)).items():
        if paper_formula:
            count *= prod(map(factorial, Counter(blocks).values()))
        total += count * prod(profile.scalar(m) for (m,) in blocks)
    return total


def circulant_covariance(k: int, l: int) -> Fraction:
    """Stated circulant fluctuation kernel: k! on the diagonal, 0 off it.

    This is the prediction verbatim (unit entry variance); the verification
    layer compares it against oracle and empirical values side by side.  For
    a heavy profile the gap is O(1), not O(1/N): at prime N = 999983 the
    sign law's exact (1,3), (2,2) and (3,3) entries are 1, about 3 and
    about 16, against 0, 2 and 6.  The N^0 terms depend on the profile and
    on gcd(N, d) for small d; see ROADMAP.md, "Circulant limits depend on
    how N factors".
    """
    return Fraction(factorial(k)) if k == l else Fraction(0)
