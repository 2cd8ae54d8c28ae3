"""Limiting values of trace moments, fluctuation covariances, and their
circulant closed forms.

At the critical exponent alpha = 1 the limit of a normalized trace term is a
product of profile constants over the adjacent pairs of its trace graph when
that graph is an admissible tree, and 0 otherwise.  Fluctuation covariances
sum the same product over gluings of two trace graphs that share an edge and
merge into an admissible tree.  The elliptic mean and covariance sum their
trees' products by a recursion over the trees, with no enumeration of
partitions or gluings.  For alpha != 1 only the asymptotic
order |V| - 1 - alpha * p survives (p = reduced edge count).

Of the graph-summed models only the elliptic one has surviving terms: the
iid, two-block and centrosymmetric mean and covariance limits are exactly 0
(see :func:`limit_trace_moment`) and are returned without enumeration.

All arithmetic here is exact rational; profile constants enter symbolically
and are substituted at the end.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from math import comb, factorial, prod
from typing import NamedTuple, Optional, Sequence

from .graphs import ADMISSIBLE_TREE, classify, moment_product
from .partitions import TraceCounts, block_classes, enumerate_pair_partitions
from .profiles import MODELS, MomentProfile

# 10 covers the tenth Wigner moment in the acceptance suite
KMAX_TRACE = 10
KMAX_COV = 6

# models whose admissible trees would need a unidirectional adjacent pair
_ZERO_MODELS = ("iid", "block", "centrosymmetric")


class LimitValue(NamedTuple):
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


def _split(excursions: int, walks: int) -> int:
    """binom(E+m-1, m-1): the ways to deal E excursions, in time order, to m
    walks in order; with no walk, E = 0 only."""
    return comb(excursions + walks - 1, walks - 1) if walks else int(not excursions)


class _TreeWalks:
    """Weights of closed walks on trees, for the constants ``consts`` =
    (C_(1,1), ..., C_(H,H)), counted in half-lengths and memoised.

    A closed walk on a tree crosses each edge as often one way as the other,
    so a tree's product is prod_e C_(m_e,m_e) over its edges, each crossed
    m_e times each way.  The walks come in two colours.  beta(E1, E2; h1, h2)
    is the weight of E1 colour-1 and E2 colour-2 excursions from one root,
    in time order within each colour, of total half-lengths h1 and h2.  Each
    child of the root takes a block of them, r1 + r2 steps each way across
    its edge and an (r1, r2)-tuple of closed walks from the child.  So beta
    is a sum over the set partitions of the excursions into children (the
    exponential formula; Flajolet and Sedgewick, *Analytic Combinatorics*,
    2009, II.2), taken by the block of colour-1 excursion 1:

      beta(E1, E2; h1, h2) = sum binom(E1-1, r1-1) binom(E2, r2) C_(r1+r2)
                             W(r1, r2; g1, g2) beta(E1-r1, E2-r2; h1-r1-g1, h2-r2-g2),
      beta(0, E2; h1, h2) = [h1 = 0] beta(E2, 0; h2, 0),
      W(m1, m2; h1, h2) = sum_(E1, E2) binom(E1+m1-1, m1-1) binom(E2+m2-1, m2-1) beta,

    W being the weight of the ordered tuples of m1 and m2 closed walks from
    the root.  One colour is the case E2 = h2 = 0, and M_k = W(1, 0; k/2, 0)
    is the elliptic limit.  Cf. Male, JFA 272 (2017), arXiv:1209.2366.
    """

    def __init__(self, consts: tuple):
        self.consts = consts
        self.shorter = _tables(consts[:-1]) if consts else None
        self.beta = cache(self._beta)
        self.walks = cache(self._walks)
        self.marked = cache(self._marked)
        self.below = cache(self._below)

    def _beta(self, e1, e2, h1, h2):
        if h1 + h2 < len(self.consts):
            return self.shorter.beta(e1, e2, h1, h2)
        if e1 > h1 or e2 > h2:
            return 0
        if not e1:
            return 0 if h1 else self.beta(e2, 0, h2, 0) if e2 else int(not h2)
        return sum(
            comb(e1 - 1, r1 - 1) * comb(e2, r2) * self.consts[r1 + r2 - 1] * sum(
                self.walks(r1, r2, g1, g2) * self.beta(e1 - r1, e2 - r2, h1 - r1 - g1, h2 - r2 - g2)
                for g1 in range(h1 - e1 + 1) for g2 in range(h2 - e2 + 1))
            for r1 in range(1, e1 + 1) for r2 in range(e2 + 1)
        )

    def _walks(self, m1, m2, h1, h2):
        if h1 + h2 < len(self.consts):
            return self.shorter.walks(m1, m2, h1, h2)
        return sum(_split(e1, m1) * _split(e2, m2) * self.beta(e1, e2, h1, h2)
                   for e1 in range(h1 + 1) for e2 in range(h2 + 1))

    def _marked(self, m, h1, h2):
        """X(m; h1, h2): m colour-1 walks of total half-length h1, a marked
        vertex of their tree, and from it a colour-2 walk of half-length h2
        below it, weighed 1/E2 for its E2 excursions there (1 at h2 = 0, so
        X(1; k/2, 0) = sum tau |V|).  The vertex is the root, or below it (Y):

          X(m; h1, h2) = sum_E1 binom(E1+m-1, m-1) [sum_E2 beta(E1, E2; h1, h2) / E2 + Y]."""
        if h1 + h2 < len(self.consts):
            return self.shorter.marked(m, h1, h2)
        return sum(
            _split(e1, m) * (self.below(e1, h1, h2) + sum(
                Fraction(self.beta(e1, e2, h1, h2), max(e2, 1)) for e2 in range(h2 + 1)))
            for e1 in range(h1 + 1)
        )

    def _below(self, e, h1, h2):
        """Y(E; h1, h2): E colour-1 excursions with the marked vertex below
        the root, in the child of the first excursion's block or not:

          Y(E; h1, h2) = sum binom(E-1, r-1) C_(r,r) [X(r; g, h2) beta(E-r, 0; h1-r-g, 0)
                                                      + W(r, 0; g, 0) Y(E-r; h1-r-g, h2)]."""
        if h1 + h2 < len(self.consts):
            return self.shorter.below(e, h1, h2)
        return sum(
            comb(e - 1, r - 1) * self.consts[r - 1] * sum(
                self.marked(r, g, h2) * self.beta(e - r, 0, h1 - r - g, 0)
                + self.walks(r, 0, g, 0) * self.below(e - r, h1 - r - g, h2)
                for g in range(h1 - e + 1))
            for r in range(1, e + 1)
        )


@lru_cache(maxsize=32)
def _tables(consts: tuple) -> _TreeWalks:
    """The tables of (C_(1,1), ..., C_(H,H)), shared by the mean and the
    covariance.  An entry of total half-length h1 + h2 reads C_(h1+h2,h1+h2)
    and below only, so one below H is taken from the tables of the first
    H - 1 constants, and each table fills the entries of half-length H."""
    return _TreeWalks(consts)


def _tree_walks(profile: MomentProfile, half: int) -> _TreeWalks:
    """The tables of C_(1,1), ..., C_(half,half), read from the top down: a
    profile that lacks some raises :class:`MomentTableError` for the largest,
    as the enumeration of the thick trees does."""
    return _tables(tuple(profile.pair(r, r) for r in range(half, 0, -1))[::-1])


def limit_trace_moment(model: str, k: int, profile: MomentProfile) -> Fraction:
    """Limit of the normalized trace E[Tr(A^k)] / N: the sum of
    :func:`tau` over the partitions of {1..k} whose graph is a thick tree,
    taken by the tree-walk recursion of :class:`_TreeWalks` and 0 at odd k;
    the pruned :func:`partitions.walk_partitions` visits the same trees and
    is the tests' reference (for the circulant model: limit of E[Tr(C^k)]).

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
    if model in _ZERO_MODELS or k % 2:
        return Fraction(0)
    return Fraction(_tree_walks(profile, k // 2).walks(1, 0, k // 2, 0))


def covariance_trace(k: int, l: int, model: str, profile: MomentProfile) -> Fraction:
    """Limiting Cov(z(k), z(l)) of the centered sqrt(N)-scaled trace
    fluctuations; exactly 0 for the iid, two-block and centrosymmetric
    models (see :func:`limit_trace_moment`).

    A gluing of a k-walk graph and an l-walk graph is one set partition of
    the k + l positions of the two walks; the kernel sums the tree product
    over the gluings that merge into a thick tree and share a directed edge.
    A closed walk on a tree has even length and crosses its edges both ways,
    so the kernel is 0 at odd k or l, and else S - A_k A_l by the tree-walk
    recursion of :class:`_TreeWalks`.  S sums the product over every gluing
    whose union is a tree.  Two subtrees of a tree that share no edge share
    at most one vertex, so S - kernel sums the gluings of a k-walk's tree
    and an l-walk's tree at one vertex: |V1| |V2| of them per pair of trees,
    each of product tau1 tau2, which is A_k A_l for A_k = sum tau |V| over
    the trees of k-walks.

    For S, root the union at walk 1's start and let v be the vertex of walk
    2's tree nearest the root: it lies on walk 1's tree, and walk 2 stays
    below it.  Rotate walk 2 to start at its first visit to v.  The original
    start can be any step of the rotated walk's last excursion from v, and
    averaging over the order of its E2 excursions there turns that count
    into l / E2.  So S = l X(1; k/2, l/2) and A_k = X(1; k/2, 0), for X of
    :meth:`_TreeWalks._marked`.  The constants are read from
    C_((k+l)/2,(k+l)/2) down to C_(1,1).
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if not (1 <= k <= KMAX_COV and 1 <= l <= KMAX_COV):
        raise ValueError(f"(k,l)=({k},{l}) outside 1..{KMAX_COV}")
    _require_alpha_one(profile)
    if model == "circulant":
        return circulant_covariance(k, l)
    if model in _ZERO_MODELS or k % 2 or l % 2:
        return Fraction(0)
    walks = _tree_walks(profile, (k + l) // 2)
    h1, h2 = k // 2, l // 2
    return Fraction(l * walks.marked(1, h1, h2) - walks.marked(1, h1, 0) * walks.marked(1, h2, 0))


def predicted(model: str, profile: MomentProfile, k: int, l: Optional[int] = None,
              n: Optional[int] = None, paper_formula: bool = False) -> Fraction:
    """The ``predicted`` cell of every report's (k, l) row, a mean at l = None:
    :func:`covariance_trace`, or the limit mean as :func:`at_size` reports it
    at size n, where ``paper_formula`` picks the uncorrected circulant display."""
    if l is not None:
        return covariance_trace(k, l, model, profile)
    if model != "circulant":
        return limit_trace_moment(model, k, profile)
    return at_size(model, circulant_limit_moment(k, profile, paper_formula), None, n)


def at_size(model: str, value: Fraction, l: Optional[int], n: Optional[int]) -> Fraction:
    """A mean (l = None) or covariance value, limit or exact, as a row
    reports it at size n: the circulant means are of Tr(C^k) and the
    estimator reports Tr(C^k)/N, so they divide by n; the rest are as given."""
    return value / n if model == "circulant" and l is None and n is not None else value


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


def circulant_limit_moment(k: int, profile: MomentProfile, paper_formula: bool = False) -> Fraction:
    """Limit of E[Tr(C^k)] for the circulant model from the C_m of a profile.

    Sums prod_b C_(m_b) over the set partitions of {1..k} into blocks of
    sizes m_b >= 2, class by class (:func:`partitions.block_classes`): the
    count k! / (prod_b m_b! prod mu!) divides by the multiplicities mu of
    equal sizes.  The uncorrected variant (paper_formula=True) omits that
    symmetry factor and is kept for comparison reports only.  A C_m the
    profile lacks raises :class:`MomentTableError`, as in
    :meth:`MomentProfile.scalar`.
    """
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
