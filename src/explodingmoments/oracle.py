"""Exact finite-N expectations that validate every limit formula.

The trace mean at finite N is a polynomial in N: summing over the set
partitions of the walk positions (``partitions.walk_partitions``, unpruned),
each graph contributes a falling factorial (the injective labelings) times a
product of exact entry moments.  The law alone decides those moments: a
dependent pair law gives the joint moments of x_ij and x_ji, an
independent-entry law their products.  Fluctuation covariances run the same
sum over the positions of two walks and subtract the product of the means.
The circulant mean and joint moment are the moment-cumulant formula over the
same partitions: each block contributes a cumulant of one generator entry,
and each partition counts the residue labelings of its blocks with zero
weighted sum mod N on every walk (two congruences for the joint moment).
:func:`exact_table` gives every mean and covariance at one N, summing each
mean once.

Everything here is big-integer rational arithmetic; no floats.  Moments of a
sparse law carry explicit powers of sqrt(N) (E[x^k] = q E[xi^k] N^(k/2-1));
the walk sum tracks them in half-integer exponents, which must cancel to
integer powers by evaluation time (they always do for the laws shipped here,
whose odd diagonal moments vanish).  A circulant generator entry x / sqrt(N)
has rational moments for every law here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial, wraps
from itertools import combinations
from typing import Callable, Optional, Sequence, Union

from .ensembles import GaussianLaw
from .graphs import moment_product
from .partitions import falling_factorial, walk_partitions
from .profiles import SparsePairLaw, SparseScalarLaw

ORACLE_MODELS = ("elliptic", "iid")
EXACT_MODELS = ORACLE_MODELS + ("circulant",)

MAX_N_POLY = 10**6
MAX_K_MEAN = 6
MAX_K_FLUCT = 3

OracleLaw = Union[SparsePairLaw, SparseScalarLaw, GaussianLaw]

_Scaled = tuple[Fraction, int]  # (coefficient, half-power of N): value = c * N^(h/2)


def _eval_scaled(coeff: Fraction, half: int, n: int) -> Fraction:
    if coeff == 0:
        return Fraction(0)
    if half % 2 == 0:
        return coeff * Fraction(n) ** (half // 2)
    r = math.isqrt(n)
    if r * r != n:
        raise ValueError(
            f"exact value involves N^({half}/2) at non-square N={n}; "
            "choose a law with vanishing odd moments or a square N"
        )
    return coeff * Fraction(r) ** half


def _once(method):
    """Memoize a moment method per table, keyed by its orders only, so a
    lookup neither re-sums the law's atoms nor hashes them."""

    @wraps(method)
    def memo(self, *orders):
        key = (method.__name__,) + orders
        if key not in self._memo:
            self._memo[key] = method(self, *orders)
        return self._memo[key]

    return memo


@dataclass(frozen=True)
class ExactMomentTable:
    """Exact finite-N entry moments of a law, as coefficient * N^(half/2),
    and the cumulants of a circulant generator entry at a given N; each is
    computed once per table."""

    law: OracleLaw
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @_once
    def entry(self, k: int) -> _Scaled:
        """E[x^k] of an off-diagonal (or circulant generator) entry."""
        if k == 0:
            return (Fraction(1), 0)
        law = self.law
        if isinstance(law, GaussianLaw):
            return (law.moment(k), 0)
        if isinstance(law, SparsePairLaw):
            return (law.activation * law.atom_moment(k, 0), k - 2)
        return (law.activation * law.atom_moment(k), k - 2)

    @_once
    def pair(self, k: int, l: int) -> _Scaled:
        """E[x_ij^k x_ji^l]; factorizes for independent-entry laws."""
        if k == 0 and l == 0:
            return (Fraction(1), 0)
        law = self.law
        if isinstance(law, SparsePairLaw):
            return (law.activation * law.atom_moment(k, l), k + l - 2)
        ck, hk = self.entry(k)
        cl, hl = self.entry(l)
        return (ck * cl, hk + hl)

    @_once
    def diagonal(self, k: int) -> _Scaled:
        if k == 0:
            return (Fraction(1), 0)
        law = self.law
        if isinstance(law, GaussianLaw):
            return (law.moment(k), 0)
        return (law.diagonal_moment(k), 0)

    @_once
    def cumulant(self, k: int, n: int) -> Fraction:
        """kappa_k of y = x / sqrt(N), a generator entry of the circulant C,
        from its moments m_j = E[y^j] by
        kappa_k = m_k - sum_(i<k) C(k-1, i-1) kappa_i m_(k-i)."""
        # E[y^j] = E[x_ij^j x_ji^0] / N^(j/2)
        m = [_eval_scaled(*self.a_pair(j, 0), n) for j in range(k + 1)]
        return m[k] - sum(
            (math.comb(k - 1, i - 1) * self.cumulant(i, n) * m[k - i] for i in range(1, k)),
            Fraction(0),
        )

    # entries of A = X / sqrt(N): each power shifts the half-exponent down

    def a_pair(self, k: int, l: int) -> _Scaled:
        c, h = self.pair(k, l)
        return (c, h - (k + l))

    def a_diagonal(self, k: int) -> _Scaled:
        c, h = self.diagonal(k)
        return (c, h - k)


def _walk_sum(table: ExactMomentTable, n: int, lengths: Sequence[int]) -> Fraction:
    """E[prod_w Tr(A^(lengths[w]))]: over the set partitions of the walk
    positions, N (N-1) ... (N-|V|+1) injective labelings times the moment
    product of the partition graph, E[prod over edges of a_(phi u, phi v)]
    for one injective labeling phi."""
    total = Fraction(0)
    for leaf in walk_partitions(lengths):
        coeff, half = moment_product(leaf, table.a_pair, table.a_diagonal)
        total += falling_factorial(n, leaf.vertex_count) * _eval_scaled(coeff, half, n)
    return total


def _walk_sums(model: str, law: OracleLaw, n: int) -> Callable[[Sequence[int]], Fraction]:
    """lengths -> E[prod_w Tr(X^(lengths[w]))] at size N, for X = A of the
    elliptic and iid models (:func:`_walk_sum`) or the circulant C
    (:func:`_circulant_sum`).  The iid and circulant models have independent
    entries, so a dependent pair law has no oracle there."""
    if not 1 <= n <= MAX_N_POLY:
        raise ValueError(f"N={n} outside 1..{MAX_N_POLY}")
    if model in ("iid", "circulant") and isinstance(law, SparsePairLaw):
        raise ValueError(f"the {model} model needs a scalar or Gaussian law, not a pair law")
    table = ExactMomentTable(law)
    if model == "circulant":
        return partial(_circulant_sum, table, n)
    if model in ORACLE_MODELS:
        return partial(_walk_sum, table, n)
    raise ValueError(f"unsupported model {model!r}")


def exact_trace_mean(model: str, law: OracleLaw, n: int, k: int) -> Fraction:
    """E[Tr(A^k)] / N at finite N, exactly: sum over partitions of
    (N-1)! / (N-|V|)! times the moment product of the partition graph."""
    if model not in ORACLE_MODELS:
        raise ValueError(f"exact_trace_mean supports {ORACLE_MODELS}, not {model!r}")
    if not 1 <= k <= MAX_K_MEAN:
        raise ValueError(f"k={k} outside 1..{MAX_K_MEAN}")
    return _walk_sums(model, law, n)((k,)) / n


@lru_cache(maxsize=None)
def _residue_count(blocks: tuple[tuple[int, int], ...], n: int) -> int:
    """Labelings of blocks with per-walk sizes (m_b, m'_b) by residues v_b
    mod N, not necessarily distinct, with sum m_b v_b = sum m'_b v_b = 0
    mod N: the kernel of Z_N^t -> Z_N^2 for t blocks, which by the Smith
    normal form has N^(t-2) gcd(d1, N) gcd(d2, N) elements.  d1 is the gcd
    of all entries and d1 d2 the gcd of all 2x2 minors (d2 = 0 at rank <= 1,
    so one walk gives N^(t-1) gcd(d1, N)).
    """
    d1 = math.gcd(*(m for block in blocks for m in block))
    minors = math.gcd(*(a * d - b * c for (a, b), (c, d) in combinations(blocks, 2)))
    # integer form of N^(t-2) gcd(d1, N) gcd(d2, N): at t = 1, gcd(0, N) = N
    return n ** (len(blocks) - 1) * math.gcd(d1, n) * math.gcd(minors // d1, n) // n


def _circulant_sum(table: ExactMomentTable, n: int, lengths: Sequence[int]) -> Fraction:
    """E[prod_w Tr(C^(lengths[w]))] by the moment-cumulant formula.

    Tr(C^k) is N times the sum, over residue k-tuples with zero sum mod N,
    of the product of the generator entries y_v.  Distinct entries are
    independent, so a joint cumulant of them vanishes unless its indices
    agree.  Each set partition of the walk positions then contributes the
    product of its block cumulants kappa_|B|(y) times the residue labelings
    of its blocks with zero weighted sum mod N on each walk.
    """
    kappa = [table.cumulant(j, n) for j in range(sum(lengths) + 1)]
    total = Fraction(0)
    for leaf in walk_partitions(lengths):
        kappas = [kappa[a + b] for a, b in leaf.block_sizes]
        if all(kappas):
            total += math.prod(kappas) * _residue_count(leaf.block_sizes, n)
    return n ** len(lengths) * total


def exact_circulant_trace_mean(law: OracleLaw, n: int, k: int) -> Fraction:
    """E[Tr(C^k)] at finite N, by the moment-cumulant formula.  Its cost
    does not grow with N."""
    if not 1 <= k <= MAX_K_MEAN:
        raise ValueError(f"k={k} outside 1..{MAX_K_MEAN}")
    return _walk_sums("circulant", law, n)((k,))


def _fluct(moment, means: dict[int, Fraction], n: int, k: int, l: int) -> Fraction:
    """E[Z_N(k) Z_N(l)] from the joint moment and the two trace means."""
    return (moment((k, l)) - means[k] * means[l]) / n


def exact_fluct_covariance_small(
    model: str, law: OracleLaw, n: int, k: int, l: int
) -> Fraction:
    """Exact E[Z_N(k) Z_N(l)] with true-expectation centering: the joint
    moment E[Tr(A^k) Tr(A^l)], summed over the set partitions of the k + l
    positions of two walks (falling factorials for elliptic/iid, cumulants
    and residue counts for circulant), minus the product of the two means.
    """
    if not (1 <= k <= MAX_K_FLUCT and 1 <= l <= MAX_K_FLUCT):
        raise ValueError(f"(k,l)=({k},{l}) outside 1..{MAX_K_FLUCT}")
    moment = _walk_sums(model, law, n)
    return _fluct(moment, {j: moment((j,)) for j in {k, l}}, n, k, l)


def exact_table(
    model: str, law: OracleLaw, n: int, kmax: int
) -> dict[tuple[int, Optional[int]], Fraction]:
    """The means (k <= MAX_K_MEAN, keyed (k, None)) and covariances
    (k <= l <= MAX_K_FLUCT) up to ``kmax`` at size N, as the one-value
    functions return them, each trace mean summed once."""
    moment = _walk_sums(model, law, n)
    means = {k: moment((k,)) for k in range(1, min(kmax, MAX_K_MEAN) + 1)}
    norm = 1 if model == "circulant" else n  # the circulant mean is of Tr(C^k)
    table = {(k, None): mean / norm for k, mean in means.items()}
    kfluct = min(kmax, MAX_K_FLUCT)
    for k in range(1, kfluct + 1):
        for l in range(k, kfluct + 1):
            table[(k, l)] = _fluct(moment, means, n, k, l)
    return table
