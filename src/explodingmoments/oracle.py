"""Exact finite-N expectations that validate every limit formula.

Every sum here is N-free, and each N is an evaluation of it.  An elliptic or
iid trace moment is a Laurent polynomial in N^(1/2), summed over the set
partitions of the walk positions (``partitions.walk_partitions``): each
graph contributes its injective labelings, a falling factorial in N, times a
monomial c N^(h/2) of exact entry moments read from the law (the joint
moments of x_ij and x_ji for a pair law, their products for an
independent-entry law).  Every law is centred, so the enumeration skips the
partitions whose graph has a single edge between two vertices or a single
loop at one: their monomial has a factor E[x] = 0.  All other partitions
are summed, trees or not, at every order of N.  The N^0 coefficients of the means and covariances
are the limits of ``limits``.  The circulant sums are the moment-cumulant
formula over the block-size classes of the same partitions
(``partitions.block_classes``), with generator cumulants that are
polynomials in 1/N and residue counts that depend on gcds with N.

All arithmetic is exact.  Sparse moments carry half-integer powers of N
(E[x^k] = q E[xi^k] N^(k/2-1)); an odd one that survives (from odd diagonal
moments) has no rational value at a non-square N.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from itertools import combinations
from typing import NamedTuple, Sequence

from .graphs import moment_product
from .partitions import block_classes, walk_partitions
from .profiles import EntryLaw, GaussianLaw, SparsePairLaw

EXACT_MODELS = ("elliptic", "iid", "circulant")

MAX_N_POLY = 10**6
MAX_K_MEAN = 6
MAX_K_FLUCT = 3

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


class Laurent(dict):
    """A Laurent polynomial in N^(1/2): {half-power h: coefficient of
    N^(h/2)}, holding no zero coefficient."""

    @classmethod
    def of(cls, terms) -> "Laurent":
        """The sum of (half-power, coefficient) terms."""
        out = Counter()
        for half, coeff in terms:
            out[half] += coeff
        return cls((half, coeff) for half, coeff in out.items() if coeff)

    def __add__(self, other: "Laurent") -> "Laurent":
        return Laurent.of([*self.items(), *other.items()])

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + other * _monomial(-1, 0)

    def __mul__(self, other: "Laurent") -> "Laurent":
        return Laurent.of((h + g, c * d) for h, c in self.items() for g, d in other.items())

    def __call__(self, n: int) -> Fraction:
        """The value at N = n."""
        return sum((_eval_scaled(c, h, n) for h, c in self.items()), Fraction(0))


def _monomial(coeff, half: int) -> Laurent:
    return Laurent.of([(half, coeff)])


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


class ExactMomentTable(NamedTuple("ExactMomentTable", [("law", EntryLaw)])):
    """Exact finite-N entry moments of a law, as coefficient * N^(half/2),
    and the cumulants of a circulant generator entry as Laurent polynomials;
    each is computed once per table.  Tables of equal laws are equal; the
    memo lives in the instance dict, outside the tuple."""

    @cached_property
    def _memo(self) -> dict:
        return {}

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    @_once
    def entry(self, k: int) -> _Scaled:
        """E[x^k] of an off-diagonal (or circulant generator) entry."""
        if k == 0:
            return (Fraction(1), 0)
        law = self.law
        if isinstance(law, GaussianLaw):
            return (law.moment(k), 0)
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
    def cumulant(self, k: int) -> Laurent:
        """kappa_k of y = x / sqrt(N), a generator entry of the circulant C,
        from its moments m_j = E[y^j] by
        kappa_k = m_k - sum_(i<k) C(k-1, i-1) kappa_i m_(k-i)."""
        # E[y^j] = E[x_ij^j x_ji^0] / N^(j/2)
        m = [_monomial(*self.a_pair(j, 0)) for j in range(k + 1)]
        terms = (_monomial(math.comb(k - 1, i - 1), 0) * self.cumulant(i) * m[k - i]
                 for i in range(1, k))
        return m[k] - sum(terms, Laurent())

    # entries of A = X / sqrt(N): each power shifts the half-exponent down

    def a_pair(self, k: int, l: int) -> _Scaled:
        c, h = self.pair(k, l)
        return (c, h - (k + l))

    def a_diagonal(self, k: int) -> _Scaled:
        c, h = self.diagonal(k)
        return (c, h - k)


def _walk_sum(table: ExactMomentTable, lengths: Sequence[int]) -> Laurent:
    """E[prod_w Tr(A^(lengths[w]))]: over the set partitions of the walk
    positions, tallied by (vertex count |V|, half-power), N (N-1) ...
    (N-|V|+1) injective labelings times the moment product of the partition
    graph, E[prod over edges of a_(phi u, phi v)] for one labeling phi.
    Every law is centred, so a partition with a single edge between two
    vertices or a single loop at one has a factor E[x] = 0 and is never
    visited (``nonzero``)."""
    tally = Counter()
    for leaf in walk_partitions(lengths, nonzero=True):
        coeff, half = moment_product(leaf, table.a_pair, table.a_diagonal)
        tally[leaf.vertex_count, half] += coeff
    falling = [_monomial(1, 0)]  # N (N-1) ... (N-v+1) at index v
    for i in range(sum(lengths)):
        falling.append(falling[i] * Laurent.of([(2, 1), (0, -i)]))
    return sum((falling[v] * _monomial(c, h) for (v, h), c in tally.items()), Laurent())


@lru_cache(maxsize=None)
def _residue_count(blocks: tuple[tuple[int, ...], ...], n: int) -> int:
    """Labelings of blocks with per-walk sizes (m_b,) or (m_b, m'_b) by
    residues v_b mod N, not necessarily distinct, with zero weighted sum
    mod N on each walk: by the Smith normal form, N^(t-1) gcd(d1, N) for t
    blocks of one walk and N^(t-2) gcd(d1, N) gcd(d2, N) for two.  d1 is the
    gcd of all entries and d1 d2 the gcd of all 2x2 minors (d2 = 0 at rank 1).
    """
    d1 = math.gcd(*(m for block in blocks for m in block))
    count = n ** (len(blocks) - 1) * math.gcd(d1, n)
    if len(blocks[0]) == 1:
        return count
    minors = math.gcd(*(a * d - b * c for (a, b), (c, d) in combinations(blocks, 2)))
    # integer form of N^(t-2) gcd(d1, N) gcd(d2, N): at t = 1, gcd(0, N) = N
    return count * math.gcd(minors // d1, n) // n


def _circulant_sum(table: ExactMomentTable, lengths: Sequence[int], ns: Sequence[int]) -> dict:
    """{N: E[prod_w Tr(C^(lengths[w]))]} over ``ns``, by the moment-cumulant
    formula.  Tr(C^k) is N times the sum, over residue k-tuples with zero
    sum mod N, of the product of the generator entries y_v, whose joint
    cumulants vanish unless their indices agree.  Each set partition of the
    walk positions contributes the product of its block cumulants
    kappa_|B|(y) times the residue labelings of its blocks with zero
    weighted sum mod N on each walk; both depend only on its per-walk block
    sizes, so each class of :func:`partitions.block_classes` is taken once,
    times its count."""
    kappa = [table.cumulant(j) for j in range(sum(lengths) + 1)]
    live = [(blocks, count) for blocks, count in block_classes(lengths).items()
            if all(kappa[sum(block)] for block in blocks)]
    sums = {}
    for n in ns:
        at_n = [poly(n) for poly in kappa]
        terms = (count * math.prod(at_n[sum(block)] for block in blocks)
                 * _residue_count(blocks, n) for blocks, count in live)
        sums[n] = n ** len(lengths) * sum(terms, Fraction(0))
    return sums


def _centred(moments: dict, inv_n, mean_scale) -> dict:
    """Means (keyed (k, None), times ``mean_scale``) and covariances
    E[Z_N(k) Z_N(l)] = (E[Tr A^k Tr A^l] - E[Tr A^k] E[Tr A^l]) / N of the
    walk moments, as Fractions at one N or as Laurent polynomials."""
    table = {(w[0], None): v * mean_scale for w, v in moments.items() if len(w) == 1}
    pairs = ((w, v) for w, v in moments.items() if len(w) == 2)
    return table | {w: (v - moments[w[:1]] * moments[w[1:]]) * inv_n for w, v in pairs}


def _laurent_table(table: ExactMomentTable, walks) -> dict:
    """The elliptic and iid means E[Tr(A^k)]/N and covariances of ``walks``
    as Laurent polynomials; their N^0 coefficients are the limits."""
    inv_n = _monomial(1, -2)
    return _centred({walk: _walk_sum(table, walk) for walk in walks}, inv_n, inv_n)


def exact_table(model: str, law: EntryLaw, ns: Sequence[int], kmax: int) -> dict:
    """{N: table} for each N of ``ns``: the means (k <= MAX_K_MEAN, keyed
    (k, None); E[Tr(A^k)]/N, or E[Tr(C^k)] for the circulant) and the
    covariances (k <= l <= MAX_K_FLUCT) up to ``kmax``, each walk summed
    once for all N.  The iid and circulant models have independent entries,
    so a dependent pair law has no oracle there."""
    if model not in EXACT_MODELS:
        raise ValueError(f"no exact oracle for model {model}")
    if model != "elliptic" and isinstance(law, SparsePairLaw):
        raise ValueError(f"the {model} model needs a scalar or Gaussian law, not a pair law")
    for n in ns:
        if not 1 <= n <= MAX_N_POLY:
            raise ValueError(f"the exact oracle supports N from 1 up to {MAX_N_POLY}, got {n}")
    kmean, kfluct = min(kmax, MAX_K_MEAN), min(kmax, MAX_K_FLUCT)
    walks = [(k,) for k in range(1, kmean + 1)]
    walks += [(k, l) for k in range(1, kfluct + 1) for l in range(k, kfluct + 1)]
    table = ExactMomentTable(law)
    if model == "circulant":
        sums = {walk: _circulant_sum(table, walk, ns) for walk in walks}
        return {n: _centred({w: s[n] for w, s in sums.items()}, Fraction(1, n), 1) for n in ns}
    polys = _laurent_table(table, walks)
    return {n: {key: poly(n) for key, poly in polys.items()} for n in ns}
