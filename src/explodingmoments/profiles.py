"""Limit constants of exploding-moment entry laws, and the sparse atomic laws
that realize them.

A matrix entry law has *exploding moments* with exponent ``alpha`` when
``E[x^k] ~ C_k * N^(k/2 - alpha)``; the critical regime is ``alpha = 1``.
A :class:`MomentProfile` stores the limit constants (``alpha``, the mixed
pair table ``C_{k,l}`` and the scalar table ``C_k``), and the sparse laws
below realize ``alpha = 1`` exactly: an entry is zero except with
probability ``q/N``, where it takes the value ``sqrt(N) * xi`` for a
finite-atom variable ``xi``.  :class:`SparsePairLaw` (atom rows
``(xi, eta, prob)`` for a dependent pair ``(x_ij, x_ji)``) and
:class:`SparseScalarLaw` (rows ``(xi, prob)``) share one body, and
:func:`law_to_dict` / :func:`law_from_dict` are the JSON codec of both.
:class:`GaussianLaw` is the bounded-moment reference law; ``EntryLaw`` is
any of the three.

Everything in this module is exact rational arithmetic; no floats.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, lcm, prod
from typing import ClassVar, Iterable, Iterator, Mapping, Union

from .partitions import double_factorial_odd

MODELS = ("elliptic", "iid", "block", "centrosymmetric", "circulant")

# models whose limit formulas consume the mixed pair table C_{k,l}, and whose
# samplers draw dependent pairs from a SparsePairLaw
PAIR_MODELS = ("elliptic", "block")
# models whose limit formulas consume the scalar table C_k
_SCALAR_MODELS = ("iid", "block", "centrosymmetric", "circulant")

DEFAULT_KMAX = 8

# the highest trace power a Monte Carlo run estimates
KMAX_TRACE_POWERS = 8


class MomentTableError(LookupError):
    """A moment table is too short for a requested entry."""


class DocumentError(ValueError):
    """A law or profile document that does not read: a field is missing,
    holds a value of the wrong type or a zero denominator, or the values
    make no valid law or profile."""


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("moment tables are exact: got float %r" % x)
    return Fraction(x)


def _pair_keys(kmax: int) -> Iterator[tuple[int, int]]:
    """The pair-table keys (k, l): k, l >= 0 and 2 <= k + l <= kmax, k-major."""
    return ((k, l) for k in range(kmax + 1) for l in range(kmax + 1 - k) if k + l >= 2)


@dataclass(frozen=True)
class Violation:
    """One structured validation failure."""

    code: str  # "missing-entry" | "variance-mismatch"
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass(frozen=True)
class MomentProfile:
    """Limit constants parameterizing every limit formula.

    ``pair_table[(k, l)]`` holds C_{k,l} for k, l >= 0 with 2 <= k+l <= kmax;
    both orientations are stored explicitly and symmetry is never assumed.
    ``scalar_table[k]`` holds C_k for 2 <= k <= kmax.
    """

    alpha: Fraction
    kmax: int = DEFAULT_KMAX
    pair_table: Mapping[tuple[int, int], Fraction] = field(default_factory=dict)
    scalar_table: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frac(self.alpha))
        if self.kmax < 2:
            raise ValueError("kmax must be at least 2")
        pair = {}
        for (k, l), v in dict(self.pair_table).items():
            if not (k >= 0 and l >= 0 and 2 <= k + l <= self.kmax):
                raise ValueError(f"pair entry ({k},{l}) outside 2 <= k+l <= kmax={self.kmax}")
            pair[(k, l)] = _frac(v)
        scal = {}
        for k, v in dict(self.scalar_table).items():
            if not 2 <= k <= self.kmax:
                raise ValueError(f"scalar entry {k} outside 2 <= k <= kmax={self.kmax}")
            scal[k] = _frac(v)
        object.__setattr__(self, "pair_table", pair)
        object.__setattr__(self, "scalar_table", scal)

    def pair(self, k: int, l: int) -> Fraction:
        """C_{k,l}, with the conventions C_{0,0} = 1 and C_{1,0} = C_{0,1} = 0."""
        if (k, l) == (0, 0):
            return Fraction(1)
        if (k, l) in ((1, 0), (0, 1)):
            return Fraction(0)
        try:
            return self.pair_table[(k, l)]
        except KeyError:
            raise MomentTableError(f"pair table has no entry C_({k},{l})") from None

    def scalar(self, k: int) -> Fraction:
        """C_k, with the conventions C_0 = 1 and C_1 = 0."""
        if k == 0:
            return Fraction(1)
        if k == 1:
            return Fraction(0)
        try:
            return self.scalar_table[k]
        except KeyError:
            raise MomentTableError(f"scalar table has no entry C_{k}") from None


def _atom_checks(atoms, what) -> list[str]:
    problems = []
    total = sum((p for *_vals, p in atoms), Fraction(0))
    if total != 1:
        problems.append(f"{what} probabilities sum to {total}, not 1")
    if any(p < 0 for *_vals, p in atoms):
        problems.append(f"{what} has a negative probability")
    return problems


def _atom_rows(rows, width: int, what: str) -> tuple[tuple[Fraction, ...], ...]:
    """Atom rows (values..., prob) as Fractions; each must hold width numbers."""
    out = tuple(tuple(_frac(x) for x in row) for row in rows)
    if any(len(row) != width for row in out):
        raise ValueError(f"each row of {what} must hold {width} numbers")
    return out


@dataclass(frozen=True)
class _SparseLaw:
    """An alpha = 1 sparse atomic law: with probability ``activation / N``
    an entry (or dependent pair of entries) takes ``sqrt(N)`` times the
    values of an atom row, and is zero otherwise.  Diagonal entries are drawn
    independently from ``diagonal_atoms`` without any sqrt(N) scale, so all
    their moments stay O(1).  Subclasses fix the number of values per atom
    row and the names their messages use."""

    activation: Fraction  # q; an entry is active with probability q/N
    atoms: tuple[tuple[Fraction, ...], ...]  # (values..., prob)
    diagonal_atoms: tuple[tuple[Fraction, Fraction], ...] = (
        (Fraction(1), Fraction(1, 2)),
        (Fraction(-1), Fraction(1, 2)),
    )

    _WIDTH: ClassVar[int]  # values per atom row
    _DOCUMENT: ClassVar[str]  # the law's key in a law document
    # the law, its atoms, and the mean and variance rules, as messages name them
    _NAMES: ClassVar[tuple[str, str, str, str]]

    def __post_init__(self):
        law, atoms, _mean, _variance = self._NAMES
        object.__setattr__(self, "activation", _frac(self.activation))
        object.__setattr__(self, "atoms", _atom_rows(self.atoms, self._WIDTH + 1, atoms))
        object.__setattr__(
            self, "diagonal_atoms", _atom_rows(self.diagonal_atoms, 2, "diagonal atoms")
        )
        problems = self.check()
        if problems:
            raise ValueError(f"invalid {law}: " + "; ".join(problems))

    def check(self) -> list[str]:
        _law, atoms, mean, variance = self._NAMES
        problems = []
        q = self.activation
        if not 0 < q <= 1:
            problems.append(f"activation q={q} outside (0, 1]")
        problems += _atom_checks(self.atoms, atoms)
        # E[v^k] of each value column v
        moments = {k: [self.atom_moment(*[0] * i, k) for i in range(self._WIDTH)] for k in (1, 2)}
        if any(moments[1]):
            problems.append(mean)
        if any(q * m != 1 for m in moments[2]):
            problems.append(variance)
        problems += _atom_checks(self.diagonal_atoms, "diagonal atoms")
        if self.diagonal_moment(1) != 0:
            problems.append("diagonal mean must vanish")
        if self.diagonal_moment(2) > 1:
            problems.append("diagonal variance exceeds 1")
        return problems

    @cached_property
    def _integer_atoms(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The atom rows on common denominators: (integer rows, denominators),
        a row's entries being its values and probability times the common
        denominator of their column.  Made on the first moment asked for."""
        dens = tuple(lcm(*(row[i].denominator for row in self.atoms))
                     for i in range(self._WIDTH + 1))
        rows = tuple(tuple(x.numerator * (d // x.denominator) for x, d in zip(row, dens))
                     for row in self.atoms)
        return rows, dens

    def atom_moment(self, *powers: int) -> Fraction:
        """E[xi^k] for powers (k,), E[xi^k * eta^l] for (k, l) on a pair law:
        the integer atom rows raised and summed over their common
        denominators, so that one Fraction is made per moment."""
        if len(powers) > self._WIDTH:
            raise ValueError(f"{len(powers)} powers for atoms of {self._WIDTH} value(s)")
        rows, dens = self._integer_atoms
        # the powers run out before a row's closing probability
        total = sum(prod(map(pow, row, powers), start=row[-1]) for row in rows)
        return Fraction(total, prod(map(pow, dens, powers), start=dens[-1]))

    def diagonal_moment(self, k: int) -> Fraction:
        return sum((p * v**k for v, p in self.diagonal_atoms), Fraction(0))


@dataclass(frozen=True)
class SparsePairLaw(_SparseLaw):
    """Joint law of a dependent off-diagonal pair: with probability
    ``activation / N`` the pair ``(x_ij, x_ji)`` is ``(sqrt(N) * xi,
    sqrt(N) * eta)`` for an atom row ``(xi, eta, prob)``."""

    _WIDTH = 2
    _DOCUMENT = "pair_law"
    _NAMES = ("pair law", "pair atoms", "atom means E[xi], E[eta] must vanish",
              "unit variance requires q*E[xi^2] = q*E[eta^2] = 1")


@dataclass(frozen=True)
class SparseScalarLaw(_SparseLaw):
    """Independent-entry specialization: one sparse atomic variable per
    entry, atom rows ``(xi, prob)``."""

    _WIDTH = 1
    _DOCUMENT = "scalar_law"
    _NAMES = ("scalar law", "atoms", "atom mean E[xi] must vanish",
              "unit variance requires q*E[xi^2] = 1")


@dataclass(frozen=True)
class GaussianLaw:
    """Standard normal entries: the bounded-moment (light) reference law.

    E[x^k] is (k-1)!! for even k and 0 for odd k, so C_2 = 1 and C_k -> 0
    for k >= 3.
    """

    def moment(self, k: int) -> Fraction:
        return Fraction(double_factorial_odd(k))


EntryLaw = Union[SparsePairLaw, SparseScalarLaw, GaussianLaw]


def design_correlated_sign_law(rho) -> SparsePairLaw:
    """Four-atom +-1 pair law with E[xi*eta] = rho, activation q = 1.

    eta equals xi with probability (1+rho)/2 and -xi otherwise, so the
    induced profile has C_{1,1} = rho exactly.
    """
    rho = _frac(rho)
    if not -1 <= rho <= 1:
        raise ValueError(f"rho={rho} outside [-1, 1]")
    p_same = (1 + rho) / 4
    p_diff = (1 - rho) / 4
    one = Fraction(1)
    atoms = [
        (one, one, p_same),
        (-one, -one, p_same),
        (one, -one, p_diff),
        (-one, one, p_diff),
    ]
    return SparsePairLaw(
        activation=Fraction(1),
        atoms=tuple((a, b, p) for a, b, p in atoms if p != 0),
    )


def sign_scalar_law() -> SparseScalarLaw:
    """Sparse +-1 law with q = 1: C_k = 1 for even k, 0 for odd k."""
    h = Fraction(1, 2)
    return SparseScalarLaw(activation=Fraction(1), atoms=((Fraction(1), h), (Fraction(-1), h)))


def profile_of_sparse_law(law: SparsePairLaw, kmax: int = DEFAULT_KMAX) -> MomentProfile:
    """Limit constants of a sparse pair law: C_{k,l} = q * E[xi^k eta^l], alpha = 1."""
    q = law.activation
    pair = {(k, l): q * law.atom_moment(k, l) for k, l in _pair_keys(kmax)}
    scalar = {k: q * law.atom_moment(k) for k in range(2, kmax + 1)}
    return MomentProfile(alpha=Fraction(1), kmax=kmax, pair_table=pair, scalar_table=scalar)


def profile_of_scalar_law(law: SparseScalarLaw, kmax: int = DEFAULT_KMAX) -> MomentProfile:
    """Limit constants of a sparse scalar law: C_k = q * E[xi^k], alpha = 1."""
    q = law.activation
    scalar = {k: q * law.atom_moment(k) for k in range(2, kmax + 1)}
    return MomentProfile(alpha=Fraction(1), kmax=kmax, scalar_table=scalar)


def degenerate_profile_of(scalar_table: Mapping[int, Fraction], kmax: int = DEFAULT_KMAX,
                          alpha=Fraction(1)) -> MomentProfile:
    """Pair table an independent-entry model induces: C_{k,0} = C_{0,k} = C_k,
    and C_{k,l} = 0 whenever k >= 1 and l >= 1."""
    scalar = {k: _frac(v) for k, v in scalar_table.items()}
    pair = {
        (k, l): Fraction(0) if k and l else scalar.get(k + l, Fraction(0))
        for k, l in _pair_keys(kmax)
    }
    full_scalar = {k: scalar.get(k, Fraction(0)) for k in range(2, kmax + 1)}
    return MomentProfile(alpha=alpha, kmax=kmax, pair_table=pair, scalar_table=full_scalar)


def wigner_profile(kmax: int = 10) -> MomentProfile:
    """Formal profile with C_{1,1} = 1 and every other pair constant 0.

    Used as a weight extracting the double-tree count; it is not a valid
    entry law (unit variance would force C_{2,0} = 1).
    """
    pair = {key: Fraction(1) if key == (1, 1) else Fraction(0) for key in _pair_keys(kmax)}
    scalar = {k: Fraction(0) for k in range(2, kmax + 1)}
    return MomentProfile(alpha=Fraction(1), kmax=kmax, pair_table=pair, scalar_table=scalar)


def light_profile(kmax: int = DEFAULT_KMAX) -> MomentProfile:
    """Bounded-moment limit profile: C_2 = 1 and C_k = 0 for k >= 3."""
    scalar = {k: Fraction(1) if k == 2 else Fraction(0) for k in range(2, kmax + 1)}
    return degenerate_profile_of(scalar, kmax=kmax)


def _missing_entries(name: str, table: Mapping, keys: Iterable, expected: int) -> list[Violation]:
    """One violation if the table lacks any of its ``expected`` keys, naming
    how many and the first.  The table holds only keys in range, so the count
    is expected - len(table), and the scan stops at the first absent key: the
    cost is bounded by the table size, not by kmax."""
    missing = expected - len(table)
    if not missing:
        return []
    first = next(key for key in keys if key not in table)
    label = "(%d,%d)" % first if isinstance(first, tuple) else first
    return [Violation("missing-entry",
                      f"{name} table lacks {missing} of {expected} entries, first C_{label}")]


def validate_profile(profile: MomentProfile, model: str) -> list[Violation]:
    """Check the tables a model's limit formulas require; empty list means ok."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    out: list[Violation] = []
    kmax = profile.kmax
    if model in PAIR_MODELS:
        # the (kmax+1)(kmax+2)/2 keys with k + l <= kmax, less (0,0), (0,1), (1,0)
        out += _missing_entries("pair", profile.pair_table, _pair_keys(kmax),
                                (kmax + 1) * (kmax + 2) // 2 - 3)
        if profile.alpha == 1:
            for key in ((2, 0), (0, 2)):
                have = profile.pair_table.get(key)
                if have is not None and have != 1:
                    out.append(
                        Violation(
                            "variance-mismatch",
                            f"alpha = 1 forces C_{key} = 1 (unit entry variance), got {have}",
                        )
                    )
    if model in _SCALAR_MODELS:
        out += _missing_entries("scalar", profile.scalar_table, range(2, kmax + 1), kmax - 1)
        if profile.alpha == 1:
            have = profile.scalar_table.get(2)
            if have is not None and have != 1:
                out.append(
                    Violation(
                        "variance-mismatch",
                        f"alpha = 1 forces C_2 = 1 (unit entry variance), got {have}",
                    )
                )
    return out


def tilde_transform(
    scalar_table: Mapping[int, Fraction],
    pair_table: Mapping[tuple[int, int], Fraction],
    kmax: int = DEFAULT_KMAX,
) -> tuple[dict[int, Fraction], dict[int, Fraction], dict[tuple[int, int], Fraction]]:
    """Binomial convolution tables for the two orthogonal-reduction blocks.

    Block entries are sums/differences of two independent copies of the base
    entry; with the conventions C_0 = 1, C_1 = 0 (and pair analogues):

      tilde1_k     = sum_r  binom(k,r) C_r C_{k-r}
      tilde2_k     = sum_r  binom(k,r) (-1)^(k-r) C_r C_{k-r}
      tilde_{k,l}  = sum_{r,s} binom(k,r) binom(l,s) (-1)^(l-s) C_{r,s} C_{k-r,l-s}

    In particular tilde_{1,1} = 0 always: the two blocks are uncorrelated at
    the variance scale.

    The convolution is exact on raw moment tables (C_r = E[x^r], so
    C_0 = E[x^0] = 1): tilde1_k is then E[(x + x')^k] for independent copies
    x, x'.  Given the alpha = 1 profile constants instead, where
    E[x^r] = C_r N^(r/2-1), each cross term with 2 <= r <= k-2 enters the
    normalised block moment E[(w sqrt(N))^k] / N^(k/2-1) divided by N: the
    returned values keep an O(1/N) part at full weight, and the limiting
    block constants for k >= 3 are 2 C_k for tilde1 and (1 + (-1)^k) C_k
    for tilde2.
    """
    # longer tables than kmax are accepted; their extra entries go unread
    top = max([2, kmax, *scalar_table, *(k + l for k, l in pair_table)])
    consts = MomentProfile(
        alpha=Fraction(1), kmax=top, pair_table=pair_table, scalar_table=scalar_table
    )
    tilde1: dict[int, Fraction] = {}
    tilde2: dict[int, Fraction] = {}
    for k in range(2, kmax + 1):
        s1 = Fraction(0)
        s2 = Fraction(0)
        for r in range(k + 1):
            term = comb(k, r) * consts.scalar(r) * consts.scalar(k - r)
            s1 += term
            s2 += (-1) ** (k - r) * term
        tilde1[k] = s1
        tilde2[k] = s2
    tilde_pair: dict[tuple[int, int], Fraction] = {}
    for k, l in _pair_keys(kmax):
        acc = Fraction(0)
        for r in range(k + 1):
            for s in range(l + 1):
                acc += (
                    comb(k, r)
                    * comb(l, s)
                    * (-1) ** (l - s)
                    * consts.pair(r, s)
                    * consts.pair(k - r, l - s)
                )
        tilde_pair[(k, l)] = acc
    return tilde1, tilde2, tilde_pair


def pair_table_from_scalar(
    scalar_table: Mapping[int, Fraction], kmax: int = DEFAULT_KMAX
) -> dict[tuple[int, int], Fraction]:
    """Identify C_{k,l} := C_{k+l} (joint powers of one underlying entry).

    This is the pair-table input to :func:`tilde_transform` when both
    reduction blocks are built from the same scalar base entries.
    """
    scalar = {k: _frac(v) for k, v in scalar_table.items()}
    return {(k, l): scalar.get(k + l, Fraction(0)) for k, l in _pair_keys(kmax)}


# --- serialization ---------------------------------------------------------
# Profiles and laws round-trip through plain JSON documents; rationals are
# stored as [numerator, denominator] pairs.


def _rat(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _int(x) -> int:
    """A JSON integer; a float or a bool is not one."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{x!r} is not an integer")
    return x


def _unrat(num, den) -> Fraction:
    return Fraction(_int(num), _int(den))


def profile_to_dict(profile: MomentProfile) -> dict:
    return {
        "alpha": _rat(profile.alpha),
        "kmax": profile.kmax,
        "pair_table": [[k, l, v.numerator, v.denominator] for (k, l), v in sorted(profile.pair_table.items())],
        "scalar_table": [[k, v.numerator, v.denominator] for k, v in sorted(profile.scalar_table.items())],
    }


@contextmanager
def _reading(document: str):
    """Raise what goes wrong reading ``document`` as one DocumentError."""
    try:
        yield
    except KeyError as exc:
        raise DocumentError(f"{document} lacks field {exc}") from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"malformed {document}: {exc}") from exc


def profile_from_dict(doc: Mapping) -> MomentProfile:
    """The profile of a ``profile`` document; a DocumentError if it does not
    read.  Other keys are ignored, so documents that carry a
    ``diagonal_bounded`` flag still read."""
    with _reading("profile"):
        return MomentProfile(
            alpha=_unrat(*doc["alpha"]),
            kmax=_int(doc["kmax"]),
            pair_table={
                (_int(k), _int(l)): _unrat(n, d) for k, l, n, d in doc.get("pair_table", [])
            },
            scalar_table={_int(k): _unrat(n, d) for k, n, d in doc.get("scalar_table", [])},
        )


def law_to_dict(law: _SparseLaw) -> dict:
    """A sparse law's document: each atom row is its rationals' [numerator,
    denominator] pairs, flattened."""
    return {
        "activation": _rat(law.activation),
        "atoms": [[n for x in row for n in _rat(x)] for row in law.atoms],
        "diagonal_atoms": [[n for x in row for n in _rat(x)] for row in law.diagonal_atoms],
    }


def _unrat_row(row) -> tuple[Fraction, ...]:
    if len(row) % 2:
        raise ValueError(f"atom row {row} has odd length; it holds numerator, denominator pairs")
    numbers = iter(row)
    return tuple(_unrat(num, den) for num, den in zip(numbers, numbers))


def law_from_dict(cls: type[_SparseLaw], doc: Mapping) -> _SparseLaw:
    """The ``cls`` law (SparsePairLaw or SparseScalarLaw) of a ``pair_law``
    or ``scalar_law`` document; a DocumentError if it does not read."""
    with _reading(cls._DOCUMENT):
        return cls(
            activation=_unrat(*doc["activation"]),
            atoms=tuple(_unrat_row(row) for row in doc["atoms"]),
            diagonal_atoms=tuple(_unrat_row(row) for row in doc["diagonal_atoms"]),
        )
