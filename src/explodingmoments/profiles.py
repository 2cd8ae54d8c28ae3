"""Limit constants of exploding-moment entry laws, and the sparse atomic laws
that realize them.

A matrix entry law has *exploding moments* with exponent ``alpha`` when
``E[x^k] ~ C_k * N^(k/2 - alpha)``; the critical regime is ``alpha = 1``.
A :class:`MomentProfile` stores the limit constants (``alpha``, the mixed
pair table ``C_{k,l}`` and the scalar table ``C_k``), and the sparse laws
below realize ``alpha = 1`` exactly: an entry is zero except with
probability ``q/N``, where it takes the value ``sqrt(N) * xi`` for a
finite-atom variable ``xi``.

Everything in this module is exact rational arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Mapping

MODELS = ("elliptic", "iid", "block", "centrosymmetric", "circulant")

# models whose limit formulas consume the mixed pair table C_{k,l}
_PAIR_MODELS = ("elliptic", "block")
# models whose limit formulas consume the scalar table C_k
_SCALAR_MODELS = ("iid", "block", "centrosymmetric", "circulant")

DEFAULT_KMAX = 8


class MomentTableError(LookupError):
    """A moment table is too short for a requested entry."""


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("moment tables are exact: got float %r" % x)
    return Fraction(x)


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


@dataclass(frozen=True)
class SparsePairLaw:
    """Joint law of a dependent off-diagonal pair under alpha = 1 sparsity.

    With probability ``activation / N`` the pair ``(x_ij, x_ji)`` takes the
    value ``(sqrt(N) * xi, sqrt(N) * eta)`` for an atom ``(xi, eta)``;
    otherwise both entries are zero.  Diagonal entries are drawn
    independently from ``diagonal_atoms`` without any sqrt(N) scale, so all
    their moments stay O(1).
    """

    activation: Fraction  # q; the pair is active with probability q/N
    atoms: tuple[tuple[Fraction, Fraction, Fraction], ...]  # (xi, eta, prob)
    diagonal_atoms: tuple[tuple[Fraction, Fraction], ...] = (
        (Fraction(1), Fraction(1, 2)),
        (Fraction(-1), Fraction(1, 2)),
    )

    def __post_init__(self):
        object.__setattr__(self, "activation", _frac(self.activation))
        object.__setattr__(
            self, "atoms", tuple((_frac(a), _frac(b), _frac(p)) for a, b, p in self.atoms)
        )
        object.__setattr__(
            self, "diagonal_atoms", tuple((_frac(v), _frac(p)) for v, p in self.diagonal_atoms)
        )
        problems = self.check()
        if problems:
            raise ValueError("invalid pair law: " + "; ".join(problems))

    def check(self) -> list[str]:
        problems = []
        q = self.activation
        if not 0 < q <= 1:
            problems.append(f"activation q={q} outside (0, 1]")
        problems += _atom_checks(self.atoms, "pair atoms")
        if self.atom_moment(1, 0) != 0 or self.atom_moment(0, 1) != 0:
            problems.append("atom means E[xi], E[eta] must vanish")
        if q * self.atom_moment(2, 0) != 1 or q * self.atom_moment(0, 2) != 1:
            problems.append("unit variance requires q*E[xi^2] = q*E[eta^2] = 1")
        problems += _atom_checks(self.diagonal_atoms, "diagonal atoms")
        if self.diagonal_moment(1) != 0:
            problems.append("diagonal mean must vanish")
        if self.diagonal_moment(2) > 1:
            problems.append("diagonal variance exceeds 1")
        return problems

    def atom_moment(self, k: int, l: int) -> Fraction:
        """E[xi^k * eta^l] over the atoms."""
        return sum((p * a**k * b**l for a, b, p in self.atoms), Fraction(0))

    def diagonal_moment(self, k: int) -> Fraction:
        return sum((p * v**k for v, p in self.diagonal_atoms), Fraction(0))


@dataclass(frozen=True)
class SparseScalarLaw:
    """Independent-entry specialization: one sparse atomic variable per entry."""

    activation: Fraction
    atoms: tuple[tuple[Fraction, Fraction], ...]  # (value, prob)
    diagonal_atoms: tuple[tuple[Fraction, Fraction], ...] = (
        (Fraction(1), Fraction(1, 2)),
        (Fraction(-1), Fraction(1, 2)),
    )

    def __post_init__(self):
        object.__setattr__(self, "activation", _frac(self.activation))
        object.__setattr__(self, "atoms", tuple((_frac(v), _frac(p)) for v, p in self.atoms))
        object.__setattr__(
            self, "diagonal_atoms", tuple((_frac(v), _frac(p)) for v, p in self.diagonal_atoms)
        )
        problems = self.check()
        if problems:
            raise ValueError("invalid scalar law: " + "; ".join(problems))

    def check(self) -> list[str]:
        problems = []
        q = self.activation
        if not 0 < q <= 1:
            problems.append(f"activation q={q} outside (0, 1]")
        problems += _atom_checks(self.atoms, "atoms")
        if self.atom_moment(1) != 0:
            problems.append("atom mean E[xi] must vanish")
        if q * self.atom_moment(2) != 1:
            problems.append("unit variance requires q*E[xi^2] = 1")
        problems += _atom_checks(self.diagonal_atoms, "diagonal atoms")
        if self.diagonal_moment(1) != 0:
            problems.append("diagonal mean must vanish")
        if self.diagonal_moment(2) > 1:
            problems.append("diagonal variance exceeds 1")
        return problems

    def atom_moment(self, k: int) -> Fraction:
        return sum((p * v**k for v, p in self.atoms), Fraction(0))

    def diagonal_moment(self, k: int) -> Fraction:
        return sum((p * v**k for v, p in self.diagonal_atoms), Fraction(0))


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
    pair = {}
    for k in range(kmax + 1):
        for l in range(kmax + 1 - k):
            if 2 <= k + l <= kmax:
                pair[(k, l)] = q * law.atom_moment(k, l)
    scalar = {k: q * law.atom_moment(k, 0) for k in range(2, kmax + 1)}
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
    pair = {}
    for k in range(kmax + 1):
        for l in range(kmax + 1 - k):
            if not 2 <= k + l <= kmax:
                continue
            if k >= 1 and l >= 1:
                pair[(k, l)] = Fraction(0)
            else:
                m = max(k, l)
                pair[(k, l)] = scalar.get(m, Fraction(0))
    full_scalar = {k: scalar.get(k, Fraction(0)) for k in range(2, kmax + 1)}
    return MomentProfile(alpha=alpha, kmax=kmax, pair_table=pair, scalar_table=full_scalar)


def wigner_profile(kmax: int = 10) -> MomentProfile:
    """Formal profile with C_{1,1} = 1 and every other pair constant 0.

    Used as a weight extracting the double-tree count; it is not a valid
    entry law (unit variance would force C_{2,0} = 1).
    """
    pair = {}
    for k in range(kmax + 1):
        for l in range(kmax + 1 - k):
            if 2 <= k + l <= kmax:
                pair[(k, l)] = Fraction(1) if (k, l) == (1, 1) else Fraction(0)
    scalar = {k: Fraction(0) for k in range(2, kmax + 1)}
    return MomentProfile(alpha=Fraction(1), kmax=kmax, pair_table=pair, scalar_table=scalar)


def light_profile(kmax: int = DEFAULT_KMAX) -> MomentProfile:
    """Bounded-moment limit profile: C_2 = 1 and C_k = 0 for k >= 3."""
    scalar = {k: Fraction(1) if k == 2 else Fraction(0) for k in range(2, kmax + 1)}
    return degenerate_profile_of(scalar, kmax=kmax)


def validate_profile(profile: MomentProfile, model: str) -> list[Violation]:
    """Check the tables a model's limit formulas require; empty list means ok."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    out: list[Violation] = []
    if model in _PAIR_MODELS:
        for k in range(profile.kmax + 1):
            for l in range(profile.kmax + 1 - k):
                if 2 <= k + l <= profile.kmax and (k, l) not in profile.pair_table:
                    out.append(Violation("missing-entry", f"pair table lacks C_({k},{l})"))
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
        for k in range(2, profile.kmax + 1):
            if k not in profile.scalar_table:
                out.append(Violation("missing-entry", f"scalar table lacks C_{k}"))
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
    for k in range(kmax + 1):
        for l in range(kmax + 1 - k):
            if not 2 <= k + l <= kmax:
                continue
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
    out = {}
    for k in range(kmax + 1):
        for l in range(kmax + 1 - k):
            if 2 <= k + l <= kmax:
                out[(k, l)] = scalar.get(k + l, Fraction(0))
    return out


# --- serialization ---------------------------------------------------------
# Profiles and laws round-trip through plain JSON documents; rationals are
# stored as [numerator, denominator] pairs.


def _rat(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _unrat(pair) -> Fraction:
    num, den = pair
    return Fraction(int(num), int(den))


def profile_to_dict(profile: MomentProfile) -> dict:
    return {
        "alpha": _rat(profile.alpha),
        "kmax": profile.kmax,
        "pair_table": [[k, l, v.numerator, v.denominator] for (k, l), v in sorted(profile.pair_table.items())],
        "scalar_table": [[k, v.numerator, v.denominator] for k, v in sorted(profile.scalar_table.items())],
    }


def profile_from_dict(doc: Mapping) -> MomentProfile:
    """The profile of a document.  Other keys are ignored, so documents
    that carry a ``diagonal_bounded`` flag still read."""
    return MomentProfile(
        alpha=_unrat(doc["alpha"]),
        kmax=int(doc["kmax"]),
        pair_table={(int(k), int(l)): Fraction(int(n), int(d)) for k, l, n, d in doc.get("pair_table", [])},
        scalar_table={int(k): Fraction(int(n), int(d)) for k, n, d in doc.get("scalar_table", [])},
    )


def pair_law_to_dict(law: SparsePairLaw) -> dict:
    return {
        "activation": _rat(law.activation),
        "atoms": [
            [a.numerator, a.denominator, b.numerator, b.denominator, p.numerator, p.denominator]
            for a, b, p in law.atoms
        ],
        "diagonal_atoms": [
            [v.numerator, v.denominator, p.numerator, p.denominator] for v, p in law.diagonal_atoms
        ],
    }


def pair_law_from_dict(doc: Mapping) -> SparsePairLaw:
    return SparsePairLaw(
        activation=_unrat(doc["activation"]),
        atoms=tuple(
            (Fraction(an, ad), Fraction(bn, bd), Fraction(pn, pd))
            for an, ad, bn, bd, pn, pd in doc["atoms"]
        ),
        diagonal_atoms=tuple(
            (Fraction(vn, vd), Fraction(pn, pd)) for vn, vd, pn, pd in doc["diagonal_atoms"]
        ),
    )


def scalar_law_to_dict(law: SparseScalarLaw) -> dict:
    return {
        "activation": _rat(law.activation),
        "atoms": [[v.numerator, v.denominator, p.numerator, p.denominator] for v, p in law.atoms],
        "diagonal_atoms": [
            [v.numerator, v.denominator, p.numerator, p.denominator] for v, p in law.diagonal_atoms
        ],
    }


def scalar_law_from_dict(doc: Mapping) -> SparseScalarLaw:
    return SparseScalarLaw(
        activation=_unrat(doc["activation"]),
        atoms=tuple((Fraction(vn, vd), Fraction(pn, pd)) for vn, vd, pn, pd in doc["atoms"]),
        diagonal_atoms=tuple(
            (Fraction(vn, vd), Fraction(pn, pd)) for vn, vd, pn, pd in doc["diagonal_atoms"]
        ),
    )
