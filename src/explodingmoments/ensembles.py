"""Finite-N matrix samplers for the five ensembles, the centrosymmetric
orthogonal reduction, and the circulant eigenvalue formula.

Samples are deterministic functions of (spec, seed).  Sparse atomic laws put
~N active entries in an N x N matrix, so samples are stored in sparse form
and traces are computed by closed-walk accumulation rather than dense
products.  Entries are stored already scaled by 1/sqrt(N): an active sparse
entry x = sqrt(N)*xi becomes the stored value xi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np
from scipy import sparse

from .partitions import double_factorial_odd
from .profiles import MODELS, PAIR_MODELS, SparsePairLaw, SparseScalarLaw

DENSE_LIMIT = 4096  # largest size we will materialize densely


@dataclass(frozen=True)
class GaussianLaw:
    """Standard normal entries: the bounded-moment (light) reference law.

    E[x^k] is (k-1)!! for even k and 0 for odd k, so C_2 = 1 and C_k -> 0
    for k >= 3.
    """

    def moment(self, k: int) -> Fraction:
        return Fraction(double_factorial_odd(k))


EntryLaw = Union[SparsePairLaw, SparseScalarLaw, GaussianLaw]


@dataclass(frozen=True)
class EnsembleSpec:
    """Which model to draw, at what size, from which law, with which seed."""

    kind: str
    n: int  # block size for the block model (the matrix is 2n x 2n); full size otherwise
    law: EntryLaw
    seed: int

    def __post_init__(self):
        if self.kind not in MODELS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        pair = self.kind in PAIR_MODELS
        if pair != isinstance(self.law, SparsePairLaw):
            need = "a SparsePairLaw" if pair else "a scalar or Gaussian law"
            raise ValueError(f"{self.kind} requires {need}")
        if isinstance(self.law, GaussianLaw) and self.kind != "circulant":
            if self.n > DENSE_LIMIT:
                raise ValueError(
                    f"Gaussian sampling is dense; n={self.n} exceeds the dense limit {DENSE_LIMIT}"
                )


@dataclass
class MatrixSample:
    """One realized matrix, entries scaled by 1/sqrt(N)."""

    kind: str
    size: int
    trace_norm: int  # divisor of Tr(A^k): the spec's n (the block size for block)
    matrix: Optional[Union[sparse.csr_matrix, np.ndarray]]
    generator_values: Optional[np.ndarray] = None  # circulant x vector, unscaled

    def dense(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix.toarray() if sparse.issparse(self.matrix) else self.matrix
        if self.kind == "circulant":
            if self.size > DENSE_LIMIT:
                raise ValueError("circulant too large to densify")
            x = self.generator_values
            n = self.size
            idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
            return x[idx] / np.sqrt(n)
        raise ValueError("sample holds no matrix")


def _draw_table(atoms):
    """(value columns, cumulative probabilities) of a law's atom rows
    (values..., prob): one float array per value column."""
    *columns, probs = zip(*atoms)
    cum = np.cumsum([float(p) for p in probs])
    cum[-1] = 1.0
    return [np.array([float(v) for v in column]) for column in columns], cum


def _draw_atoms(rng, cum, size):
    return np.searchsorted(cum, rng.random(size), side="right")


def _distinct_uniform(rng, total: int, count: int) -> np.ndarray:
    """count distinct uniform indices in [0, total); exact conditional law by
    redrawing the whole batch on collision (rare for count^2 << total)."""
    if count > total:
        raise ValueError("cannot draw more distinct indices than exist")
    if 3 * count >= total:
        return rng.permutation(total)[:count]
    while True:
        idx = rng.integers(0, total, size=count)
        if len(set(idx.tolist())) == count:
            return idx


def _binomial_active(rng, total: int, p: float) -> np.ndarray:
    """Each of the total positions active with probability p (q/N for a law
    of activation q at size N), as distinct uniform indices."""
    return _distinct_uniform(rng, total, rng.binomial(total, p))


def _decode_upper_pairs(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert the row-major enumeration of pairs (i < j) of {0..n-1}: row i
    starts at index i(2n - i - 1)/2."""
    rows = np.arange(n - 1, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, t, side="right") - 1
    return i, t - starts[i] + i + 1


def _off_diagonal(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of the row-major ordered off-diagonal positions t."""
    r, c0 = np.divmod(t, n - 1)
    return r, c0 + (c0 >= r)


def _elliptic_cells(n, t, values):
    i, j = _decode_upper_pairs(t, n)
    xi, eta = values
    return [(i, j, xi), (j, i, eta)]


def _iid_cells(n, t, values):
    return [(*_off_diagonal(t, n), values[0])]


def _block_cells(n, t, values):
    r, c = _off_diagonal(t, n)
    xi, eta = values
    return [(r, c, xi), (n + r, n + c, eta)]


def _centrosymmetric_cells(n, t, values):
    (v,) = values
    mirror = n * n - 1 - t
    keep = mirror != t  # for odd n the center is its own mirror
    return [(t // n, t % n, v), (mirror[keep] // n, mirror[keep] % n, v[keep])]


# a sparse model's geometry: its orbit count at size n, the (rows, cols,
# values) cells its active orbits t fill given their atom value columns, and
# the number of n x n diagonal blocks of diagonal-law draws
_SPARSE_GEOMETRY = {
    "elliptic": (lambda n: n * (n - 1) // 2, _elliptic_cells, 1),
    "iid": (lambda n: n * (n - 1), _iid_cells, 1),
    "block": (lambda n: n * (n - 1), _block_cells, 2),
    # orbits pair position t with n^2-1-t and hold the diagonal too
    "centrosymmetric": (lambda n: (n * n + 1) // 2, _centrosymmetric_cells, 0),
}


def sample(spec: EnsembleSpec) -> MatrixSample:
    """Draw one matrix; bit-identical for identical specs.

    A sparse model draws, in order: a binomial count of active orbits and
    that many distinct orbits, one atom row per active orbit, then each of
    its diagonal blocks; a Gaussian model one standard normal per entry."""
    rng = np.random.default_rng(spec.seed)
    kind, n, law = spec.kind, spec.n, spec.law
    if kind == "circulant":
        x = sample_circulant_generator(law, n, [rng])[0]
        return MatrixSample(kind, n, n, None, generator_values=x)
    if isinstance(law, GaussianLaw):
        g = rng.standard_normal(n * n)
        if kind == "centrosymmetric":
            t = np.arange(n * n)
            g = g[np.minimum(t, n * n - 1 - t)]
        return MatrixSample(kind, n, n, (g / np.sqrt(n)).reshape(n, n))
    orbits, cells, blocks = _SPARSE_GEOMETRY[kind]
    active = _binomial_active(rng, orbits(n), float(law.activation) / n)
    columns, cum = _draw_table(law.atoms)
    which = _draw_atoms(rng, cum, len(active))
    placed = cells(n, active, [column[which] for column in columns])
    (diag,), diag_cum = _draw_table(law.diagonal_atoms)
    for b in range(blocks):
        d = np.arange(b * n, (b + 1) * n)
        placed.append((d, d, diag[_draw_atoms(rng, diag_cum, n)] * (1.0 / np.sqrt(n))))
    rows, cols, data = (np.concatenate(part) for part in zip(*placed))
    size = n * max(blocks, 1)  # the block model's two blocks make it 2n x 2n
    mat = sparse.coo_matrix((data, (rows, cols)), shape=(size, size)).tocsr()
    return MatrixSample(kind, size, n, mat)


def sample_circulant_generator(law, n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Unscaled generator vectors (x_0..x_{N-1}) of circulant draws, one row
    per generator in ``rngs``; row i is the draw of ``rngs[i]`` alone.

    The law's draw table, scaled by sqrt(N), and its activation probability
    q/N are built once per call.  Each row takes, in order: a binomial count
    of active positions, that many distinct positions, and one uniform per
    active position for its atom (a Gaussian row is one standard normal
    vector)."""
    out = np.zeros((len(rngs), n))
    if isinstance(law, GaussianLaw):
        for row, rng in zip(out, rngs):
            rng.standard_normal(out=row)
        return out
    (vals,), cum = _draw_table(law.atoms)
    vals *= np.sqrt(n)
    p = float(law.activation) / n
    for row, rng in zip(out, rngs):
        active = _binomial_active(rng, n, p)
        row[active] = vals[_draw_atoms(rng, cum, len(active))]
    return out


def circulant_eigenvalues(x: np.ndarray) -> np.ndarray:
    """lambda_k = N^(-1/2) sum_j x_j omega^(jk) with omega = exp(2 pi i / N),
    for each generator vector along the last axis of x."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    return np.conj(np.fft.fft(x, axis=-1)) / np.sqrt(n)


@dataclass
class WeaverReduction:
    """Orthogonal reduction of a centrosymmetric matrix to block form."""

    block_plus: np.ndarray  # A + JC
    block_minus: np.ndarray  # A - JC
    center: Optional[tuple[np.ndarray, np.ndarray, float]]  # (sqrt2*x, sqrt2*y, q), odd sizes
    q_matrix: np.ndarray

    def reduced(self) -> np.ndarray:
        """Assembled block-diagonal form (with the center row/column for odd
        sizes)."""
        s = self.block_plus.shape[0]
        n = 2 * s + (self.center is not None)
        out = np.zeros((n, n))
        out[:s, :s] = self.block_plus
        if self.center is not None:
            out[:s, s], out[s, :s], out[s, s] = self.center
        out[n - s :, n - s :] = self.block_minus
        return out


def is_centrosymmetric(m: np.ndarray) -> bool:
    return np.array_equal(m, np.flipud(np.fliplr(m)))


def weaver_reduce(m: Union[MatrixSample, np.ndarray]) -> WeaverReduction:
    """Split a centrosymmetric matrix into its two orthogonal-reduction
    blocks A + JC and A - JC (plus a sqrt(2)-coupled center for odd sizes).

    Returns the orthogonal Q with Q^T M Q equal to the reduced form; the
    blocks themselves are assembled exactly from matrix entries.
    """
    M = m.dense() if isinstance(m, MatrixSample) else np.asarray(m, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if not is_centrosymmetric(M):
        raise ValueError("matrix is not centrosymmetric")
    n = M.shape[0]
    s = n // 2
    J = np.fliplr(np.eye(s))
    h = np.sqrt(0.5)
    if n % 2 == 0:
        A = M[:s, :s]
        C = M[s:, :s]
        Q = np.block([[np.eye(s), -np.eye(s)], [J, J]]) * h
        return WeaverReduction(A + J @ C, A - J @ C, None, Q)
    A = M[:s, :s]
    C = M[s + 1 :, :s]
    x = M[:s, s]
    y = M[s, :s]
    q = M[s, s]
    Q = np.zeros((n, n))
    Q[:s, :s] = np.eye(s) * h
    Q[s + 1 :, :s] = J * h
    Q[s, s] = 1.0
    Q[:s, s + 1 :] = -np.eye(s) * h
    Q[s + 1 :, s + 1 :] = J * h
    return WeaverReduction(
        A + J @ C, A - J @ C, (np.sqrt(2) * x, np.sqrt(2) * y, q), Q
    )
