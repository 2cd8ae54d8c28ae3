"""Finite-N matrix samplers for the five ensembles, the centrosymmetric
orthogonal reduction, and the circulant eigenvalue formula.

Samples are deterministic functions of (spec, seed).  Sparse atomic laws put
~N active entries in an N x N matrix, so samples are stored in sparse form
and traces are computed by closed-walk accumulation rather than dense
products.  Entries are stored already scaled by 1/sqrt(N): an active sparse
entry x = sqrt(N)*xi becomes the stored value xi.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np
from scipy import sparse

from .partitions import double_factorial_odd
from .profiles import SparsePairLaw, SparseScalarLaw

KINDS = ("elliptic", "iid", "block2", "centrosymmetric", "circulant")

_PAIR_KINDS = ("elliptic", "block2")
_SCALAR_KINDS = ("iid", "centrosymmetric", "circulant")

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
    n: int  # block size for block2 (the matrix is 2n x 2n); full size otherwise
    law: EntryLaw
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.kind in _PAIR_KINDS and not isinstance(self.law, SparsePairLaw):
            raise ValueError(f"{self.kind} requires a SparsePairLaw")
        if self.kind in _SCALAR_KINDS and isinstance(self.law, SparsePairLaw):
            raise ValueError(f"{self.kind} requires a scalar or Gaussian law")
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
    trace_norm: int  # divisor of Tr(A^k): block size for block2, else size
    matrix: Optional[Union[sparse.csr_matrix, np.ndarray]]
    generator_values: Optional[np.ndarray] = None  # circulant x vector, unscaled
    seed: Optional[int] = None

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


def sample(spec: EnsembleSpec) -> MatrixSample:
    """Draw one matrix; bit-identical for identical specs."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "elliptic":
        return _sample_elliptic(spec, rng)
    if spec.kind == "iid":
        return _sample_iid(spec, rng)
    if spec.kind == "block2":
        return _sample_block2(spec, rng)
    if spec.kind == "centrosymmetric":
        return _sample_centrosymmetric(spec, rng)
    if spec.kind == "circulant":
        return _sample_circulant(spec, rng)
    raise AssertionError(spec.kind)


def _finish(spec, rows, cols, data, size, trace_norm) -> MatrixSample:
    mat = sparse.coo_matrix((data, (rows, cols)), shape=(size, size)).tocsr()
    return MatrixSample(spec.kind, size, trace_norm, mat, seed=spec.seed)


def _diag_draws(rng, law, n, scale):
    (vals,), cum = _draw_table(law.diagonal_atoms)
    return vals[_draw_atoms(rng, cum, n)] * scale


def _sample_elliptic(spec: EnsembleSpec, rng) -> MatrixSample:
    n = spec.n
    law: SparsePairLaw = spec.law
    total = n * (n - 1) // 2
    active = _binomial_active(rng, total, float(law.activation) / n)
    i, j = _decode_upper_pairs(active, n)
    (xi_vals, eta_vals), cum = _draw_table(law.atoms)
    which = _draw_atoms(rng, cum, len(active))
    diag = _diag_draws(rng, law, n, 1.0 / np.sqrt(n))
    rows = np.concatenate([i, j, np.arange(n)])
    cols = np.concatenate([j, i, np.arange(n)])
    data = np.concatenate([xi_vals[which], eta_vals[which], diag])
    return _finish(spec, rows, cols, data, n, n)


def _sample_iid(spec: EnsembleSpec, rng) -> MatrixSample:
    n = spec.n
    if isinstance(spec.law, GaussianLaw):
        m = rng.standard_normal((n, n)) / np.sqrt(n)
        return MatrixSample(spec.kind, n, n, m, seed=spec.seed)
    law: SparseScalarLaw = spec.law
    total = n * (n - 1)  # ordered off-diagonal positions
    active = _binomial_active(rng, total, float(law.activation) / n)
    r = active // (n - 1)
    c0 = active % (n - 1)
    c = c0 + (c0 >= r)
    (vals,), cum = _draw_table(law.atoms)
    which = _draw_atoms(rng, cum, len(active))
    diag = _diag_draws(rng, law, n, 1.0 / np.sqrt(n))
    rows = np.concatenate([r, np.arange(n)])
    cols = np.concatenate([c, np.arange(n)])
    data = np.concatenate([vals[which], diag])
    return _finish(spec, rows, cols, data, n, n)


def _sample_block2(spec: EnsembleSpec, rng) -> MatrixSample:
    n = spec.n
    law: SparsePairLaw = spec.law
    total = n * (n - 1)
    active = _binomial_active(rng, total, float(law.activation) / n)
    r = active // (n - 1)
    c0 = active % (n - 1)
    c = c0 + (c0 >= r)
    (xi_vals, eta_vals), cum = _draw_table(law.atoms)
    which = _draw_atoms(rng, cum, len(active))
    diag1 = _diag_draws(rng, law, n, 1.0 / np.sqrt(n))
    diag2 = _diag_draws(rng, law, n, 1.0 / np.sqrt(n))
    rows = np.concatenate([r, np.arange(n), n + r, n + np.arange(n)])
    cols = np.concatenate([c, np.arange(n), n + c, n + np.arange(n)])
    data = np.concatenate([xi_vals[which], diag1, eta_vals[which], diag2])
    return _finish(spec, rows, cols, data, 2 * n, n)


def _mirror_positions(t: np.ndarray, n: int) -> np.ndarray:
    return n * n - 1 - t


def _sample_centrosymmetric(spec: EnsembleSpec, rng) -> MatrixSample:
    n = spec.n
    if isinstance(spec.law, GaussianLaw):
        g = rng.standard_normal(n * n)
        t = np.arange(n * n)
        rep = np.minimum(t, _mirror_positions(t, n))
        m = (g[rep] / np.sqrt(n)).reshape(n, n)
        return MatrixSample(spec.kind, n, n, m, seed=spec.seed)
    law: SparseScalarLaw = spec.law
    # orbits pair position t with n^2-1-t; for odd n the center is fixed
    n_orbits = (n * n + 1) // 2
    active = _binomial_active(rng, n_orbits, float(law.activation) / n)
    (vals,), cum = _draw_table(law.atoms)
    v = vals[_draw_atoms(rng, cum, len(active))]
    t1 = active
    t2 = _mirror_positions(active, n)
    keep = t2 != t1
    rows = np.concatenate([t1 // n, t2[keep] // n])
    cols = np.concatenate([t1 % n, t2[keep] % n])
    data = np.concatenate([v, v[keep]])
    return _finish(spec, rows, cols, data, n, n)


def _sample_circulant(spec: EnsembleSpec, rng) -> MatrixSample:
    x = sample_circulant_generator(spec.law, spec.n, [rng])[0]
    return MatrixSample(spec.kind, spec.n, spec.n, None, generator_values=x, seed=spec.seed)


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


def dump_sample(m: MatrixSample, fh: io.TextIOBase):
    """Coordinate-list text dump: header `# kind N seed`, then `i j value`."""
    fh.write(f"# {m.kind} {m.size} {m.seed}\n")
    mat = m.matrix
    if mat is None:
        mat = sparse.csr_matrix(m.dense())
    coo = sparse.coo_matrix(mat)
    for i, j, v in zip(coo.row, coo.col, coo.data):
        fh.write(f"{i} {j} {float(v)!r}\n")
