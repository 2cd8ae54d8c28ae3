"""Finite-N matrix samplers for the five ensembles, the centrosymmetric
orthogonal reduction, and the circulant eigenvalue formula.

Samples are deterministic functions of (spec, seed).  Sparse atomic laws put
~N active entries in an N x N matrix, so a sparse sample is stored as its
entries' edge lists and diagonal (:class:`SparseChunk`), which the trace
kernel of ``estimator`` takes as they are.  Entries are stored already
scaled by 1/sqrt(N): an active sparse entry x = sqrt(N)*xi becomes the
stored value xi.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .profiles import MODELS, PAIR_MODELS, EntryLaw, GaussianLaw, SparsePairLaw

DENSE_LIMIT = 4096  # largest size we will materialize densely


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
    matrix: Optional[Union[SparseChunk, np.ndarray]]  # None for a circulant sample
    generator_values: Optional[np.ndarray] = None  # circulant x vector, unscaled

    def dense(self) -> np.ndarray:
        n, m = self.size, self.matrix
        if n > DENSE_LIMIT:
            raise ValueError(f"a {n} x {n} sample exceeds the dense limit {DENSE_LIMIT}")
        if isinstance(m, np.ndarray):
            return m
        if isinstance(m, SparseChunk):
            out = np.zeros((n, n))
            out[m.src, m.dst] = m.val
            out[m.diag_at, m.diag_at] = m.diag
            return out
        if self.kind == "circulant":
            idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
            return self.generator_values[idx] / np.sqrt(n)
        raise ValueError("sample holds no matrix")


# SeedSequence's hash constants: the entropy hash, the output hash and the
# pool mix of its four 32-bit pool words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MASK32 = 0xFFFFFFFF


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix with its running constant.  The constant steps
    the same way for every seed, so one hasher mixes a column of words, one
    word per seed, for many seeds at once."""

    def hashmix(words: np.ndarray) -> np.ndarray:
        nonlocal const
        words = words ^ np.uint32(const)
        const = const * mult & _MASK32
        words = words * np.uint32(const)
        return words ^ (words >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ (out >> np.uint32(16))


def seed_states(seeds: Iterable[int]) -> np.ndarray:
    """(len(seeds), 4) uint64 array whose row i is
    ``SeedSequence(seeds[i]).generate_state(4, np.uint64)``.

    SeedSequence hashes a pool word past a short entropy as a zero word, so
    every seed below 2^128 is its four little-endian 32-bit words padded with
    zeros, and all of them go through one pass (:func:`_pool_states`); only
    wider seeds are grouped by their count of words, one pass a group."""
    seeds = list(map(operator.index, seeds))
    if seeds and min(seeds) < 0:
        raise ValueError(f"expected a non-negative seed, got {min(seeds)}")
    if not seeds or not max(seeds) >> 32 * _POOL:
        return _pool_states(seeds, _POOL)
    groups: dict[int, list[int]] = {}
    for i, seed in enumerate(seeds):
        groups.setdefault(max(_POOL, -(-seed.bit_length() // 32)), []).append(i)
    out = np.empty((len(seeds), _POOL), dtype=np.uint64)
    for width, members in groups.items():
        out[members] = _pool_states([seeds[i] for i in members], width)
    return out


def _pool_states(seeds: list[int], width: int) -> np.ndarray:
    """The :func:`seed_states` rows of non-negative seeds of at most
    ``width`` >= 4 words each, through SeedSequence's steps as uint32 column
    operations, one column holding one word of every seed: the entropy hash
    of the first four words into the pool, the pool's cross mix, the mix of
    each word past the fourth, and the output hash of eight words, joined in
    pairs, low word first."""
    raw = b"".join(seed.to_bytes(4 * width, "little") for seed in seeds)
    words = np.frombuffer(raw, dtype="<u4").astype(np.uint32).reshape(-1, width).T
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, width):
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(words[src]))
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = np.array([hashmix(pool[j % _POOL]) for j in range(2 * _POOL)], dtype=np.uint64)
    # PCG64 reads each row's memory directly, so rows must be contiguous
    return np.ascontiguousarray((out[0::2] | out[1::2] << np.uint64(32)).T)


class _SeedState(ISeedSequence):
    """One seed's precomputed ``generate_state(4, np.uint64)`` words, which
    PCG64 reads from its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == _POOL and dtype is np.uint64:  # PCG64's call, once per generator
            return self.words
        if (n_words, np.dtype(dtype)) != (_POOL, np.dtype(np.uint64)):
            raise ValueError("a precomputed seed state holds four uint64 words")
        return self.words


def replica_generators(seeds: Iterable[int]) -> list[np.random.Generator]:
    """One generator per seed, each equal to ``np.random.default_rng(seed)``:
    the seeds' PCG64 states come from one vectorised SeedSequence pass
    (:func:`seed_states`) instead of one SeedSequence per seed.  A negative
    seed is a ValueError, as for ``default_rng``."""
    return state_generators(seed_states(seeds))


def state_generators(states: np.ndarray) -> list[np.random.Generator]:
    """One generator per row of :func:`seed_states`, so that the states of
    many seeds can come from one pass and their generators be made a few at a
    time."""
    return [np.random.Generator(np.random.PCG64(_SeedState(words))) for words in states]


# draw tables by the id of their atoms tuple: hashing a tuple of Fractions
# costs about as much as building its table.  An entry holds its tuple, so
# the id cannot pass to another tuple while the entry lives
_DRAW_TABLES: dict[int, tuple] = {}
_DRAW_TABLES_MAX = 64


def _draw_table(atoms):
    """(value columns, cumulative probabilities) of a law's atom rows
    (values..., prob): one read-only float array per value column, built
    once per atoms tuple and shared by every draw from it."""
    hit = _DRAW_TABLES.get(id(atoms))
    if hit is None:
        *columns, probs = zip(*atoms)
        cum = np.cumsum([float(p) for p in probs])
        cum[-1] = 1.0
        arrays = tuple(np.array([float(v) for v in column]) for column in columns)
        for array in (*arrays, cum):
            array.flags.writeable = False
        if len(_DRAW_TABLES) >= _DRAW_TABLES_MAX:
            _DRAW_TABLES.clear()
        hit = _DRAW_TABLES[id(atoms)] = (atoms, arrays, cum)
    return hit[1], hit[2]


def _distinct_uniform(rng, total: int, count: int) -> np.ndarray:
    """count distinct uniform indices in [0, total); exact conditional law by
    redrawing the whole batch on collision (rare for count^2 << total).

    A batch of one is the scalar draw, which takes the same value and leaves
    the generator in the same state, without numpy's handling of ``size``.
    Distinctness is checked by sorting."""
    if count > total:
        raise ValueError("cannot draw more distinct indices than exist")
    if 3 * count >= total:
        return rng.permutation(total)[:count]
    if count == 1:
        return np.array([rng.integers(0, total)])
    while True:
        idx = rng.integers(0, total, size=count)
        ordered = np.sort(idx)
        if (ordered[1:] != ordered[:-1]).all():
            return idx


def _decode_upper_pairs(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert the row-major enumeration of pairs (i < j) of {0..n-1}: row i
    starts at s(i) = i(b - i)/2 with b = 2n - 1, so the row of t is the floor
    of the smaller root (b - sqrt(b^2 - 8t))/2 of s(i) = t.  The root is
    taken in floating point and then moved by one where s(i) > t or
    s(i + 1) <= t, which leaves the exact integer row."""
    t = np.asarray(t, dtype=np.int64)
    b = 2 * n - 1
    i = ((b - np.sqrt((b * b - 8 * t).astype(float))) / 2).astype(np.int64)
    i -= i * (b - i) // 2 > t
    i += (i + 1) * (b - i - 1) // 2 <= t
    return i, t - i * (b - i) // 2 + i + 1


def _off_diagonal(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of the row-major ordered off-diagonal positions t."""
    r, c0 = np.divmod(t, n - 1)
    return r, c0 + (c0 >= r)


def _elliptic_cells(n, t, values, base):
    i, j = _decode_upper_pairs(t, n)
    i += base
    j += base
    xi, eta = values
    return [(i, j, xi), (j, i, eta)]


def _iid_cells(n, t, values, base):
    r, c = _off_diagonal(t, n)
    return [(r + base, c + base, values[0])]


def _block_cells(n, t, values, base):
    r, c = _off_diagonal(t, n)
    r += base
    c += base
    xi, eta = values
    return [(r, c, xi), (r + n, c + n, eta)]


def _centrosymmetric_cells(n, t, values, base):
    (v,) = values
    r, c = np.divmod(t, n)
    keep = 2 * t != n * n - 1  # for odd n the center is its own mirror
    mirror_r, mirror_c = (base + (n - 1) - r)[keep], (base + (n - 1) - c)[keep]
    return [(r + base, c + base, v), (mirror_r, mirror_c, v[keep])]


# a sparse model's geometry: its orbit count at size n, the (rows, cols,
# values) cells its active orbits t fill given their atom value columns and
# the row offset ``base`` of each orbit's sample, and the number of n x n
# diagonal blocks of diagonal-law draws
_SPARSE_GEOMETRY = {
    "elliptic": (lambda n: n * (n - 1) // 2, _elliptic_cells, 1),
    "iid": (lambda n: n * (n - 1), _iid_cells, 1),
    "block": (lambda n: n * (n - 1), _block_cells, 2),
    # orbits pair position t with n^2-1-t and hold the diagonal too
    "centrosymmetric": (lambda n: (n * n + 1) // 2, _centrosymmetric_cells, 0),
}


class SparseChunk(NamedTuple):
    """The stored entries of a square sparse matrix, usually a block-diagonal
    chunk of samples: each off-diagonal entry as an edge ``src -> dst`` with
    value ``val``, each diagonal entry as its row ``diag_at`` and value
    ``diag``.  A stored entry may hold 0.0; no position is stored twice."""

    size: int  # rows, and columns, of the matrix
    src: np.ndarray
    dst: np.ndarray
    val: np.ndarray
    diag_at: np.ndarray
    diag: np.ndarray


def sample(spec: EnsembleSpec) -> MatrixSample:
    """Draw one matrix; bit-identical for identical specs.

    A sparse model's ``matrix`` is the :class:`SparseChunk` that
    :func:`sample_sparse_chunk` draws from ``default_rng(spec.seed)`` alone,
    the block at that seed of any chunk of replicas; a Gaussian model's is a
    dense array of one standard normal per entry; a circulant sample holds
    no matrix, only its generator vector."""
    kind, n, law = spec.kind, spec.n, spec.law
    rng = np.random.default_rng(spec.seed)
    if kind == "circulant":
        x = np.zeros((1, n))  # a draw with no active position leaves it zero
        sample_circulant_generator(law, n, [rng], x)
        return MatrixSample(kind, n, n, None, generator_values=x[0])
    if isinstance(law, GaussianLaw):
        g = rng.standard_normal(n * n)
        if kind == "centrosymmetric":
            t = np.arange(n * n)
            g = g[np.minimum(t, n * n - 1 - t)]
        return MatrixSample(kind, n, n, (g / np.sqrt(n)).reshape(n, n))
    chunk = sample_sparse_chunk(spec, [rng])
    return MatrixSample(kind, sparse_size(spec), n, chunk)


def sparse_size(spec: EnsembleSpec) -> int:
    """The side of a sparse model's matrix: the block model's two blocks make
    it 2n x 2n, every other model's n x n."""
    return spec.n * max(_SPARSE_GEOMETRY[spec.kind][2], 1)


def sample_sparse_chunk(spec: EnsembleSpec, rngs: Sequence[np.random.Generator]) -> SparseChunk:
    """The stored entries of one block-diagonal matrix of a sparse model
    whose block i, of side ``sparse_size(spec)``, is drawn from the generator
    ``rngs[i]`` alone.  A chunk of replicas passes generators made from one
    :func:`seed_states` pass over its seeds, each equal to ``default_rng`` at
    its seed.

    Each generator draws, in order: a binomial count of active orbits, that
    many distinct orbits, one uniform per active orbit for its atom row, then
    one uniform per diagonal entry of its diagonal blocks.  The atom lookup,
    the decoding of orbits into cells and the offset of each block's rows
    then run once for the whole chunk."""
    n, law = spec.n, spec.law
    orbits, cells, blocks = _SPARSE_GEOMETRY[spec.kind]
    total = orbits(n)
    p = float(law.activation) / n
    counts, picked, uniforms, diagonal = [], [], [], []
    for rng in rngs:
        count = rng.binomial(total, p)
        counts.append(count)
        picked.append(_distinct_uniform(rng, total, count))
        uniforms.append(rng.random(count))
        diagonal.append(rng.random(blocks * n))
    size = sparse_size(spec)
    columns, cum = _draw_table(law.atoms)
    which = _atom_rows(cum, np.concatenate(uniforms))
    base = np.repeat(np.arange(len(rngs)) * size, counts)
    parts = cells(n, np.concatenate(picked), [column[which] for column in columns], base)
    src, dst, val = (np.concatenate(part) for part in zip(*parts))
    if not blocks:
        # centrosymmetric orbits draw no diagonal blocks and hold the diagonal
        on = src == dst
        off = ~on
        return SparseChunk(len(rngs) * size, src[off], dst[off], val[off], src[on], val[on])
    # the diagonal blocks fill every row's diagonal, and no other orbit
    # lands on it
    (diag,), diag_cum = _draw_table(law.diagonal_atoms)
    diag = diag[_atom_rows(diag_cum, np.concatenate(diagonal))]
    return SparseChunk(len(rngs) * size, src, dst, val, np.arange(len(diag)), diag * (1.0 / np.sqrt(n)))


def _atom_rows(cum: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The atom row of each uniform in [0, 1), ``np.searchsorted(cum,
    uniforms, side="right")`` for the cumulative probabilities ``cum`` of a
    draw table: the count of rows whose cumulative probability is at most
    the uniform, one comparison per row of a table of 2 to 4 rows.  The last
    row's, 1.0, exceeds every uniform."""
    which = np.zeros(len(uniforms), dtype=np.intp)
    for edge in cum[:-1]:
        which += uniforms >= edge
    return which


class CirculantRows(NamedTuple):
    """The generator rows of a chunk of circulant draws: row j of
    ``generator_values`` is the unscaled generator of draw ``drawn[j]``, in
    draw order, for each draw with an active position.  The generator of
    every other draw is all zero."""

    generator_values: np.ndarray
    drawn: np.ndarray  # indices into the chunk's generators


def sample_circulant_generator(law, n: int, rngs: Sequence[np.random.Generator], out: np.ndarray) -> CirculantRows:
    """Unscaled generator vectors (x_0..x_{N-1}) of circulant draws, one per
    generator in ``rngs``; the draw of ``rngs[i]`` is that generator's alone.
    A chunk of replicas passes the generators of :func:`replica_generators`,
    each equal to ``default_rng`` at its seed.

    The rows of the draws with an active position are written first, in
    order, to ``out``, an array of at least len(rngs) rows of N floats that
    a caller can pass chunk after chunk; the rows past them are left as
    they were.  A Gaussian row is one standard
    normal vector and always active.  A sparse law's draw table is scaled by
    sqrt(N) into a new array, and its activation probability q/N taken, once
    per call.  Each row takes, in order: a binomial count of active
    positions, that many distinct positions, and one uniform per active
    position for its atom.  A row with no active position draws nothing
    more: a draw of size 0 leaves the generator's state alone.  The rows'
    positions and uniforms are collected as Python lists, and the active
    rows zeroed and filled by one atom lookup and one scatter per call."""
    if isinstance(law, GaussianLaw):
        for row, rng in zip(out, rngs):
            rng.standard_normal(out=row)
        return CirculantRows(out[: len(rngs)], np.arange(len(rngs)))
    (vals,), cum = _draw_table(law.atoms)
    vals = vals * np.sqrt(n)
    p = float(law.activation) / n
    drawn: list[int] = []
    rows: list[int] = []
    positions: list[int] = []
    uniforms: list[float] = []
    for i, rng in enumerate(rngs):
        count = rng.binomial(n, p)
        if count:
            rows += [len(drawn)] * count
            drawn.append(i)
            positions += _distinct_uniform(rng, n, count).tolist()
            uniforms += rng.random(count).tolist()
    active = out[: len(drawn)]
    active.fill(0.0)
    active[rows, positions] = vals[_atom_rows(cum, np.array(uniforms))]
    return CirculantRows(active, np.array(drawn, dtype=np.intp))


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
    s, odd = n // 2, n % 2
    J = np.fliplr(np.eye(s))
    h = np.sqrt(0.5)
    A = M[:s, :s]
    C = M[s + odd :, :s]
    Q = np.zeros((n, n))
    Q[:s, :s] = np.eye(s) * h
    Q[s + odd :, :s] = J * h
    Q[:s, s + odd :] = -np.eye(s) * h
    Q[s + odd :, s + odd :] = J * h
    center = None
    if odd:
        Q[s, s] = 1.0
        center = (np.sqrt(2) * M[:s, s], np.sqrt(2) * M[s, :s], M[s, s])
    return WeaverReduction(A + J @ C, A - J @ C, center, Q)
