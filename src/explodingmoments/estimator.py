"""Monte Carlo trace statistics: normalized trace powers over replicas,
fluctuation covariances, bootstrap standard errors, and predicted-versus-
observed comparison rows.

Replica r uses the derived seed ``spec.seed + r`` (r = 1..M), so runs are
deterministic end to end and replicas can be generated in any order or in
parallel.  Z_N(k) is centered at the empirical replica mean; the O(1/M)
centering bias is covered by the bootstrap standard errors.

One loop draws the replicas of every sample kind, in groups of consecutive
seeds: a chunk of circulant generators, one dense (Gaussian) replica, taken
through repeated products, or up to 8 chunks of sparse replicas.  Group
boundaries depend only on M and the matrix size, and
``EXPLODINGMOMENTS_THREADS`` threads map over groups, so results do not
depend on the thread count.

Sparse replicas are drawn in chunks of consecutive seeds.  A chunk is one
block-diagonal matrix whose block i is the sample at its seed, sized to
about 8000 rows and at most 256 samples.  Chunks come in groups of up to 8,
whose seeds go through one vectorised SeedSequence pass.  The sampler
leaves a chunk as its stored entries: the off-diagonal ones as edges, and
the diagonal.  The traces rest on sum_k Tr(A^k) z^k = -z d/dz log
det(I - zA): Gaussian elimination of a row multiplies det(I - zA) by the
row's pivot, a power series in z.  Each chunk is cut by the first rounds
of the peel, which removes every row with no in-edge or no out-edge among
the rows left.  Such a row lies on no closed walk but its loop: its pivot
is 1 - d z, and it adds the powers of its diagonal entry d, formed as the
products would form them.  Consecutive chunks of a group join one run while
their rows left total at most 12,000: two elliptic chunks at N = 2000, or
a whole iid group.  A run is peeled to the end and then folded: a row
whose only neighbour, in and out, is one other row is eliminated into that
row's pivot, and a row left with no edge leaves with its pivot series,
adding the series' Newton sums.  A fold whose chain of rows ends in a row
that stays is undone, so the rows left, the run's core, make a scalar
matrix A_C.  At activation 1 and N = 2000 the peel leaves about 63% of the
elliptic rows, whose pattern is symmetric, and the fold about 4%, the rows
on or between cycles; the peel leaves a few hundred of a chunk's 8000 rows
for the iid, block and centrosymmetric samples, and the fold takes a few
percent of those.  One kernel takes a run, or the entries of a single
sample as a run of one.  With h = ceil(k_max/2), it forms A_C, ..., A_C^h
by sequential products and reads Tr(A^k) for k <= h as a per-sample sum
of the diagonal: on a sample in which no row was folded, the values of a
per-sample power loop, bit for bit.  For k > h it takes Tr(A^k) =
sum_ij (A^a)_ij (A^b)_ji with a = floor(k/2) and b = ceil(k/2),
sorting each power's keys once, and sums the core's terms apart from the
other rows' terms, which moves the sum at rounding level.  The products
and pairings run on numpy arrays of A_C's entries, with no CSR matrix and
no sparse-matrix library: Gustavson's row-wise product (ACM TOMS 4, 1978)
in canonical order, each power's positions ascending and each entry's terms
summed in ascending inner index.  The products of A_C sum, row by row, the
terms a sample's own core would, and a sample's rows are peeled and folded
in the same rounds whatever chunks share its run, so the traces do not
depend on how chunks are grouped.

Circulant replicas never form a matrix.  A group is one chunk of their
generators, one row per replica seed, sized to a fixed working set of 2^18
generator entries (2 MB of rows) whatever M, so peak memory, a few chunks a
thread, does not grow with M.  Each thread draws every chunk it takes into
one buffer of generator rows and raises powers in one accumulator, both
made once a run: a chunk that made its own rows, spectrum copies and
powers, about 2 MB each, handed them back to the system and touched fresh
pages the next time, 47,000 minor page faults in a fresh process for the
20,000 replicas at N = 512 against 9,100 now (about 5,000 of them
start-up).  The sampler writes the rows of the replicas with an active
position first, and only those go through the FFT: about 37% of sign-law
rows at N = 512 have none, (1 - 1/512)^512, and their traces are the 0.0
the FFT path gives an all-zero row.  A chunk's random generators come from
one vectorised SeedSequence pass over its seeds, each equal to
``default_rng(seed + r)``, and one kernel gives Tr(C^k)/N for a sample or a
chunk: the real FFT of the generator gives the half-spectrum
lambda_0..lambda_(N//2), and since lambda_(N-j) = conj(lambda_j) for a real
generator, the power sum over all N eigenvalues is a weighted real sum over
that half, taken row by row outside BLAS, so a replica's traces do not
depend on its place in its chunk.

The bootstrap never gathers a resampled copy of the traces.  Each resample
is one ``rng.integers`` draw of M indices from its own seeded stream, turned
into per-replica counts; a block of count rows times the per-replica power
features (z, z_i z_j, z^3, z^4 of the fully centred Z) gives every
resample's power sums in one matrix product, and the centred power-sum
identities turn those into the resample's covariance and fourth moment.
"""

from __future__ import annotations

import csv
import io
import os
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .ensembles import (
    EnsembleSpec,
    MatrixSample,
    SparseChunk,
    replica_generators,
    sample,
    sample_circulant_generator,
    sample_sparse_chunk,
    seed_states,
    sparse_size,
    state_generators,
)
from .profiles import KMAX_TRACE_POWERS, GaussianLaw

BOOTSTRAP_DEFAULT = 200
THREADS_ENV = "EXPLODINGMOMENTS_THREADS"
# a sparse replica chunk is one block-diagonal matrix of about CHUNK_ROWS
# rows, four replicas at N = 2000 (16,000-row chunks ran mc_sparse faster
# before chunks were batched, but took 3.3 MB more peak RSS), and of at most
# CHUNK_SAMPLES samples, so that a group's seeding pass covers at most 2048
# seeds and a chunk's generators, about 0.8 kB each, about 200 kB however
# small the samples.  A group of up to GROUP_CHUNKS chunks is seeded in one
# pass; consecutive chunks of a group join a run, folded and multiplied as
# one, while the rows left by their first PEEL_ROUNDS rounds of the peel
# total at most BATCH_CORE_ROWS (two elliptic chunks at N = 2000; runs of
# four took about 2 MB more peak RSS).  The fold relabels its rows once half
# have left, unless fewer than FOLD_FLOOR would be left: masks of under
# 1 kB, made anew in every round, filled numpy's cache of small buffers
CHUNK_ROWS = 8000
CHUNK_SAMPLES = 256
GROUP_CHUNKS = 8
PEEL_ROUNDS = 8
BATCH_CORE_ROWS = 12000
FOLD_FLOOR = 1024
# generator entries per circulant replica chunk: 2 MB of float64 rows (512
# replicas at N = 512), so the chunk's FFT and power temporaries stay in cache
CIRCULANT_CHUNK_ENTRIES = 2**18


def trace_powers(m: MatrixSample, k_max: int) -> np.ndarray:
    """[Tr(A^k) / N for k = 1..k_max]; N is the sample's trace normalizer.

    The path follows the type of ``m.matrix``: None (a circulant sample)
    goes through half-spectrum eigenvalue powers
    (:func:`_circulant_power_sums`), a :class:`SparseChunk` through the
    kernel of the sparse replicas (:func:`_peel`, :func:`_fold`,
    :func:`_batch_traces`) as a run of one sample, a dense array through
    repeated multiplication; the three paths agree on common inputs.
    """
    if not 1 <= k_max <= KMAX_TRACE_POWERS:
        raise ValueError(f"k_max={k_max} outside 1..{KMAX_TRACE_POWERS}")
    if m.matrix is None:
        return _circulant_power_sums(m.generator_values, k_max)
    if isinstance(m.matrix, SparseChunk):
        out = np.empty((1, k_max))
        _batch_traces(_fold([_peel(m.matrix, m.size)], k_max), m.trace_norm, k_max, out)
        return out[0]
    norm = m.trace_norm
    mat = power = m.matrix
    out = np.empty(k_max)
    for k in range(k_max):
        out[k] = power.diagonal().sum() / norm
        if k + 1 < k_max:
            power = power @ mat
    return out


class _Peeled(NamedTuple):
    """Consecutive samples of ``size`` rows each, peeled: ``rows`` are the
    core rows, ascending and numbered across the samples, and ``core`` the
    stored entries among them, relabelled 0..len(rows)-1.  ``loops`` holds,
    one array per chunk of samples, the diagonal of the rows off the core
    that left with the pivot 1 - d z (0 on the others).  Row r of
    ``terms``, when there are any, holds the Newton sums t_1, t_2, ... of
    the pivot series of sample r's other rows (:func:`_fold`)."""

    size: int
    rows: np.ndarray
    core: SparseChunk
    loops: list[np.ndarray]
    terms: Optional[np.ndarray] = None


def _peel(chunk: SparseChunk, size: int) -> _Peeled:
    """The first ``PEEL_ROUNDS`` rounds of the peel (:func:`_core_rows`) of
    a chunk of samples of ``size`` rows: the rows left, their stored entries in
    int32 rows, and the chunk's diagonal off them, so that the chunk itself
    can be dropped.  The later rounds run in :func:`_fold`, over the rows
    left in many chunks at once, where they take fewer calls."""
    core = _core_rows(chunk.src, chunk.dst, chunk.size, PEEL_ROUNDS)
    loops = np.zeros(chunk.size)
    loops[chunk.diag_at] = chunk.diag
    loops[core] = 0.0
    return _Peeled(size, np.flatnonzero(core), _restrict(chunk, core, np.int32), [loops])


def _restrict(chunk: SparseChunk, keep: np.ndarray, dtype=np.intp) -> SparseChunk:
    """The rows of ``chunk`` in the mask ``keep``, relabelled 0..count-1 in
    ``dtype`` in their order: the edges among them and their diagonal."""
    rank = np.cumsum(keep, dtype=dtype) - 1
    edges = keep.take(chunk.src)
    edges &= keep.take(chunk.dst)
    on = keep.take(chunk.diag_at)
    return SparseChunk(
        np.count_nonzero(keep),
        rank.take(chunk.src.compress(edges)),
        rank.take(chunk.dst.compress(edges)),
        chunk.val.compress(edges),
        rank.take(chunk.diag_at.compress(on)),
        chunk.diag.compress(on),
    )


def _fold(parts: list[_Peeled], k_max: int) -> _Peeled:
    """The chunks ``parts``, each cut by :func:`_peel`, joined in order and
    peeled to the end: the peel's last rounds, then the rows that hang off
    the rest by a single 2-cycle folded into their neighbour's pivot series.
    ``parts`` is emptied once joined, and the chunks' ``loops`` are updated
    in place.

    Sum_k Tr(A^k) z^k = -z d/dz log det(I - zA), taken mod z^(k_max+1), and
    Gaussian elimination of a row v multiplies det(I - zA) by its pivot
    pi_v, a series with pi_v(0) = 1 that starts as 1 - d_v z, d being the
    diagonal.  A row with no in-edge or no out-edge among the rows left
    leaves with its pivot and changes nothing else: that is the peel
    (:func:`_core_rows`).  Then, round by round:

    - a row l whose only out-neighbour and only in-neighbour among the rows
      left are one row p leaves with its pivot, and p's series gains
      -z^2 A_pl A_lp / pi_l; of two rows that are each other's only
      neighbour, only the higher folds;
    - a row with no edge left leaves with its pivot.  A row left with edges
      one way only stays: after the peel that happens only on patterns
      that are not symmetric, where folds are rare.

    A row folded, directly or down a chain, into a row that stays goes back
    to the core with its stored entries and its series is dropped, so the
    core stays a scalar matrix.  A row that leaves with pivot 1 - d_v z adds
    d_v^k, its loop terms, through ``loops``; one whose pivot absorbed folds
    adds the Newton sums of its series (:func:`_newton_sums`) through
    ``terms``.  The series are held from the first fold on, in one table
    over the joined rows.  A sample's rows take the same rounds, in the same
    order, whatever chunks are joined, so its traces do not depend on them."""
    size = parts[0].size
    loops = [loop for part in parts for loop in part.loops]
    first = np.cumsum([0] + [len(loop) for loop in loops]).tolist()
    rows = np.concatenate([part.rows + start for part, start in zip(parts, first)])
    # the cores joined in order, in intp rows, which numpy takes without a
    # cast; the chunks' own entries are freed
    cores = [part.core for part in parts]
    shifts = np.cumsum([0] + [core.size for core in cores]).tolist()
    core = SparseChunk(
        shifts[-1],
        *(np.concatenate([getattr(c, name) + shift for c, shift in zip(cores, shifts)], dtype=np.intp)
          for name in ("src", "dst")),
        np.concatenate([c.val for c in cores]),
        np.concatenate([c.diag_at + shift for c, shift in zip(cores, shifts)], dtype=np.intp),
        np.concatenate([c.diag for c in cores]),
    )
    cores = None
    parts.clear()
    n = core.size
    diag = np.zeros(n)
    diag[core.diag_at] = core.diag
    # the rows still indexed, by their label in ``core``; rows that left stay
    # indexed until half are gone, then the rest are relabelled, unless fewer
    # than FOLD_FLOOR would be left, so that small masks are seldom made
    alive = _core_rows(core.src, core.dst, n)
    label = np.flatnonzero(alive)
    live = len(label)
    src, dst, val = (_restrict(core, alive) if live < n else core)[1:4]
    alive = np.ones(live, dtype=bool)
    checked = np.zeros(live, dtype=bool)  # rows found not pendant
    # by label: the row each row folded into (-1 for none), and from the
    # first fold on the coefficients 2..k_max of each pivot (the coefficient
    # of z is -d) and whether it absorbed a fold
    parent = np.full(n, -1)
    series = absorbed = None
    while live:
        count = len(alive)
        degree = np.bincount(src, minlength=count)
        single, lone = degree == 1, degree == 0
        degree = np.bincount(dst, minlength=count)
        single &= degree == 1
        lone &= degree == 0
        degree = None
        lone &= alive
        lone = np.flatnonzero(lone)
        # a row with one edge in and one out keeps its neighbours, so one
        # found not pendant stays so until it leaves
        single &= ~checked
        leaf = np.flatnonzero(single)
        if len(leaf):
            edge = np.empty(count, dtype=np.int32)
            edge[src] = np.arange(len(src), dtype=np.int32)
            out_e = edge.take(leaf)
            edge[dst] = np.arange(len(dst), dtype=np.int32)
            in_e = edge.take(leaf)
            edge = None
            nb = dst.take(out_e)
            pendant = src.take(in_e) == nb
            checked[leaf] = ~pendant
            # of a pair pendant on each other, the higher folds
            mutual = single.take(nb)
            mutual &= nb > leaf
            pendant &= ~mutual
            leaf, nb, out_e, in_e = (x.compress(pendant) for x in (leaf, nb, out_e, in_e))
            ab = val.take(out_e)
            ab *= val.take(in_e)
            out_e = in_e = pendant = mutual = None
        if not len(leaf) and not len(lone):
            break
        if len(leaf):
            leaf_at, nb_at = label.take(leaf), label.take(nb)
            parent[leaf_at] = nb_at
            if k_max > 1:
                if series is None:
                    series, absorbed = np.zeros((k_max - 1, n)), np.zeros(n, dtype=bool)
                # -A_pl A_lp / pi_l to z^(k_max-2): r_0 = -A_pl A_lp and
                # r_j = -sum_(i<=j) p_i r_(j-i), p_1 being -d
                d, p = diag.take(leaf_at), series[: max(k_max - 3, 0), leaf_at]
                gain = np.empty((k_max - 1, len(leaf)))
                np.negative(ab, out=gain[0])
                for j in range(1, k_max - 1):
                    np.multiply(d, gain[j - 1], out=gain[j])
                    for i in range(2, j + 1):
                        gain[j] -= p[i - 2] * gain[j - i]
                # each parent's gains, added in its leaves' order
                for row, add in zip(series, gain):
                    np.add.at(row, nb_at, add)
                absorbed[nb_at] = True
        alive[lone] = False
        alive[leaf] = False
        live -= len(lone) + len(leaf)
        keep = alive.take(src)
        keep &= alive.take(dst)
        src, dst, val = src.compress(keep), dst.compress(keep), val.compress(keep)
        if 2 * live < count and live >= FOLD_FLOOR:
            rank = np.cumsum(alive) - 1
            src, dst = rank.take(src), rank.take(dst)
            label, checked = label.compress(alive), checked.compress(alive)
            alive = np.ones(live, dtype=bool)
    kept = np.zeros(n, dtype=bool)
    kept[label.compress(alive)] = True
    src = dst = val = label = checked = alive = None
    # back to the core: a row goes back when the row at the end of its chain
    # of folds stays
    root = np.where(parent < 0, np.arange(n), parent)
    while True:
        up = root.take(root)
        if np.array_equal(up, root):
            break
        root = up
    kept = kept.take(root)
    if kept.all():
        return _Peeled(size, rows, core, loops)
    simple = ~kept
    terms = None
    if absorbed is not None and (absorbed & simple).any():
        # the Newton sums of the series that left for good, summed per
        # sample in row order
        gone = np.flatnonzero(absorbed & simple)
        simple[gone] = False
        coef = np.concatenate([-diag.take(gone)[None], series[:, gone]])
        block = rows.take(gone) // size
        terms = np.empty((first[-1] // size, k_max))
        for k, sums in enumerate(_newton_sums(coef)):
            terms[:, k] = np.bincount(block, sums, minlength=len(terms))
    # the rows that left with 1 - d z keep their loop terms
    gone, left = rows.compress(simple), diag.compress(simple)
    cuts = np.searchsorted(gone, first).tolist()
    for loop, start, lo, hi in zip(loops, first, cuts, cuts[1:]):
        loop[gone[lo:hi] - start] = left[lo:hi]
    return _Peeled(size, rows.compress(kept), _restrict(core, kept), loops, terms)


def _newton_sums(coef: np.ndarray) -> np.ndarray:
    """Row k - 1 holds t_k, k = 1..K, of -z pi'(z) / pi(z) = sum_k t_k z^k
    for each series pi = 1 + sum_j p_j z^j, row j - 1 of ``coef`` holding
    p_j: Newton's identity t_k = -k p_k - sum_(j<k) p_j t_(k-j)."""
    sums = np.empty_like(coef)
    for k in range(1, len(coef) + 1):
        acc = coef[k - 1] * -k
        for j in range(1, k):
            acc -= coef[j - 1] * sums[k - j - 1]
        sums[k - 1] = acc
    return sums


def _batch_traces(peeled: _Peeled, norm: int, k_max: int, out: np.ndarray) -> None:
    """Write Tr(B_r^k) / norm, k = 1..k_max, for the samples B_r of
    ``peeled`` in order, to the rows of ``out``, (blocks, k_max).

    A row off the core adds the terms of its pivot: d_i^k for a row with
    pivot 1 - d_i z, its loop, the running product d_i * d_i * ... as a
    product of matrices forms it, and the Newton sums of a pivot series.
    The core is one block-diagonal matrix A_C whose rows are numbered in
    order, held as numpy arrays of its entries, so each product of A_C sums
    the same terms in the same order as the product of a single sample's
    core would.  A_C, ..., A_C^h with h = ceil(k_max/2) are formed by
    sequential products.  For k <= h, Tr(A^k) is the per-sample sum of the
    diagonal of A^k, the core rows' entries read from A_C^k; on a sample in
    which no row was folded these are the values of per-sample products,
    bit for bit.  For k > h, Tr(A^k) = sum_ij (A^a)_ij (A^b)_ji with a =
    floor(k/2), b = ceil(k/2): each entry (i, j) of A_C^a, paired with
    (A^b)_ji or 0, summed per sample from 0 apart from the other rows'
    terms, which moves these traces at rounding level.  Each power's keys
    are sorted once.

    Every power is held in canonical order, its positions ascending; a
    product entry is 0 + sum_j a_ij b_jk in ascending j, an exact-zero sum
    is not stored (:func:`_product`), and a pairing adds each block's terms
    in canonical order."""
    size, rows = peeled.size, peeled.rows
    first = np.cumsum([0] + [len(loop) for loop in peeled.loops]).tolist()
    blocks = len(out)
    n = peeled.core.size
    mat = _csr(peeled.core)
    half = (k_max + 1) // 2
    powers = [mat]
    while len(powers) < half:
        powers.append(_product(powers[-1], mat, n))
    diagonals = []
    for power in powers:
        diagonal = np.zeros(n)
        on = power.row == power.col
        diagonal[power.row.compress(on)] = power.val.compress(on)
        diagonals.append(diagonal)
    core_block = rows // size
    lefts = {}
    for k in range(half + 1, k_max + 1):
        a, b = k // 2 - 1, (k + 1) // 2 - 1
        if a not in lefts:
            lefts[a] = _visits(powers[a], n, core_block)
        val, block, key, order = lefts[a]
        # (A^b)_ji of each left entry (i, j), found by its transposed key,
        # and left_ij * 0 where A^b stores no (j, i)
        right = powers[b]
        found = np.zeros(len(key))
        if len(right.place):
            at = np.searchsorted(right.place, key)
            np.copyto(found, right.val.take(at, mode="clip"), where=right.place.take(at, mode="clip") == key)
        paired = np.empty(len(key))
        paired[order] = found
        paired *= val
        out[:, k - 1] = np.bincount(block, paired, minlength=blocks)
    powers = lefts = None
    # each chunk's other rows: the diagonal powers of the rows that left with
    # 1 - d z (0 on the core), then the Newton sums of the pivot series
    cuts = np.searchsorted(rows, first).tolist()
    for loop, lo, hi, start, stop in zip(peeled.loops, first, first[1:], cuts, cuts[1:]):
        at = rows[start:stop] - lo
        loop_powers = [loop]
        while len(loop_powers) < half:
            loop_powers.append(loop_powers[-1] * loop_powers[0])
        sums = out[lo // size : hi // size]
        for k in range(1, k_max + 1):
            if k <= half:
                diagonal = loop_powers[k - 1].copy()
                diagonal[at] = diagonals[k - 1][start:stop]
                sums[:, k - 1] = diagonal.reshape(-1, size).sum(axis=1)
            else:
                loops = loop_powers[k // 2 - 1] * loop_powers[(k + 1) // 2 - 1]
                sums[:, k - 1] += loops.reshape(-1, size).sum(axis=1)
    if peeled.terms is not None:
        out += peeled.terms[:, :k_max]
    out /= norm


class _Power(NamedTuple):
    """A power of A_C in canonical order: entry e at (row[e], col[e]) with
    value val[e], its position place[e] = row[e] n + col[e] ascending, and
    row i's entries at ptr[i]..ptr[i + 1] - 1."""

    ptr: np.ndarray
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    place: np.ndarray


def _power(place: np.ndarray, val: np.ndarray, n: int) -> _Power:
    """The n x n matrix of the ascending positions ``place`` and their
    values."""
    row = place // n
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(row, minlength=n), out=ptr[1:])
    return _Power(ptr, row, place - row * n, val, place)


def _csr(core: SparseChunk) -> _Power:
    """The canonical CSR matrix of ``core``, whose positions are distinct,
    the values as float64."""
    n = core.size
    place = np.concatenate([core.src, core.diag_at]).astype(np.intp)
    place *= n
    place += np.concatenate([core.dst, core.diag_at])
    place, order = _sorted(place, n * n)
    return _power(place, np.concatenate([core.val, core.diag]).take(order).astype(float, copy=False), n)


def _sorted(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``key`` sorted, and the stable argsort that sorts it, for keys in
    0..bound - 1.  Each key is packed with its index into one int64 when
    they fit, since sorting values is faster than sorting indices."""
    width = max(len(key) - 1, 0).bit_length()
    if bound << width > 1 << 63:
        order = np.argsort(key, kind="stable")
        return key.take(order), order
    packed = key << width
    packed += np.arange(len(key))
    packed.sort()
    order = packed & ((1 << width) - 1)
    packed >>= width
    return packed, order


def _product(left: _Power, right: _Power, n: int) -> _Power:
    """left @ right, two canonical n x n matrices, by Gustavson's row-wise
    product, canonical too: entry (i, k) is 0 + sum_j left_ij right_jk, its
    terms added in ascending j, and a sum that is exactly 0 is not stored.

    Each left entry is expanded over its right row, so each row's terms come
    in ascending j; one stable sort by position puts each entry's terms
    together in that order, and ``bincount`` adds them from 0."""
    count = np.diff(right.ptr).take(left.col)
    ends = np.cumsum(count)
    total = int(ends[-1]) if len(ends) else 0
    if not total:
        return _power(np.zeros(0, dtype=np.intp), np.zeros(0), n)
    # the right entry of each term: its left entry's right row, in order
    at = np.repeat(right.ptr.take(left.col) - ends + count, count)
    at += np.arange(total)
    terms = np.repeat(left.val, count)
    terms *= right.val.take(at)
    place = np.repeat(left.row * n, count)
    place += right.col.take(at)
    place, order = _sorted(place, n * n)
    start = np.empty(total, dtype=bool)
    start[0] = True
    np.not_equal(place[1:], place[:-1], out=start[1:])
    sums = np.bincount(np.cumsum(start) - 1, terms.take(order))
    stored = sums != 0
    return _power(place.compress(start).compress(stored), sums.compress(stored), n)


def _visits(power: _Power, n: int, row_block: np.ndarray) -> tuple[np.ndarray, ...]:
    """The values of the entries (i, j) of ``power`` in canonical order and
    the blocks of their rows; then their transposed keys j n + i ascending,
    and the argsort that sorts them."""
    key = power.col * n
    key += power.row
    key, order = _sorted(key, n * n)
    return power.val, row_block.take(power.row), key, order


def _core_rows(src: np.ndarray, dst: np.ndarray, n: int, rounds: Optional[int] = None) -> np.ndarray:
    """Boolean mask of the rows 0..n-1 in the cyclic core of the edges
    src -> dst: every row with no out-edge or no in-edge among the rows left
    is deleted, round by round, each round shrinking the edge arrays.  The
    rows left at the end hold every row on a directed cycle and every row on
    a path between two of them; each has an edge to and from another row
    left.  With ``rounds`` given, the mask after at most that many rounds,
    which holds the cyclic core."""
    done = 0
    while True:
        core = np.zeros(n, dtype=bool)
        core[src] = True
        has_in = np.zeros(n, dtype=bool)
        has_in[dst] = True
        core &= has_in
        done += 1
        if done == rounds:
            return core
        keep = core.take(src)
        keep &= core.take(dst)
        if keep.all():
            return core
        src, dst = src.compress(keep), dst.compress(keep)


@dataclass
class SampleStats:
    """Empirical trace means, fluctuation covariances, and bootstrap SEs."""

    spec: EnsembleSpec
    k_max: int
    replicates: int
    traces: np.ndarray  # (M, k_max) of Tr(A^k)/N
    mean_traces: np.ndarray
    se_mean: np.ndarray
    cov_z: np.ndarray  # (k_max, k_max) plug-in covariance of Z_N(k)
    se_cov: np.ndarray
    zmoment4: np.ndarray  # E[Z_N(k)^4] per k
    se_zmoment4: np.ndarray


def _circulant_power_sums(x: np.ndarray, k_max: int, acc: Optional[np.ndarray] = None) -> np.ndarray:
    """[Tr(C^k) / N for k = 1..k_max] of the circulant C with generator x
    (unscaled, along the last axis; leading axes are replicas).  ``acc``, a
    complex array of the half-spectrum's shape, holds the powers
    lambda^2..lambda^k_max in turn; it is made anew when None.

    A real generator has lambda_(N-j) = conj(lambda_j), so Tr(C^k) / N =
    sum_j w_j Re(lambda_j^k) over the rfft half-spectrum j = 0..N//2, with
    w_j = 1/N for j = 0 and, at even N, for j = N/2, and w_j = 2/N otherwise.
    The rfft is the conjugate of the ``circulant_eigenvalues`` spectrum, which
    leaves the real parts unchanged."""
    n = x.shape[-1]
    lam = np.fft.rfft(x, axis=-1)
    lam /= np.sqrt(n)
    w = np.full(lam.shape[-1], 2.0 / n)
    w[0] = 1.0 / n
    if n % 2 == 0:
        w[-1] = 1.0 / n
    if acc is None:
        acc = np.empty_like(lam)
    out = np.empty(x.shape[:-1] + (k_max,))
    power = lam
    for k in range(k_max):
        # summed per row outside BLAS, whose gemv rounds a row by its place
        out[..., k] = np.einsum("...j,j->...", power.real, w)
        if k + 1 < k_max:
            power = np.multiply(power, lam, out=acc)
    return out


def thread_count() -> int:
    """The worker threads of a Monte Carlo run: the positive integer in
    ``EXPLODINGMOMENTS_THREADS``, or 1 when it is unset or empty.  Any other
    value is a ValueError."""
    raw = os.environ.get(THREADS_ENV, "")
    if not raw:
        return 1
    if not (raw.isascii() and raw.isdigit() and int(raw) > 0):
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def _replica_traces(spec: EnsembleSpec, k_max: int, m: int, threads: int = 1) -> np.ndarray:
    """(m, k_max) traces of replicas r = 1..m, drawn from seeds spec.seed + r.

    One loop over groups of consecutive seeds, a ``fill`` per sample kind:
    a circulant group is one chunk of ``CIRCULANT_CHUNK_ENTRIES // N``
    replicas, seeded by one vectorised pass (:func:`replica_generators`),
    drawn by one ``sample_circulant_generator`` call into its thread's
    buffer, and its active rows summed by one batched real FFT
    (:func:`_circulant_power_sums`); a dense replica is a group of
    its own; sparse replicas go in groups of up to ``GROUP_CHUNKS`` chunks
    (:func:`_group_traces`).  Group boundaries depend only on m and the
    matrix size, and threads map over groups, so the result does not depend
    on the thread count."""
    out = np.empty((m, k_max))
    first = spec.seed + 1
    if spec.kind == "circulant":
        group = max(1, min(m, CIRCULANT_CHUNK_ENTRIES // spec.n))
        buffers = threading.local()

        def fill(lo: int) -> None:
            if not hasattr(buffers, "rows"):  # the thread's first chunk of the run
                buffers.rows = np.empty((group, spec.n))
                buffers.acc = np.empty((group, spec.n // 2 + 1), dtype=complex)
            rngs = replica_generators(range(first + lo, first + min(lo + group, m)))
            x, drawn = sample_circulant_generator(spec.law, spec.n, rngs, buffers.rows)
            block = out[lo : lo + group]
            block.fill(0.0)  # the traces of an all-zero generator
            block[drawn] = _circulant_power_sums(x, k_max, buffers.acc[: len(x)])
    elif isinstance(spec.law, GaussianLaw):
        group = 1

        def fill(lo: int) -> None:
            out[lo] = trace_powers(sample(replace(spec, seed=first + lo)), k_max)
    else:
        chunk = max(1, min(m, CHUNK_ROWS // sparse_size(spec), CHUNK_SAMPLES))
        group = GROUP_CHUNKS * chunk

        def fill(lo: int) -> None:
            seeds = range(first + lo, first + min(lo + group, m))
            _group_traces(spec, seeds, chunk, k_max, out[lo : lo + group])

    if threads > 1:
        # imported here alone: concurrent.futures loads logging and queue
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(threads, -(-m // group))) as pool:
            list(pool.map(fill, range(0, m, group)))
    else:
        for lo in range(0, m, group):
            fill(lo)
    return out


def _group_traces(spec: EnsembleSpec, seeds: range, chunk: int, k_max: int, out: np.ndarray) -> None:
    """The traces of one group of sparse replicas, written to ``out``, the
    (len(seeds), k_max) rows of the group's output.

    The group's seeds go through one vectorised SeedSequence pass, and each
    chunk of ``chunk`` seeds then makes its generators, draws one
    block-diagonal chunk (:func:`sample_sparse_chunk`) and is cut by the
    first rounds of the peel (:func:`_peel`), after which only the rows
    left and the chunk's diagonal are held.  Consecutive chunks join one run
    while those rows total at most ``BATCH_CORE_ROWS`` (or the run is one
    chunk); a run is peeled to the end and folded as one (:func:`_fold`),
    and the rows it leaves make one product batch (:func:`_batch_traces`)."""
    states, size = seed_states(seeds), sparse_size(spec)
    parts = (
        _peel(sample_sparse_chunk(spec, state_generators(states[lo : lo + chunk])), size)
        for lo in range(0, len(seeds), chunk)
    )
    lo = 0
    for run in _runs(parts, BATCH_CORE_ROWS):
        peeled = _fold(run, k_max)
        hi = lo + sum(map(len, peeled.loops)) // peeled.size
        _batch_traces(peeled, spec.n, k_max, out[lo:hi])
        lo = hi


def _runs(parts: Iterable[_Peeled], rows: int) -> Iterator[list[_Peeled]]:
    """``parts`` in runs of consecutive parts whose cores total at most
    ``rows`` rows, or of one part."""
    run: list[_Peeled] = []
    for part in parts:
        if run and sum(p.core.size for p in run) + part.core.size > rows:
            yield run
            run = []
        run.append(part)
    if run:
        yield run


def run_experiment(
    spec: EnsembleSpec,
    k_max: int,
    replicates: int,
    bootstrap_resamples: int = BOOTSTRAP_DEFAULT,
) -> SampleStats:
    """Generate M replicas from derived seeds seed+1..seed+M and aggregate.

    Fully deterministic given the spec; the bootstrap resampler is seeded
    from the spec as well.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    if not 1 <= k_max <= KMAX_TRACE_POWERS:
        raise ValueError(f"k_max={k_max} outside 1..{KMAX_TRACE_POWERS}")
    traces = _replica_traces(spec, k_max, replicates, thread_count())
    return aggregate_stats(spec, traces, bootstrap_resamples)


def aggregate_stats(
    spec: EnsembleSpec, traces: np.ndarray, bootstrap_resamples: int = BOOTSTRAP_DEFAULT
) -> SampleStats:
    """Means, the plug-in covariance and fourth moments of Z_N(k), and their
    bootstrap standard errors.

    Resample b draws M replica indices with one ``rng.integers(0, M, size=M)``
    call, in order, from ``SeedSequence((|seed|, 0xB007))``, and keeps only
    their counts.  With z = sqrt(N) (traces - mean) centred once at the full
    mean, a count row w gives the resample's power sums S_p = w . z^p / M,
    and from them, with mu = S_1, the recentred statistics
    ``cov = S_2 - mu mu^T`` and ``m4 = S_4 - 4 mu S_3 + 6 mu^2 S_2 - 3 mu^4``.
    Centring first keeps the expansion stable (mu is O(1/sqrt(M))); the SEs
    equal those of recomputing each resample from its gathered copy up to
    rounding.  A non-finite trace makes every SE that involves its column NaN.
    """
    m, k_max = traces.shape
    mean = traces.mean(axis=0)
    z = np.sqrt(spec.n) * (traces - mean)
    cov = z.T @ z / m
    se_mean = traces.std(axis=0, ddof=1) / np.sqrt(m)
    # per-replica features, written in place: z, z_i z_j for i <= j, z^3, z^4
    iu, ju = np.triu_indices(k_max)
    pairs = len(iu)
    features = np.empty((m, 3 * k_max + pairs))
    features[:, :k_max] = z
    for col, (i, j) in enumerate(zip(iu, ju), start=k_max):
        np.multiply(z[:, i], z[:, j], out=features[:, col])
    np.power(z, 3, out=features[:, k_max + pairs : 2 * k_max + pairs])
    np.power(z, 4, out=features[:, 2 * k_max + pairs :])
    m4 = features[:, 2 * k_max + pairs :].mean(axis=0)
    sums = np.empty((bootstrap_resamples, features.shape[1]))
    rng = np.random.default_rng(np.random.SeedSequence((abs(spec.seed), 0xB007)))
    chunk = max(1, min(bootstrap_resamples, 5 * 10**5 // m))  # 4 MB of counts
    counts = np.empty((chunk, m))
    for lo in range(0, bootstrap_resamples, chunk):
        hi = min(lo + chunk, bootstrap_resamples)
        for b in range(hi - lo):
            counts[b] = np.bincount(rng.integers(0, m, size=m), minlength=m)
        sums[lo:hi] = counts[: hi - lo] @ features / m
    mu, s2, s3, s4 = np.split(sums, np.cumsum([k_max, pairs, k_max]), axis=1)
    covs = s2 - mu[:, iu] * mu[:, ju]
    m4s = s4 - 4 * mu * s3 + 6 * mu**2 * s2[:, iu == ju] - 3 * mu**4
    se_cov = np.empty((k_max, k_max))
    se_cov[iu, ju] = se_cov[ju, iu] = covs.std(axis=0, ddof=1)
    return SampleStats(
        spec=spec,
        k_max=k_max,
        replicates=m,
        traces=traces,
        mean_traces=mean,
        se_mean=se_mean,
        cov_z=cov,
        se_cov=se_cov,
        zmoment4=m4,
        se_zmoment4=m4s.std(axis=0, ddof=1),
    )


Number = Union[int, float, Fraction]


@dataclass
class ReportRow:
    """One predicted-versus-observed comparison.

    ``l`` is None for a trace-mean row and an integer for a covariance row.
    The z-score compares the empirical value to the prediction; the oracle
    column, when present, is the exact finite-N value and is annotated when
    it differs from the prediction.
    """

    k: int
    l: Optional[int]
    predicted: Number
    oracle: Optional[Number]
    empirical: float
    stderr: float
    zscore: Optional[float]
    passed: bool
    note: str = ""

    def as_record(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "predicted": _num_str(self.predicted),
            "oracle": _num_str(self.oracle) if self.oracle is not None else "",
            "empirical": repr(self.empirical),
            "stderr": repr(self.stderr),
            "zscore": "" if self.zscore is None else repr(self.zscore),
            "pass": self.passed,
            "note": self.note,
        }


def _num_str(x: Number) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(x)


def compare_report(
    stats: SampleStats,
    predictions: Sequence[tuple[int, Optional[int], Number]],
    oracle: Optional[dict[tuple[int, Optional[int]], Number]] = None,
    z_threshold: float = 4.0,
) -> list[ReportRow]:
    """One row per prediction target: z = (empirical - predicted) / SE and a
    pass flag |z| <= threshold.  A zero SE with a mismatch is flagged as a
    degenerate row instead of dividing."""
    rows = []
    oracle = oracle or {}
    for k, l, predicted in predictions:
        if l is None:
            emp = float(stats.mean_traces[k - 1])
            se = float(stats.se_mean[k - 1])
        else:
            emp = float(stats.cov_z[k - 1, l - 1])
            se = float(stats.se_cov[k - 1, l - 1])
        ovalue = oracle.get((k, l))
        note = ""
        if ovalue is not None and Fraction(ovalue) != Fraction(predicted):
            note = "oracle-differs-from-prediction"
        if se == 0.0:
            match = emp == float(predicted)
            rows.append(
                ReportRow(k, l, predicted, ovalue, emp, se, None, match,
                          note=(note + ";" if note else "") + "degenerate-zero-se")
            )
            continue
        z = (emp - float(predicted)) / se
        rows.append(ReportRow(k, l, predicted, ovalue, emp, se, z, abs(z) <= z_threshold, note))
    return rows


CSV_COLUMNS = ["k", "l", "predicted", "oracle", "empirical", "stderr", "zscore", "pass", "note"]


def rows_to_csv(records: Sequence[dict]) -> str:
    """CSV of report records (``ReportRow.as_record``); an empty ``l`` marks
    a trace-mean row."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for rec in records:
        writer.writerow({**rec, "l": "" if rec["l"] is None else rec["l"]})
    return buf.getvalue()
