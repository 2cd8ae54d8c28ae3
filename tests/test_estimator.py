import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from explodingmoments.ensembles import (
    EnsembleSpec,
    GaussianLaw,
    MatrixSample,
    SparseChunk,
    circulant_eigenvalues,
    replica_generators,
    sample,
    sample_circulant_generator,
    sample_sparse_chunk,
)
from explodingmoments import estimator
from explodingmoments.estimator import (
    THREADS_ENV,
    _Peeled,
    _batch_traces,
    _circulant_power_sums,
    _core_rows,
    _csr,
    _fold,
    _peel,
    _product,
    _sorted,
    _replica_traces,
    aggregate_stats,
    compare_report,
    rows_to_csv,
    run_experiment,
    trace_powers,
)
from explodingmoments.oracle import exact_table
from explodingmoments.profiles import PAIR_MODELS, SparseScalarLaw
from reference_sums import (
    in_draw_order,
    of_csr,
    reference_aggregate_stats,
    reference_batch_traces,
    reference_chunk_traces,
    reference_replica_traces,
    reference_trace_powers,
    to_csr,
)

SPARSE_MODELS = ("elliptic", "iid", "block", "centrosymmetric")


def sparse_spec(kind, n, seed, sign_law, sign_pair_law):
    law = sign_pair_law if kind in PAIR_MODELS else sign_law
    return EnsembleSpec(kind=kind, n=n, law=law, seed=seed)


def chunk_of(spec, seeds):
    """The chunk of the samples at ``seeds``, seeded in one pass."""
    return sample_sparse_chunk(spec, replica_generators(seeds))


def run_traces(chunks, blocks, norm, k_max):
    """The kernel on one run of chunks of ``blocks`` samples each: the
    chunks peeled, folded and multiplied together."""
    peeled = _fold([_peel(chunk, chunk.size // blocks) for chunk in chunks], k_max)
    out = np.empty((blocks * len(chunks), k_max))
    _batch_traces(peeled, norm, k_max, out)
    return out


def chunk_traces(chunk, blocks, norm, k_max):
    """The kernel on a run of one chunk of ``blocks`` samples."""
    return run_traces([chunk], blocks, norm, k_max)


def unfolded(chunk, blocks):
    """Per sample of a chunk of ``blocks`` samples, whether the kernel's core
    is its cyclic core: no row was folded, so the kernel's k <= ceil(k_max/2)
    traces are those of per-sample products, bit for bit."""
    size = chunk.size // blocks
    kept = _fold([_peel(chunk, size)], 8).rows
    cyclic = np.flatnonzero(_core_rows(chunk.src, chunk.dst, chunk.size))
    return np.bincount(kept // size, minlength=blocks) == np.bincount(cyclic // size, minlength=blocks)


def replicas_unfolded(spec, m):
    """``unfolded`` for the replicas r = 1..m of ``spec``, one chunk each."""
    return np.array([unfolded(chunk_of(spec, [spec.seed + r]), 1)[0] for r in range(1, m + 1)])


class TestTracePowers:
    def test_identity(self):
        m = MatrixSample(kind="iid", size=4, trace_norm=4, matrix=np.eye(4))
        assert np.allclose(trace_powers(m, 5), np.ones(5))

    def test_zero(self):
        m = MatrixSample(kind="iid", size=3, trace_norm=3, matrix=np.zeros((3, 3)))
        assert np.allclose(trace_powers(m, 4), np.zeros(4))

    def test_swap_matrix_by_hand(self):
        mat = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2)
        m = MatrixSample(kind="iid", size=2, trace_norm=2, matrix=mat)
        got = trace_powers(m, 4)
        assert got == pytest.approx([0.0, 1 / 2, 0.0, 1 / 4])

    def test_kmax_guard(self):
        m = MatrixSample(kind="iid", size=2, trace_norm=2, matrix=np.eye(2))
        with pytest.raises(ValueError):
            trace_powers(m, 9)

    @pytest.mark.parametrize("seed", range(25))
    def test_sparse_dense_agree(self, seed, sign_pair_law):
        n = 16 + 2 * seed  # sizes up to 64
        s = sample(EnsembleSpec(kind="elliptic", n=n, law=sign_pair_law, seed=seed))
        dense = MatrixSample(kind="elliptic", size=n, trace_norm=n, matrix=s.dense())
        assert np.allclose(trace_powers(s, 6), trace_powers(dense, 6), rtol=1e-8, atol=1e-12)

    def test_non_canonical_csr_sums_its_duplicates(self):
        # rows hold unsorted columns, and (0, 0), (1, 2), (2, 1) and (3, 3)
        # are each stored twice, row 3 on no cycle; the products sum
        # duplicates, so the entries that of_csr hands the kernel must too
        indptr = np.array([0, 4, 7, 10, 12])
        indices = np.array([2, 0, 1, 0, 2, 0, 2, 1, 0, 1, 3, 3])
        data = np.array([1.5, 0.5, -2.0, 0.25, 1.0, 3.0, -0.5, 2.0, -1.0, 0.75, 0.5, 0.25])
        mat = sparse.csr_matrix((data, indices, indptr), shape=(4, 4))
        assert not mat.has_canonical_format
        got = trace_powers(MatrixSample(kind="iid", size=4, trace_norm=4, matrix=of_csr(mat)), 8)
        dense = MatrixSample(kind="iid", size=4, trace_norm=4, matrix=mat.toarray())
        assert np.allclose(got, trace_powers(dense, 8), rtol=1e-12, atol=1e-12)
        # the CSR matrix is left as it was
        assert np.array_equal(mat.indices, indices) and np.array_equal(mat.data, data)

    @pytest.mark.parametrize("seed", range(25))
    def test_circulant_paths_agree(self, seed, sign_law):
        n = 16 + 2 * seed
        s = sample(EnsembleSpec(kind="circulant", n=n, law=sign_law, seed=seed))
        dense = MatrixSample(kind="circulant", size=n, trace_norm=n, matrix=s.dense())
        assert np.allclose(trace_powers(s, 6), trace_powers(dense, 6), rtol=1e-8, atol=1e-12)


class TestSparseBlockTraces:
    """The batched half-power kernel against the per-sample sequential
    products of ``reference_sums.reference_trace_powers``."""

    @staticmethod
    def reference(samples, k_max):
        """(traces, scale) per sample; the scale of Tr(A^k) is Tr(|A|^k), the
        sum of the absolute values of its closed-walk summands."""
        want = [reference_trace_powers(to_csr(m.matrix), m.trace_norm, k_max) for m in samples]
        scale = [reference_trace_powers(abs(to_csr(m.matrix)), m.trace_norm, k_max) for m in samples]
        return np.array(want), np.array(scale)

    @staticmethod
    def assert_matches(got, want, scale, exact):
        # on the samples in which no row was folded (``exact``) k <= h =
        # ceil(k_max/2) takes the same products; k > h pairs A^a with A^b,
        # and a folded row adds the Newton sums of its pivot series
        half = (got.shape[-1] + 1) // 2
        assert np.array_equal(got[exact, :half], want[exact, :half])
        assert (np.abs(got - want) <= 1e-12 * scale).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("kind", SPARSE_MODELS)
    def test_blocks_match_sequential_products(self, kind, n, sign_law, sign_pair_law):
        # n = 1, 3 and 7 put a center row in the centrosymmetric samples
        spec = sparse_spec(kind, n, 0, sign_law, sign_pair_law)
        seeds = range(40, 45)
        samples = [sample(replace(spec, seed=s)) for s in seeds]
        want, scale = self.reference(samples, 8)
        chunk = chunk_of(spec, seeds)
        exact = unfolded(chunk, len(seeds))
        for k_max in range(1, 9):
            got = chunk_traces(chunk, len(seeds), n, k_max)
            self.assert_matches(got, want[:, :k_max], scale[:, :k_max], exact)
            for m, w, sc, ex in zip(samples, want, scale, exact):
                self.assert_matches(trace_powers(m, k_max)[None], w[None, :k_max], sc[None, :k_max], [ex])

    @staticmethod
    def chunk_where(spec, blocks, wanted):
        """The seeds and chunk of the first run of ``blocks`` consecutive
        seeds whose chunk has core rows in the blocks ``wanted`` and no other."""
        size = sample(spec).size
        for first in range(1000):
            seeds = range(first, first + blocks)
            chunk = chunk_of(spec, seeds)
            core = _core_rows(chunk.src, chunk.dst, chunk.size)
            if set(np.flatnonzero(core) // size) == wanted:
                return seeds, chunk
        raise AssertionError(f"no chunk with core rows in the blocks {wanted}")

    @pytest.mark.parametrize("wanted", [set(), {2}])
    @pytest.mark.parametrize("kind", ["iid", "block", "centrosymmetric"])
    def test_chunk_with_core_in_some_blocks(self, kind, wanted, sign_law, sign_pair_law):
        # a chunk whose core is empty, and one whose core lies in one block
        spec = sparse_spec(kind, 9, 0, sign_law, sign_pair_law)
        seeds, chunk = self.chunk_where(spec, 4, wanted)
        want, scale = self.reference([sample(replace(spec, seed=s)) for s in seeds], 8)
        for k_max in range(1, 9):
            got = chunk_traces(chunk, 4, 9, k_max)
            self.assert_matches(got, want[:, :k_max], scale[:, :k_max], unfolded(chunk, 4))

    @pytest.mark.parametrize("kind", SPARSE_MODELS)
    def test_replica_chunks_match_per_sample(self, kind, sign_law, sign_pair_law):
        # at n = 64 a chunk holds 125 replicas (62 for block), so 130 replicas
        # end in a short chunk
        spec = sparse_spec(kind, 64, 8, sign_law, sign_pair_law)
        samples = [sample(replace(spec, seed=spec.seed + r)) for r in range(1, 131)]
        want, scale = self.reference(samples, 8)
        got = _replica_traces(spec, 8, 130)
        self.assert_matches(got, want, scale, replicas_unfolded(spec, 130))
        # the kernel on a replica's own stored entries, bit for bit
        assert np.array_equal(got, np.array([trace_powers(m, 8) for m in samples]))


class TestReplicaBatches:
    """Groups of chunks, runs of chunks folded and multiplied together, and
    the products of their cores, against the per-chunk kernel of
    ``reference_sums.reference_chunk_traces``: bit for bit for k <= h on
    every replica in which no row was folded, and within 1e-12 Tr(|A|^k)
    for every k on every replica."""

    @staticmethod
    def record_batches(monkeypatch):
        """Wrap the group seeding and the kernel; the returned list gets
        ("group", seeds) per group and ("batch", chunks) per product batch."""
        events = []
        seed_states, batch_traces = estimator.seed_states, estimator._batch_traces

        def seeding(seeds):
            events.append(("group", len(seeds)))
            return seed_states(seeds)

        def batch(peeled, norm, k_max, out):
            events.append(("batch", len(peeled.loops)))
            return batch_traces(peeled, norm, k_max, out)

        monkeypatch.setattr(estimator, "seed_states", seeding)
        monkeypatch.setattr(estimator, "_batch_traces", batch)
        return events

    @staticmethod
    def assert_matches_reference(got, spec, k_max):
        m = len(got)
        want = reference_replica_traces(spec, k_max, m)
        scale = np.array([
            reference_trace_powers(abs(to_csr(sample(replace(spec, seed=spec.seed + r)).matrix)), spec.n, k_max)
            for r in range(1, m + 1)
        ])
        TestSparseBlockTraces.assert_matches(got, want, scale, replicas_unfolded(spec, m))

    @pytest.mark.parametrize("kind", SPARSE_MODELS)
    def test_short_last_group(self, kind, sign_law, sign_pair_law, monkeypatch):
        # at n = 500 a chunk holds 16 replicas (8 for block) and a group 8
        # chunks: 150 replicas end in a short group whose last chunk is short
        spec = sparse_spec(kind, 500, 3, sign_law, sign_pair_law)
        events = self.record_batches(monkeypatch)
        got = _replica_traces(spec, 6, 150)
        groups = [size for what, size in events if what == "group"]
        assert groups == ([64, 64, 22] if kind == "block" else [128, 22])
        self.assert_matches_reference(got, spec, 6)

    @pytest.mark.parametrize("kind", ["iid", "block", "centrosymmetric"])
    def test_group_cores_split_into_batches(self, kind, sign_law, sign_pair_law, monkeypatch):
        # a limit of two or three chunks' first-pass rows makes each group
        # run several batches of several chunks, with the traces of the
        # default runs bit for bit
        spec = sparse_spec(kind, 500, 4, sign_law, sign_pair_law)
        default = {k_max: _replica_traces(spec, k_max, 200) for k_max in (5, 6, 8)}
        monkeypatch.setattr(estimator, "BATCH_CORE_ROWS", 1000)
        events = self.record_batches(monkeypatch)
        for k_max in (5, 6, 8):
            events.clear()
            got = _replica_traces(spec, k_max, 200)
            batches = [size for what, size in events if what == "batch"]
            groups = len(events) - len(batches)
            assert max(batches) > 1 and len(batches) > groups
            assert np.array_equal(got, default[k_max]), k_max
            self.assert_matches_reference(got, spec, k_max)

    def test_elliptic_runs_of_whole_groups(self, sign_law, sign_pair_law, monkeypatch):
        # the elliptic samples are the ones the fold acts on: runs of up to
        # eight chunks, a whole group each, give the traces of the default
        # runs of two chunks bit for bit
        spec = sparse_spec("elliptic", 500, 4, sign_law, sign_pair_law)
        events = self.record_batches(monkeypatch)
        default = {k_max: _replica_traces(spec, k_max, 200) for k_max in (5, 6, 8)}
        assert max(size for what, size in events if what == "batch") < 8
        monkeypatch.setattr(estimator, "BATCH_CORE_ROWS", 10**6)
        for k_max in (5, 6, 8):
            events.clear()
            got = _replica_traces(spec, k_max, 200)
            assert [size for what, size in events if what == "batch"] == [8, 5]
            assert np.array_equal(got, default[k_max]), k_max

    @pytest.mark.parametrize("kind", ["iid", "block", "centrosymmetric"])
    def test_batch_with_empty_cores(self, kind, sign_law, sign_pair_law):
        # a run of chunks whose cores are empty, or lie in one block
        spec = sparse_spec(kind, 9, 0, sign_law, sign_pair_law)
        empty, one = (TestSparseBlockTraces.chunk_where(spec, 4, wanted)[1]
                      for wanted in (set(), {2}))
        for k_max in range(1, 9):
            for run in ([empty], [empty, empty], [empty, one, empty], [one, empty]):
                want = np.vstack([reference_chunk_traces(chunk, 4, 9, k_max) for chunk in run])
                exact = np.concatenate([unfolded(chunk, 4) for chunk in run])
                got = run_traces(run, 4, 9, k_max)
                assert np.array_equal(got[exact], want[exact])
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
                for chunk, rows in zip(run, np.split(got, len(run))):
                    assert np.array_equal(rows, chunk_traces(chunk, 4, 9, k_max))

    def test_elliptic_products_cover_few_rows(self, sign_pair_law, monkeypatch):
        # at N = 2000 about 63% of an elliptic chunk's rows lie on a 2-cycle,
        # but most of them in trees, which the fold takes off the products
        spec = sparse_spec("elliptic", 2000, 5, None, sign_pair_law)
        cores = []
        batch_traces = estimator._batch_traces

        def batch(peeled, norm, k_max, out):
            cores.append(peeled.core.size)
            return batch_traces(peeled, norm, k_max, out)

        monkeypatch.setattr(estimator, "_batch_traces", batch)
        got = _replica_traces(spec, 6, 32)
        assert sum(cores) < 0.1 * 32 * 2000
        monkeypatch.undo()
        self.assert_matches_reference(got, spec, 6)

    def test_group_holds_at_most_eight_chunks(self, sign_law, monkeypatch):
        # 100 replicas in chunks of 4 are groups of 32, 32, 32 and 4
        spec = sparse_spec("iid", 2000, 6, sign_law, None)
        events = self.record_batches(monkeypatch)
        _replica_traces(spec, 6, 100)
        groups = []
        for what, size in events:
            if what == "group":
                groups.append([size, 0])
            else:
                groups[-1][1] += size
        assert groups == [[32, 8], [32, 8], [32, 8], [4, 1]]

    def test_iid_group_is_one_csr_build(self, sign_law, monkeypatch):
        # 64 replicas at N = 2000 are 16 chunks in two groups, each group's
        # cores one batch, whose kernel builds one CSR core
        spec = sparse_spec("iid", 2000, 7, sign_law, None)
        events = self.record_batches(monkeypatch)
        got = _replica_traces(spec, 6, 64)
        assert len([what for what, _ in events if what == "batch"]) == 2
        monkeypatch.undo()
        self.assert_matches_reference(got, spec, 6)


def csr_of(size, entries):
    """A canonical CSR matrix from {(i, j): value}; a 0.0 value is stored."""
    rows, cols = zip(*entries) if entries else ((), ())
    data = list(entries.values())
    return sparse.coo_matrix((data, (rows, cols)), shape=(size, size)).tocsr()


def core_of(mat):
    """The rows of mat in the cyclic core of its off-diagonal stored entries."""
    chunk = of_csr(mat)
    return np.flatnonzero(_core_rows(chunk.src, chunk.dst, chunk.size)).tolist()


def off_diagonal_rows(mat):
    """The rows of mat with an off-diagonal stored entry."""
    coo = mat.tocoo()
    return sorted(set(coo.row[coo.row != coo.col].tolist()))


def between_cycles(mat):
    """Rows of mat reachable from a row on a directed cycle of its
    off-diagonal stored entries, and from which such a row is reachable (a
    row on a cycle is both), by boolean closure of the pattern."""
    coo = mat.tocoo()
    step = np.zeros(mat.shape, dtype=int)
    step[coo.row, coo.col] = 1
    np.fill_diagonal(step, 0)
    reach = step.copy()
    for _ in range(len(step)):
        reach = np.minimum(reach + reach @ step, 1)
    cyclic = np.diag(reach) == 1
    into = reach[cyclic].any(axis=0) | cyclic
    out_of = reach[:, cyclic].any(axis=1) | cyclic
    return np.flatnonzero(into & out_of).tolist()


def integer_traces(size, entries, k_max):
    """[Tr(A^k) for k = 1..k_max] of the size x size matrix {(i, j): value}
    of integers, by Python-int matrix powers: exact."""
    mat = [[0] * size for _ in range(size)]
    for (i, j), value in entries.items():
        mat[i][j] = value
    power, out = mat, []
    for _ in range(k_max):
        out.append(sum(power[i][i] for i in range(size)))
        power = [[sum(power[i][m] * mat[m][j] for m in range(size)) for j in range(size)]
                 for i in range(size)]
    return out


def integer_chunk(size, blocks):
    """The SparseChunk of the block-diagonal matrix whose blocks are the
    integer matrices ``blocks`` ({(i, j): value}, each size x size), every
    entry stored, 0 included."""
    src, dst, val, diag_at, diag = [], [], [], [], []
    for b, entries in enumerate(blocks):
        for (i, j), value in sorted(entries.items()):
            if i == j:
                diag_at.append(b * size + i)
                diag.append(float(value))
            else:
                src.append(b * size + i)
                dst.append(b * size + j)
                val.append(float(value))
    src, dst, diag_at = (np.array(x, dtype=np.intp) for x in (src, dst, diag_at))
    return SparseChunk(size * len(blocks), src, dst, np.array(val), diag_at, np.array(diag))


@st.composite
def integer_blocks(draw):
    """(size, blocks) for a chunk of small integer matrices: 2-cycles, which
    the fold takes, edges one way, and diagonal entries, 0 among the values."""
    size = draw(st.integers(1, 7))
    rows, values = st.integers(0, size - 1), st.integers(-3, 3)
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        entries = {}
        for i, j, a, b in draw(st.lists(st.tuples(rows, rows, values, values), max_size=8)):
            if i != j:
                entries[i, j], entries[j, i] = a, b
        for i, j, a in draw(st.lists(st.tuples(rows, rows, values), max_size=4)):
            entries[i, j] = a
        diagonal = draw(st.dictionaries(rows, values, max_size=size))
        entries.update({(i, i): a for i, a in diagonal.items()})
        blocks.append(entries)
    return size, blocks


class TestFoldExact:
    """The kernel on integer matrices, where float arithmetic is exact,
    against Python-int matrix powers: the peel, the fold and the Newton
    sums of the pivot series leave every trace exact, for every k_max."""

    @staticmethod
    def check(size, blocks):
        """Check the traces; return the rows the kernel multiplies."""
        chunk = integer_chunk(size, blocks)
        want = np.array([integer_traces(size, entries, 8) for entries in blocks], dtype=float)
        for k_max in range(1, 9):
            assert np.array_equal(chunk_traces(chunk, len(blocks), 1, k_max), want[:, :k_max]), k_max
        return _fold([_peel(chunk, size)], 8).rows.tolist()

    @settings(max_examples=150, deadline=None)
    @given(integer_blocks())
    def test_random_integer_chunks(self, case):
        self.check(*case)

    def test_mutual_pairs(self):
        # 0 <-> 1 and 2 <-> 3, each row the other's only neighbour: the higher
        # folds, the lower is left with no edge
        assert self.check(4, [{(0, 1): 2, (1, 0): -3, (2, 3): 1, (3, 2): 1, (0, 0): 1, (1, 1): 2, (3, 3): -1}]) == []

    def test_pendant_chains(self):
        # the paths 0 - 1 - 2 - 3 - 4 and 5 - 6 of 2-cycles fold end by end
        entries = {(i, i + 1): i + 1 for i in range(4)} | {(i + 1, i): -1 for i in range(4)}
        entries |= {(5, 6): 3, (6, 5): 2, (2, 2): 1, (4, 4): -2, (6, 6): 1}
        assert self.check(7, [entries]) == []

    def test_pendant_tree_on_a_cycle_goes_back(self):
        # the directed 3-cycle 0 -> 1 -> 2 -> 0 holds a tree of 2-cycles:
        # 3 on 0, and 4, 5 on 3; every fold goes back to the core
        entries = {(0, 1): 1, (1, 2): 2, (2, 0): -1, (3, 0): 1, (0, 3): 2,
                   (4, 3): -1, (3, 4): 1, (5, 3): 2, (3, 5): 3, (3, 3): 1, (5, 5): -1}
        assert self.check(6, [entries]) == list(range(6))

    def test_row_left_with_out_edges_after_folds(self):
        # 1 folds into 0, which is then left with its edge out to the cycle
        # 2 -> 3 -> 4 -> 2 alone
        entries = {(0, 1): 2, (1, 0): 1, (0, 2): 3, (2, 3): 1, (3, 4): 1, (4, 2): -2,
                   (0, 0): 1, (1, 1): -1, (2, 2): 2}
        assert self.check(5, [entries]) == list(range(5))

    def test_row_absorbs_folds_then_leaves(self):
        # 1 and 2 fold into 0, which then has no edge left and leaves with
        # its series beside a block whose core is a 3-cycle
        star = {(0, 1): 2, (1, 0): -1, (0, 2): 1, (2, 0): 3, (0, 0): 1, (1, 1): 2, (2, 2): -1}
        cycle = {(0, 1): 1, (1, 2): 1, (2, 0): 2, (1, 1): -1}
        assert self.check(3, [star, cycle, star]) == [3, 4, 5]

    def test_stored_zero_values(self):
        assert self.check(4, [{(0, 1): 0, (1, 0): 2, (1, 2): 0, (2, 1): 0, (2, 2): 0, (3, 3): 0, (0, 0): 1}]) == []

    def test_empty_cores(self):
        # a DAG and a diagonal: no core, so nothing to fold or multiply
        assert self.check(4, [{(0, 1): 1, (1, 2): 2, (0, 3): -1, (2, 2): 3}, {(i, i): i - 1 for i in range(4)}]) == []


def same_bits(got, want):
    """Whether two float arrays agree bit for bit, the sign of 0 included."""
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def both_kernels(peeled, norm, k_max):
    """The traces of ``peeled`` by the kernel and by its scipy reference."""
    blocks = sum(map(len, peeled.loops)) // peeled.size
    got, want = np.empty((blocks, k_max)), np.empty((blocks, k_max))
    _batch_traces(peeled, norm, k_max, got)
    reference_batch_traces(peeled, norm, k_max, want)
    return got, want


def with_values(chunk, rng):
    """``chunk`` with non-integer values, a tenth of them stored 0.0."""
    def values(count):
        return rng.normal(size=count) * (rng.random(count) > 0.1)
    return chunk._replace(val=values(len(chunk.val)), diag=values(len(chunk.diag)))


def whole_core(mat):
    """A run of one sample whose core is every row of ``mat``, nothing
    peeled or folded, so that the kernel multiplies ``mat`` itself."""
    n = mat.shape[0]
    return _Peeled(n, np.arange(n), of_csr(mat), [np.zeros(n)])


def stored(power, mat):
    """Whether the kernel's ``power`` holds the entries of the canonical
    scipy CSR ``mat``, by row and column and by position in ``place``."""
    n = mat.shape[0]
    rows = np.repeat(np.arange(n), np.diff(mat.indptr))
    return (np.array_equal(power.ptr, mat.indptr) and np.array_equal(power.row, rows)
            and np.array_equal(power.col, mat.indices) and same_bits(power.val, mat.data)
            and np.array_equal(power.place, rows * n + mat.indices))


@st.composite
def square_pairs(draw):
    """(A, B): two canonical CSR matrices of one size, 0 to 8, of values that
    cancel to exactly 0 in sums, non-integer values, and stored 0.0."""
    n = draw(st.integers(0, 8))
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                       st.floats(-4, 4, allow_nan=False, allow_infinity=False))
    cells = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    return tuple(csr_of(n, draw(st.dictionaries(cells, values, max_size=3 * n))) for _ in range(2))


class TestScipyKernel:
    """The kernel's numpy products and pairings against scipy's, bit for
    bit: ``reference_sums.reference_batch_traces`` is the kernel with the
    core as a scipy CSR matrix, its powers by ``@`` with sorted indices and
    its pairings by ``multiply`` with each transpose."""

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 500])
    @pytest.mark.parametrize("kind", SPARSE_MODELS)
    def test_folded_runs(self, kind, n, sign_law, sign_pair_law):
        # runs of two chunks of four samples, with the law's values and with
        # non-integer ones, whose sums depend on their order
        spec = sparse_spec(kind, n, 0, sign_law, sign_pair_law)
        rng = np.random.default_rng(n)
        chunks = [chunk_of(spec, range(40, 44)), chunk_of(spec, range(44, 48))]
        for run in (chunks, [with_values(chunk, rng) for chunk in chunks]):
            for k_max in range(1, 9):
                peeled = _fold([_peel(chunk, chunk.size // 4) for chunk in run], k_max)
                got, want = both_kernels(peeled, n, k_max)
                assert same_bits(got, want), k_max

    @pytest.mark.parametrize("kind", ["iid", "block", "centrosymmetric"])
    def test_empty_cores(self, kind, sign_law, sign_pair_law):
        spec = sparse_spec(kind, 9, 0, sign_law, sign_pair_law)
        empty, one = (TestSparseBlockTraces.chunk_where(spec, 4, wanted)[1] for wanted in (set(), {2}))
        for k_max in range(1, 9):
            for run in ([empty], [empty, one], [one, empty, one]):
                peeled = _fold([_peel(chunk, 9) for chunk in run], k_max)
                got, want = both_kernels(peeled, 9, k_max)
                assert same_bits(got, want), k_max

    @settings(max_examples=200, deadline=None)
    @given(square_pairs())
    def test_products_store_as_scipy(self, pair):
        a, b = pair
        n = a.shape[0]
        right = _csr(of_csr(b))
        assert stored(right, b)
        # scipy's product of canonical operands sums each entry in ascending
        # inner index and stores no exact zero, as the kernel's does
        power, want = _csr(of_csr(a)), a
        for _ in range(3):
            power, want = _product(power, right, n), (want @ b).sorted_indices()
            assert stored(power, want)

    @settings(max_examples=200, deadline=None)
    @given(square_pairs())
    def test_traces_of_whole_cores(self, pair):
        if not pair[0].shape[0]:
            return  # a 0 x 0 matrix is no sample
        for mat in pair:
            for k_max in range(1, 9):
                got, want = both_kernels(whole_core(mat), 1, k_max)
                assert same_bits(got, want), k_max

    def test_pairings_with_sorted_and_unsorted_left(self):
        # the powers of a 3-cycle hold one entry a row, so scipy stores them
        # canonical; loops on the cycle make scipy store the rows of its
        # powers unsorted, and the reference sorts them
        cycle = {(0, 1): 0.1, (1, 2): 0.7, (2, 0): -1.3}
        for entries, canonical in ((cycle, True), ({**cycle, (0, 0): 0.3, (1, 1): -0.6, (2, 2): 0.9}, False)):
            mat = csr_of(3, entries)
            assert (mat @ mat).has_sorted_indices == canonical
            for k_max in range(1, 9):
                got, want = both_kernels(whole_core(mat), 3, k_max)
                assert same_bits(got, want), k_max

    def test_empty_products(self):
        # a 3-cycle of stored zeros: every product sums to 0 and stores
        # nothing, and a trace of stored -0.0 entries is 0.0
        mat = csr_of(3, {(0, 1): 0.0, (1, 2): -0.0, (2, 0): 0.0, (1, 1): -0.0})
        assert _product(_csr(of_csr(mat)), _csr(of_csr(mat)), 3).ptr.tolist() == [0, 0, 0, 0]
        for mat in (mat, csr_of(1, {(0, 0): -0.0})):
            for k_max in range(1, 9):
                got, want = both_kernels(whole_core(mat), 3, k_max)
                assert same_bits(got, want) and not got.any()

    def test_integer_csr(self):
        # an int-valued CSR matrix with a 2-cycle, which the fold takes, and
        # a 3-cycle: exact integers, taken as float64 by the kernel
        mat = sparse.csr_matrix(np.array([[1, 2, 0, 0, 0], [-3, 0, 1, 0, 0], [0, 0, 2, 4, 0],
                                          [0, 0, 0, -1, 5], [0, 0, 1, 0, 3]]))
        assert mat.dtype.kind == "i"
        m = MatrixSample("iid", 5, 5, of_csr(mat))
        for k_max in range(1, 9):
            assert np.array_equal(trace_powers(m, k_max), reference_trace_powers(mat, 5, k_max)), k_max

    @pytest.mark.parametrize("bound", [1000, 1 << 62])
    def test_sorted_is_a_stable_argsort(self, bound):
        # a bound too wide to pack a key with its index falls back to numpy's
        # stable argsort
        keys = np.random.default_rng(5).integers(0, 1000, 5000) * (bound // 1000)
        got, order = _sorted(keys, bound)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert np.array_equal(got, np.sort(keys))


class TestCyclicCore:
    """The peel's row mask on hand-built patterns, the kernel on them against
    sequential products, and the identity the kernel rests on, bit for bit."""

    @staticmethod
    def check(mat, blocks=1, k_max=8):
        """The core rows of mat, after checking the kernel against sequential
        products per block, and that the powers of the core rows' submatrix
        A_C, relabelled in order, have the diagonals and the paired entries
        (A^a)_ij (A^b)_ji of the powers of mat on the core rows, in the same
        stored order, while every other row's are the running powers of its
        loop."""
        size = mat.shape[0] // blocks
        want, scale = [], []
        for b in range(blocks):
            block = mat[b * size : (b + 1) * size, b * size : (b + 1) * size]
            want.append(reference_trace_powers(block, 1, k_max))
            scale.append(reference_trace_powers(abs(block), 1, k_max))
        chunk = of_csr(mat)
        for k in range(1, k_max + 1):
            TestSparseBlockTraces.assert_matches(
                chunk_traces(chunk, blocks, 1, k), np.array(want)[:, :k], np.array(scale)[:, :k],
                unfolded(chunk, blocks),
            )
        core = core_of(mat)
        rest = np.setdiff1d(np.arange(mat.shape[0]), core)
        compact = mat[core][:, core]
        powers = [(mat, compact)]
        for _ in range(k_max - 1):
            powers.append((powers[-1][0] @ mat, powers[-1][1] @ compact))
        loop = [mat.diagonal()]
        for full, peeled in powers:
            assert np.array_equal(full.diagonal()[core], peeled.diagonal())
            assert np.array_equal(full.diagonal()[rest], loop[-1][rest])
            loop.append(loop[-1] * loop[0])
        for a, b in zip(range(k_max), [*range(1, k_max), 0]):
            (full_a, peeled_a), (full_b, peeled_b) = powers[a], powers[b]
            full, peeled = full_a.multiply(full_b.T)[core], peeled_a.multiply(peeled_b.T)
            assert np.array_equal(full.indptr, peeled.indptr)
            assert np.array_equal(full.indices, np.array(core, dtype=int)[peeled.indices])
            assert np.array_equal(full.data, peeled.data)
            want_rest = np.zeros((len(rest), mat.shape[0]))
            want_rest[np.arange(len(rest)), rest] = loop[a][rest] * loop[b][rest]
            assert np.array_equal(full_a.multiply(full_b.T)[rest].toarray(), want_rest)
        return core

    def test_dag_plus_diagonal_is_its_loops(self):
        d = np.array([2.0, -1.5, 0.5, 3.0])
        mat = csr_of(4, {(0, 1): 1.0, (0, 2): -2.0, (1, 3): 4.0, (2, 3): 0.5,
                         **{(i, i): v for i, v in enumerate(d)}})
        assert self.check(mat) == []
        for k in range(1, 9):
            assert chunk_traces(of_csr(mat), 1, 1, k)[0, -1] == np.sum(d**k)

    def test_cycle_with_tails_keeps_the_cycle(self):
        # 0 -> 1 -> 2 -> 0 is the cycle; 3 -> 0 an in-tail, 2 -> 4 -> 5 an out-tail
        mat = csr_of(6, {(0, 1): 1.0, (1, 2): -2.0, (2, 0): 0.5, (3, 0): 3.0,
                         (2, 4): 1.5, (4, 5): -1.0, (0, 0): 0.25, (3, 3): -2.0,
                         (5, 5): 1.5, (4, 4): 0.75})
        assert self.check(mat) == [0, 1, 2]

    def test_two_cycle(self):
        # 0 <-> 2, with row 1 feeding row 0
        mat = csr_of(3, {(0, 2): 1.5, (2, 0): -0.5, (1, 0): 4.0, (1, 1): 2.0, (2, 2): 1.0})
        assert self.check(mat) == [0, 2]

    def test_explicit_zero_diagonal(self):
        mat = csr_of(4, {(0, 0): 0.0, (1, 1): 0.0, (2, 2): -1.0, (0, 1): 2.0,
                         (1, 0): 1.0, (1, 3): 1.0, (3, 3): 0.0})
        assert mat.nnz == 7
        assert self.check(mat) == [0, 1]

    def test_block_with_core_beside_block_without(self):
        cycle = {(0, 1): 1.0, (1, 0): -1.0, (1, 1): 0.5, (2, 2): 2.0, (1, 2): 3.0}
        dag = {(3, 4): 1.0, (4, 5): 2.0, (3, 3): -1.0, (5, 5): 0.5}
        assert self.check(csr_of(6, {**cycle, **dag}), blocks=2) == [0, 1]

    def test_nothing_peeled_keeps_the_chunk(self):
        # every row with an off-diagonal entry has one in and one out, and the
        # rows with their loop alone stay off the core: one round peels nothing
        for mat in (csr_of(3, {(0, 1): 1.0, (1, 0): 2.0, (2, 2): 1.0}),
                    csr_of(4, {(i, i): 1.0 + i for i in range(4)}),
                    csr_of(3, {(0, 1): 1.0, (1, 2): 2.0, (2, 0): -1.0, (0, 2): 0.5})):
            assert self.check(mat) == off_diagonal_rows(mat)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_core_against_brute_force_cycles(self, n):
        rng = np.random.default_rng(n)
        for trial in range(60):
            density = rng.uniform(0.05, 0.5)
            pattern = rng.random((n, n)) < density
            values = rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], size=(n, n))
            mat = csr_of(n, {(i, j): values[i, j] for i, j in zip(*np.nonzero(pattern))})
            assert self.check(mat) == between_cycles(mat), (n, trial)


class TestCirculantPowerSums:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 16, 511, 512])
    def test_half_spectrum_equals_full_spectrum(self, n):
        # rows: two Gaussian generators and one sparse generator of +-sqrt(N) spikes
        spikes = np.zeros(n)
        spikes[[0, n // 3, n - 1]] = np.sqrt(n) * np.array([1.0, -1.0, 1.0])
        x = np.vstack([np.random.default_rng(n).standard_normal((2, n)), spikes])
        lam = circulant_eigenvalues(x)
        powers = lam[..., None] ** np.arange(1, 9)
        want = powers.sum(axis=-2).real / n
        # relative to sum |lambda|^k / N, the size of the summands of an odd k
        scale = np.abs(powers).sum(axis=-2) / n
        got = _circulant_power_sums(x, 8)
        assert got.shape == (3, 8)
        assert (np.abs(got - want) <= 1e-12 * scale).all()
        for row in range(3):
            one = _circulant_power_sums(x[row], 8)
            assert (np.abs(one - want[row]) <= 1e-12 * scale[row]).all()


class TestRunExperiment:
    def test_deterministic(self, sign_law):
        spec = EnsembleSpec(kind="circulant", n=32, law=sign_law, seed=5)
        a = run_experiment(spec, 3, 60)
        b = run_experiment(spec, 3, 60)
        assert np.array_equal(a.traces, b.traces)
        assert np.array_equal(a.cov_z, b.cov_z)
        assert np.array_equal(a.se_cov, b.se_cov)

    def test_circulant_batch_matches_per_replica(self, sign_law):
        # the batched FFT path must reproduce the one-sample path exactly
        spec = EnsembleSpec(kind="circulant", n=16, law=sign_law, seed=9)
        stats = run_experiment(spec, 4, 12)
        for i in range(12):
            one = trace_powers(sample(replace(spec, seed=spec.seed + 1 + i)), 4)
            assert np.array_equal(stats.traces[i], one), i

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_circulant_rows_do_not_depend_on_chunks(self, rows, sign_law, monkeypatch):
        # chunks of 1, 3 and 7 replicas give each replica the traces of the
        # default chunk and of the one-sample path, bit for bit
        specs = [EnsembleSpec(kind="circulant", n=64, law=law, seed=11) for law in (sign_law, GaussianLaw())]
        default = [_replica_traces(spec, 6, 20) for spec in specs]
        monkeypatch.setattr(estimator, "CIRCULANT_CHUNK_ENTRIES", 64 * rows)
        for spec, want in zip(specs, default):
            got = _replica_traces(spec, 6, 20)
            assert np.array_equal(got, want)
            for i, row in enumerate(got):
                assert np.array_equal(row, trace_powers(sample(replace(spec, seed=spec.seed + 1 + i)), 6)), i

    def test_circulant_rows_across_chunks_are_the_seeded_draws(self, sign_law, monkeypatch):
        # at N = 4096 a chunk holds 64 replicas: 1000 replicas take sixteen
        # chunks, and one of them crosses seed 2^32
        from explodingmoments import estimator

        drawn = []

        def spy(law, n, rngs, out):
            rows = sample_circulant_generator(law, n, rngs, out)
            # a copy in draw order: the next chunk is drawn into the same buffer
            drawn.append(in_draw_order(rows, len(rngs)))
            return rows

        monkeypatch.setattr(estimator, "sample_circulant_generator", spy)
        spec = EnsembleSpec(kind="circulant", n=4096, law=sign_law, seed=2**32 - 600)
        run_experiment(spec, 2, 1000, bootstrap_resamples=2)
        per_chunk = estimator.CIRCULANT_CHUNK_ENTRIES // 4096
        full, rest = divmod(1000, per_chunk)
        assert [len(rows) for rows in drawn] == [per_chunk] * full + [rest]
        for i, row in enumerate(np.vstack(drawn)):
            one = sample(replace(spec, seed=spec.seed + 1 + i))
            assert np.array_equal(row, one.generator_values), i

    # q = 1/8 at N = 64: a replica is active with probability 1 - (1 - 1/512)^64,
    # about 12%, and a chunk of 8 has no active replica with probability 0.36
    RARE = SparseScalarLaw(activation=Fraction(1, 8), atoms=((-2, Fraction(2, 3)), (4, Fraction(1, 3))))

    @pytest.mark.parametrize("threads", [1, 3])
    def test_circulant_chunks_reuse_buffers(self, threads, sign_law, monkeypatch):
        # chunks of 8 replicas at N = 64, the last of 5: each chunk is drawn
        # into its thread's buffer, whose rows the previous chunk left, and
        # sums only its active rows.  Every replica still has the traces of
        # the one-sample path, bit for bit, and an all-zero one reads +0.0
        calls = []

        def spy(law, n, rngs, out):
            rows = sample_circulant_generator(law, n, rngs, out)
            calls.append((out, len(rngs), rows.drawn.tolist()))
            return rows

        monkeypatch.setattr(estimator, "sample_circulant_generator", spy)
        monkeypatch.setattr(estimator, "CIRCULANT_CHUNK_ENTRIES", 64 * 8)
        for law in (sign_law, self.RARE, GaussianLaw()):
            calls.clear()
            spec = EnsembleSpec(kind="circulant", n=64, law=law, seed=17)
            got = _replica_traces(spec, 6, 45, threads)
            assert sorted(count for _out, count, _drawn in calls) == [5] + [8] * 5
            for i, row in enumerate(got):
                want = trace_powers(sample(replace(spec, seed=spec.seed + 1 + i)), 6)
                assert row.tobytes() == want.tobytes(), (law, i)
            active = [drawn for _out, _count, drawn in calls]
            if law is self.RARE:
                # a chunk with no active replica, and chunks with some
                assert [] in active and any(active)
            elif law is sign_law:
                # consecutive chunks with different active rows
                assert len({tuple(drawn) for drawn in active}) > 1
                assert all(0 < len(drawn) < 8 for drawn in active[:5])
            zero = [i for i, row in enumerate(got) if not row.any()]
            assert bool(zero) == (not isinstance(law, GaussianLaw))
            for i in zero:
                assert got[i].tolist() == [0.0] * 6 and not np.signbit(got[i]).any()
            buffers = {id(out) for out, _count, _drawn in calls}
            assert len(buffers) == 1 if threads == 1 else len(buffers) <= threads

    def test_circulant_replica_memory_is_a_few_chunks(self, sign_law):
        # 8000 replicas at N = 512 hold 4 * 10^6 generator entries; one chunk
        # of that size keeps some 100 MB of spectrum and power temporaries.
        # numpy reports its buffers to tracemalloc
        import tracemalloc

        from explodingmoments.estimator import CIRCULANT_CHUNK_ENTRIES

        spec = EnsembleSpec(kind="circulant", n=512, law=sign_law, seed=7)
        m, k_max = 8000, 6
        tracemalloc.start()
        try:
            traces = _replica_traces(spec, k_max, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traces.shape == (m, k_max)
        assert peak < 8 * CIRCULANT_CHUNK_ENTRIES * 8 + m * k_max * 8

    def test_covariance_symmetric_and_psd(self, sign_pair_law):
        spec = EnsembleSpec(kind="elliptic", n=80, law=sign_pair_law, seed=3)
        stats = run_experiment(spec, 3, 300)
        assert np.array_equal(stats.cov_z, stats.cov_z.T)
        eigs = np.linalg.eigvalsh(stats.cov_z)
        assert eigs.min() >= -1e-10

    def test_mean_tracks_exact_oracle(self, sign_pair_law):
        n = 200
        spec = EnsembleSpec(kind="elliptic", n=n, law=sign_pair_law, seed=21)
        stats = run_experiment(spec, 4, 400)
        table = exact_table("elliptic", sign_pair_law, (n,), 4)[n]
        for k in (2, 4):
            exact = float(table[(k, None)])
            se = stats.se_mean[k - 1]
            assert abs(stats.mean_traces[k - 1] - exact) <= 4 * se

    def test_bootstrap_se_shrinks_with_replicas(self, sign_law):
        spec = EnsembleSpec(kind="circulant", n=64, law=GaussianLaw(), seed=2)
        small = run_experiment(spec, 2, 400)
        big = run_experiment(spec, 2, 800)
        ratio = big.se_cov[1, 1] / small.se_cov[1, 1]
        assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.25)

    def test_replicate_guard(self, sign_law):
        spec = EnsembleSpec(kind="circulant", n=8, law=sign_law, seed=1)
        with pytest.raises(ValueError):
            run_experiment(spec, 2, 1)

    def test_thread_count_does_not_change_results(self, sign_law, sign_pair_law, monkeypatch):
        # 300 replicas at n = 500 span three groups of 16-replica chunks
        # (five of 8-replica chunks for block); 100 elliptic replicas at
        # N = 2000 are four groups, whose chunks are folded two at a time;
        # 200 circulant replicas at N = 4096 are three chunks of 64 and one of 8
        cases = [(sparse_spec(kind, 500, 6, sign_law, sign_pair_law), 300) for kind in SPARSE_MODELS]
        cases.append((sparse_spec("elliptic", 2000, 6, sign_law, sign_pair_law), 100))
        cases += [(EnsembleSpec(kind="circulant", n=4096, law=law, seed=6), 200)
                  for law in (sign_law, GaussianLaw())]
        for spec, m in cases:
            monkeypatch.delenv(THREADS_ENV, raising=False)
            base = run_experiment(spec, 6, m)
            for threads in ("1", "2", "3"):
                monkeypatch.setenv(THREADS_ENV, threads)
                threaded = run_experiment(spec, 6, m)
                assert np.array_equal(base.traces, threaded.traces), (spec, threads)

    def test_one_row_replicas_grow_memory_little(self):
        # 70,000 one-row replicas: chunks of at most CHUNK_SAMPLES replicas
        # keep a group's seeding pass and generators small, and the traces
        # are written straight to the (70,000, 6) output, itself 3.4 MB.  A
        # group of 64,000 seeds in one pass grew peak RSS by 24.5 MB
        code = """
import resource
from explodingmoments.ensembles import EnsembleSpec
from explodingmoments.estimator import _replica_traces
from explodingmoments.profiles import sign_scalar_law
law = sign_scalar_law()
_replica_traces(EnsembleSpec(kind="iid", n=1, law=law, seed=1), 6, 10)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
_replica_traces(EnsembleSpec(kind="iid", n=1, law=law, seed=3), 6, 70000)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
        assert int(proc.stdout) < 8 * 1024  # ru_maxrss is in kB on Linux

    @pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-2", " 2"])
    def test_malformed_thread_count_is_rejected(self, raw, sign_law, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, raw)
        spec = EnsembleSpec(kind="iid", n=8, law=sign_law, seed=1)
        with pytest.raises(ValueError, match=f"{THREADS_ENV} must be a positive integer"):
            run_experiment(spec, 2, 5)


class TestBootstrapAgainstLoop:
    """The weighted bootstrap pass against the per-resample gather loop of
    ``reference_sums.reference_aggregate_stats``."""

    MODELS = {
        "circulant-sign": ("circulant", 24),
        "circulant-light": ("circulant", 24),
        "elliptic": ("elliptic", 12),
        "block": ("block", 6),
    }

    @staticmethod
    def assert_same(spec, traces, resamples):
        got = aggregate_stats(spec, traces, resamples)
        ref = reference_aggregate_stats(spec, traces, resamples)
        for field in ("mean_traces", "se_mean", "cov_z", "zmoment4"):
            assert np.array_equal(getattr(got, field), getattr(ref, field), equal_nan=True)
        # the summation order changed, so the SEs agree to rounding: relative
        # to the SE, and relative to the statistic itself, which an SE of two
        # nearly equal resamples (B = 2) can sit far below
        diag = np.diag(ref.cov_z)
        for field, scale in (
            ("se_cov", np.sqrt(np.outer(diag, diag))),
            ("se_zmoment4", ref.zmoment4),
        ):
            g, r = getattr(got, field), getattr(ref, field)
            close = np.abs(g - r) <= 1e-12 * (np.abs(r) + scale)
            assert (close | np.isnan(g) & np.isnan(r)).all(), (field, g, r)
        return got, ref

    @pytest.mark.parametrize("m", [2, 3, 50, 2000])
    @pytest.mark.parametrize("model", list(MODELS))
    def test_matches_loop(self, model, m, sign_law, sign_pair_law):
        kind, n = self.MODELS[model]
        law = {"circulant-sign": sign_law, "circulant-light": GaussianLaw()}.get(
            model, sign_pair_law
        )
        spec = EnsembleSpec(kind=kind, n=n, law=law, seed=7)
        traces = _replica_traces(spec, 6, m)
        for k in (1, 3, 6):
            for resamples in (2, 200):
                self.assert_same(spec, traces[:, :k], resamples)

    def test_constant_column(self):
        # 0.1 has no exact mean in floating point, so both SEs are rounding
        # residues, not zero
        spec = EnsembleSpec(kind="circulant", n=24, law=GaussianLaw(), seed=3)
        traces = np.random.default_rng(3).standard_normal((20000, 3))
        traces[:, 1] = 0.1
        got, ref = self.assert_same(spec, traces, 200)
        for g, r in ((got.se_cov[1], ref.se_cov[1]), (got.se_zmoment4[1], ref.se_zmoment4[1])):
            assert np.isfinite(g).all()
            np.testing.assert_allclose(g, r, rtol=0, atol=1e-12)

    def test_count_chunks(self):
        # M = 7000 splits the 200 resamples into count chunks of 71, 71 and 58
        spec = EnsembleSpec(kind="circulant", n=24, law=GaussianLaw(), seed=5)
        self.assert_same(spec, np.random.default_rng(5).standard_t(5, (7000, 2)), 200)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_row(self, sign_law):
        spec = EnsembleSpec(kind="circulant", n=24, law=sign_law, seed=3)
        traces = _replica_traces(spec, 3, 50)
        traces[17, 2] = np.inf
        got, ref = self.assert_same(spec, traces, 200)
        for stats in (got, ref):
            assert np.isnan(stats.se_cov[2]).all() and np.isnan(stats.se_zmoment4[2])
            assert np.isfinite(stats.se_cov[:2, :2]).all()


class TestCompareReport:
    def _stats(self, sign_law):
        spec = EnsembleSpec(kind="circulant", n=16, law=sign_law, seed=4)
        return run_experiment(spec, 2, 50)

    def test_exact_match_passes(self, sign_law):
        stats = self._stats(sign_law)
        emp = Fraction(stats.mean_traces[0]).limit_denominator(10**12)
        rows = compare_report(stats, [(1, None, emp)])
        assert rows[0].passed and abs(rows[0].zscore) < 1e-6

    def test_degenerate_zero_se_guard(self, sign_law):
        stats = self._stats(sign_law)
        stats.se_mean[0] = 0.0
        rows = compare_report(stats, [(1, None, Fraction(10))])
        assert rows[0].zscore is None
        assert not rows[0].passed
        assert "degenerate-zero-se" in rows[0].note

    def test_oracle_discrepancy_noted(self, sign_law):
        stats = self._stats(sign_law)
        rows = compare_report(
            stats,
            [(2, 2, Fraction(2))],
            oracle={(2, 2): Fraction(12, 5)},
        )
        assert rows[0].oracle == Fraction(12, 5)
        assert "oracle-differs-from-prediction" in rows[0].note

    def test_csv_columns(self, sign_law):
        stats = self._stats(sign_law)
        rows = compare_report(stats, [(1, None, Fraction(0)), (2, 2, Fraction(2))])
        text = rows_to_csv([row.as_record() for row in rows])
        header = text.splitlines()[0]
        assert header == "k,l,predicted,oracle,empirical,stderr,zscore,pass,note"
        assert len(text.splitlines()) == 3
