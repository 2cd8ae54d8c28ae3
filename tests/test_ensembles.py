import hashlib
import operator
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from explodingmoments.ensembles import (
    EnsembleSpec,
    GaussianLaw,
    MatrixSample,
    _decode_upper_pairs,
    _distinct_uniform,
    _draw_table,
    circulant_eigenvalues,
    is_centrosymmetric,
    replica_generators,
    sample,
    sample_circulant_generator,
    sample_sparse_blocks,
    sparse_size,
    weaver_reduce,
)
from explodingmoments.profiles import (
    SparsePairLaw,
    SparseScalarLaw,
    design_correlated_sign_law,
    sign_scalar_law,
)
from reference_sums import reference_circulant_generator


def dense_of(spec):
    s = sample(spec)
    return s.dense()


class TestSpecValidation:
    def test_law_kind_mismatch(self, sign_pair_law, sign_law):
        with pytest.raises(ValueError):
            EnsembleSpec(kind="circulant", n=8, law=sign_pair_law, seed=0)
        with pytest.raises(ValueError):
            EnsembleSpec(kind="elliptic", n=8, law=sign_law, seed=0)

    def test_unknown_kind(self, sign_law):
        with pytest.raises(ValueError):
            EnsembleSpec(kind="toeplitz", n=8, law=sign_law, seed=0)

    def test_gaussian_size_guard(self):
        with pytest.raises(ValueError):
            EnsembleSpec(kind="iid", n=5000, law=GaussianLaw(), seed=0)


class TestReproducibility:
    @pytest.mark.parametrize("kind", ["elliptic", "iid", "block", "centrosymmetric", "circulant"])
    def test_same_spec_same_sample(self, kind, sign_pair_law, sign_law):
        law = sign_pair_law if kind in ("elliptic", "block") else sign_law
        spec = EnsembleSpec(kind=kind, n=24, law=law, seed=77)
        a, b = sample(spec), sample(spec)
        if a.matrix is None:
            assert np.array_equal(a.generator_values, b.generator_values)
        elif sparse.issparse(a.matrix):
            assert (a.matrix != b.matrix).nnz == 0
        else:
            assert np.array_equal(a.matrix, b.matrix)

    def test_different_seeds_differ(self, sign_law):
        a = sample(EnsembleSpec(kind="circulant", n=64, law=sign_law, seed=1))
        b = sample(EnsembleSpec(kind="circulant", n=64, law=sign_law, seed=2))
        assert not np.array_equal(a.generator_values, b.generator_values)


class TestStructuralInvariants:
    def test_circulant_structure(self, sign_law):
        spec = EnsembleSpec(kind="circulant", n=9, law=sign_law, seed=5)
        s = sample(spec)
        d = s.dense()
        x = s.generator_values
        for i in range(9):
            for j in range(9):
                assert d[i, j] == pytest.approx(x[(i - j) % 9] / 3.0)

    @pytest.mark.parametrize("n", [8, 9])
    def test_centrosymmetric_structure(self, n, sign_law):
        d = dense_of(EnsembleSpec(kind="centrosymmetric", n=n, law=sign_law, seed=11))
        assert is_centrosymmetric(d)

    def test_elliptic_rho_one_is_symmetric(self):
        law = design_correlated_sign_law(1)
        d = dense_of(EnsembleSpec(kind="elliptic", n=40, law=law, seed=9))
        off = d - np.diag(np.diag(d))
        assert np.array_equal(off, off.T)

    def test_elliptic_pairs_jointly_active(self, sign_pair_law):
        d = dense_of(EnsembleSpec(kind="elliptic", n=40, law=sign_pair_law, seed=3))
        for i in range(40):
            for j in range(i + 1, 40):
                assert (d[i, j] != 0) == (d[j, i] != 0)

    def test_block_is_block_diagonal(self, sign_pair_law):
        d = dense_of(EnsembleSpec(kind="block", n=16, law=sign_pair_law, seed=4))
        assert d.shape == (32, 32)
        assert np.all(d[:16, 16:] == 0) and np.all(d[16:, :16] == 0)

    def test_sparsity_matches_binomial(self, sign_pair_law):
        # expected active pairs = q (N-1)/2; check a 5 sigma band over seeds
        n, trials = 60, 100
        q = float(sign_pair_law.activation)
        npairs = n * (n - 1) // 2
        p = q / n
        counts = []
        for seed in range(trials):
            d = dense_of(EnsembleSpec(kind="elliptic", n=n, law=sign_pair_law, seed=seed))
            off = d - np.diag(np.diag(d))
            counts.append(np.count_nonzero(off) / 2)
        total = sum(counts)
        mean = trials * npairs * p
        sd = np.sqrt(trials * npairs * p * (1 - p))
        assert abs(total - mean) <= 5 * sd


class TestCirculantEigenvalues:
    def test_n1(self):
        lam = circulant_eigenvalues(np.array([3.5]))
        assert lam[0] == pytest.approx(3.5)

    def test_n2(self):
        lam = circulant_eigenvalues(np.array([1.0, 2.0]))
        want = sorted([(1 + 2) / np.sqrt(2), (1 - 2) / np.sqrt(2)])
        assert sorted(lam.real) == pytest.approx(want)
        assert np.allclose(lam.imag, 0)

    @pytest.mark.parametrize("n", [8, 17, 64])
    def test_trace_identity(self, n, sign_law):
        s = sample(EnsembleSpec(kind="circulant", n=n, law=sign_law, seed=n))
        lam = circulant_eigenvalues(s.generator_values)
        d = s.dense()
        power = np.eye(n)
        for k in range(1, 7):
            power = power @ d
            want = np.trace(power)
            got = np.sum(lam**k).real
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


class TestReplicaGenerators:
    # one word each up to 2^32 - 1; 2^128 + 3 and 2^160 + 7 have more than the
    # pool's four words, which SeedSequence mixes in one by one
    SEEDS = [0, 1, 2, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 3, 2**160 + 7]

    @staticmethod
    def assert_default_rng(seeds):
        seeds = list(seeds)
        rngs = replica_generators(seeds)
        assert len(rngs) == len(seeds)
        for seed, rng in zip(seeds, rngs):
            want = np.random.default_rng(seed)
            assert rng.bit_generator.state == want.bit_generator.state, seed
            assert rng.random(3).tolist() == want.random(3).tolist(), seed
            assert rng.integers(0, 1000, size=4).tolist() == want.integers(0, 1000, size=4).tolist()
            assert rng.binomial(512, 1 / 512) == want.binomial(512, 1 / 512), seed
            assert rng.standard_normal(3).tolist() == want.standard_normal(3).tolist(), seed

    def test_first_draws_are_default_rng(self):
        # one call holds seeds of one to six entropy words
        self.assert_default_rng(self.SEEDS)
        for seed in self.SEEDS:
            self.assert_default_rng([seed])

    def test_consecutive_chunk_straddling_2_32(self):
        self.assert_default_rng(range(2**32 - 40, 2**32 + 40))

    def test_seed_state_serves_pcg64_alone(self):
        # the precomputed words are what PCG64 asks for, and nothing else
        seed_seq = replica_generators([5])[0].bit_generator.seed_seq
        assert seed_seq.generate_state(4, np.uint64).tolist() == (
            np.random.SeedSequence(5).generate_state(4, np.uint64).tolist()
        )
        with pytest.raises(ValueError):
            seed_seq.generate_state(8, np.uint32)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        with pytest.raises(ValueError):
            replica_generators([3, -1])


class TestCirculantGenerator:
    SKEWED = SparseScalarLaw(
        activation=Fraction(1, 2), atoms=((-1, Fraction(2, 3)), (2, Fraction(1, 3)))
    )
    # q = 1/8: most rows of this law have no active position
    SMALL_ACTIVATION = SparseScalarLaw(
        activation=Fraction(1, 8), atoms=((-2, Fraction(2, 3)), (4, Fraction(1, 3)))
    )

    @staticmethod
    def assert_per_sample_draws(law, n, seeds, branch=None):
        rows = sample_circulant_generator(law, n, replica_generators(seeds))
        assert rows.shape == (len(seeds), n)
        branches = Counter()
        for seed, row in zip(seeds, rows):
            one = sample(EnsembleSpec("circulant", n, law, seed))
            assert np.array_equal(row, one.generator_values)
            want = reference_circulant_generator(law, n, np.random.default_rng(seed), branches)
            assert np.array_equal(row, want)
        if branch is not None:
            assert branches[branch] > 0
        return rows

    @pytest.mark.parametrize(
        "law,n,branch",
        [
            (sign_scalar_law(), 64, None),
            (GaussianLaw(), 64, None),
            (SKEWED, 4, "permutation"),  # 3 count >= N: a permutation prefix
            (sign_scalar_law(), 12, "redraw"),  # a batch with a collision is redrawn
            (SMALL_ACTIVATION, 64, None),
        ],
    )
    def test_batched_rows_are_the_per_sample_draws(self, law, n, branch):
        rows = self.assert_per_sample_draws(law, n, range(400), branch)
        if law is self.SMALL_ACTIVATION:
            assert np.count_nonzero(~rows.any(axis=1)) > 300

    @pytest.mark.parametrize("law", [sign_scalar_law(), SMALL_ACTIVATION])
    def test_rows_at_seeds_straddling_2_32(self, law):
        self.assert_per_sample_draws(law, 64, range(2**32 - 200, 2**32 + 200))

    def test_draws_leave_the_shared_table_unscaled(self):
        (vals,), cum = _draw_table(self.SKEWED.atoms)
        first = sample_circulant_generator(self.SKEWED, 16, replica_generators(range(50)))
        again = sample_circulant_generator(self.SKEWED, 16, replica_generators(range(50)))
        assert np.array_equal(first, again)
        assert vals.tolist() == [-1.0, 2.0] and cum.tolist() == [2 / 3, 1.0]


class TestDrawTable:
    def test_one_read_only_table_per_atoms_tuple(self):
        law = design_correlated_sign_law(Fraction(1, 3))
        columns, cum = _draw_table(law.atoms)
        again, again_cum = _draw_table(law.atoms)
        assert again_cum is cum and all(map(operator.is_, again, columns))
        for array in (*columns, cum):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array *= 2


class TestIndexDraws:
    def test_collision_redraws_the_batch(self):
        # a generator whose first batch repeats index 4
        class Stub:
            batches = [np.array([4, 7, 4]), np.array([4, 7, 9])]

            def integers(self, low, high, size):
                assert (low, high, size) == (0, 100, 3)
                return self.batches.pop(0)

        stub = Stub()
        assert _distinct_uniform(stub, 100, 3).tolist() == [4, 7, 9]
        assert stub.batches == []

    @pytest.mark.parametrize("total", [4, 512, 2000 * 1999])
    def test_single_index_is_the_batch_of_one_draw(self, total):
        for seed in range(2000):
            rng, batch = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _distinct_uniform(rng, total, 1)
            assert got.dtype == np.int64
            assert got.tolist() == batch.integers(0, total, size=1).tolist()
            assert rng.random() == batch.random()

    def test_upper_pair_decode_is_triu_order(self):
        for n in [*range(1, 90), 2000]:
            i, j = _decode_upper_pairs(np.arange(n * (n - 1) // 2), n)
            ti, tj = np.triu_indices(n, 1)
            assert np.array_equal(i, ti) and np.array_equal(j, tj), n

    @pytest.mark.parametrize("n", [2000, 10**6])
    def test_upper_pair_decode_at_row_ends(self, n):
        # the closed-form row is exact at each row's first index, where the
        # root is a whole number, and at its last, one short of the next root
        for lo in range(0, n - 1, 2**18):
            rows = np.arange(lo, min(lo + 2**18, n - 1), dtype=np.int64)
            first = rows * (2 * n - rows - 1) // 2
            for t, col in ((first, rows + 1), (first + (n - 2 - rows), np.full_like(rows, n - 1))):
                i, j = _decode_upper_pairs(t, n)
                assert np.array_equal(i, rows) and np.array_equal(j, col)


class TestWeaverReduce:
    def test_2x2_by_hand(self):
        m = np.array([[2.0, 5.0], [5.0, 2.0]])
        red = weaver_reduce(m)
        assert red.block_plus[0, 0] == pytest.approx(7.0)
        assert red.block_minus[0, 0] == pytest.approx(-3.0)
        assert red.center is None

    def test_8x8_random(self):
        m = sample(EnsembleSpec(kind="centrosymmetric", n=8, law=GaussianLaw(), seed=2)).dense()
        red = weaver_reduce(m)
        q = red.q_matrix
        assert np.abs(q.T @ q - np.eye(8)).max() < 1e-12
        assert np.abs(q.T @ m @ q - red.reduced()).max() < 1e-12

    def test_5x5_odd_structure(self):
        m = sample(EnsembleSpec(kind="centrosymmetric", n=5, law=GaussianLaw(), seed=6)).dense()
        red = weaver_reduce(m)
        q = red.q_matrix
        t = q.T @ m @ q
        assert np.abs(t - red.reduced()).max() < 1e-12
        cx, cy, cq = red.center
        assert cx == pytest.approx(np.sqrt(2) * m[:2, 2])
        assert cy == pytest.approx(np.sqrt(2) * m[2, :2])
        assert cq == pytest.approx(m[2, 2])
        # sqrt(2)-coupled center column, decoupled minus block
        assert np.abs(t[3:, :3]).max() < 1e-12

    def test_eigenvalues_preserved(self):
        m = sample(EnsembleSpec(kind="centrosymmetric", n=12, law=GaussianLaw(), seed=8)).dense()
        red = weaver_reduce(m)
        full = np.sort(np.linalg.eigvals(m))
        blocks = np.sort(
            np.concatenate([np.linalg.eigvals(red.block_plus), np.linalg.eigvals(red.block_minus)])
        )
        assert np.allclose(np.sort_complex(full), np.sort_complex(blocks), atol=1e-9)

    def test_rejects_non_centrosymmetric(self):
        with pytest.raises(ValueError):
            weaver_reduce(np.array([[1.0, 2.0], [3.0, 4.0]]))


class TestGaussianLaw:
    def test_moments(self):
        g = GaussianLaw()
        assert [g.moment(k) for k in range(7)] == [1, 0, 1, 0, 3, 0, 15]


# 1.0 * (1 / sqrt(6)) as the sampler rounds it: a sign-law diagonal entry at n = 6
_D = 0.4082482904638631


class TestPinnedDraws:
    """Seeded sparse draws under the sign laws, recorded as (row, col, value)
    of every stored entry: a change to the draw sequence shows here."""

    @pytest.mark.parametrize(
        "kind,n,seed,cells",
        [
            ("elliptic", 6, 1, [(0, 0, _D), (1, 1, _D), (2, 2, -_D), (2, 5, 1), (3, 3, _D),
                                (4, 4, -_D), (4, 5, -1), (5, 2, 1), (5, 4, 1), (5, 5, _D)]),
            ("iid", 6, 1, [(0, 0, _D), (0, 2, -1), (0, 5, 1), (1, 1, -_D), (2, 2, -_D),
                           (3, 3, _D), (4, 2, 1), (4, 4, -_D), (4, 5, -1), (5, 3, 1),
                           (5, 5, _D)]),
            ("block", 6, 1, [(0, 0, _D), (0, 2, 1), (0, 5, -1), (1, 1, -_D), (2, 2, -_D),
                             (3, 3, _D), (4, 2, 1), (4, 4, -_D), (4, 5, -1), (5, 3, -1),
                             (5, 5, _D), (6, 6, _D), (6, 8, -1), (6, 11, -1), (7, 7, _D),
                             (8, 8, _D), (9, 9, _D), (10, 8, 1), (10, 10, _D), (10, 11, -1),
                             (11, 9, -1), (11, 11, -_D)]),
            ("centrosymmetric", 6, 1, [(0, 0, 1), (2, 1, -1), (2, 5, 1), (3, 0, 1), (3, 4, -1),
                                       (5, 5, 1)]),
            # odd n: the active center orbit fills one cell
            ("centrosymmetric", 7, 8, [(0, 4, 1), (0, 5, -1), (3, 3, -1), (6, 1, -1),
                                       (6, 2, 1)]),
        ],
    )
    def test_sign_law_draw(self, kind, n, seed, cells, sign_pair_law, sign_law):
        law = sign_pair_law if kind in ("elliptic", "block") else sign_law
        m = sample(EnsembleSpec(kind=kind, n=n, law=law, seed=seed)).matrix
        size = 2 * n if kind == "block" else n
        assert m.format == "csr" and m.shape == (size, size)
        coo = m.tocoo()
        assert sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())) == cells

    @pytest.mark.parametrize("n", [1, 2, 6, 7])
    @pytest.mark.parametrize("kind", ["elliptic", "iid", "block", "centrosymmetric"])
    def test_batch_blocks_are_the_seeded_draws(self, kind, n, sign_pair_law, sign_law):
        # block i of a batch holds the draw at seeds[i], in the same stored order
        law = sign_pair_law if kind in ("elliptic", "block") else sign_law
        spec = EnsembleSpec(kind=kind, n=n, law=law, seed=0)
        seeds = [11, 3, 12, 40]
        batch = sample_sparse_blocks(spec, seeds)
        size = sparse_size(spec)
        assert batch.format == "csr" and batch.shape == (4 * size, 4 * size)
        for i, seed in enumerate(seeds):
            m = sample(EnsembleSpec(kind=kind, n=n, law=law, seed=seed)).matrix
            lo, hi = batch.indptr[i * size], batch.indptr[(i + 1) * size]
            assert np.array_equal(batch.indptr[i * size : (i + 1) * size + 1] - lo, m.indptr)
            assert np.array_equal(batch.indices[lo:hi] - i * size, m.indices)
            assert np.array_equal(batch.data[lo:hi], m.data)

    @pytest.mark.parametrize(
        "kind,law,n,digest",
        [
            ("elliptic", "sign", 3, "b50e7da46cd10833"),
            ("elliptic", "sign", 49, "52b7b697c56dff35"),
            ("iid", "sign", 3, "47d111e36fed523c"),
            ("iid", "sign", 49, "a3fee8b702aab948"),
            ("block", "sign", 3, "3662673cf8728546"),
            ("block", "sign", 49, "5f04bfe029a493a2"),
            ("centrosymmetric", "sign", 3, "96956aadaeeac89c"),
            ("centrosymmetric", "sign", 49, "ddebf03e2544acd0"),
            ("elliptic", "zeros", 3, "372d9368067efefb"),
            ("elliptic", "zeros", 49, "702c52c8da48b872"),
            ("iid", "zeros", 3, "aa8fa63dfd182d63"),
            ("iid", "zeros", 49, "a1a5a3a3a589d035"),
            ("block", "zeros", 3, "459f9eb64c3e968c"),
            ("block", "zeros", 49, "b6cfe929d70015cc"),
            ("centrosymmetric", "zeros", 3, "14a5ce659b1c814f"),
            ("centrosymmetric", "zeros", 49, "06a32110fa38427e"),
        ],
    )
    def test_batch_arrays_are_pinned(self, kind, law, n, digest, sign_pair_law, sign_law):
        # the SHA-256 prefix of a six-seed batch's indptr, indices (as int64)
        # and data, recorded when each draw ran its own scipy conversion; the
        # "zeros" laws have zero-valued atoms, stored as explicit zeros
        e, half = Fraction(1, 8), Fraction(1, 2)
        diagonal = ((0, half), (1, half / 2), (-1, half / 2))
        laws = {
            "sign": (sign_pair_law, sign_law),
            "zeros": (
                SparsePairLaw(activation=1, diagonal_atoms=diagonal, atoms=(
                    (2, 0, e), (-2, 0, e), (0, 2, e), (0, -2, e), (0, 0, 4 * e))),
                SparseScalarLaw(activation=half, diagonal_atoms=diagonal,
                                atoms=((0, half), (2, half / 2), (-2, half / 2))),
            ),
        }
        pair, scalar = laws[law]
        spec = EnsembleSpec(kind=kind, n=n, law=pair if kind in ("elliptic", "block") else scalar,
                            seed=0)
        batch = sample_sparse_blocks(spec, range(100, 106))
        h = hashlib.sha256()
        for part in (batch.indptr.astype(np.int64), batch.indices.astype(np.int64), batch.data):
            h.update(part.tobytes())
        assert h.hexdigest()[:16] == digest
