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
    circulant_eigenvalues,
    is_centrosymmetric,
    sample,
    sample_circulant_generator,
    weaver_reduce,
)
from explodingmoments.profiles import SparseScalarLaw, design_correlated_sign_law, sign_scalar_law
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


class TestCirculantGenerator:
    SKEWED = SparseScalarLaw(
        activation=Fraction(1, 2), atoms=((-1, Fraction(2, 3)), (2, Fraction(1, 3)))
    )

    @pytest.mark.parametrize(
        "law,n,branch",
        [
            (sign_scalar_law(), 64, None),
            (GaussianLaw(), 64, None),
            (SKEWED, 4, "permutation"),  # 3 count >= N: a permutation prefix
            (sign_scalar_law(), 12, "redraw"),  # a batch with a collision is redrawn
        ],
    )
    def test_batched_rows_are_the_per_sample_draws(self, law, n, branch):
        seeds = range(400)
        rows = sample_circulant_generator(law, n, [np.random.default_rng(s) for s in seeds])
        assert rows.shape == (len(seeds), n)
        branches = Counter()
        for seed, row in zip(seeds, rows):
            one = sample(EnsembleSpec("circulant", n, law, seed))
            assert np.array_equal(row, one.generator_values)
            want = reference_circulant_generator(law, n, np.random.default_rng(seed), branches)
            assert np.array_equal(row, want)
        if branch is not None:
            assert branches[branch] > 0


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

    def test_upper_pair_decode_is_triu_order(self):
        for n in [*range(1, 90), 2000]:
            i, j = _decode_upper_pairs(np.arange(n * (n - 1) // 2), n)
            ti, tj = np.triu_indices(n, 1)
            assert np.array_equal(i, ti) and np.array_equal(j, tj), n


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
