from fractions import Fraction

import numpy as np
import pytest

from explodingmoments.ensembles import (
    EnsembleSpec,
    GaussianLaw,
    MatrixSample,
    circulant_eigenvalues,
    sample,
)
from explodingmoments.estimator import (
    _circulant_power_sums,
    _replica_traces,
    aggregate_stats,
    compare_report,
    rows_to_csv,
    run_experiment,
    trace_powers,
)
from explodingmoments.oracle import exact_table
from reference_sums import reference_aggregate_stats


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

    @pytest.mark.parametrize("seed", range(25))
    def test_circulant_paths_agree(self, seed, sign_law):
        n = 16 + 2 * seed
        s = sample(EnsembleSpec(kind="circulant", n=n, law=sign_law, seed=seed))
        dense = MatrixSample(kind="circulant", size=n, trace_norm=n, matrix=s.dense())
        assert np.allclose(trace_powers(s, 6), trace_powers(dense, 6), rtol=1e-8, atol=1e-12)


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
        from dataclasses import replace

        for i in range(12):
            one = trace_powers(sample(replace(spec, seed=spec.seed + 1 + i)), 4)
            assert np.allclose(stats.traces[i], one, rtol=1e-12, atol=1e-14)

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

    def test_seed_range(self, sign_law):
        spec = EnsembleSpec(kind="circulant", n=8, law=sign_law, seed=10)
        stats = run_experiment(spec, 2, 5)
        assert stats.seed_range() == (11, 15)

    def test_thread_count_does_not_change_results(self, sign_pair_law, monkeypatch):
        spec = EnsembleSpec(kind="elliptic", n=40, law=sign_pair_law, seed=6)
        base = run_experiment(spec, 3, 40)
        monkeypatch.setenv("EXPLODINGMOMENTS_THREADS", "4")
        threaded = run_experiment(spec, 3, 40)
        assert np.array_equal(base.traces, threaded.traces)


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
