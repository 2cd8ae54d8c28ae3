from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from explodingmoments.ensembles import GaussianLaw
from explodingmoments.limits import circulant_limit_moment, covariance_trace
from explodingmoments.oracle import (
    MAX_N_POLY,
    ExactMomentTable,
    exact_circulant_trace_mean,
    exact_fluct_covariance_small,
    exact_table,
    exact_trace_mean,
)
import reference_sums
from explodingmoments.profiles import (
    SparsePairLaw,
    SparseScalarLaw,
    design_correlated_sign_law,
    profile_of_sparse_law,
    sign_scalar_law,
)

ZERO_DIAG = ((Fraction(0), Fraction(1)),)

# unit variance with nonzero odd moments: q = 1/2, xi = -1 w.p. 2/3, 2 w.p. 1/3
SKEWED_LAW = SparseScalarLaw(
    activation=Fraction(1, 2), atoms=((Fraction(-1), Fraction(2, 3)), (Fraction(2), Fraction(1, 3)))
)


@pytest.fixture(scope="module")
def zero_diag_pair_law():
    base = design_correlated_sign_law(Fraction(1, 2))
    return SparsePairLaw(activation=base.activation, atoms=base.atoms,
                         diagonal_atoms=ZERO_DIAG)


@pytest.fixture(scope="module")
def zero_diag_scalar_law():
    base = sign_scalar_law()
    return SparseScalarLaw(activation=base.activation, atoms=base.atoms,
                           diagonal_atoms=ZERO_DIAG)


class TestMomentTable:
    def test_sparse_entry_scaling(self, sign_law):
        table = ExactMomentTable(sign_law)
        # E[x^4] = q E[xi^4] N^(4/2-1)
        assert table.entry(4) == (Fraction(1), 2)
        assert table.entry(3) == (Fraction(0), 1)
        assert table.entry(0) == (Fraction(1), 0)

    def test_pair_law_moments(self, sign_pair_law):
        table = ExactMomentTable(sign_pair_law)
        assert table.pair(1, 1) == (Fraction(1, 2), 0)
        assert table.a_pair(1, 1) == (Fraction(1, 2), -2)  # rho / N

    def test_gaussian_moments(self):
        table = ExactMomentTable(GaussianLaw())
        assert table.entry(2) == (Fraction(1), 0)
        assert table.entry(4) == (Fraction(3), 0)
        assert table.entry(6) == (Fraction(15), 0)
        assert table.entry(5) == (Fraction(0), 0)


    @pytest.mark.parametrize("n", [1, 4, 7, 512])
    def test_generator_cumulants(self, sign_law, n):
        # y = x / sqrt(N): the sign law puts +-1 at rate 1/N, so m_2 = m_4 = 1/N
        assert ExactMomentTable(sign_law).cumulant(4, n) == Fraction(1, n) - Fraction(3, n**2)
        # the skewed law has E[y^3] = q E[xi^3] / N = 1 / N, and kappa_3 = m_3
        assert ExactMomentTable(SKEWED_LAW).cumulant(3, n) == Fraction(1, n)
        # a Gaussian entry has no cumulant beyond the variance 1/N
        gauss = ExactMomentTable(GaussianLaw())
        assert [gauss.cumulant(j, n) for j in range(1, 9)] == [0, Fraction(1, n)] + [0] * 6

    @pytest.mark.parametrize("law_class", [SparsePairLaw, SparseScalarLaw])
    def test_each_moment_summed_once(self, monkeypatch, law_class, sign_pair_law, sign_law):
        # the table caches by moment order; no atom sum repeats within one table
        calls = Counter()
        summed = law_class.atom_moment

        def counted(self, *orders):
            calls[orders] += 1
            return summed(self, *orders)

        monkeypatch.setattr(law_class, "atom_moment", counted)
        pair = law_class is SparsePairLaw
        model, law = ("elliptic", sign_pair_law) if pair else ("circulant", sign_law)
        exact_table(model, law, 8, 6)
        assert calls and max(calls.values()) == 1


class TestExactTable:
    @pytest.mark.parametrize("model", ["elliptic", "iid", "circulant"])
    @pytest.mark.parametrize("n", [5, 512])
    def test_equals_the_one_value_functions(self, model, n, sign_pair_law, sign_law):
        law = sign_pair_law if model == "elliptic" else sign_law
        table = exact_table(model, law, n, 6)
        means = [key for key in table if key[1] is None]
        assert means == [(k, None) for k in range(1, 7)]
        assert list(table)[6:] == [(k, l) for k in (1, 2, 3) for l in range(k, 4)]
        for (k, l), value in table.items():
            if l is not None:
                assert value == exact_fluct_covariance_small(model, law, n, k, l)
            elif model == "circulant":
                assert value == exact_circulant_trace_mean(law, n, k)
            else:
                assert value == exact_trace_mean(model, law, n, k)

    def test_caps_and_guards(self, sign_law):
        keys = [(1, None), (2, None), (1, 1), (1, 2), (2, 2)]
        assert list(exact_table("iid", sign_law, 5, 2)) == keys
        with pytest.raises(ValueError):
            exact_table("circulant", sign_law, MAX_N_POLY + 1, 2)
        with pytest.raises(ValueError):
            exact_table("block", sign_law, 5, 2)

    def test_iid_rejects_a_pair_law(self, sign_pair_law):
        # iid entries are independent; a pair law's joint moments do not apply
        with pytest.raises(ValueError, match="pair law"):
            exact_table("iid", sign_pair_law, 5, 2)
        with pytest.raises(ValueError, match="pair law"):
            exact_trace_mean("iid", sign_pair_law, 5, 2)

    def test_circulant_rejects_a_pair_law(self, sign_pair_law):
        # the circulant generator entries are independent as well
        with pytest.raises(ValueError, match="circulant model needs a scalar or Gaussian law"):
            exact_table("circulant", sign_pair_law, 5, 2)
        with pytest.raises(ValueError, match="pair law"):
            exact_circulant_trace_mean(sign_pair_law, 64, 2)


class TestExactTraceMean:
    def test_k1_mean_zero(self, sign_pair_law):
        for n in (2, 5, 50):
            assert exact_trace_mean("elliptic", sign_pair_law, n, 1) == 0

    def test_elliptic_k2_formula(self, sign_pair_law):
        # (N-1)/N * rho + E[xi_d^2]/N at N = 5
        assert exact_trace_mean("elliptic", sign_pair_law, 5, 2) == (
            Fraction(4, 5) * Fraction(1, 2) + Fraction(1, 5)
        )

    def test_iid_k3_only_loop_block(self, zero_diag_scalar_law, sign_law):
        # with a zero diagonal the only candidate term dies entirely
        assert exact_trace_mean("iid", zero_diag_scalar_law, 7, 3) == 0
        # +-1 diagonal keeps it zero too (odd moment)
        assert exact_trace_mean("iid", sign_law, 7, 3) == 0

    @pytest.mark.parametrize("model", ["elliptic", "iid"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_agrees_with_tuple_enumeration(self, model, n, k, sign_pair_law, sign_law):
        law = sign_pair_law if model == "elliptic" else sign_law
        assert exact_trace_mean(model, law, n, k) == reference_sums.exact_trace_mean_enumerated(
            model, law, n, k
        )

    def test_guards(self, sign_pair_law):
        with pytest.raises(ValueError):
            exact_trace_mean("elliptic", sign_pair_law, 10, 7)
        with pytest.raises(ValueError):
            exact_trace_mean("circulant", sign_pair_law, 5, 2)


def full_state_elliptic(law, n, kmax):
    """Exact trace means and joint trace moments by enumerating the whole
    product law over pair states (zero diagonal laws only)."""
    assert law.diagonal_atoms == ZERO_DIAG
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    q_over_n = law.activation / n
    states = [(None, 1 - q_over_n)] + [((a, b), q_over_n * p) for a, b, p in law.atoms]
    means = {k: Fraction(0) for k in range(1, kmax + 1)}
    joints = {}
    for assign in product(range(len(states)), repeat=len(pairs)):
        prob = Fraction(1)
        m = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), s in zip(pairs, assign):
            val, p = states[s]
            prob *= p
            if val is not None:
                m[i][j], m[j][i] = val
        power = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        trs = {}
        for k in range(1, kmax + 1):
            power = [
                [sum(power[i][t] * m[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
            trs[k] = sum(power[i][i] for i in range(n))
        for k in range(1, kmax + 1):
            means[k] += prob * trs[k]
            for l in range(k, kmax + 1):
                joints[(k, l)] = joints.get((k, l), Fraction(0)) + prob * trs[k] * trs[l]
    return means, joints


class TestFullStateEnumeration:
    def test_elliptic_means_and_fluctuations_n3(self, zero_diag_pair_law):
        law = zero_diag_pair_law
        means, joints = full_state_elliptic(law, 3, 3)
        for k in (1, 2, 3):
            assert exact_trace_mean("elliptic", law, 3, k) == means[k] / 3
        for k, l in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
            want = (joints[(k, l)] - means[k] * means[l]) / 3
            assert exact_fluct_covariance_small("elliptic", law, 3, k, l) == want


def full_state_circulant(law, n, kmax):
    """Exact circulant trace moments by enumerating generator states; the
    scaled matrix is integer-valued for a sparse +-1 law with q = 1."""
    pz = 1 - law.activation / n
    atom_states = [(v, law.activation / n * p) for v, p in law.atoms]
    states = [(Fraction(0), pz)] + atom_states
    means = {k: Fraction(0) for k in range(1, kmax + 1)}
    joints = {}
    for assign in product(range(len(states)), repeat=n):
        prob = Fraction(1)
        gen = []
        for s in assign:
            v, p = states[s]
            prob *= p
            gen.append(v)
        m = [[gen[(i - j) % n] for j in range(n)] for i in range(n)]
        power = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        trs = {}
        for k in range(1, kmax + 1):
            power = [
                [sum(power[i][t] * m[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
            trs[k] = sum(power[i][i] for i in range(n))
        for k in range(1, kmax + 1):
            means[k] += prob * trs[k]
            for l in range(k, kmax + 1):
                joints[(k, l)] = joints.get((k, l), Fraction(0)) + prob * trs[k] * trs[l]
    return means, joints


class TestExactCirculant:
    def test_small_odd_n_k2_is_one(self, sign_law):
        for n in (3, 5, 7):
            assert exact_circulant_trace_mean(sign_law, n, 2) == 1

    def test_even_n_parity_effect(self, sign_law):
        assert exact_circulant_trace_mean(sign_law, 4, 2) == 2

    def test_frozen_k4_values(self, sign_law):
        assert exact_circulant_trace_mean(sign_law, 7, 4) == Fraction(25, 7)
        assert exact_circulant_trace_mean(sign_law, 11, 4) == Fraction(41, 11)
        assert exact_circulant_trace_mean(sign_law, 13, 4) == Fraction(49, 13)

    def test_matches_full_state_enumeration(self, sign_law):
        means, joints = full_state_circulant(sign_law, 4, 3)
        for k in (1, 2, 3):
            assert exact_circulant_trace_mean(sign_law, 4, k) == means[k]
        for k, l in [(1, 1), (2, 2), (1, 2), (2, 3), (3, 3)]:
            want = (joints[(min(k, l), max(k, l))] - means[k] * means[l]) / 4
            assert exact_fluct_covariance_small("circulant", sign_law, 4, k, l) == want

    def test_gaussian_oracle_supported(self):
        # bounded law: E[Tr C^2] = 1 exactly at odd N
        assert exact_circulant_trace_mean(GaussianLaw(), 5, 2) == 1

    def test_guards(self, sign_law):
        with pytest.raises(ValueError):
            exact_circulant_trace_mean(sign_law, MAX_N_POLY + 1, 2)
        with pytest.raises(ValueError):
            exact_circulant_trace_mean(sign_law, 5, 7)


class TestExactFluctuations:
    def test_circulant_z1_variance_is_one(self, sign_law):
        assert exact_fluct_covariance_small("circulant", sign_law, 5, 1, 1) == 1

    def test_elliptic_diagonal_only_variance(self, sign_pair_law):
        # Z(1) keeps only the diagonal: Var(x_11)/N
        assert exact_fluct_covariance_small("elliptic", sign_pair_law, 5, 1, 1) == Fraction(1, 5)

    def test_circulant_heavy_excess_at_n5(self, sign_law):
        val = exact_fluct_covariance_small("circulant", sign_law, 5, 2, 2)
        ex4 = Fraction(5)  # E[x^4] = q E[xi^4] N
        assert val == 2 * Fraction(4, 5) + (ex4 - 1) / 5 == Fraction(12, 5)

    def test_elliptic_converges_to_kernel(self, sign_pair_law, sign_pair_profile):
        kernel = covariance_trace(2, 2, "elliptic", sign_pair_profile)
        g6 = abs(exact_fluct_covariance_small("elliptic", sign_pair_law, 6, 2, 2) - kernel)
        g8 = abs(exact_fluct_covariance_small("elliptic", sign_pair_law, 8, 2, 2) - kernel)
        assert g8 < g6

    def test_guards(self, sign_law):
        with pytest.raises(ValueError):
            exact_fluct_covariance_small("circulant", sign_law, MAX_N_POLY + 1, 2, 2)
        with pytest.raises(ValueError):
            exact_fluct_covariance_small("circulant", sign_law, 5, 4, 2)


class TestAgainstBellEnumeration:
    """The walk-partition oracle equals the Bell-number and cross-partition
    enumeration."""

    @pytest.fixture(scope="class")
    def cases(self, sign_pair_law, sign_law):
        return [("elliptic", sign_pair_law), ("iid", sign_law), ("iid", GaussianLaw())]

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_means(self, cases, n):
        for model, law in cases:
            for k in range(1, 7):
                assert exact_trace_mean(model, law, n, k) == reference_sums.exact_trace_mean(
                    model, law, n, k
                )

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_fluctuations(self, cases, n):
        for model, law in cases:
            for k in range(1, 4):
                for l in range(1, 4):
                    assert exact_fluct_covariance_small(model, law, n, k, l) == (
                        reference_sums.exact_fluct_covariance(model, law, n, k, l)
                    )

    @pytest.mark.parametrize("law", ["sign", "gaussian", "skewed"])
    def test_circulant_matches_tuple_enumeration(self, law, sign_law):
        law = {"sign": sign_law, "gaussian": GaussianLaw(), "skewed": SKEWED_LAW}[law]
        for n in range(1, 12):
            for k in range(1, 7):
                assert exact_circulant_trace_mean(law, n, k) == (
                    reference_sums.exact_circulant_trace_mean(law, n, k)
                )

    @pytest.mark.parametrize("law", ["sign", "gaussian", "skewed"])
    def test_circulant_fluctuation_matches_tuple_enumeration(self, law, sign_law):
        law = {"sign": sign_law, "gaussian": GaussianLaw(), "skewed": SKEWED_LAW}[law]
        table = ExactMomentTable(law)
        for n in range(1, 9):
            means = {k: reference_sums.exact_circulant_trace_mean(law, n, k) for k in (1, 2, 3)}
            for k in range(1, 4):
                for l in range(k, 4):
                    joint = reference_sums._circulant_joint(table, n, k, l)
                    assert exact_fluct_covariance_small("circulant", law, n, k, l) == (
                        (joint - means[k] * means[l]) / n
                    )

    def test_circulant_fluctuation_at_verify_size(self, sign_law):
        # the README circulant sign run: row (1,3) at N = 512
        assert exact_fluct_covariance_small("circulant", sign_law, 512, 1, 3) == Fraction(515, 512)


class TestConvergenceToLimits:
    def test_circulant_limit_along_odd_primes(self, sign_law, sign_profile):
        for k in range(1, 7):
            limit = circulant_limit_moment(k, sign_profile)
            vals = [exact_circulant_trace_mean(sign_law, n, k) for n in (7, 11, 13)]
            gaps = [abs(v - limit) for v in vals]
            assert gaps[-1] <= gaps[0]

    def test_elliptic_gap_is_order_one_over_n(self, sign_pair_law, sign_pair_profile):
        # N * |exact(N) - limit| stays bounded: the constant fitted at N=100
        # covers N=1000 and N=10000 too
        from explodingmoments.limits import limit_trace_moment

        for k in range(1, 5):
            limit = limit_trace_moment("elliptic", k, sign_pair_profile)
            scaled = [
                n * abs(exact_trace_mean("elliptic", sign_pair_law, n, k) - limit)
                for n in (100, 1000, 10000)
            ]
            c = scaled[0] + Fraction(1, 100)
            assert all(s <= c for s in scaled)
