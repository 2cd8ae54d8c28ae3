from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from explodingmoments import oracle
from explodingmoments.limits import circulant_limit_moment, covariance_trace, limit_trace_moment
from explodingmoments.oracle import MAX_N_POLY, ExactMomentTable, Laurent, exact_table
import reference_sums
from explodingmoments.profiles import (
    GaussianLaw,
    SparsePairLaw,
    SparseScalarLaw,
    design_correlated_sign_law,
    profile_of_scalar_law,
    profile_of_sparse_law,
    sign_scalar_law,
)

ZERO_DIAG = ((Fraction(0), Fraction(1)),)
# mean zero, variance 1/2, E[d^3] = 1/4: an N^(-1/2) term in the iid k = 3 mean
SKEWED_DIAG = ((Fraction(-1, 2), Fraction(2, 3)), (Fraction(1), Fraction(1, 3)))

# unit variance with nonzero odd moments: q = 1/2, xi = -1 w.p. 2/3, 2 w.p. 1/3
SKEWED_LAW = SparseScalarLaw(
    activation=Fraction(1, 2), atoms=((Fraction(-1), Fraction(2, 3)), (Fraction(2), Fraction(1, 3)))
)

DIAGONAL_VALUES = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2))


@st.composite
def diagonal_atoms(draw):
    """Two atoms -c, d with mean zero and variance c d <= 1; skewed unless c = d."""
    values = st.sampled_from(DIAGONAL_VALUES)
    c, d = draw(st.tuples(values, values).filter(lambda cd: cd[0] * cd[1] <= 1))
    return ((-c, d / (c + d)), (d, c / (c + d)))


@st.composite
def scalar_laws(draw):
    """Atoms -a, 0, b with mean zero, and q = 1 / E[xi^2] for unit variance."""
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    zero = draw(st.sampled_from((Fraction(0), Fraction(1, 3), Fraction(1, 2))))
    rest = 1 - zero
    assume(rest * a * b >= 1)  # q <= 1
    atoms = ((-a, rest * Fraction(b, a + b)), (0, zero), (b, rest * Fraction(a, a + b)))
    return SparseScalarLaw(activation=1 / (rest * a * b), atoms=atoms,
                           diagonal_atoms=draw(diagonal_atoms()))


@st.composite
def pair_laws(draw):
    """Rows (a, +-b) and their negations, b a permutation of the a's, so
    that E[xi^2] = E[eta^2]; q = 1 / E[xi^2] for unit variance."""
    values = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    partners = draw(st.permutations(values))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=len(values), max_size=len(values)))
    p = Fraction(1, 2 * len(values))
    atoms = tuple(row for a, b, s in zip(values, partners, signs)
                  for row in ((a, s * b, p), (-a, -s * b, p)))
    return SparsePairLaw(activation=Fraction(len(values), sum(a * a for a in values)),
                         atoms=atoms, diagonal_atoms=draw(diagonal_atoms()))


def mean(model, law, n, k):
    """E[Tr(A^k)]/N, or E[Tr(C^k)] for the circulant, at one N."""
    return exact_table(model, law, (n,), k)[n][(k, None)]


def cov(model, law, n, k, l):
    """E[Z_N(k) Z_N(l)] at one N."""
    return exact_table(model, law, (n,), max(k, l))[n][(min(k, l), max(k, l))]


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
        assert ExactMomentTable(sign_law).cumulant(4)(n) == Fraction(1, n) - Fraction(3, n**2)
        # the skewed law has E[y^3] = q E[xi^3] / N = 1 / N, and kappa_3 = m_3
        assert ExactMomentTable(SKEWED_LAW).cumulant(3)(n) == Fraction(1, n)
        # a Gaussian entry has no cumulant beyond the variance 1/N
        gauss = ExactMomentTable(GaussianLaw())
        assert [gauss.cumulant(j)(n) for j in range(1, 9)] == [0, Fraction(1, n)] + [0] * 6

    def test_generator_cumulants_are_polynomials_in_one_over_n(self, sign_law):
        # kappa_4 = 1/N - 3/N^2, stored by half-powers of N
        assert ExactMomentTable(sign_law).cumulant(4) == {-2: 1, -4: -3}
        assert ExactMomentTable(GaussianLaw()).cumulant(3) == {}

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
        exact_table(model, law, (7, 8), 6)
        assert calls and max(calls.values()) == 1


class TestExactTable:
    @pytest.mark.parametrize("model", ["elliptic", "iid", "circulant"])
    @pytest.mark.parametrize("n", [5, 512])
    def test_equals_the_one_value_functions(self, model, n, sign_pair_law, sign_law):
        # a table over several N equals the table at that N alone, and each
        # entry is its walk sums, evaluated at N and centred by hand
        law = sign_pair_law if model == "elliptic" else sign_law
        table = exact_table(model, law, (7, n), 6)[n]
        assert table == exact_table(model, law, (n,), 6)[n]
        means = [key for key in table if key[1] is None]
        assert means == [(k, None) for k in range(1, 7)]
        assert list(table)[6:] == [(k, l) for k in (1, 2, 3) for l in range(k, 4)]
        moments = ExactMomentTable(law)

        def walk(*lengths):
            if model == "circulant":
                return oracle._circulant_sum(moments, lengths, (n,))[n]
            return oracle._walk_sum(moments, lengths)(n)

        for (k, l), value in table.items():
            if l is not None:
                assert value == (walk(k, l) - walk(k) * walk(l)) / n
            else:
                assert value == walk(k) / (1 if model == "circulant" else n)

    def test_caps_and_guards(self, sign_law):
        keys = [(1, None), (2, None), (1, 1), (1, 2), (2, 2)]
        assert list(exact_table("iid", sign_law, (5,), 2)[5]) == keys
        for n in (0, MAX_N_POLY + 1):
            with pytest.raises(ValueError, match=f"up to {MAX_N_POLY}, got {n}"):
                exact_table("circulant", sign_law, (5, n), 2)
        with pytest.raises(ValueError, match="no exact oracle for model block"):
            exact_table("block", sign_law, (5,), 2)

    def test_iid_rejects_a_pair_law(self, sign_pair_law):
        # iid entries are independent; a pair law's joint moments do not apply
        with pytest.raises(ValueError, match="pair law"):
            exact_table("iid", sign_pair_law, (5,), 2)

    def test_circulant_rejects_a_pair_law(self, sign_pair_law):
        # the circulant generator entries are independent as well
        with pytest.raises(ValueError, match="circulant model needs a scalar or Gaussian law"):
            exact_table("circulant", sign_pair_law, (5, 64), 2)


class TestExactTraceMean:
    def test_k1_mean_zero(self, sign_pair_law):
        tables = exact_table("elliptic", sign_pair_law, (2, 5, 50), 1)
        assert [t[(1, None)] for t in tables.values()] == [0, 0, 0]

    def test_elliptic_k2_formula(self, sign_pair_law):
        # (N-1)/N * rho + E[xi_d^2]/N at N = 5
        assert mean("elliptic", sign_pair_law, 5, 2) == (
            Fraction(4, 5) * Fraction(1, 2) + Fraction(1, 5)
        )

    def test_iid_k3_only_loop_block(self, zero_diag_scalar_law, sign_law):
        # with a zero diagonal the only candidate term dies entirely
        assert mean("iid", zero_diag_scalar_law, 7, 3) == 0
        # +-1 diagonal keeps it zero too (odd moment)
        assert mean("iid", sign_law, 7, 3) == 0

    @pytest.mark.parametrize("model", ["elliptic", "iid"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_agrees_with_tuple_enumeration(self, model, n, k, sign_pair_law, sign_law):
        law = sign_pair_law if model == "elliptic" else sign_law
        assert mean(model, law, n, k) == reference_sums.exact_trace_mean_enumerated(
            model, law, n, k
        )

    def test_guards(self, sign_pair_law, sign_law):
        # the means stop at MAX_K_MEAN; an N^(-1/2) term has a value only at square N
        assert (7, None) not in exact_table("elliptic", sign_pair_law, (10,), 7)[10]
        skewed = SparseScalarLaw(activation=sign_law.activation, atoms=sign_law.atoms,
                                 diagonal_atoms=SKEWED_DIAG)
        with pytest.raises(ValueError, match=r"N\^\(-3/2\) at non-square N=10"):
            mean("iid", skewed, 10, 3)
        assert mean("iid", skewed, 9, 3) == Fraction(1, 4) / 27


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
        table = exact_table("elliptic", law, (3,), 3)[3]
        for k in (1, 2, 3):
            assert table[(k, None)] == means[k] / 3
        for k, l in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
            assert table[(k, l)] == (joints[(k, l)] - means[k] * means[l]) / 3


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
        tables = exact_table("circulant", sign_law, (3, 5, 7), 2)
        assert [t[(2, None)] for t in tables.values()] == [1, 1, 1]

    def test_even_n_parity_effect(self, sign_law):
        assert mean("circulant", sign_law, 4, 2) == 2

    def test_frozen_k4_values(self, sign_law):
        tables = exact_table("circulant", sign_law, (7, 11, 13), 4)
        assert [t[(4, None)] for t in tables.values()] == [
            Fraction(25, 7), Fraction(41, 11), Fraction(49, 13)
        ]

    def test_matches_full_state_enumeration(self, sign_law):
        means, joints = full_state_circulant(sign_law, 4, 3)
        table = exact_table("circulant", sign_law, (4,), 3)[4]
        for k in (1, 2, 3):
            assert table[(k, None)] == means[k]
        for k, l in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
            assert table[(k, l)] == (joints[(k, l)] - means[k] * means[l]) / 4

    def test_sums_by_class_without_enumeration(self, sign_law, monkeypatch):
        def enumerate_partitions(*args, **kwargs):
            raise AssertionError("the circulant oracle enumerates no set partition")

        monkeypatch.setattr(oracle, "walk_partitions", enumerate_partitions)
        tables = exact_table("circulant", sign_law, (7, 11, 13), 6)
        assert [t[(4, None)] for t in tables.values()] == [
            Fraction(25, 7), Fraction(41, 11), Fraction(49, 13)
        ]

    def test_gaussian_oracle_supported(self):
        # bounded law: E[Tr C^2] = 1 exactly at odd N
        assert mean("circulant", GaussianLaw(), 5, 2) == 1

    def test_guards(self, sign_law):
        with pytest.raises(ValueError, match=f"up to {MAX_N_POLY}"):
            exact_table("circulant", sign_law, (MAX_N_POLY + 1,), 2)
        assert list(exact_table("circulant", sign_law, (5,), 7)[5])[5:7] == [(6, None), (1, 1)]


class TestExactFluctuations:
    def test_circulant_z1_variance_is_one(self, sign_law):
        assert cov("circulant", sign_law, 5, 1, 1) == 1

    def test_elliptic_diagonal_only_variance(self, sign_pair_law):
        # Z(1) keeps only the diagonal: Var(x_11)/N
        assert cov("elliptic", sign_pair_law, 5, 1, 1) == Fraction(1, 5)

    def test_circulant_heavy_excess_at_n5(self, sign_law):
        val = cov("circulant", sign_law, 5, 2, 2)
        ex4 = Fraction(5)  # E[x^4] = q E[xi^4] N
        assert val == 2 * Fraction(4, 5) + (ex4 - 1) / 5 == Fraction(12, 5)

    def test_elliptic_converges_to_kernel(self, sign_pair_law, sign_pair_profile):
        kernel = covariance_trace(2, 2, "elliptic", sign_pair_profile)
        tables = exact_table("elliptic", sign_pair_law, (6, 8), 2)
        g6, g8 = (abs(t[(2, 2)] - kernel) for t in tables.values())
        assert g8 < g6

    def test_guards(self, sign_law):
        with pytest.raises(ValueError, match=f"up to {MAX_N_POLY}"):
            exact_table("circulant", sign_law, (5, MAX_N_POLY + 1), 2)
        # the covariances stop at MAX_K_FLUCT
        table = exact_table("circulant", sign_law, (5,), 4)[5]
        assert (4, None) in table and not any(4 in key for key in table if key[1])


class TestAgainstBellEnumeration:
    """The walk-partition oracle equals the Bell-number and cross-partition
    enumeration."""

    @pytest.fixture(scope="class")
    def cases(self, sign_pair_law, sign_law):
        return [("elliptic", sign_pair_law), ("iid", sign_law), ("iid", GaussianLaw())]

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_means(self, cases, n):
        for model, law in cases:
            table = exact_table(model, law, (n,), 6)[n]
            for k in range(1, 7):
                assert table[(k, None)] == reference_sums.exact_trace_mean(model, law, n, k)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_fluctuations(self, cases, n):
        for model, law in cases:
            table = exact_table(model, law, (n,), 3)[n]
            for k in range(1, 4):
                for l in range(1, 4):
                    assert table[(min(k, l), max(k, l))] == (
                        reference_sums.exact_fluct_covariance(model, law, n, k, l)
                    )

    @pytest.mark.parametrize("law", ["sign", "gaussian", "skewed"])
    def test_circulant_matches_tuple_enumeration(self, law, sign_law):
        law = {"sign": sign_law, "gaussian": GaussianLaw(), "skewed": SKEWED_LAW}[law]
        for n, table in exact_table("circulant", law, range(1, 12), 6).items():
            for k in range(1, 7):
                assert table[(k, None)] == reference_sums.exact_circulant_trace_mean(law, n, k)

    @pytest.mark.parametrize("law", ["sign", "gaussian", "skewed"])
    def test_circulant_fluctuation_matches_tuple_enumeration(self, law, sign_law):
        law = {"sign": sign_law, "gaussian": GaussianLaw(), "skewed": SKEWED_LAW}[law]
        table = ExactMomentTable(law)
        for n, exact in exact_table("circulant", law, range(1, 9), 3).items():
            means = {k: reference_sums.exact_circulant_trace_mean(law, n, k) for k in (1, 2, 3)}
            for k in range(1, 4):
                for l in range(k, 4):
                    joint = reference_sums._circulant_joint(table, n, k, l)
                    assert exact[(k, l)] == (joint - means[k] * means[l]) / n

    def test_circulant_fluctuation_at_verify_size(self, sign_law):
        # the README circulant sign run: row (1,3) at N = 512
        assert cov("circulant", sign_law, 512, 1, 3) == Fraction(515, 512)


class TestConvergenceToLimits:
    def test_circulant_limit_along_odd_primes(self, sign_law, sign_profile):
        tables = list(exact_table("circulant", sign_law, (7, 11, 13), 6).values())
        for k in range(1, 7):
            limit = circulant_limit_moment(k, sign_profile)
            gaps = [abs(t[(k, None)] - limit) for t in tables]
            assert gaps[-1] <= gaps[0]

    def test_elliptic_gap_is_order_one_over_n(self, sign_pair_law, sign_pair_profile):
        # N * |exact(N) - limit| stays bounded: the constant fitted at N=100
        # covers N=1000 and N=10000 too
        tables = exact_table("elliptic", sign_pair_law, (100, 1000, 10000), 4)
        for k in range(1, 5):
            limit = limit_trace_moment("elliptic", k, sign_pair_profile)
            scaled = [n * abs(t[(k, None)] - limit) for n, t in tables.items()]
            c = scaled[0] + Fraction(1, 100)
            assert all(s <= c for s in scaled)


class TestZeroTermRule:
    """Skipping the partitions with a single edge or a single loop changes no
    walk sum: every law is centred, so their terms are zero."""

    @pytest.mark.parametrize(
        "model,law",
        [
            ("elliptic", design_correlated_sign_law(Fraction(1, 2))),
            ("elliptic", design_correlated_sign_law(Fraction(-1, 3))),
            ("iid", SKEWED_LAW),
            ("iid", GaussianLaw()),
        ],
        ids=["sign-1/2", "sign-minus-1/3", "skewed", "gaussian"],
    )
    def test_sums_equal_the_unpruned_sums(self, monkeypatch, model, law):
        walk_sum, asked = oracle._walk_sum, []
        monkeypatch.setattr(oracle, "_walk_sum",
                            lambda table, walk: asked.append(walk) or walk_sum(table, walk))
        exact_table(model, law, (10,), 8)
        monkeypatch.undo()
        fluct = oracle.MAX_K_FLUCT
        assert len(asked) == oracle.MAX_K_MEAN + fluct * (fluct + 1) // 2
        table = ExactMomentTable(law)
        skipped = {walk: oracle._walk_sum(table, walk) for walk in asked}
        unpruned = oracle.walk_partitions
        monkeypatch.setattr(oracle, "walk_partitions",
                            lambda lengths, nonzero: unpruned(lengths))
        assert {walk: oracle._walk_sum(table, walk) for walk in asked} == skipped


class TestLimitIsLeadingCoefficient:
    """The exact means and covariances are Laurent polynomials in N^(1/2)
    with no positive power of N, and their N^0 coefficients are the limits."""

    WALKS = [(k,) for k in range(1, 7)] + [(k, l) for k in (1, 2, 3) for l in range(k, 4)]

    def check(self, model, law, profile):
        polys = oracle._laurent_table(ExactMomentTable(law), self.WALKS)
        assert exact_table(model, law, (9,), 6)[9] == {key: poly(9) for key, poly in polys.items()}
        assert all(half <= 0 for poly in polys.values() for half in poly)
        for (k, l), poly in polys.items():
            if l is None:
                assert poly.get(0, 0) == limit_trace_moment(model, k, profile)
            else:
                assert poly.get(0, 0) == covariance_trace(k, l, model, profile)

    @given(pair_laws())
    @settings(max_examples=15, deadline=None)
    def test_elliptic(self, law):
        self.check("elliptic", law, profile_of_sparse_law(law))

    @given(scalar_laws())
    @settings(max_examples=15, deadline=None)
    def test_iid(self, law):
        self.check("iid", law, profile_of_scalar_law(law))

    def test_elliptic_sign_law_mean(self, sign_pair_law):
        # rho = 1/2: E[Tr(A^6)]/N = 33/8 + (7/8)/N - 7/N^2 + 3/N^3
        poly = oracle._laurent_table(ExactMomentTable(sign_pair_law), [(6,)])[(6, None)]
        assert poly == Laurent({0: Fraction(33, 8), -2: Fraction(7, 8), -4: -7, -6: 3})
