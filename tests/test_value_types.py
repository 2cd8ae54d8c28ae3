"""The value types the exact path loads (profiles, laws, limit values, the
oracle's moment table and the CLI config): how they are built, what they
reject, that they are immutable, when they are equal, and that their
documents read back to equal values."""

import pickle
from fractions import Fraction

import pytest

from explodingmoments.cli import ExperimentConfig, UsageError
from explodingmoments.limits import LimitValue
from explodingmoments.oracle import ExactMomentTable
from explodingmoments.profiles import (
    DEFAULT_KMAX,
    GaussianLaw,
    MomentProfile,
    SparsePairLaw,
    SparseScalarLaw,
    Violation,
    design_correlated_sign_law,
    law_from_dict,
    law_to_dict,
    light_profile,
    profile_from_dict,
    profile_of_sparse_law,
    profile_to_dict,
    sign_scalar_law,
)

HALF = Fraction(1, 2)
SIGNS = ((1, HALF), (-1, HALF))
PAIR_ATOMS = ((1, 1, HALF), (-1, -1, HALF))
THIRD_DIAGONAL = ((2, Fraction(1, 8)), (0, Fraction(3, 4)), (-2, Fraction(1, 8)))


def assert_immutable(value, *names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name, None))


def assert_equal_values(a, b, hashable=True):
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


class TestViolation:
    def test_built_by_position_or_keyword(self):
        v = Violation("missing-entry", "no C_4")
        assert v == Violation(code="missing-entry", message="no C_4")
        assert (v.code, v.message, str(v)) == ("missing-entry", "no C_4", "missing-entry: no C_4")

    def test_immutable_equal_and_hashable(self):
        v = Violation("variance-mismatch", "C_2 = 2")
        assert_immutable(v, "code", "message", "extra")
        assert_equal_values(v, Violation("variance-mismatch", "C_2 = 2"))
        assert v != Violation("variance-mismatch", "C_2 = 3")


class TestMomentProfile:
    def test_defaults(self):
        p = MomentProfile(1)
        assert (p.alpha, p.kmax, p.pair_table, p.scalar_table) == (1, DEFAULT_KMAX, {}, {})
        assert type(p.alpha) is Fraction

    def test_built_by_position_or_keyword(self):
        by_position = MomentProfile(1, 3, {(1, 1): 1}, {2: 1})
        by_keyword = MomentProfile(scalar_table={2: 1}, pair_table={(1, 1): 1}, kmax=3, alpha=1)
        assert_equal_values(by_position, by_keyword, hashable=False)

    def test_values_normalised_to_fractions_in_new_dicts(self):
        pair, scalar = {(2, 0): 1}, {2: 1, 3: Fraction(1, 3)}
        p = MomentProfile(2, 4, pair, scalar)
        assert all(type(x) is Fraction for x in (p.alpha, *p.pair_table.values(),
                                                   *p.scalar_table.values()))
        assert p.pair_table is not pair and p.scalar_table is not scalar
        assert type(p.pair_table) is dict and type(p.scalar_table) is dict

    @pytest.mark.parametrize("args,error,message", [
        ((1, 1), ValueError, "kmax must be at least 2"),
        ((1, 3, {(2, 2): 1}), ValueError, r"pair entry \(2,2\) outside 2 <= k\+l <= kmax=3"),
        ((1, 3, {(-1, 3): 1}), ValueError, r"pair entry \(-1,3\) outside"),
        ((1, 3, {}, {4: 1}), ValueError, "scalar entry 4 outside 2 <= k <= kmax=3"),
        ((1.0,), TypeError, "moment tables are exact: got float 1.0"),
        ((1, 3, {}, {2: 0.5}), TypeError, "got float 0.5"),
        # alpha is read first, then kmax
        ((0.5, 1), TypeError, "got float 0.5"),
    ])
    def test_invalid_tables_rejected(self, args, error, message):
        with pytest.raises(error, match=message):
            MomentProfile(*args)

    def test_immutable(self):
        p = light_profile(4)
        assert_immutable(p, "alpha", "kmax", "pair_table", "scalar_table", "extra")

    def test_equality_reads_the_values(self, sign_pair_law):
        p = profile_of_sparse_law(sign_pair_law, kmax=6)
        assert_equal_values(p, profile_of_sparse_law(design_correlated_sign_law(HALF), kmax=6),
                            hashable=False)
        assert p != profile_of_sparse_law(sign_pair_law, kmax=5)
        assert MomentProfile(1) != MomentProfile(2)

    @pytest.mark.parametrize("kmax", [2, 5, 8])
    def test_document_round_trip(self, sign_pair_law, kmax):
        for p in (profile_of_sparse_law(sign_pair_law, kmax=kmax), light_profile(kmax),
                  MomentProfile(Fraction(3, 2), kmax, {(1, 1): Fraction(-1, 7)})):
            assert profile_from_dict(profile_to_dict(p)) == p


class TestSparseLaws:
    @pytest.mark.parametrize("cls,atoms", [(SparseScalarLaw, SIGNS), (SparsePairLaw, PAIR_ATOMS)])
    def test_built_by_position_or_keyword_with_the_default_diagonal(self, cls, atoms):
        law = cls(1, atoms)
        assert law == cls(activation=1, atoms=atoms)
        assert law == cls(1, atoms, SIGNS) == cls(atoms=atoms, activation=1, diagonal_atoms=SIGNS)
        assert law.diagonal_atoms == ((1, HALF), (-1, HALF))

    @pytest.mark.parametrize("cls,atoms", [(SparseScalarLaw, SIGNS), (SparsePairLaw, PAIR_ATOMS)])
    def test_values_normalised_to_fraction_tuples(self, cls, atoms):
        law = cls(1, [list(row) for row in atoms], [list(row) for row in THIRD_DIAGONAL])
        rows = (*law.atoms, *law.diagonal_atoms)
        assert type(law.activation) is Fraction and type(law.atoms) is tuple
        assert all(type(row) is tuple and all(type(x) is Fraction for x in row) for row in rows)

    @pytest.mark.parametrize("args,message", [
        ((2, SIGNS), "invalid scalar law: activation q=2 outside (0, 1]"),
        ((1, ((1, HALF), (1, HALF))), "invalid scalar law: atom mean E[xi] must vanish"),
        ((1, ((1, HALF), (-1, Fraction(1, 4)))), "atoms probabilities sum to 3/4, not 1"),
        ((HALF, SIGNS), "unit variance requires q*E[xi^2] = 1"),
        ((1, SIGNS, ((1, 1),)), "diagonal mean must vanish"),
        ((1, SIGNS, ((2, HALF), (-2, HALF))), "diagonal variance exceeds 1"),
        ((1, ((1, 1, HALF), (-1, -1, HALF))), "each row of atoms must hold 2 numbers"),
    ])
    def test_invalid_scalar_laws_rejected(self, args, message):
        with pytest.raises(ValueError) as exc:
            SparseScalarLaw(*args)
        assert message in str(exc.value)

    @pytest.mark.parametrize("args,message", [
        ((1, ((1, 1, HALF), (-1, 1, HALF))), "invalid pair law: atom means E[xi], E[eta] must vanish"),
        ((HALF, PAIR_ATOMS), "unit variance requires q*E[xi^2] = q*E[eta^2] = 1"),
        ((1, SIGNS), "each row of pair atoms must hold 3 numbers"),
        ((1, ((1, 1, -HALF), (-1, -1, 3 * HALF))), "pair atoms has a negative probability"),
    ])
    def test_invalid_pair_laws_rejected(self, args, message):
        with pytest.raises(ValueError) as exc:
            SparsePairLaw(*args)
        assert message in str(exc.value)

    def test_float_atoms_rejected(self):
        with pytest.raises(TypeError, match="moment tables are exact: got float 0.5"):
            SparseScalarLaw(1, ((1, 0.5), (-1, HALF)))

    @pytest.mark.parametrize("law", [sign_scalar_law(), design_correlated_sign_law(HALF)])
    def test_immutable(self, law):
        assert_immutable(law, "activation", "atoms", "diagonal_atoms", "_integer_atoms", "extra")

    def test_equal_laws_equal_with_equal_hashes(self):
        assert_equal_values(sign_scalar_law(), SparseScalarLaw(1, SIGNS))
        assert_equal_values(design_correlated_sign_law(HALF),
                            design_correlated_sign_law(Fraction(2, 4)))
        assert sign_scalar_law() != SparseScalarLaw(1, SIGNS, THIRD_DIAGONAL)
        assert design_correlated_sign_law(HALF) != design_correlated_sign_law(0)

    def test_integer_atoms_made_once(self):
        law = SparseScalarLaw(1, SIGNS)
        cached = law._integer_atoms
        assert cached == (((1, 1), (-1, 1)), (1, 2))
        assert law._integer_atoms is cached and law.atom_moment(4) == 1

    @pytest.mark.parametrize("law", [
        sign_scalar_law(), SparseScalarLaw(1, SIGNS, THIRD_DIAGONAL),
        design_correlated_sign_law(HALF), design_correlated_sign_law(Fraction(-1, 3)),
    ])
    def test_document_and_pickle_round_trip(self, law):
        assert law_from_dict(type(law), law_to_dict(law)) == law
        back = pickle.loads(pickle.dumps(law))
        assert back == law and type(back) is type(law) and back.atom_moment(2) == 1


class TestGaussianLaw:
    def test_equal_hashable_and_immutable(self):
        assert_equal_values(GaussianLaw(), GaussianLaw())
        assert_immutable(GaussianLaw(), "extra")
        assert [GaussianLaw().moment(k) for k in range(7)] == [1, 0, 1, 0, 3, 0, 15]


class TestLimitValue:
    def test_built_by_position_or_keyword_with_its_default(self):
        zero = LimitValue("zero_exact")
        assert zero == LimitValue(kind="zero_exact") and zero.exponent is None
        order = LimitValue("symbolic_order", Fraction(-1, 2))
        assert order == LimitValue(kind="symbolic_order", exponent=Fraction(-1, 2))

    def test_immutable_equal_and_hashable(self):
        value = LimitValue("symbolic_order", Fraction(1))
        assert_immutable(value, "kind", "exponent", "extra")
        assert_equal_values(value, LimitValue("symbolic_order", 1))
        assert value != LimitValue("symbolic_order", Fraction(2))


class TestExactMomentTable:
    def test_built_by_position_or_keyword(self, sign_law):
        assert ExactMomentTable(sign_law) == ExactMomentTable(law=sign_law)
        assert ExactMomentTable(sign_law).law is sign_law

    def test_equal_laws_give_equal_tables_whatever_their_memo(self, sign_law):
        used = ExactMomentTable(sign_law)
        assert used.entry(4) == (1, 2) and used.cumulant(4)
        assert_equal_values(used, ExactMomentTable(SparseScalarLaw(1, SIGNS)))
        assert used != ExactMomentTable(GaussianLaw())

    def test_immutable(self, sign_law):
        assert_immutable(ExactMomentTable(sign_law), "law", "_memo", "extra")

    def test_memo_serves_each_moment_once(self, sign_law):
        table = ExactMomentTable(sign_law)
        assert table.pair(2, 2) is table.pair(2, 2)
        assert table._memo is table._memo and ("pair", 2, 2) in table._memo


class TestExperimentConfig:
    DEFAULTS = {"model": "elliptic", "n": (100,), "kmax": 4, "reps": 200, "seed": 1,
                "rho": "1/2", "profile": "sign", "z_threshold": 4.0, "paper_formula": False,
                "fmt": "json", "out": None}

    def test_defaults_and_field_order(self):
        cfg = ExperimentConfig("limits")
        assert cfg.as_dict() == {"command": "limits", **self.DEFAULTS, "n": [100]}
        assert list(cfg.as_dict()) == ["command", *self.DEFAULTS]

    def test_built_by_position_or_keyword(self):
        by_position = ExperimentConfig("oracle", "iid", [8, 9], 3)
        by_keyword = ExperimentConfig(kmax=3, n=(8, 9), model="iid", command="oracle")
        assert_equal_values(by_position, by_keyword)
        assert by_position.n == (8, 9) and type(by_position.n) is tuple

    @pytest.mark.parametrize("fields,message", [
        ({"command": "limits", "kmax": "3"}, "config field 'kmax' must be an integer, got '3'"),
        ({"command": "limits", "n": [1.5]}, "config field 'n' must be a list of integers"),
        ({"command": "sample"}, "unknown command 'sample'"),
        ({"command": "limits", "fmt": "csv"}, "--format csv applies only to verify"),
        ({"command": "limits", "kmax": 11}, "limits supports --kmax up to 10, got 11"),
        ({"command": "verify", "reps": 1}, "verify needs --reps of at least 2, got 1"),
        ({"command": "limits", "rho": "2"}, "--rho must be a rational in [-1, 1], got '2'"),
    ])
    def test_invalid_fields_rejected(self, fields, message):
        with pytest.raises(UsageError) as exc:
            ExperimentConfig(**fields)
        assert str(exc.value).startswith(message)

    def test_immutable(self):
        assert_immutable(ExperimentConfig("limits"), "command", "n", "out", "extra")

    @pytest.mark.parametrize("fields", [
        {"command": "limits"},
        {"command": "verify", "model": "circulant", "n": [512], "kmax": 6, "reps": 20000,
         "profile": "light", "z_threshold": 3.5, "paper_formula": True, "fmt": "csv",
         "out": "report.csv"},
        {"command": "oracle", "model": "iid", "n": [7, 11, 13], "seed": 0},
    ])
    def test_document_round_trip(self, fields):
        cfg = ExperimentConfig(**fields)
        assert ExperimentConfig.from_dict(cfg.as_dict()) == cfg
        assert ExperimentConfig.from_dict({}, **cfg.as_dict()) == cfg
