import json
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explodingmoments.profiles import (
    DocumentError,
    MomentProfile,
    MomentTableError,
    SparsePairLaw,
    SparseScalarLaw,
    degenerate_profile_of,
    design_correlated_sign_law,
    law_from_dict,
    law_to_dict,
    light_profile,
    pair_table_from_scalar,
    profile_from_dict,
    profile_of_scalar_law,
    profile_of_sparse_law,
    profile_to_dict,
    sign_scalar_law,
    tilde_transform,
    validate_profile,
    wigner_profile,
)

rationals = st.fractions(min_value=-1, max_value=1, max_denominator=50)

# unit variance with nonzero odd moments: q = 1/2, xi = -1 w.p. 2/3, 2 w.p. 1/3
SKEWED_LAW = SparseScalarLaw(
    activation=Fraction(1, 2), atoms=((Fraction(-1), Fraction(2, 3)), (Fraction(2), Fraction(1, 3)))
)
# xi and eta both of that law, E[xi*eta] = -1, and a zero diagonal
SKEWED_PAIR_LAW = SparsePairLaw(
    activation=Fraction(1, 2),
    atoms=((-1, 2, Fraction(1, 3)), (-1, -1, Fraction(1, 3)), (2, -1, Fraction(1, 3))),
    diagonal_atoms=((0, 1),),
)

# atoms on different denominators: xi = -3/2 w.p. 8/17, 4/3 w.p. 9/17, and an
# independent eta = -1 w.p. 2/3, 2 w.p. 1/3; E[xi^2] = E[eta^2] = 2, q = 1/2
FRACTIONAL_XI = ((Fraction(-3, 2), Fraction(8, 17)), (Fraction(4, 3), Fraction(9, 17)))
FRACTIONAL_LAW = SparseScalarLaw(activation=Fraction(1, 2), atoms=FRACTIONAL_XI)
FRACTIONAL_PAIR_LAW = SparsePairLaw(
    activation=Fraction(1, 2),
    atoms=tuple((x, y, p * r) for x, p in FRACTIONAL_XI
                for y, r in ((-1, Fraction(2, 3)), (2, Fraction(1, 3)))),
)


def full_pair_table(kmax, overrides):
    table = {}
    for k in range(kmax + 1):
        for l in range(kmax + 1 - k):
            if 2 <= k + l <= kmax:
                table[(k, l)] = Fraction(0)
    table[(2, 0)] = table[(0, 2)] = Fraction(1)
    table.update(overrides)
    return table


class TestValidateProfile:
    def test_unit_variance_accepted(self):
        prof = MomentProfile(alpha=1, kmax=2, pair_table=full_pair_table(2, {}))
        assert validate_profile(prof, "elliptic") == []

    def test_variance_mismatch_rejected(self):
        prof = MomentProfile(alpha=1, kmax=2,
                             pair_table=full_pair_table(2, {(2, 0): Fraction(2)}))
        codes = [v.code for v in validate_profile(prof, "elliptic")]
        assert "variance-mismatch" in codes

    def test_missing_pair_table_rejected(self):
        prof = MomentProfile(alpha=1, kmax=2, scalar_table={2: Fraction(1)})
        codes = {v.code for v in validate_profile(prof, "elliptic")}
        assert codes == {"missing-entry"}

    def test_scalar_models_need_scalar_table(self):
        prof = MomentProfile(alpha=1, kmax=3, scalar_table={2: Fraction(1)})
        codes = [v.code for v in validate_profile(prof, "circulant")]
        assert codes == ["missing-entry"]  # C_3 absent

    def test_unknown_model_raises(self):
        with pytest.raises(ValueError):
            validate_profile(light_profile(), "toeplitz")


class TestSparseLaws:
    def test_correlated_sign_law_examples(self):
        law = design_correlated_sign_law(Fraction(1, 2))
        probs = sorted(p for *_ab, p in law.atoms)
        assert probs == [Fraction(1, 8), Fraction(1, 8), Fraction(3, 8), Fraction(3, 8)]

    def test_rho_zero_is_independent(self):
        law = design_correlated_sign_law(0)
        assert law.atom_moment(1, 1) == 0
        assert all(p == Fraction(1, 4) for *_ab, p in law.atoms)

    def test_rho_one_is_symmetric(self):
        law = design_correlated_sign_law(1)
        assert all(a == b for a, b, _p in law.atoms)

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            design_correlated_sign_law(Fraction(3, 2))

    def test_invalid_laws_rejected(self):
        one = Fraction(1)
        with pytest.raises(ValueError, match="unit variance"):
            SparsePairLaw(activation=Fraction(1, 2), atoms=((one, one, one),))
        with pytest.raises(ValueError, match="mean"):
            SparseScalarLaw(activation=one, atoms=((one, one),))
        with pytest.raises(ValueError, match="sum to 0"):
            SparsePairLaw(activation=one, atoms=())

    def test_atom_rows_of_the_wrong_width_rejected(self):
        one, half = Fraction(1), Fraction(1, 2)
        with pytest.raises(ValueError, match="each row of pair atoms must hold 3 numbers"):
            SparsePairLaw(activation=one, atoms=((one, half), (-one, half)))
        with pytest.raises(ValueError, match="each row of atoms must hold 2 numbers"):
            SparseScalarLaw(activation=one, atoms=((one, one, half), (-one, one, half)))
        with pytest.raises(ValueError, match="each row of diagonal atoms must hold 2 numbers"):
            SparseScalarLaw(activation=one, atoms=((one, half), (-one, half)),
                            diagonal_atoms=((0, 0, one),))

    @pytest.mark.parametrize(
        "law", [design_correlated_sign_law(Fraction(1, 3)), SKEWED_PAIR_LAW, FRACTIONAL_PAIR_LAW])
    def test_pair_atom_moment_is_the_atom_sum(self, law):
        for k in range(7):
            assert law.atom_moment(k) == sum(p * a**k for a, _b, p in law.atoms)
            for l in range(7):
                assert law.atom_moment(k, l) == sum(p * a**k * b**l for a, b, p in law.atoms)
        with pytest.raises(ValueError):
            law.atom_moment(1, 1, 1)

    @pytest.mark.parametrize("law", [sign_scalar_law(), SKEWED_LAW, FRACTIONAL_LAW])
    def test_scalar_atom_moment_is_the_atom_sum(self, law):
        for k in range(9):
            assert law.atom_moment(k) == sum(p * v**k for v, p in law.atoms)
        with pytest.raises(ValueError):
            law.atom_moment(1, 1)

    @given(rho=rationals)
    @settings(max_examples=30)
    def test_profile_recovers_rho_exactly(self, rho):
        prof = profile_of_sparse_law(design_correlated_sign_law(rho))
        assert prof.pair(1, 1) == rho


class TestProfileOfSparseLaw:
    def test_sign_law_pair_moments(self, sign_pair_law, sign_pair_profile):
        # enumerate the 4 atoms directly, independent of the law's helper
        ref = {}
        for k, l in [(1, 1), (2, 2), (2, 1)]:
            ref[(k, l)] = sum(p * a**k * b**l for a, b, p in sign_pair_law.atoms)
        assert sign_pair_profile.pair(1, 1) == ref[(1, 1)] == Fraction(1, 2)
        assert sign_pair_profile.pair(2, 2) == ref[(2, 2)] == 1
        assert sign_pair_profile.pair(2, 1) == ref[(2, 1)] == 0

    def test_independent_signs_uncorrelated(self):
        prof = profile_of_sparse_law(design_correlated_sign_law(0))
        assert prof.pair(1, 1) == 0

    def test_scalar_law_profile(self, sign_profile):
        assert sign_profile.scalar(2) == 1
        assert sign_profile.scalar(3) == 0
        assert sign_profile.scalar(4) == 1
        assert validate_profile(sign_profile, "circulant") == []


class TestDegenerateProfile:
    def test_mixed_moments_vanish(self):
        prof = degenerate_profile_of({2: Fraction(1), 4: Fraction(5)}, kmax=4)
        assert prof.pair(1, 1) == 0
        assert prof.pair(2, 2) == 0
        assert prof.pair(2, 0) == 1
        assert prof.pair(4, 0) == prof.pair(0, 4) == 5

    def test_empty_higher_table(self):
        prof = degenerate_profile_of({2: Fraction(1)}, kmax=6)
        assert prof.pair(3, 2) == 0 and prof.pair(6, 0) == 0

    def test_validates_as_elliptic_when_scalar_valid(self, sign_profile):
        prof = degenerate_profile_of(sign_profile.scalar_table, kmax=sign_profile.kmax)
        assert validate_profile(prof, "elliptic") == []


class TestTildeTransform:
    def test_light_table_examples(self):
        scalar = {k: Fraction(1) if k == 2 else Fraction(0) for k in range(2, 9)}
        t1, t2, _tp = tilde_transform(scalar, pair_table_from_scalar(scalar, 8), 8)
        assert t1[2] == 2
        assert t2[2] == 2
        assert all(t1[k] == 0 for k in (3, 5, 7))

    def test_pair_variance_entry_vanishes(self):
        # whatever C_{1,1} is, the transformed blocks are uncorrelated
        pair = {(k, l): Fraction(0) for k in range(3) for l in range(3) if 2 <= k + l <= 2}
        pair[(1, 1)] = Fraction(7, 3)
        _t1, _t2, tp = tilde_transform({2: Fraction(1)}, pair, kmax=2)
        assert tp[(1, 1)] == 0

    def test_table_too_short(self):
        with pytest.raises(MomentTableError):
            tilde_transform({2: Fraction(1)}, {}, kmax=4)

    def test_sign_law_tables(self, sign_profile):
        t1, t2, tp = tilde_transform(
            sign_profile.scalar_table, pair_table_from_scalar(sign_profile.scalar_table, 8), 8
        )
        assert t1[2] == 2 and t2[2] == 2
        assert t1[3] == 0 and t2[3] == 0
        assert t1[4] == 2 * 1 + 6 * 1  # 2 C_4 + binom(4,2) C_2^2
        assert tp[(1, 1)] == 0


class TestWignerAndLightProfiles:
    def test_wigner_profile_is_formal(self):
        prof = wigner_profile()
        assert prof.pair(1, 1) == 1
        assert prof.pair(2, 0) == 0  # deliberately not a valid law
        assert any(v.code == "variance-mismatch" for v in validate_profile(prof, "elliptic"))

    def test_light_profile_valid_everywhere(self):
        prof = light_profile()
        assert validate_profile(prof, "circulant") == []
        assert validate_profile(prof, "elliptic") == []


class TestSerialization:
    def test_profile_round_trip(self, sign_pair_profile):
        doc = json.loads(json.dumps(profile_to_dict(sign_pair_profile)))
        assert profile_from_dict(doc) == sign_pair_profile
        # documents written with the former diagonal_bounded flag still read
        assert profile_from_dict({**doc, "diagonal_bounded": False}) == sign_pair_profile

    def test_pair_law_round_trip(self, sign_pair_law):
        doc = json.loads(json.dumps(law_to_dict(sign_pair_law)))
        assert law_from_dict(SparsePairLaw, doc) == sign_pair_law

    @pytest.mark.parametrize("law", [
        sign_scalar_law(),
        SKEWED_LAW,
        SparseScalarLaw(activation=1, atoms=((1, Fraction(1, 2)), (-1, Fraction(1, 2))),
                        diagonal_atoms=((Fraction(-1, 2), Fraction(2, 3)), (1, Fraction(1, 3)))),
    ])
    def test_scalar_law_round_trip(self, law):
        doc = json.loads(json.dumps(law_to_dict(law)))
        assert law_from_dict(SparseScalarLaw, doc) == law

    def test_law_documents(self):
        # rationals as flattened [numerator, denominator] pairs
        assert law_to_dict(SKEWED_LAW) == {
            "activation": [1, 2],
            "atoms": [[-1, 1, 2, 3], [2, 1, 1, 3]],
            "diagonal_atoms": [[1, 1, 1, 2], [-1, 1, 1, 2]],
        }
        assert law_to_dict(design_correlated_sign_law(Fraction(1, 2)))["atoms"] == [
            [1, 1, 1, 1, 3, 8], [-1, 1, -1, 1, 3, 8], [1, 1, -1, 1, 1, 8], [-1, 1, 1, 1, 1, 8],
        ]

    def test_odd_length_row_rejected(self):
        doc = law_to_dict(sign_scalar_law())
        doc["atoms"][0].append(7)
        with pytest.raises(ValueError, match="odd length"):
            law_from_dict(SparseScalarLaw, doc)

    @pytest.mark.parametrize(
        "reader,doc,message",
        [
            (profile_from_dict, {"kmax": 4}, "profile lacks field 'alpha'"),
            (profile_from_dict, {"alpha": [1, 1], "kmax": "4"}, "malformed profile"),
            (profile_from_dict, {"alpha": [1, 0], "kmax": 4}, "malformed profile"),
            (profile_from_dict, [[1, 1], 4], "malformed profile"),
            (partial(law_from_dict, SparseScalarLaw), {"activation": [1, 1], "atoms": []},
             "scalar_law lacks field 'diagonal_atoms'"),
            (partial(law_from_dict, SparsePairLaw),
             {"activation": [1.0, 1], "atoms": [], "diagonal_atoms": []}, "malformed pair_law"),
            (partial(law_from_dict, SparsePairLaw),
             {"activation": [1, 0], "atoms": [], "diagonal_atoms": []}, "malformed pair_law"),
        ],
    )
    def test_unreadable_document_is_a_document_error(self, reader, doc, message):
        # a missing field, a wrong type and a zero denominator raise one error
        with pytest.raises(DocumentError, match=message):
            reader(doc)

    @given(rho=rationals)
    @settings(max_examples=20)
    def test_law_round_trip_any_rho(self, rho):
        law = design_correlated_sign_law(rho)
        assert law_from_dict(SparsePairLaw, law_to_dict(law)) == law


class TestExactnessDiscipline:
    def test_floats_rejected_in_tables(self):
        with pytest.raises(TypeError):
            MomentProfile(alpha=1, kmax=2, scalar_table={2: 1.0})

    def test_all_profile_values_are_fractions(self, sign_pair_profile):
        assert all(isinstance(v, Fraction) for v in sign_pair_profile.pair_table.values())
        assert all(isinstance(v, Fraction) for v in sign_pair_profile.scalar_table.values())
