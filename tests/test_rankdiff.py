"""Rank-difference assemblies: closed forms vs oracle, the Sbar machinery,
and mutation sensitivity of the transcription tables."""

import dataclasses

from overrank import products, series
from overrank.combinat import RANK_CLASS_PRODUCT, nbar_class, nbar_class_series, rank_class_sum
from overrank.lambert import s_bar
from overrank.products import Product, poch
from overrank.rankdiff import (
    BRACKET_TABLE,
    CHECK_TABLE,
    COMBINATION_TABLE,
    THEOREM_TABLE,
    _HALF_RATIO,
    _class_pair_difference,
    FinalFormSpec,
    FormulaTerm,
    RankDiffKey,
    brackets,
    combination_lhs,
    combination_rank_side,
    combination_theorem_side,
    rank_diff_formula,
    rank_diff_oracle,
    s_bar_b_decomposition,
    s_bar_final_form,
    sigma_coefficient_bracket,
    verify_check,
    verify_sbar_closed,
)
from overrank.report import compare
from overrank.series import (
    LaurentSeries,
    extract_progression,
    first_mismatch,
    mul,
)

ALL_KEYS = [RankDiffKey(ell, s, t, d) for (ell, s, t, d) in THEOREM_TABLE]


class TestOracle:
    def test_spot_values(self):
        k = RankDiffKey(3, 0, 1, 1)
        assert rank_diff_oracle(k, 3).coeff(0) == 2
        k = RankDiffKey(3, 0, 1, 2)
        assert rank_diff_oracle(k, 3).coeff(0) == -2

    def test_zero_case(self):
        assert rank_diff_oracle(RankDiffKey(5, 0, 2, 2), 20).is_zero()

    def test_key_validation(self):
        import pytest
        with pytest.raises(ValueError):
            RankDiffKey(7, 0, 1, 0)
        with pytest.raises(ValueError):
            RankDiffKey(5, 0, 1, 0)
        with pytest.raises(ValueError):
            RankDiffKey(3, 0, 1, 3)


class TestRankSide:
    """The rank side subtracts the class sums before it multiplies; it must
    equal the difference of the whole class series, with less work."""

    def test_oracle_is_the_class_series_difference(self):
        order = 60
        for key in ALL_KEYS:
            src = key.ell * order + key.d
            diff = nbar_class_series(key.s, key.ell, src) - nbar_class_series(key.t, key.ell, src)
            assert rank_diff_oracle(key, order) == extract_progression(diff, key.ell, key.d), key

    def test_oracle_residues_share_the_class_sums(self):
        rank_class_sum.cache_clear()
        _class_pair_difference.cache_clear()
        for d in range(5):
            rank_diff_oracle(RankDiffKey(5, 1, 2, d), 40)
        assert rank_class_sum.cache_info()[:2] == (0, 2)  # one build per class
        assert _class_pair_difference.cache_info()[:2] == (4, 1)  # one per class pair

    def test_combination_rank_side_is_the_class_series_difference(self):
        order = 200
        for pair, (ell, s, t, _) in COMBINATION_TABLE.items():
            diff = nbar_class_series(s, ell, order) - nbar_class_series(t, ell, order)
            assert combination_rank_side(pair, order) == mul(diff, _HALF_RATIO.expand(order)), pair

    def test_packed_products(self, monkeypatch):
        """One kernel run per class pair, the class product times the
        class-sum difference, shared by the pair's ell residues; none and no
        packed ``mul`` per combination: the combination's ratio cancels the
        class product as Product values.  The kernel is taken at every
        length here; below ``_TIMES_MIN_LENGTH`` ``times`` takes the
        memoised expansion instead."""
        runs, packs = [], []
        kernel, pack = products._expand_packed, series._pack
        monkeypatch.setattr(products, "_TIMES_MIN_LENGTH", 0)
        monkeypatch.setattr(products, "_expand_packed",
                            lambda *args: runs.append(args[:2]) or kernel(*args))
        monkeypatch.setattr(series, "_pack", lambda *args: packs.append(args) or pack(*args))
        _class_pair_difference.cache_clear()
        for key in ALL_KEYS:
            rank_diff_oracle(key, 40)
        # at 41 ell - 1 terms, less those below the difference's first
        expected = []
        for ell, s, t in {(key.ell, key.s, key.t) for key in ALL_KEYS}:
            full = 41 * ell - 1
            diff = rank_class_sum(s, ell, full) - rank_class_sum(t, ell, full)
            expected.append((RANK_CLASS_PRODUCT.factors, full - diff.min_exp))
        assert sorted(runs) == sorted(expected)
        assert RANK_CLASS_PRODUCT * _HALF_RATIO == Product()
        for pair in COMBINATION_TABLE:
            runs.clear()
            combination_rank_side(pair, 200)
            assert not runs and not packs, pair


class TestClosedForms:
    def test_constant_terms(self):
        assert rank_diff_formula(RankDiffKey(3, 0, 1, 1), 4).coeff(0) == 2
        # product constant 4 minus Lambert-sum constant 6*1
        assert rank_diff_formula(RankDiffKey(3, 0, 1, 2), 4).coeff(0) == -2
        assert rank_diff_formula(RankDiffKey(5, 0, 2, 2), 12).is_zero()

    def test_formula_matches_oracle(self):
        for key in ALL_KEYS:
            lhs = rank_diff_formula(key, 12)
            rhs = rank_diff_oracle(key, 12)
            assert first_mismatch(lhs, rhs) is None, key

    def test_formula_matches_counted_classes(self):
        # third route: the counting oracle read on ell*n + d, with no rank-class
        # generating function involved; n = 0 is left out (analytic convention)
        order = 40
        for key in ALL_KEYS:
            counted = LaurentSeries.from_terms(
                {j: nbar_class(key.s, key.ell, key.ell * j + key.d)
                 - nbar_class(key.t, key.ell, key.ell * j + key.d)
                 for j in range(order - 1, -1, -1) if key.ell * j + key.d >= 1}, order)
            assert first_mismatch(rank_diff_formula(key, order), counted) is None, key

    def test_integer_coefficients(self):
        for key in ALL_KEYS:
            for _, c in rank_diff_formula(key, 20).terms():
                assert c.denominator == 1, (key, c)


class TestSbarMachinery:
    def test_b_decomposition(self):
        for ell, m in ((3, 1), (5, 2), (5, 1)):
            lhs = s_bar(ell - 2 * m, ell, 90)
            rhs = s_bar_b_decomposition(FinalFormSpec(ell, m), 90)
            assert first_mismatch(lhs, rhs) is None, (ell, m)

    def test_final_form(self):
        for ell, m in ((3, 1), (5, 2), (5, 1)):
            lhs = s_bar(ell - 2 * m, ell, 90)
            rhs = s_bar_final_form(FinalFormSpec(ell, m), 90)
            assert first_mismatch(lhs, rhs) is None, (ell, m)

    def test_brackets(self):
        assert compare(*brackets(FinalFormSpec(3, 1), 120)).ok
        assert compare(*brackets(FinalFormSpec(5, 2), 150)).ok
        assert sigma_coefficient_bracket(FinalFormSpec(5, 2), 20).min_exp == 6
        lead = sigma_coefficient_bracket(FinalFormSpec(5, 1), 20)
        assert lead.min_exp == 4 and lead.coeff(4) == -1
        assert compare(*brackets(FinalFormSpec(5, 1), 150)).ok

    def test_sbar_closed_forms(self):
        for which in ("s1too", "s1", "s3"):
            assert compare(*verify_sbar_closed(which, 90)).ok, which

    def test_excluded_indices(self):
        assert FinalFormSpec(3, 1).excluded_sum_indices() == ()
        assert FinalFormSpec(5, 2).excluded_sum_indices() == (1,)
        assert FinalFormSpec(5, 1).excluded_sum_indices() == (2,)


class TestCombinations:
    def test_both_routes(self):
        for pair in COMBINATION_TABLE:
            lhs = combination_lhs(pair, 60)
            assert first_mismatch(lhs, combination_rank_side(pair, 60)) is None, pair
            assert first_mismatch(lhs, combination_theorem_side(pair, 60)) is None, pair


class TestChecks:
    def test_all_pass(self):
        for i in range(10):
            assert compare(*verify_check(i, 120)).ok, i


def _flip_sign(term: FormulaTerm, sign: int, r: int, step: int) -> FormulaTerm:
    """Replace the factor (sign q^r; q^step) of the term by (-sign q^r; q^step)."""
    return dataclasses.replace(term, prod=term.prod / poch(sign, r, step) * poch(-sign, r, step))


def _bump_exponent(term: FormulaTerm, sign: int, r: int, step: int) -> FormulaTerm:
    """Replace the factor (sign q^r; q^step) of the term by (sign q^(r+1); q^step)."""
    return dataclasses.replace(term, prod=term.prod / poch(sign, r, step) * poch(sign, r + 1, step))


class TestMutationSensitivity:
    def test_sign_flip_in_theorem_table(self, monkeypatch):
        key = RankDiffKey(3, 0, 1, 1)
        good = THEOREM_TABLE[(3, 0, 1, 1)]
        mutated = (_flip_sign(good[0], 1, 3, 3),)  # (q^3;q^3) -> (-q^3;q^3)
        with monkeypatch.context() as mp:
            mp.setitem(THEOREM_TABLE, (3, 0, 1, 1), mutated)
            report = compare(rank_diff_formula(key, 20), rank_diff_oracle(key, 20))
        assert not report.ok and report.first_mismatch is not None
        # every untouched entry still passes
        for other in ALL_KEYS:
            assert first_mismatch(rank_diff_formula(other, 10),
                                  rank_diff_oracle(other, 10)) is None

    def test_exponent_bump_in_check_table(self, monkeypatch):
        lhs_terms, rhs_terms = CHECK_TABLE[1]
        mutated = (_bump_exponent(lhs_terms[0], 1, 15, 50),)  # (q^15;q^50) -> (q^16;q^50)
        with monkeypatch.context() as mp:
            mp.setitem(CHECK_TABLE, 1, (mutated, rhs_terms))
            report = compare(*verify_check(1, 80))
        assert not report.ok and report.first_mismatch is not None
        assert compare(*verify_check(1, 80)).ok

    def test_prefactor_flip_in_bracket_table(self, monkeypatch):
        good = BRACKET_TABLE[(3, 1)]
        mutated = (dataclasses.replace(good[0], prod=-good[0].prod),)
        with monkeypatch.context() as mp:
            mp.setitem(BRACKET_TABLE, (3, 1), mutated)
            report = compare(*brackets(FinalFormSpec(3, 1), 60))
        assert not report.ok
        assert report.first_mismatch.exp == 2  # the leading coefficient flips
        assert compare(*brackets(FinalFormSpec(3, 1), 60)).ok
