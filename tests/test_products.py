"""Pochhammer products, the two-sided product P, theta series, and the
product-identity verifiers."""

import pytest

from overrank.errors import ZeroLeadingTerm
from overrank.products import (
    SignedMonomial as SM,
    p_mono,
    p_zero,
    pochhammer_inf,
    theta,
    triple_product,
    verify_addition,
    verify_hickerson,
    verify_lemma31,
)
from overrank.rankdiff import FormulaTerm, PochTerm, eval_terms
from overrank.report import compare
from overrank.series import LaurentSeries, first_mismatch, series_equal


class TestPochhammer:
    def test_pentagonal(self):
        p = pochhammer_inf(SM(1, 1), 1, 13)
        assert [p.coeff(n) for n in range(13)] == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]

    def test_difference_of_squares(self):
        order = 40
        prod = (
            pochhammer_inf(SM(-1, 1), 1, order)
            * pochhammer_inf(SM(1, 1), 1, order)
            / pochhammer_inf(SM(1, 2), 2, order)
        )
        assert first_mismatch(prod, LaurentSeries.one(order)) is None

    def test_unit_argument_vanishes(self):
        assert pochhammer_inf(SM(1, 0), 1, 10).is_zero()

    def test_invalid_monomial(self):
        with pytest.raises(ValueError):
            SM(2, 1)
        with pytest.raises(ValueError):
            SM(1, -1)


class TestEvalProduct:
    """Products of Pochhammer symbols, evaluated through rankdiff.eval_terms."""

    def test_overpartition_gf(self):
        term = FormulaTerm(pochs=(PochTerm(-1, 1, 1, 1), PochTerm(1, 1, 1, -1)))
        series = eval_terms((term,), 10)
        assert [series.coeff(n) for n in range(7)] == [1, 2, 4, 8, 14, 24, 40]

    def test_dissected_product_constant(self):
        # 2 (q^3;q^3)(q^6;q^6) / (q;q)
        term = FormulaTerm(pref=2, pochs=(PochTerm(1, 3, 3, 1), PochTerm(1, 6, 6, 1),
                                          PochTerm(1, 1, 1, -1)))
        assert eval_terms((term,), 5).coeff(0) == 2

    def test_empty_product(self):
        assert series_equal(eval_terms((FormulaTerm(),), 6), LaurentSeries.one(6))

    def test_zero_denominator_propagates(self):
        term = FormulaTerm(pochs=(PochTerm(1, 0, 1, -1),))
        with pytest.raises(ZeroLeadingTerm):
            eval_terms((term,), 5)


class TestBigP:
    def test_matches_pochhammer_pair(self):
        order = 60
        lhs = p_mono(1, 2, 5, order)
        rhs = pochhammer_inf(SM(1, 2), 5, order) * pochhammer_inf(SM(1, 3), 5, order)
        assert series_equal(lhs, rhs)

    def test_minus_one_constant(self):
        assert p_mono(-1, 0, 7, 8).coeff(0) == 2

    def test_reflection(self):
        # P(z^-1 q, q) = P(z, q) at z = q^2, base 7
        assert series_equal(p_mono(1, 5, 7, 120), p_mono(1, 2, 7, 120))

    def test_shift_relation(self):
        # P(zq, q) = -z^-1 P(z, q) at z = -q^3, base 5
        lhs = p_mono(-1, 8, 5, 80)
        rhs = p_mono(-1, 3, 5, 80).shift(-3).truncate(80)
        assert series_equal(lhs, rhs)

    def test_negative_index(self):
        # P(-a) = -y^-a P(a)
        for ell in (3, 5, 7):
            for a in range(1, ell):
                lhs = p_mono(1, -a, ell, 60)
                rhs = (-p_mono(1, a, ell, 60)).shift(-a).truncate(60)
                assert series_equal(lhs, rhs), (ell, a)

    def test_unit_is_zero_series(self):
        assert p_mono(1, 0, 5, 20).is_zero()

    def test_p_zero(self):
        for ell in (3, 5, 7):
            assert series_equal(p_zero(ell, 50), pochhammer_inf(SM(1, ell), ell, 50))


class TestTheta:
    def test_alternating_squares(self):
        t = theta(SM(-1, 0), 1, 12)
        assert [t.coeff(n) for n in range(12)] == [1, -2, 0, 0, 2, 0, 0, 0, 0, -2, 0, 0]

    def test_plain_squares(self):
        t = theta(SM(1, 0), 1, 6)
        assert [t.coeff(n) for n in range(6)] == [1, 2, 0, 0, 2, 0]

    def test_triple_product(self):
        assert series_equal(theta(SM(1, 1), 1, 50), triple_product(SM(1, 1), 1, 50))
        assert series_equal(theta(SM(-1, 2), 3, 80), triple_product(SM(-1, 2), 3, 80))


class TestVerifiers:
    def test_lemma31_passes(self):
        assert verify_lemma31("eq1", 100).ok
        assert verify_lemma31("eq2", 150).ok

    def test_lemma31_mutation_located(self):
        from overrank.products import _poch_raw
        order = 60
        lhs = _poch_raw(1, 1, 1, order) / _poch_raw(-1, 1, 1, order)
        rhs = _poch_raw(1, 9, 9, order) / _poch_raw(-1, 9, 9, order)
        # flipped sign on the second term
        rhs = rhs + 2 * (
            _poch_raw(1, 3, 18, order) * _poch_raw(1, 15, 18, order)
            * _poch_raw(1, 18, 18, order)
        ).shift(1).truncate(order)
        report = compare("mutated", lhs, rhs)
        assert not report.ok
        assert report.first_mismatch.exp == 1

    def test_hickerson_named_cases(self):
        assert verify_hickerson("lemma33", SM(-1, 5), SM(-1, 10), 25, 150).ok
        assert verify_hickerson("lemma33", SM(1, 5), SM(1, 10), 25, 150).ok
        assert verify_hickerson("lemma34", SM(1, 5), SM(1, 10), 25, 150).ok
        assert verify_hickerson("lemma35", SM(1, 5), SM(1, 10), 25, 150).ok
        assert verify_hickerson("lemma32", SM(1, 3), SM(-1, 7), 11, 100).ok

    def test_addition_named_cases(self):
        assert verify_addition(SM(1, 20), SM(1, 10), SM(1, 5), 50, 200).ok
        assert verify_addition(SM(1, 20), SM(1, 15), SM(1, 10), 50, 200).ok

    def test_addition_degenerate(self):
        # z = zeta: first two terms cancel, third carries P(1) = 0
        assert verify_addition(SM(1, 4), SM(1, 4), SM(1, 2), 9, 60).ok
