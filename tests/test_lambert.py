"""Bilateral Lambert sums, Sbar, the g-functions, and their identities."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from overrank.errors import PoleHit
from overrank.lambert import (
    _period,
    _period_numerator,
    _share_a_root,
    check_constant,
    check_g2,
    check_gees,
    check_part1,
    check_short,
    check_sigma_shift,
    check_step,
    g_index,
    g_series,
    lambert_sum,
    s_bar,
    sigma_ab,
    sigma_primed,
    verify_lemma41,
)
from overrank.products import SignedMonomial as SM, poch
from overrank.rankdiff import FormulaTerm, eval_terms
from overrank.report import compare
from overrank.series import (
    LaurentSeries,
    first_mismatch,
    mul,
    substitute_power,
)
from reference import inverse


def _sigma(z: SM, zeta: SM, base: int, order: int, primed: bool = False) -> LaurentSeries:
    """Sum(z, zeta, q^base) = sum_n (-1)^n zeta^n q^(base(n^2+n)) / (1 - z q^(base n))."""
    return lambert_sum(base, zeta.exp + base, -zeta.sign, [(z.sign, z.exp, base)], order,
                       primed=primed)


def _geom(sign: int, e: int, order: int) -> LaurentSeries:
    """1/(1 - sign*q^e) below `order`, as a Lambert sum with one term: with
    quad = step = order every term but n = 0 starts at or past the order."""
    return lambert_sum(order, 0, 1, [(sign, e, order)], order)


class TestGeom:
    """One denominator of a Lambert sum, negative exponents included."""

    def test_positive(self):
        assert list(_geom(1, 3, 10).terms()) == [(0, 1), (3, 1), (6, 1), (9, 1)]

    def test_negative(self):
        assert list(_geom(1, -2, 9).terms()) == [(2, -1), (4, -1), (6, -1), (8, -1)]

    def test_defining_property(self):
        e = -7
        prod = (LaurentSeries.one(60) - LaurentSeries.monomial(1, e, 60)) * _geom(1, e, 60)
        assert first_mismatch(prod, LaurentSeries.one(50)) is None

    def test_zero_exponent(self):
        with pytest.raises(PoleHit):
            _geom(1, 0, 10)


class TestSigma:
    def test_constant_term(self):
        s = _sigma(SM(1, 1), SM(1, 0), 3, 10)
        # n = 0 contributes 1 + O(q), n = -1 contributes q^2 + O(q^4)
        assert s.coeff(0) == 1
        assert s.coeff(2) == 2

    def test_index_form_matches_generic(self):
        # Sum(2,0) for ell=5 equals the explicit base-q^5 bilateral sum
        lhs = sigma_ab(2, 0, 5, 60)
        rhs = _sigma(SM(1, 2), SM(1, 0), 5, 60)
        assert first_mismatch(lhs, rhs) is None

    def test_pole_detection(self):
        with pytest.raises(PoleHit):
            _sigma(SM(1, 5), SM(1, 0), 5, 30)
        with pytest.raises(PoleHit):
            sigma_ab(10, 2, 5, 30)

    def test_primed_requires_unit(self):
        with pytest.raises(ValueError):
            _sigma(SM(1, 1), SM(1, 0), 5, 30, primed=True)

    def test_sigma_primed_low_order(self):
        # ell=5, b=2: the n = -1 and n = 1 terms set the low-order behavior
        s = sigma_primed(2, 5, 14)
        assert list(s.terms()) == [(3, 1), (8, 1), (12, -1), (13, 1)]

    def test_sigma_primed_empty(self):
        assert sigma_primed(2, 5, 0).is_zero()

    def test_negative_index_is_laurent(self):
        s = sigma_ab(-1, -4, 5, 20)
        assert s.min_exp >= 0  # this particular one happens to be a power series
        assert not s.is_zero()


class TestSbar:
    def test_product_form(self):
        for ell in (3, 5):
            lhs = s_bar(ell, ell, 200)
            ratio = (poch(1, 1, 1) / poch(-1, 1, 1)).expand(200)
            rhs = ratio.scale(Fraction(-1, 2)) + LaurentSeries.monomial(Fraction(1, 2), 0, 200)
            assert first_mismatch(lhs, rhs) is None, ell

    def test_reflection(self):
        for ell in (3, 5):
            for b in range(1, ell + 1):
                mismatch = first_mismatch(s_bar(b, ell, 120), -s_bar(ell - b, ell, 120))
                assert mismatch is None, (ell, b)

    def test_power_series(self):
        for ell in (3, 5):
            for b in range(1, ell + 1):
                assert s_bar(b, ell, 60).min_exp >= 0


class TestShiftIdentities:
    def test_sigma_shift(self):
        assert compare(*check_sigma_shift(SM(1, 2), SM(1, 1), 5, 120)).ok
        assert compare(*check_sigma_shift(SM(-1, 3), SM(-1, 2), 7, 120)).ok

    def test_step(self):
        assert compare(*check_step(SM(1, 2), 7, 200)).ok

    def test_short(self):
        assert compare(*check_short(SM(1, 2), 7, 120)).ok
        assert compare(*check_short(SM(-1, 1), 5, 120)).ok


class TestG:
    def test_g2(self):
        assert compare(*check_g2(1, 3, 150)).ok
        assert compare(*check_g2(1, 5, 150)).ok
        assert compare(*check_g2(2, 5, 150)).ok

    def test_g1(self):
        # 2g(a) - g(2a) + 1/2 = ... is the doubling identity at z = q^a, base ell
        assert compare(*check_part1(SM(1, 1), 5, 120)).ok
        assert compare(*check_part1(SM(1, 2), 5, 120)).ok
        assert compare(*check_part1(SM(1, 1), 3, 120)).ok

    def test_constant(self):
        assert compare(*check_constant(SM(1, 1), 3, 150)).ok

    def test_gees(self):
        assert compare(*check_gees(SM(1, 1), 5, 150)).ok

    def test_part1(self):
        assert compare(*check_part1(SM(1, 1), 5, 150)).ok
        assert compare(*check_part1(SM(1, 1), 3, 120)).ok

    def test_part2(self):
        # the reflected form g(z, q) + g(z^-1 q, q) = 1 at z = q^2, base 5
        lhs = g_series(1, 2, 5, 120) + g_series(1, 5 - 2, 5, 120)
        assert first_mismatch(lhs, LaurentSeries.one(120)) is None

    def test_g_series_repeat_is_a_cache_hit(self):
        first = g_series(-1, 3, 7, 90)
        hits = g_series.cache_info().hits
        assert g_series(-1, 3, 7, 90) is first
        assert g_series.cache_info().hits == hits + 1
        assert first == g_series.__wrapped__(-1, 3, 7, 90)  # a fresh build

    def test_g_term_is_lift_of_index_form(self):
        g_y = g_index(1, 5, 20)
        g_q = eval_terms((FormulaTerm(g=(1, 5)),), 100)
        assert first_mismatch(substitute_power(g_y, 5).truncate(100), g_q) is None

    def test_g_term_at_a_multiple_of_ell_is_a_pole(self):
        with pytest.raises(PoleHit):
            eval_terms((FormulaTerm(g=(5, 5)),), 100)


class TestLemma41:
    def test_named_instantiations(self):
        assert compare(*verify_lemma41(SM(1, 1), SM(1, 2), 5, 150)).ok
        assert compare(*verify_lemma41(SM(1, 2), SM(1, 1), 5, 150)).ok
        assert compare(*verify_lemma41(SM(-1, 1), SM(1, 1), 3, 100)).ok

    def test_pole_rejected(self):
        # zeta = z puts the n = 0 denominator at zero (and P(1) = 0 downstream)
        with pytest.raises(PoleHit):
            verify_lemma41(SM(1, 1), SM(1, 1), 3, 40)


# ----------------------------------------------------------------------
# lambert_sum against a term-by-term reference built with mul and inverse
# ----------------------------------------------------------------------

_WINDOW = 100  # the reference sums n over [-_WINDOW, _WINDOW]


def _lambert_reference(quad, lin, csign, denoms, order, primed) -> LaurentSeries:
    """The sum of lambert_sum, one term at a time: csign^n q^(quad n^2 + lin n)
    times series.inverse of each Laurent binomial 1 - s q^e (1/2 for 1 + q^0),
    over every n in a fixed window.  Raises PoleHit where a denominator vanishes."""
    total = LaurentSeries.zero(order)
    for n in range(-_WINDOW, _WINDOW + 1):
        if primed and n == 0:
            continue
        exps = [(s, off + step * n) for s, off, step in denoms]
        if (1, 0) in exps:
            raise PoleHit(f"pole at n = {n}")
        shift = quad * n * n + lin * n
        if abs(n) == _WINDOW:
            # the edge terms start at or past the order, and the edges lie past
            # the vertex of quad n^2 + lin n, so no term outside reaches below it
            assert shift >= order and abs(lin) < 2 * quad * _WINDOW, "window too narrow"
        if shift >= order:  # the denominators only add positive exponents
            continue
        depth = order - shift  # each term is exact to here before its shift
        term = LaurentSeries.monomial(1 if csign == 1 or n % 2 == 0 else -1, 0, depth)
        for s, e in exps:
            if e == 0:
                term = term.scale(Fraction(1, 2))
            else:
                term = mul(term, inverse(LaurentSeries.from_terms({0: 1, e: -s}, depth)))
        total = total + term.shift(shift)
    assert total.order == order  # the reference was built deep enough
    return total


class TestRangeStability:
    def test_doubling_changes_nothing(self):
        """The named sums equal the term-by-term reference, written out from
        each definition as (quad, lin, csign, denoms, order, primed)."""
        cases = [
            (sigma_ab(1, 0, 5, 80), (5, 5, -1, [(1, 1, 5)], 80, False)),
            (sigma_ab(4, 4, 5, 80), (5, 9, -1, [(1, 4, 5)], 80, False)),
            (sigma_ab(-1, -4, 5, 80), (5, 1, -1, [(1, -1, 5)], 80, False)),
            (sigma_primed(-2, 3, 80), (3, 1, -1, [(1, 0, 3)], 80, True)),
            (s_bar(1, 5, 80), (1, 1, -1, [(1, 0, 5)], 80, True)),
            (s_bar(3, 3, 80), (1, 3, -1, [(1, 0, 3)], 80, True)),
            (lambert_sum(1, 2, -1, [(-1, 0, 1), (1, 0, 5)], 80, primed=True),
             (1, 2, -1, [(-1, 0, 1), (1, 0, 5)], 80, True)),
        ]
        for got, args in cases:
            assert got == _lambert_reference(*args), args


# the rank-class sums sum' (-1)^n q^(n^2 + lin n) / ((1 + q^n)(1 - q^(mn))):
# m = 3 and 5 take the periodic path, m = 4 the full-length one
@example(quad=1, lin=2, csign=-1, denoms=[(-1, 0, 1)], prime=3, order=200)
@example(quad=1, lin=5, csign=-1, denoms=[(-1, 0, 1)], prime=5, order=240)
@example(quad=1, lin=3, csign=-1, denoms=[(-1, 0, 1)], prime=4, order=200)
# two denominators with no common root and a period L near 2 * 10^6, at an
# order far below it: the terms take the full-length path
@example(quad=1, lin=0, csign=1, denoms=[(-1, 1000, 1), (-1, 1001, 1)], prime=None, order=20)
# the lowest exponent f(n) = n^2 + lin n + max(0, 40 - 3n) is past the order
# at n = -1, 0 and 1, so the terms below it form a run at n <= -2 (lin = 14)
# or at n >= 2 (lin = -14) that is reached only by walking downhill from 0
@example(quad=1, lin=14, csign=1, denoms=[(1, -40, 3)], prime=None, order=20)
@example(quad=1, lin=-14, csign=1, denoms=[(1, -40, 3)], prime=None, order=20)
# one denominator of sign -1 (alternating geometric terms), and one whose
# exponent is past the length of every term that reaches below the order
@example(quad=1, lin=0, csign=1, denoms=[(-1, 3, 1)], prime=None, order=30)
@example(quad=2, lin=1, csign=-1, denoms=[(1, 25, 1)], prime=None, order=20)
@settings(max_examples=200, derandomize=True, deadline=None)
@given(quad=st.integers(1, 4), lin=st.integers(-40, 40), csign=st.sampled_from((1, -1)),
       denoms=st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(-40, 40),
                                 st.integers(1, 6)), max_size=2),
       prime=st.none() | st.integers(1, 6), order=st.integers(1, 40))
def test_lambert_sum_matches_termwise_reference(quad, lin, csign, denoms, prime, order):
    primed = prime is not None
    if primed:  # a primed sum omits n = 0 and needs the denominator 1 - q^(step n)
        denoms = [(1, 0, prime)] + denoms
    try:
        ref = _lambert_reference(quad, lin, csign, denoms, order, primed)
    except PoleHit:
        with pytest.raises(PoleHit):
            lambert_sum(quad, lin, csign, denoms, order, primed=primed)
        return
    assert lambert_sum(quad, lin, csign, denoms, order, primed=primed) == ref


def _divide_polynomial(num, den):
    """(quotient, remainder) of the integer polynomials num / den, as
    coefficient lists from q^0 up; den's leading coefficient is +-1."""
    rem = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    terms = [(j, d) for j, d in enumerate(den) if d]
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(den) - 1] * den[-1]
        quot[k] = c
        for j, d in terms:
            rem[k + j] -= c * d
    return quot, rem


def test_share_a_root_matches_polynomial_division():
    """D = (1 - s q^a)(1 - t q^b) divides 1 - q^L, L the lcm of the orders of
    its roots, exactly when the predicate finds no common root; then
    ``_period`` returns L and ``_period_numerator`` the nonzeros of the
    exact quotient."""
    for s in (1, -1):
        for t in (1, -1):
            for a in range(1, 25):
                for b in range(1, 25):
                    period = lcm(a if s == 1 else 2 * a, b if t == 1 else 2 * b)
                    den = [0] * (a + b + 1)
                    den[0] += 1
                    den[a] -= s
                    den[b] -= t
                    den[a + b] += s * t
                    quot, rem = _divide_polynomial([1] + [0] * (period - 1) + [-1], den)
                    divides = not any(rem)
                    assert _share_a_root(s, a, t, b) == (not divides), (s, a, t, b)
                    exps = ((s, a), (t, b))
                    assert _period(exps) == (period if divides else None), exps
                    if divides:
                        want = tuple((j, c) for j, c in enumerate(quot) if c)
                        assert _period_numerator(exps) == want, exps


def test_rank_class_denominators_are_periodic_for_odd_moduli():
    for m in range(1, 9):
        for n in (1, 2, 3, 6):
            exps = ((-1, n), (1, m * n))
            if m % 2:
                assert _period(exps) == 2 * m * n, (m, n)
                assert _period_numerator(exps) == tuple((j * n, (-1) ** j) for j in range(m)), (m, n)
            else:
                assert _period(exps) is None, (m, n)


def test_numerator_is_built_only_for_terms_longer_than_the_period():
    """A term with no common root but a period far past the order takes the
    full-length path, and N, of L - sum e + 1 coefficients, is never built."""
    _period_numerator.cache_clear()
    denoms = [(-1, 1000, 1), (-1, 1001, 1)]
    assert _period(((-1, 1000), (-1, 1001))) == 2000 * 1001
    lambert_sum(1, 0, 1, denoms, 30)
    assert _period_numerator.cache_info().currsize == 0
    # a rank-class term of m = 3 at n = 1 is longer than L = 6 and builds N
    lambert_sum(1, 2, -1, [(1, 0, 3), (-1, 0, 1)], 30, primed=True)
    assert _period_numerator.cache_info().currsize > 0
