"""Pochhammer products, the two-sided product P, theta series, and the
product-identity verifiers."""

from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from overrank import products, registry, series
from overrank.combinat import RANK_CLASS_PRODUCT, _count_by_residue, rank_class_sum
from overrank.errors import PoleHit
from overrank.lambert import lambert_sum
from overrank.products import (
    P,
    FormulaTerm,
    Product,
    SignedMonomial as SM,
    binomial_pass,
    expand_cache_info,
    poch,
    triple_product,
    verify_addition,
    verify_hickerson,
    verify_lemma31,
)
from overrank.rankdiff import eval_terms
from overrank.report import compare
from overrank.series import (
    LaurentSeries,
    first_mismatch,
    mul,
    substitute_power,
)
from reference import evaluated, from_terms, inverse


class TestPochhammer:
    def test_pentagonal(self):
        p = poch(1, 1, 1).expand(13)
        assert [p.coeff(n) for n in range(13)] == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]

    def test_difference_of_squares(self):
        order = 40
        prod = poch(-1, 1, 1) * poch(1, 1, 1) / poch(1, 2, 2)
        assert products._euler_exponents(prod.factors, order) == []  # all cancel
        assert first_mismatch(prod.expand(order), LaurentSeries.monomial(1, 0, order)) is None

    def test_unit_argument_vanishes(self):
        assert not poch(1, 0, 1).expand(10).nums

    def test_invalid_monomial(self):
        with pytest.raises(ValueError):
            SM(2, 1)
        with pytest.raises(ValueError):
            SM(1, -1)


class TestEvalProduct:
    """Products of Pochhammer symbols, evaluated through rankdiff.eval_terms."""

    def test_overpartition_gf(self):
        term = FormulaTerm(poch(-1, 1, 1) / poch(1, 1, 1))
        series = eval_terms((term,), 10)
        assert [series.coeff(n) for n in range(7)] == [1, 2, 4, 8, 14, 24, 40]

    def test_dissected_product_constant(self):
        # 2 (q^3;q^3)(q^6;q^6) / (q;q)
        term = FormulaTerm(2 * poch(1, 3, 3) * poch(1, 6, 6) / poch(1, 1, 1))
        assert eval_terms((term,), 5).coeff(0) == 2

    def test_empty_product(self):
        one = LaurentSeries.monomial(1, 0, 6)
        assert first_mismatch(eval_terms((FormulaTerm(),), 6), one) is None

    def test_zero_denominator_propagates(self):
        with pytest.raises(PoleHit):
            eval_terms((FormulaTerm(Product() / poch(1, 0, 1)),), 5)


class TestBigP:
    def test_matches_pochhammer_pair(self):
        order = 60
        lhs = P(1, 2, 5).expand(order)
        rhs = mul(poch(1, 2, 5).expand(order), poch(1, 3, 5).expand(order))
        assert first_mismatch(lhs, rhs) is None

    def test_minus_one_constant(self):
        assert P(-1, 0, 7).expand(8).coeff(0) == 2

    def test_reflection(self):
        # P(z^-1 q, q) = P(z, q) at z = q^2, base 7
        assert first_mismatch(P(1, 5, 7).expand(120), P(1, 2, 7).expand(120)) is None

    def test_shift_relation(self):
        # P(zq, q) = -z^-1 P(z, q) at z = -q^3, base 5
        lhs = P(-1, 8, 5).expand(80)
        rhs = P(-1, 3, 5).expand(80).shift(-3).truncate(80)
        assert first_mismatch(lhs, rhs) is None

    def test_negative_index(self):
        # P(-a) = -y^-a P(a)
        for ell in (3, 5, 7):
            for a in range(1, ell):
                lhs = P(1, -a, ell).expand(60)
                rhs = (-P(1, a, ell).expand(60)).shift(-a).truncate(60)
                assert first_mismatch(lhs, rhs) is None, (ell, a)

    def test_unit_is_zero_series(self):
        assert not P(1, 0, 5).expand(20).nums

    def test_p_zero(self):
        # P(0) = (q^ell; q^ell)_inf is (q; q)_inf at q -> q^ell
        for ell in (3, 5, 7):
            pentagonal = substitute_power(poch(1, 1, 1).expand(-(-50 // ell)), ell)
            assert first_mismatch(poch(1, ell, ell).expand(50), pentagonal.truncate(50)) is None


class TestProduct:
    def test_equal_factors_cancel(self):
        assert P(1, 2, 5) / P(1, 2, 5) == Product()
        assert P(1, 5, 7) == P(1, 2, 7)
        assert (poch(1, 3, 10) ** 3) ** -1 * poch(1, 3, 10, 3) == Product()

    def test_unit_argument(self):
        assert poch(-1, 0, 4, 2) == 4 * poch(-1, 4, 4) ** 2
        assert poch(-1, 0, 4, -1) == Product(Fraction(1, 2)) / poch(-1, 4, 4)
        assert poch(1, 0, 4) == Product(0)
        assert 3 * P(1, 7, 7) * poch(1, 1, 1) == Product(0)

    def test_pole_in_a_denominator(self):
        for build in (lambda: poch(1, 0, 3, -1), lambda: poch(1, 2, 3) / P(1, 6, 3),
                      lambda: P(1, 0, 3) ** -2):
            with pytest.raises(PoleHit):
                build()

    def test_out_of_range_exponents(self):
        # P(s q^(e + k base)) collects (-s)^k q^(-k e - base k(k-1)/2)
        assert P(-1, 8, 5) == Product(1, -3) * P(-1, 3, 5)
        assert P(1, -2, 5) == Product(-1, -2) * P(1, 2, 5)
        assert P(1, 13, 5) == Product(1, -11) * P(1, 3, 5)

    def test_invalid_arguments(self):
        for args in ((2, 1, 3), (1, -1, 3), (1, 1, 0)):
            with pytest.raises(ValueError):
                poch(*args)
        with pytest.raises(ValueError):
            P(1, 1, 0)


# ----------------------------------------------------------------------
# Product.expand against products of binomials built with mul and inverse
# ----------------------------------------------------------------------


def _binomial(sign: int, e: int, order: int) -> LaurentSeries:
    """1 - sign*q^e as an exact Laurent polynomial."""
    return from_terms({0: 1, e: -sign} if e else {0: 1 - sign}, order)


def _reference(scalar, qexp, factors, order: int) -> LaurentSeries:
    """scalar * q^qexp * prod (1 - sign*q^e)^mult over (sign, e, mult), with
    every exponent listed, negative ones included."""
    low = sum(abs(e) * abs(m) for _, e, m in factors if e < 0)
    big = order - qexp + 3 * low + 1
    out = LaurentSeries.monomial(1, 0, big)
    for sign, e, mult in factors:
        if e >= order - qexp + low:
            continue  # only reaches exponents at or past the order
        b = _binomial(sign, e, big)
        for _ in range(abs(mult)):
            out = mul(out, b if mult > 0 else inverse(b))
    out = out.shift(qexp).scale(scalar)
    assert out.order >= order  # the reference itself was built deep enough
    return out.truncate(order)


POCH = st.tuples(st.just("poch"), st.sampled_from((1, -1)), st.just(0) | st.integers(1, 60),
                 st.integers(1, 50), st.integers(-3, 3)).filter(
    lambda f: f[2] > 0 or f[1] == -1)  # (1; q^k) = 0 has its own tests
BIG_P = st.integers(1, 12).flatmap(lambda base: st.tuples(
    st.just("P"), st.sampled_from((1, -1)), st.integers(-2 * base, 2 * base),
    st.just(base), st.integers(-3, 3)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(scalar=st.builds(Fraction, st.integers(-9, 9).filter(bool),
                        st.sampled_from((1, 2, 4, 8))),
       qexp=st.integers(-6, 6), parts=st.lists(st.one_of(POCH, BIG_P), max_size=5),
       order=st.integers(1, 50))
def test_expand_matches_binomial_products(scalar, qexp, parts, order):
    prod = Product(scalar, qexp)
    factors = []
    for kind, sign, a, b, mult in parts:
        if kind == "poch":  # (sign q^a; q^b)^mult
            piece = poch(sign, a, b, mult)
            exps = range(a, 1000, b)
        else:  # P(sign q^a, q^b)^mult = prod_j (1 - sign q^(a+jb)) (1 - sign q^(b(j+1)-a))
            assume(sign == -1 or a % b or mult > 0)
            piece = P(sign, a, b) ** mult
            exps = [e for j in range(1000 // b) for e in (a + j * b, b * (j + 1) - a)]
        prod = prod * piece
        factors += [(sign, e, mult) for e in exps]
    if prod == Product(0):
        assert not prod.expand(order).nums
        return
    ref = _reference(scalar, qexp, factors, order)
    assert prod.expand(order) == ref


def _pass_reference(factors, n):
    """The first n coefficients of prod (1 - s q^e)^mult over Product.factors,
    by one binomial_pass per binomial on an integer list."""
    out = [1] + [0] * (n - 1)
    for (sign, r, step), mult in factors:
        for e in range(r, n, step):
            binomial_pass(out, sign, e, mult)
    return out


def _reference_expand(prod, order):
    """prod.expand(order) by ``_pass_reference``, with no kernel or memo."""
    n = order - prod.qexp
    if n <= 0 or not prod.scalar:
        return LaurentSeries.zero(order)
    return LaurentSeries(prod.qexp, [prod.scalar * c for c in _pass_reference(prod.factors, n)],
                         order)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(parts=st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(1, 60),
                                st.integers(1, 50), st.integers(-8, 8).filter(bool)),
                      min_size=1, max_size=3),
       dilation=st.sampled_from((1, 1, 2, 3)), order=st.integers(1, 600))
# the majorant is the product itself, so the slot width is at its tightest
@example(parts=[(1, 1, 1, -8)], dilation=1, order=600)
@example(parts=[(-1, 1, 1, 8)], dilation=1, order=600)
@example(parts=[(-1, 1, 1, 8), (1, 1, 2, -8)], dilation=1, order=600)
def test_packed_expand_matches_binomial_pass(parts, dilation, order):
    prod = Product()
    for sign, r, step, mult in parts:
        prod = prod * poch(sign, dilation * r, dilation * step, mult)
    with pytest.MonkeyPatch.context() as mp:  # expand, not a memo hit
        mp.setattr(series, "_memo", {})
        mp.setattr(series, "_memo_counts", Counter())
        mp.setattr(products, "_expand_counts", dict.fromkeys(products._expand_counts, 0))
        got = prod.expand(order)
    assert got == LaurentSeries(0, _pass_reference(prod.factors, order), order)


# (q,q^4;q^5)(q^5;q^5)^2(-q^5;q^5)^4 / (q^2,q^3,-q^2,-q^3;q^5)^2: its
# binomials largely cancel, and its coefficients below q^1198 have 3 bits
BASE5_QUOTIENT = poch(1, 1, 5) * poch(1, 4, 5) * poch(1, 5, 5, 2) * poch(-1, 5, 5, 4) / (
    poch(1, 2, 5) * poch(1, 3, 5) * poch(-1, 2, 5) * poch(-1, 3, 5)) ** 2

# (sign, r, step, mult) factors over one base step b: shared steps b and
# doubled steps 2b, so that (1 + q^e) meets 1 - q^2e in another factor
REWRITE_PARTS = st.integers(1, 12).flatmap(lambda b: st.lists(st.tuples(
    st.sampled_from((1, -1)), st.integers(1, 2 * b), st.sampled_from((b, 2 * b)),
    st.integers(-4, 4).filter(bool)), min_size=1, max_size=6))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(parts=REWRITE_PARTS, order=st.integers(1, 400))
@example(parts=[(1, 1, 1, 1), (-1, 1, 1, 1), (1, 2, 2, -1)], order=400)  # all cancel
@example(parts=[(-1, 1, 1, 8)], order=600)
@example(parts=[(1, 1, 5, 1), (1, 4, 5, 1), (1, 5, 5, 2), (-1, 5, 5, 4), (1, 2, 5, -2),
                (1, 3, 5, -2), (-1, 2, 5, -2), (-1, 3, 5, -2)], order=1198)
def test_binomials_rewrite_the_product(parts, order):
    prod = Product()
    for sign, r, step, mult in parts:
        prod = prod * poch(sign, r, step, mult)
    binomials = products._euler_exponents(prod.factors, order)
    out = [1] + [0] * (order - 1)
    for e, sign, mult in binomials:
        binomial_pass(out, sign, e, mult)
    ref = _pass_reference(prod.factors, order)
    assert out == ref
    # every exponent once per sign, below the order; only 1 - q^e divides,
    # and no 1 - q^e divides where 1 - q^2e multiplies
    assert len({(e, sign) for e, sign, _ in binomials}) == len(binomials)
    assert all(0 < e < order for e, _, _ in binomials)
    assert all(sign == 1 for _, sign, mult in binomials if mult < 0)
    numerators = {e for e, sign, mult in binomials if sign == 1 and mult > 0}
    assert not any(2 * e in numerators for e, _, mult in binomials if mult < 0)
    with pytest.MonkeyPatch.context() as mp:  # expand, not a memo hit
        mp.setattr(series, "_memo", {})
        mp.setattr(series, "_memo_counts", Counter())
        mp.setattr(products, "_expand_counts", dict.fromkeys(products._expand_counts, 0))
        assert prod.expand(order) == LaurentSeries(0, ref, order)


# theta_-(1, 11) theta_-(3, 11) = (-q, -q^3, -q^8, -q^10; q^11)(q^11; q^11)^2
THETA_PAIR = poch(-1, 1, 11) * poch(-1, 3, 11) * poch(-1, 8, 11) * poch(-1, 10, 11) * poch(
    1, 11, 11, 2)
# (q;q)/(-q;q) = theta_+(1, 2), the sum of (-1)^m q^(m^2)
PENTAGONAL_QUOTIENT = poch(1, 1, 1) / poch(-1, 1, 1)
# each slot width no wider than this, where the majorant lies far above the product
SLOT_CEILINGS = {BASE5_QUOTIENT: 96, THETA_PAIR: 24, PENTAGONAL_QUOTIENT: 16}


@pytest.mark.parametrize("prod, n", [
    # equal to their majorant: numerators 1 + q^e, denominators 1 - q^e
    (poch(1, 1, 1, -8), 800),
    (poch(-1, 1, 1, 8), 800),
    (poch(-1, 1, 1, 3) * poch(1, 2, 2, -2), 500),
    (poch(1, 2, 5, -4) * poch(1, 3, 5, -4), 900),
    (poch(-1, 1, 7, 5) * poch(1, 3, 7, -6), 700),
    (poch(1, 1, 1, -1), 2),
    # far below its majorant; bounded on its binomials before they cancel,
    # the width would be 194
    (BASE5_QUOTIENT, 1198),
    # numerator thetas, bounded by their sparse sums; on their binomials
    # the widths would be 63 and 103
    (THETA_PAIR, 1000),
    (PENTAGONAL_QUOTIENT, 1000),
])
def test_slot_bits_hold_the_largest_coefficient(prod, n):
    true = max(abs(c).bit_length() for c in _pass_reference(prod.factors, n))
    thetas, rest = products._decompose(prod.factors)
    if rest or any(k < 0 for _, k in thetas):
        bound = products._euler_bound(prod.factors, n)
    else:
        bound = products._l1_norm(thetas, n)
    bits = bound.bit_length() + 1
    assert true + 1 <= bits <= SLOT_CEILINGS.get(prod, true + 16)
    assert products._majorant_size(prod.factors, thetas, rest, n, (1,)) == (bits + 7) // 8


@st.composite
def width_draw(draw):
    """(product, n, s): thetas theta_s(r, p)^k, each as its class pair times
    (q^p; q^p)^k, times free factors (s q^r; q^step)^m, r up to twice the
    step, which mostly stay in the rest; and s None or a multiplicand of up
    to 20 terms, small or above 2^64."""
    prod = Product()
    for s, p, k in draw(st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(2, 12),
                                           st.integers(-3, 3).filter(bool)), max_size=3)):
        r = draw(st.integers(1, p // 2))
        prod = prod * (poch(s, r, p) * poch(s, p - r, p) * poch(1, p, p)) ** k
    for s, step, m in draw(st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(1, 12),
                                              st.integers(-3, 3).filter(bool)), max_size=3)):
        prod = prod * poch(s, draw(st.integers(1, 2 * step)), step, m)
    big = draw(st.sampled_from((3, 1 << 70)))
    s = draw(st.none() | st.lists(st.integers(-big, big), min_size=1, max_size=20))
    return prod, draw(st.integers(1, 400)), s


@settings(max_examples=150, derandomize=True, deadline=None)
@given(width_draw())
@example((THETA_PAIR, 400, None))  # numerator thetas, no rest
@example((PENTAGONAL_QUOTIENT, 400, [-(1 << 70)] * 3))  # a denominator
@example((poch(1, 9, 4, 3) * poch(-1, 2, 7, -2), 400, [5, -7]))  # a rest alone
def test_the_majorant_width_holds_the_product_times_s(draw):
    """Each of the first n coefficients of s times the product fits the
    slot of ``_majorant_size``, and the sum of the product's sizes is within
    ``_euler_bound``, and within ``_l1_norm`` where the thetas are all
    numerators and there is no rest."""
    prod, n, s = draw
    f = _pass_reference(prod.factors, n)
    thetas, rest = products._decompose(prod.factors)
    l1 = sum(map(abs, f))
    assert l1 <= products._euler_bound(prod.factors, n)
    if not rest and all(k > 0 for _, k in thetas):
        assert l1 <= products._l1_norm(thetas, n)
    fs = f
    if s is not None:
        fs = [sum(c * f[i - j] for j, c in enumerate(s[:i + 1])) for i in range(n)]
    size = products._majorant_size(prod.factors, thetas, rest, n, s or (1,))
    half = 1 << (8 * size - 1)
    assert all(-half <= c < half for c in fs)


# ----------------------------------------------------------------------
# thetas in the expansion
# ----------------------------------------------------------------------


@pytest.mark.parametrize("theta", [(1, 1, 3), (-1, 1, 3), (1, 2, 7), (-1, 3, 7), (1, 1, 2),
                                   (-1, 3, 6), (1, 3, 6), (1, 2, 6), (1, 4, 12)])
def test_theta_terms_are_the_product_of_their_classes(theta):
    n = 300
    sparse = [1] + [0] * (n - 1)
    for e, c in products._theta_terms(*theta, n):
        assert sparse[e] == 0 and abs(c) in (1, 2)
        sparse[e] = c
    assert sparse == _pass_reference(_theta_product(*theta, 1).factors, n)


def _theta_product(s, r, p, k):
    """theta_s(r, p)^k from its Pochhammer classes; r = 0 is
    (-q^p; q^p)^(2k) (q^p; q^p)^k."""
    if r == 0:
        return poch(-1, p, p, 2 * k) * poch(1, p, p, k)
    return poch(s, r, p, k) * poch(s, p - r, p, k) * poch(1, p, p, k)


MULTS = st.integers(-3, 3).filter(bool)
THETA = st.integers(1, 12).flatmap(lambda p: st.tuples(
    st.just("theta"), st.sampled_from((1, -1)), st.integers(0, p // 2), st.just(p), MULTS))
PENTAGONAL = st.tuples(st.just("poch"), st.just(1), st.integers(1, 6), st.just(0), MULTS)
CLASS = st.integers(1, 12).flatmap(lambda p: st.tuples(
    st.just("poch"), st.sampled_from((1, -1)), st.integers(1, p), st.just(p), MULTS))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(parts=st.lists(st.one_of(THETA, THETA, PENTAGONAL, CLASS), min_size=1, max_size=5),
       order=st.integers(1, 400))
@example(parts=[("poch", -1, 1, 1, 1), ("poch", 1, 1, 1, -1)], order=400)  # pbar
@example(parts=[("poch", 1, 1, 1, 1), ("poch", -1, 1, 1, -1)], order=300)
@example(parts=[("poch", 1, 1, 0, -8)], order=800)
# theta_-(1, 11) theta_-(5, 11): the doubled classes of -q^5 and -q^6 meet
# those of -q^10 and -q mod 11, so its Euler exponents hide these thetas
@example(parts=[("theta", -1, 1, 11, 1), ("theta", -1, 5, 11, 1)], order=1000)
@example(parts=[("theta", -1, 2, 7, 2), ("theta", 1, 1, 5, -1), ("theta", -1, 0, 3, -1)],
         order=500)
def test_theta_route_matches_binomial_pass(parts, order):
    prod = Product()
    for kind, s, r, p, k in parts:
        prod = prod * (_theta_product(s, r, p, k) if kind == "theta" else
                       poch(s, r, p or r, k))
    assume(prod.factors)
    # the kernel itself, so neither the memo nor a dilation stands in between
    assert products._expand_packed(prod.factors, order) == _pass_reference(prod.factors, order)


# ----------------------------------------------------------------------
# the theta form, and theta quotients expanded at one byte and proven by
# multiplying back
# ----------------------------------------------------------------------


def _quotient_part(kind, s, r, p, k):
    """A factor group: a class pair; the class p/2 to the power k, which has a
    theta form only for even k; (-q^p; q^p); one class (s q^r; q^p),
    r <= 2p, paired only where another group holds its partner; or the
    pentagonal (q^p; q^p), which the classes borrow from."""
    if kind == "pair" and 2 * r < p:
        return poch(s, r, p, k) * poch(s, p - r, p, k)
    if kind == "half" and p % 2 == 0:
        return poch(s, p // 2, p, k)
    if kind == "minus":
        return poch(-1, p, p, k)
    if kind == "class":
        return poch(s, r, p, k)
    return poch(1, p, p, k)


def _theta_quotient_series(quotient, n):
    """The product of each theta sum to its power, by ``mul`` and the
    reference ``inverse``."""
    out = LaurentSeries.monomial(1, 0, n)
    for theta_key, k in quotient:
        t = from_terms({0: 1, **dict(products._theta_terms(*theta_key, n))}, n)
        for _ in range(abs(k)):
            out = mul(out, t if k > 0 else inverse(t))
    return out


QUOTIENT_PART = st.integers(1, 12).flatmap(lambda p: st.tuples(
    st.sampled_from(("pair", "half", "minus", "pentagonal")), st.sampled_from((1, -1)),
    st.integers(1, max(1, (p - 1) // 2)), st.just(p), MULTS))
LONE_CLASS = st.integers(1, 12).flatmap(lambda p: st.tuples(
    st.just("class"), st.sampled_from((1, -1)), st.integers(1, 2 * p), st.just(p), MULTS))
# the majorant runs of `deep` whose pure theta form has small coefficients
BASE5_PAIRS = (poch(-1, 2, 5) * poch(-1, 3, 5) * poch(1, 5, 5, 2)
               / (poch(-1, 1, 5) * poch(-1, 4, 5) * poch(1, 2, 5) * poch(1, 3, 5)))
# P(2a)P(-1) / (P(a)P(-a)) at a = 1, ell = 5: coefficients of 20-60 bits
GROWTH_QUOTIENT = P(1, 2, 5) * P(-1, 0, 5) / (P(1, 1, 5) * P(-1, 1, 5))
# lone classes 1 / ((q; q^5)(q^4; q^5)^2) and (-q^2; q^7), which stay in the
# rest, times pbar: the rest has numerator and denominator binomials
REST_QUOTIENT = (poch(1, 1, 5, -1) * poch(1, 4, 5, -2) * poch(-1, 2, 7)
                 * poch(-1, 1, 1) / poch(1, 1, 1))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(parts=st.lists(st.one_of(QUOTIENT_PART, QUOTIENT_PART, LONE_CLASS), min_size=1,
                      max_size=5),
       order=st.integers(1, 200), expect=st.none())
@example(parts=[("pair", -1, 2, 5, 1), ("pentagonal", 1, 1, 5, 2), ("pair", -1, 1, 5, -1),
                ("pair", 1, 2, 5, -1)], order=200, expect=None)
@example(parts=[("half", -1, 1, 2, 2), ("minus", 1, 1, 3, -2)], order=200, expect=None)
# pbar = (-q; q) / (q; q) is the one theta 1 / theta_+(1, 2)
@example(parts=[("minus", 1, 1, 1, 1), ("pentagonal", 1, 1, 1, -1)], order=200,
         expect=([((1, 1, 2), -1)], []))
@example(parts=[("pair", -1, 1, 11, 1), ("pair", -1, 5, 11, 1), ("pentagonal", 1, 1, 11, 2)],
         order=1000, expect=([((-1, 1, 11), 1), ((-1, 5, 11), 1)], []))
# (-q^3; q^3)^4 as theta_+(6, 18)^4 / theta_+(3, 9)^4, which the classes'
# pentagonals cancel: 8 theta powers, against 16 as theta_+(3, 9)^4 / theta_+(3, 6)^4
@example(parts=[("minus", 1, 1, 3, 4), ("pentagonal", 1, 1, 3, 2), ("pair", -1, 1, 3, -2),
                ("pair", 1, 1, 3, -1)], order=200,
         expect=([((-1, 1, 3), -2), ((1, 1, 3), -1), ((1, 3, 9), 1), ((1, 6, 18), 4)], []))
# classes with no theta form: no partner, a partner of another multiplicity
# or sign, the class p/2 to an odd power, r > p
@example(parts=[("class", 1, 1, 5, 1)], order=200, expect=([], [((1, 1, 5), 1)]))
@example(parts=[("class", 1, 1, 5, 1), ("class", 1, 4, 5, 2)], order=200,
         expect=([], [((1, 1, 5), 1), ((1, 4, 5), 2)]))
@example(parts=[("class", -1, 1, 5, 1), ("class", 1, 4, 5, 1)], order=200,
         expect=([], [((-1, 1, 5), 1), ((1, 4, 5), 1)]))
@example(parts=[("half", 1, 1, 4, 1), ("pentagonal", 1, 1, 4, 1)], order=200,
         expect=([((1, 4, 12), 1)], [((1, 2, 4), 1)]))
@example(parts=[("class", 1, 7, 5, 1), ("pentagonal", 1, 1, 5, 1)], order=200,
         expect=([((1, 5, 15), 1)], [((1, 7, 5), 1)]))
def test_theta_quotient_is_the_product(parts, order, expect):
    prod = Product()
    for part in parts:
        prod = prod * _quotient_part(*part)
    assume(prod.factors)
    thetas, rest = products._decompose(prod.factors)
    if expect is not None:
        assert (thetas, rest) == expect
    assert all(k and 0 < r <= p / 2 for (_, r, p), k in thetas)
    assert set(rest) <= set(prod.factors)
    # the theta sums to their powers, times the rest's binomials
    ref = _pass_reference(prod.factors, order)
    rest_series = LaurentSeries(0, _pass_reference(rest, order), order)
    assert mul(_theta_quotient_series(thetas, order), rest_series) == LaurentSeries(0, ref, order)
    # every length takes the one-byte try where the thetas alone have a denominator
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(products, "_NARROW_MIN_LENGTH", 1)
        mp.setattr(products, "_expand_counts", dict.fromkeys(products._expand_counts, 0))
        assert products._expand_packed(prod.factors, order) == ref
        tried = products._expand_counts["verified"] + products._expand_counts["fallbacks"]
    assert tried == (not rest and any(k < 0 for _, k in thetas))


def test_small_quotient_is_verified(memo, monkeypatch):
    # kept at the multiplicand's one byte, so the majorant is never bounded
    def no_bound(factors, n):
        raise AssertionError("the majorant was bounded")

    monkeypatch.setattr(products, "_euler_bound", no_bound)
    n = 600
    got = BASE5_PAIRS.expand(n)
    assert got == LaurentSeries(0, _pass_reference(BASE5_PAIRS.factors, n), n)
    assert expand_cache_info()[1:] == (1, series._EXPAND_LIMIT, n, 1, 0, 0)


def test_growth_quotient_is_kept_at_its_predicted_width(memo):
    n = 600
    quotient, rest = products._decompose(GROWTH_QUOTIENT.factors)
    assert not rest and sum(k for _, k in quotient) >= 0  # so it makes a first run
    ref = _pass_reference(GROWTH_QUOTIENT.factors, n)
    assert max(abs(c) for c in ref).bit_length() > 7
    # at the first width, one byte, the decode is wrong and the check says so
    narrow = products._expand_at(quotient, [], n, 1, (1,))
    assert narrow != ref and not products._multiplies_back(narrow, quotient, n)
    assert products._proven_run(quotient, n, 1, (1,)) is None
    # the exact first quarter predicts a width that is proven
    assert GROWTH_QUOTIENT.expand(n) == LaurentSeries(0, ref, n).scale(GROWTH_QUOTIENT.scalar)
    assert expand_cache_info()[-3:] == (1, 1, 0)


@pytest.mark.parametrize("shift", [256, -256])
def test_check_rejects_a_coefficient_moved_by_the_slot(shift):
    n = 600
    quotient, _ = products._decompose(BASE5_PAIRS.factors)
    f = _pass_reference(BASE5_PAIRS.factors, n)
    assert products._multiplies_back(f, quotient, n)
    for i in (0, 1, n // 2, n - 1):
        moved = list(f)
        moved[i] += shift
        assert not products._multiplies_back(moved, quotient, n), i


@st.composite
def multiplicand_st(draw):
    """A Laurent series for ``Product.times``: integral, dyadic or with
    denominator 3, small or above 2^64, dense or sparse, and often known
    past the order a product with it keeps."""
    size = draw(st.sampled_from((3, 1 << 8, 1 << 70)))
    entry = st.integers(-size, size)
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.just(0), entry)
    den = draw(st.sampled_from((1, 1, 2, 8, 3)))
    cs = [Fraction(c, den) for c in draw(st.lists(entry, max_size=120))]
    min_exp = draw(st.integers(-6, 6))
    return LaurentSeries(min_exp, cs, min_exp + len(cs) + draw(st.integers(0, 250)))


def _spiked(n, at, spike):
    """A class-sum-like multiplicand of n small terms with one large one."""
    cs = [(-1) ** i * (i % 3) for i in range(n)]
    cs[at] = spike
    return LaurentSeries(0, cs, n)


PBAR_PARTS = [("minus", 1, 1, 1, 1), ("pentagonal", 1, 1, 1, -1)]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(parts=st.lists(st.one_of(QUOTIENT_PART, QUOTIENT_PART, LONE_CLASS), max_size=4),
       scalar=st.sampled_from((1, -1, 2, Fraction(-2, 3), Fraction(1, 4))),
       qexp=st.integers(-4, 4), s=multiplicand_st(), order=st.integers(-3, 300),
       route=st.sampled_from(("narrow", "default")))
# pbar: a theta quotient, past the narrow cutoff, times a dyadic Laurent series
@example(parts=PBAR_PARTS, scalar=2, qexp=0,
         s=LaurentSeries(-3, [Fraction((-1) ** i * (i % 7), 4) for i in range(700)], 697),
         order=700, route="default")
# pbar times a multiplicand with a term past the probe's quarter far wider
# than the width the probe predicts: packed at that width it would not fit
@example(parts=PBAR_PARTS, scalar=2, qexp=0, s=_spiked(600, 400, 1 << 200), order=600,
         route="default")
@example(parts=PBAR_PARTS, scalar=1, qexp=0, s=_spiked(600, 500, -(1 << 30)), order=600,
         route="narrow")
# a numerator theta, and a quotient with a rest
@example(parts=[("pair", -1, 2, 7, 2)], scalar=Fraction(-2, 3), qexp=3,
         s=LaurentSeries(0, [1, 0, -5, 2] * 30, 150), order=200, route="narrow")
@example(parts=[("class", 1, 1, 5, 1), ("pair", 1, 1, 4, -1)], scalar=1, qexp=-2,
         s=LaurentSeries(-1, [3] * 90, 150), order=160, route="narrow")
# no factors: the scalar and the shift alone
@example(parts=[], scalar=Fraction(1, 4), qexp=2, s=LaurentSeries(-2, [1, 2, 3], 9), order=6,
         route="narrow")
def test_times_is_mul_by_the_expansion(parts, scalar, qexp, s, order, route):
    prod = Product(scalar, qexp)
    for part in parts:
        prod = prod * _quotient_part(*part)
    ref = mul(_reference_expand(prod, order), s)
    with pytest.MonkeyPatch.context() as mp:
        if route == "narrow":  # the kernel, and the narrow try, at every length
            mp.setattr(products, "_NARROW_MIN_LENGTH", 0)
        # s known only as far as the expansion exact below q^order reaches
        assert prod.times(s.truncate(order - prod.qexp + s.min_exp)) == ref


@settings(max_examples=100, derandomize=True, deadline=None)
@given(parts=st.lists(st.one_of(QUOTIENT_PART, QUOTIENT_PART, LONE_CLASS), max_size=4),
       scalar=st.sampled_from((1, -1, 2, Fraction(-2, 3), Fraction(1, 4))),
       qexp=st.integers(-4, 4), s=multiplicand_st(), cutoff=st.sampled_from((0, 512)))
# pbar past the cutoff, times a series from q^-3 and from q^2
@example(parts=PBAR_PARTS, scalar=2, qexp=1,
         s=LaurentSeries(-3, [(-1) ** i * (i % 7) for i in range(600)], 597), cutoff=512)
@example(parts=PBAR_PARTS, scalar=1, qexp=-1, s=_spiked(600, 400, 1 << 40).shift(2),
         cutoff=512)
# a product in q^5 below the cutoff: its expansion is asked for in q
@example(parts=[("pair", -1, 1, 5, 1), ("pentagonal", 1, 1, 5, -2)], scalar=1, qexp=0,
         s=LaurentSeries(2, [1, -1, 3] * 40, 130), cutoff=512)
def test_times_is_exact_wherever_its_multiplicand_is(parts, scalar, qexp, s, cutoff):
    """prod.times(s) is mul by the expansion as deep as mul reads it, and
    exact below s.order + qexp; below the cutoff the factors' expansion is
    asked for at exactly that depth, in q^g for g their gcd, and from it on
    not at all."""
    prod = Product(scalar, qexp)
    for part in parts:
        prod = prod * _quotient_part(*part)
    depth = s.order - s.min_exp + prod.qexp
    asked, expand_factors = [], products._expand_factors
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(products, "_NARROW_MIN_LENGTH", cutoff)
        mp.setattr(products, "_expand_factors",
                   lambda factors, n: asked.append((factors, n)) or expand_factors(factors, n))
        got = prod.times(s)
    assert got == mul(prod.expand(depth), s)
    assert got.order == s.order + prod.qexp
    if prod.factors and s.nums and s.order - s.min_exp < cutoff:
        g = gcd(*(x for (_, r, step), _ in prod.factors for x in (r, step)))
        unit = tuple(((sg, r // g, step // g), m) for (sg, r, step), m in prod.factors)
        assert asked == [(unit, -(-(s.order - s.min_exp) // g))]
    else:
        assert not asked


def _class_difference(n):
    """A rank-class sum difference, as the oracle multiplies by pbar."""
    return rank_class_sum(1, 5, n) - rank_class_sum(2, 5, n)


def test_a_result_wider_than_its_multiplicand_is_probed(memo):
    n = 600
    s = _class_difference(n)
    pbar = poch(-1, 1, 1) / poch(1, 1, 1)
    ref = mul(_reference_expand(pbar, n), s)
    # s fits one byte and the product does not: pbar, of negative weight,
    # makes no first run, and the probe gives the width of the run kept
    assert max(map(abs, s.nums)).bit_length() <= 7 < max(map(abs, ref.nums)).bit_length()
    assert pbar.times(s) == ref
    assert expand_cache_info()[-3:] == (1, 1, 0)


def test_a_narrow_width_too_small_is_rejected(memo, monkeypatch):
    n = 600
    s = _class_difference(n)
    ref = mul(_reference_expand(RANK_CLASS_PRODUCT, n), s)
    assert max(abs(c) for c in ref.coeffs).bit_length() > 15
    assert RANK_CLASS_PRODUCT.times(s) == ref
    assert expand_cache_info()[-3:] == (1, 1, 0)
    # s fits one byte, so a width predicted as one byte runs at two; that
    # decodes wrong, the check says so, and the majorant run gives the answer
    monkeypatch.setattr(products, "_predicted_size", lambda probe: 1)
    assert RANK_CLASS_PRODUCT.times(s) == ref
    assert expand_cache_info()[-3:] == (1, 1, 1)
    quotient, _ = products._decompose(RANK_CLASS_PRODUCT.factors)
    m, cs = n - s.min_exp, s.coeffs
    narrow = products._expand_at(quotient, [], m, 2, cs)
    assert narrow != list(ref.coeffs[:m]) and not products._multiplies_back(narrow, quotient, m, cs)
    assert products._proven_run(quotient, m, 2, cs) is None


@pytest.mark.parametrize("side", [1, -1])
def test_a_sign_flipped_in_the_multiply_back_is_caught(memo, monkeypatch, side):
    """A multiply-back with the sign of one theta term flipped, in a numerator
    theta (side 1) or a denominator one (side -1), rejects the true product,
    so the narrow try falls back: the check decides, and sees every sign."""
    n = 600
    s = _class_difference(n)
    prod = BASE5_PAIRS
    quotient, _ = products._decompose(prod.factors)
    target = next(theta for theta, k in quotient if k * side > 0)
    shifts, check = products._theta_shifts, products._multiplies_back

    def flipped(theta, w, m):
        out = shifts(theta, w, m)
        if theta == target:
            out[0] = (out[0][0], not out[0][1])
        return out

    def mutant(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(products, "_theta_shifts", flipped)
            return check(*args)

    ref = prod.times(s)
    assert expand_cache_info()[-3:] == (1, 1, 0)
    m, cs = n - s.min_exp, s.coeffs
    f = list(ref.coeffs) + [0] * (m - len(ref.coeffs))
    assert check(f, quotient, m, cs) and not mutant(f, quotient, m, cs)
    monkeypatch.setattr(products, "_multiplies_back", mutant)
    assert prod.times(s) == ref
    assert expand_cache_info()[-3:] == (1, 1, 1)


# 1 / theta_+(1, 2)^2, pbar squared: of weight -2, as pbar is of weight -1
PBAR_SQUARED_PARTS = [("minus", 1, 1, 1, 2), ("pentagonal", 1, 1, 1, -2)]


class _Runs:
    """``_proven_run`` watched: for each call, (f, quotient, n, size, s,
    checked), f None where the run was not proven and checked whether it
    called ``_multiplies_back``; ``checks`` holds the length of every
    ``_multiplies_back`` call."""

    def __init__(self, mp):
        self.calls, self.checks = [], []
        prove, check = products._proven_run, products._multiplies_back

        def counted(f, quotient, n, s=(1,)):
            self.checks.append(n)
            return check(f, quotient, n, s)

        def watched(quotient, n, size, s):
            before = len(self.checks)
            f = prove(quotient, n, size, s)
            self.calls.append((f, quotient, n, size, s, len(self.checks) > before))
            return f

        mp.setattr(products, "_proven_run", watched)
        mp.setattr(products, "_multiplies_back", counted)

    def unchecked(self):
        """(f, quotient, n, s) of the runs kept with no multiply-back: their
        own widths proved them."""
        return [(f, quotient, n, s) for f, quotient, n, _, s, checked in self.calls
                if f is not None and not checked]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(parts=st.lists(st.one_of(QUOTIENT_PART, QUOTIENT_PART, LONE_CLASS), min_size=1,
                      max_size=4),
       s=multiplicand_st(), order=st.integers(1, 300))
@example(parts=PBAR_PARTS, s=_spiked(300, 200, 1 << 40), order=300)
@example(parts=PBAR_SQUARED_PARTS, s=LaurentSeries(0, [1, -2, 0, 3] * 60, 240), order=240)
# the class product times a class-sum difference, as the oracle takes it
@example(parts=PBAR_PARTS, s=LaurentSeries(1, [1, -1, 0, 2, -1] * 60, 301), order=300)
@example(parts=[("pair", -1, 2, 5, 1), ("pentagonal", 1, 1, 5, 2), ("pair", -1, 1, 5, -1),
                ("pair", 1, 2, 5, -1)], s=LaurentSeries(0, [3, 0, -1] * 80, 240), order=240)
def test_a_check_skipped_by_its_run_passes_the_full_check(parts, s, order):
    """Every theta quotient with a denominator takes the narrow try, whatever
    its weight: the result is the binomial_pass reference, and every run
    that its own width proved passes the full check too."""
    prod = Product()
    for part in parts:
        prod = prod * _quotient_part(*part)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(products, "_NARROW_MIN_LENGTH", 0)
        runs = _Runs(mp)
        got = prod.times(s.truncate(order + s.min_exp))
    assert got == mul(_reference_expand(prod, order), s)
    for f, quotient, n, cs in runs.unchecked():
        assert products._multiplies_back(f, quotient, n, cs)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(parts=st.lists(st.one_of(QUOTIENT_PART, QUOTIENT_PART, LONE_CLASS), min_size=1,
                      max_size=4),
       s=multiplicand_st(), n=st.integers(1, 200))
@example(parts=PBAR_PARTS, s=_spiked(200, 120, 1 << 40), n=200)
@example(parts=PBAR_SQUARED_PARTS, s=LaurentSeries(0, [1, -2, 0, 3] * 50, 200), n=200)
@example(parts=[("pair", -1, 2, 7, 2)], s=LaurentSeries(0, [1, 0, -5, 2] * 30, 150), n=150)
def test_a_proven_run_is_s_times_the_quotient_at_every_width(parts, s, n):
    """At every slot size from the narrowest that packs s (one byte where s
    fits one) to the majorant, ``_proven_run`` returns None or exactly s
    times the quotient, and at the majorant that product; a run it keeps
    with no multiply-back passes the full check."""
    prod = Product()
    for part in parts:
        prod = prod * _quotient_part(*part)
    quotient, rest = products._decompose(prod.factors)
    cs = list(s.nums[:n])
    assume(quotient and not rest and any(cs))
    product = _pass_reference(prod.factors, n)
    ref = [sum(c * product[i - j] for j, c in enumerate(cs[:i + 1])) for i in range(n)]
    majorant = products._majorant_size(prod.factors, quotient, [], n, cs)
    with pytest.MonkeyPatch.context() as mp:
        runs = _Runs(mp)
        kept = {size: products._proven_run(quotient, n, size, cs)
                for size in range(series._slot_size(max(map(abs, cs))), majorant + 1)}
    assert kept[majorant] is not None
    assert all(f is None or f == ref for f in kept.values())
    for f, _, _, _ in runs.unchecked():
        assert products._multiplies_back(f, quotient, n, cs)


def test_a_run_vouches_only_for_its_own_coefficients_and_multiplicand(monkeypatch):
    n = 600
    quotient, _ = products._decompose(RANK_CLASS_PRODUCT.factors)
    s = list(_class_difference(n).nums[:n])
    runs = _Runs(monkeypatch)
    f = products._proven_run(quotient, n, 16, s)
    assert runs.unchecked() == [(f, quotient, n, s)] and not runs.checks
    # the same coefficients, one of them moved, or against another
    # multiplicand: a list handed to the check gets the full check
    moved, other = list(f), list(s)
    moved[n // 2] += 1
    other[n // 3] -= 1
    assert products._multiplies_back(f, quotient, n, s)
    assert not products._multiplies_back(moved, quotient, n, s)
    assert not products._multiplies_back(f, quotient, n, other)
    # a run too narrow for its width to prove it is checked, and rejected
    assert products._proven_run(quotient, n, 1, s) is None
    assert runs.calls[-1][-1] and len(runs.unchecked()) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 511, 512, 513, 1601, 1602])
@pytest.mark.parametrize("prod", [poch(-1, 1, 1) / poch(1, 1, 1),
                                  (poch(-1, 1, 1) / poch(1, 1, 1)) ** 2,
                                  BASE5_PAIRS, GROWTH_QUOTIENT, REST_QUOTIENT],
                         ids=["pbar", "pbar^2", "base5", "growth", "rest"])
def test_the_half_length_division_is_the_quotient(n, prod):
    """``_times_thetas`` divides by the denominator thetas, and by the
    denominator binomials of a rest, with their inverse taken to ceil(n/2)
    slots; at the majorant width its decode is s times the quotient, for n
    odd and even, short and past the narrow cutoffs."""
    quotient, rest = products._decompose(prod.factors)
    assert any(k < 0 for _, k in quotient + rest)
    s = [(-1) ** i * (i % 7) + (i % 5 == 0) for i in range(n)]
    ref = mul(LaurentSeries(0, _pass_reference(prod.factors, n), n), LaurentSeries(0, s, n))
    size = products._majorant_size(prod.factors, quotient, rest, n, s)
    binomials = products._euler_exponents(rest, n) if rest else []
    got = products._expand_at(quotient, binomials, n, size, s)
    assert LaurentSeries(0, got, n) == ref


def test_the_class_product_makes_one_full_length_run(memo, monkeypatch):
    """The oracle's class product times a class-sum difference as ``deep``
    takes it: at 1602 terms for ``thm5.R12.d4`` at order 320 and at 1201
    for ``thm3.R01.d2`` at order 400.  Of negative weight, it makes no first
    run; the exact first quarter predicts the width of the one full-length
    run, which that width proves with no multiply-back, and the majorant is
    bounded for none of the full length."""
    runs, bounds = [], []
    expand_at, euler_bound = products._expand_at, products._euler_bound

    def run(thetas, binomials, length, size, cs):
        runs.append(length)
        return expand_at(thetas, binomials, length, size, cs)

    def bound(factors, length):
        bounds.append(length)
        return euler_bound(factors, length)

    monkeypatch.setattr(products, "_expand_at", run)
    monkeypatch.setattr(products, "_euler_bound", bound)
    proven = _Runs(monkeypatch)
    for (s, t, ell), order, m in (((1, 2, 5), 1604, 1602), ((0, 1, 3), 1202, 1201)):
        diff = rank_class_sum(s, ell, order) - rank_class_sum(t, ell, order)
        assert order - diff.min_exp == m
        monkeypatch.setattr(products, "_expand_counts", dict.fromkeys(products._expand_counts, 0))
        got = RANK_CLASS_PRODUCT.times(diff)
        assert runs.count(m) == 1 and m not in bounds and m not in proven.checks
        assert expand_cache_info()[-3:] == (1, 1, 0)
        assert got == mul(_reference_expand(RANK_CLASS_PRODUCT, order), diff)


def test_every_miss_of_the_suite_is_its_binomial_pass(memo, monkeypatch):
    # the kernel on the products the registry builds; the memo starts empty,
    # so each of them is a miss at least once, and every product times a
    # series is a ``times`` call, which no memo serves
    misses, calls = [], []
    kernel, times = products._expand_packed, Product.times

    def record(factors, n):
        out = kernel(factors, n)
        misses.append((factors, n, out))
        return out

    def record_times(prod, s):
        out = times(prod, s)
        calls.append((prod, s, out))
        return out

    monkeypatch.setattr(products, "_expand_packed",
                        lambda factors, n, *s: kernel(factors, n, *s) if s else record(factors, n))
    monkeypatch.setattr(Product, "times", record_times)
    assert all(report.ok for report in registry.run_suite(1.0))
    assert len(misses) + len(calls) > 200  # 238 + 73 in a fresh process
    for factors, n, out in misses:
        assert out == _pass_reference(factors, n), (factors, n)
    for prod, s, out in calls:
        assert out == mul(_reference_expand(prod, s.order - s.min_exp + prod.qexp), s), prod


# ----------------------------------------------------------------------
# the expand memo
# ----------------------------------------------------------------------


class _Expansions(Mapping):
    """The expansions in the shared memo, read live: factors -> their
    coefficients up to the entry's order."""

    def _read(self):
        return {key[1]: s.nums + (0,) * (s.order - len(s.nums))
                for key, s in series._memo.items() if key[0] is products._expand_factors}

    def __getitem__(self, factors):
        return self._read()[factors]

    def __iter__(self):
        return iter(self._read())

    def __len__(self):
        return len(self._read())


@pytest.fixture
def memo(monkeypatch):
    """An empty shared memo and kernel counts for one test, its expansions
    seen as factors -> coefficients; the shared ones are restored after."""
    monkeypatch.setattr(series, "_memo", {})
    monkeypatch.setattr(series, "_memo_counts", Counter())
    monkeypatch.setattr(products, "_expand_counts", dict.fromkeys(products._expand_counts, 0))
    return _Expansions()


def _fresh(prod, order):
    """prod.expand(order) taken with the expansions cleared from the memo."""
    products._expand_factors.cache_clear()
    return prod.expand(order)


class TestExpandMemo:
    X = poch(-1, 1, 1) / poch(1, 1, 1) * P(1, 2, 5) ** 2

    def test_short_after_long_is_a_hit(self, memo):
        self.X.expand(120)
        short = self.X.expand(50)
        assert expand_cache_info()[:2] == (1, 1)
        assert short == _fresh(self.X, 50)

    def test_scalar_and_qexp_share_one_entry(self, memo):
        plain = self.X.expand(80)
        scaled = (Product(Fraction(-1, 2), 3) * self.X).expand(83)
        assert expand_cache_info()[:2] == (1, 1) and len(memo) == 1
        assert scaled == plain.shift(3).scale(Fraction(-1, 2))
        assert scaled == _fresh(Product(Fraction(-1, 2), 3) * self.X, 83)

    def test_long_after_short_replaces_the_entry(self, memo):
        self.X.expand(40)
        long = self.X.expand(150)
        info = expand_cache_info()
        assert info.hits == 0 and info.misses == 2
        assert list(memo) == [self.X.factors] and info.currsize == 150
        assert long == _fresh(self.X, 150)

    def test_a_longer_entry_stored_meanwhile_is_kept(self, memo, monkeypatch):
        # a long expansion, as from another thread, finishes while a short
        # miss of the same factors is still in its kernel
        real, started = products._expand_packed, []

        def interleaved(*args):
            if not started:
                started.append(True)
                self.X.expand(150)
            return real(*args)

        monkeypatch.setattr(products, "_expand_packed", interleaved)
        short = self.X.expand(40)
        info = expand_cache_info()
        assert info.misses == 2 and info.currsize == 150
        assert list(memo) == [self.X.factors] and len(memo[self.X.factors]) == 150
        assert short == _fresh(self.X, 40)

    def test_a_dilated_product_shares_its_entry(self, memo):
        plain = poch(1, 1, 1, 3) * poch(-1, 2, 3, -1)
        dilated = poch(1, 5, 5, 3) * poch(-1, 10, 15, -1)  # plain at q -> q^5
        plain.expand(60)
        got = dilated.expand(298)  # needs plain to ceil(298 / 5) = 60
        assert expand_cache_info()[:2] == (1, 1) and list(memo) == [plain.factors]
        assert got == substitute_power(plain.expand(60), 5).truncate(298)
        assert got == _fresh(dilated, 298)
        assert got == LaurentSeries(0, _pass_reference(dilated.factors, 298), 298)

    def test_callers_cannot_change_an_entry(self, memo):
        first = self.X.expand(90)
        work = list(first.coeffs)
        binomial_pass(work, 1, 1, 3)
        binomial_pass(work, -1, 2, -1)
        assert self.X.expand(90) == first
        assert self.X.expand(60) == first.truncate(60)
        assert expand_cache_info().hits == 2

    def test_bound_evicts_the_oldest(self, memo):
        n = series._EXPAND_LIMIT // 4
        # 1 - q^(n-2i+1) each: an odd exponent, so no key is a dilated one
        keys = [poch(1, n - 2 * i + 1, n) for i in range(1, 6)]
        for k in keys:
            k.expand(n)
        assert list(memo) == [k.factors for k in keys[1:]]
        assert expand_cache_info().currsize == 4 * n <= series._EXPAND_LIMIT
        keys[0].expand(n)  # a miss again, which evicts the next oldest
        assert list(memo) == [k.factors for k in keys[2:] + keys[:1]]
        assert expand_cache_info()[:2] == (0, 6)
        assert expand_cache_info().currsize <= series._EXPAND_LIMIT

    def test_lambert_sums_and_counting_bypass_it(self, memo):
        lambert_sum(1, 2, -1, [(-1, 0, 1), (1, 0, 5)], 80, primed=True)
        _count_by_residue(5, 80)
        assert expand_cache_info()[:2] == (0, 0) and not memo


def theta(z, base, order):
    """The bilateral theta sum sum_n z^n q^(base n^2), z = s q^e."""
    return lambert_sum(base, z.exp, z.sign, [], order)


class TestTheta:
    def test_alternating_squares(self):
        t = theta(SM(-1, 0), 1, 12)
        assert [t.coeff(n) for n in range(12)] == [1, -2, 0, 0, 2, 0, 0, 0, 0, -2, 0, 0]

    def test_plain_squares(self):
        t = theta(SM(1, 0), 1, 6)
        assert [t.coeff(n) for n in range(6)] == [1, 2, 0, 0, 2, 0]

    def test_triple_product(self):
        assert first_mismatch(theta(SM(1, 1), 1, 50), triple_product(SM(1, 1), 1, 50)) is None
        assert first_mismatch(theta(SM(-1, 2), 3, 80), triple_product(SM(-1, 2), 3, 80)) is None

    def test_triple_product_never_takes_the_theta_route(self, memo, monkeypatch):
        # jtp@* compares the theta sum with the triple product; if the product
        # were expanded by its own triple-product sum, it would compare a sum
        # with itself
        def no_theta(*args):
            raise AssertionError("a triple product reached the theta route")

        monkeypatch.setattr(products, "_theta_terms", no_theta)
        for z, base in ((SM(1, 1), 1), (SM(-1, 0), 1), (SM(-1, 2), 3), (SM(1, 3), 3)):
            assert first_mismatch(theta(z, base, 120), triple_product(z, base, 120)) is None
        assert registry.verify("jtp@sampled", 200).ok
        with pytest.raises(AssertionError, match="theta route"):
            (poch(1, 1, 1) / poch(-1, 1, 1)).expand(50)  # the patch is live


_REAL_P = products.P


def _p_without_sign(s, e, b):
    """P(z) built as if z had sign +1."""
    return _REAL_P(1, e, b)


def _p_step_doubled(s, e, b):
    """(z; q^2b)(q^b/z; q^2b), for 0 < e < b: as symmetric in z and q^b/z as P."""
    return poch(s, e, 2 * b) * poch(s, b - e, 2 * b)


def _p_prefactor_flipped(s, e, b):
    """The sign that the exponent reduction collects, negated."""
    return _REAL_P(s, e, b) if 0 <= e < b else -_REAL_P(s, e, b)


class TestPRelations:
    @pytest.mark.parametrize("rel, mutant", [("p1", _p_without_sign),
                                             ("p2", _p_prefactor_flipped),
                                             ("p3", _p_step_doubled),
                                             ("p4", _p_prefactor_flipped)])
    def test_each_relation_fails_under_a_mutant_p(self, monkeypatch, rel, mutant):
        for ell in (3, 5, 7):
            assert registry.verify(f"{rel}@ell={ell}", 60).ok
        # the forms are thetas, and theta's cache would hide a patched P
        monkeypatch.setattr(registry, "theta", lambda s, e, b: mutant(s, e, b) * poch(1, b, b))
        for ell in (3, 5, 7):
            assert not registry.verify(f"{rel}@ell={ell}", 60).ok, ell

    def test_the_sum_side_expands_no_product(self, memo, monkeypatch):
        # the forms of P are expanded through _theta_terms, the triple product;
        # the side they are compared with must not be
        n = 150
        cases = [(1, 2, 5), (-1, 1, 3), (-1, 9, 7), (1, 8, 5), (1, -3, 7)]
        want = [_pass_reference((P(s, e, ell) * poch(1, ell, ell)).factors, n + abs(e))
                for s, e, ell in cases]

        def no_theta(*args):
            raise AssertionError("the sum side reached the theta route")

        monkeypatch.setattr(products, "_theta_terms", no_theta)
        for (s, e, ell), ref in zip(cases, want):
            prod = P(s, e, ell) * poch(1, ell, ell)
            expected = LaurentSeries(prod.qexp, ref, n + abs(e)).scale(prod.scalar).truncate(n)
            assert registry._p_triple_product(s, e, ell, n) == expected, (s, e, ell)
        with pytest.raises(AssertionError, match="theta route"):
            (P(1, 2, 5) * poch(1, 5, 5)).expand(n)  # the patch is live


class TestVerifiers:
    def test_lemma31_passes(self):
        assert compare(*evaluated(verify_lemma31("eq1"), 100)).ok
        assert compare(*evaluated(verify_lemma31("eq2"), 150)).ok

    def test_lemma31_mutation_located(self):
        order = 60
        lhs = (poch(1, 1, 1) / poch(-1, 1, 1)).expand(order)
        rhs = (poch(1, 9, 9) / poch(-1, 9, 9)).expand(order)
        # flipped sign on the second term
        rhs = rhs + (
            Product(2, 1) * poch(1, 3, 18) * poch(1, 15, 18) * poch(1, 18, 18)
        ).expand(order)
        report = compare(lhs, rhs)
        assert not report.ok
        assert report.first_mismatch.exp == 1

    def test_hickerson_named_cases(self):
        for which, x, z, base, order in [
                ("lemma33", SM(-1, 5), SM(-1, 10), 25, 150),
                ("lemma33", SM(1, 5), SM(1, 10), 25, 150),
                ("lemma34", SM(1, 5), SM(1, 10), 25, 150),
                ("lemma35", SM(1, 5), SM(1, 10), 25, 150),
                ("lemma32", SM(1, 3), SM(-1, 7), 11, 100)]:
            assert compare(*evaluated(verify_hickerson(which, x, z, base), order)).ok, which

    def test_addition_named_cases(self):
        assert compare(*evaluated(verify_addition(SM(1, 20), SM(1, 10), SM(1, 5), 50), 200)).ok
        assert compare(*evaluated(verify_addition(SM(1, 20), SM(1, 15), SM(1, 10), 50), 200)).ok

    def test_addition_degenerate(self):
        # z = zeta: first two terms cancel, third carries P(1) = 0
        assert compare(*evaluated(verify_addition(SM(1, 4), SM(1, 4), SM(1, 2), 9), 60)).ok


@pytest.mark.parametrize("z, zeta, t", [(SM(1, 20), SM(1, 10), SM(1, 5)),
                                        (SM(1, 20), SM(1, 15), SM(1, 10))])
def test_named_addition_rows_never_divide(memo, z, zeta, t):
    """Stated over the thetas, each term of the named lemma 3.6 rows is a
    product of numerator thetas, so the kernel makes no narrow try on them."""
    terms, rhs = verify_addition(z, zeta, t, 50)
    assert rhs == ()
    for term in terms:
        thetas, rest = products._decompose(term.prod.factors)
        assert not rest and all(k > 0 for _, k in thetas), term
    narrow = expand_cache_info()[-3:]
    assert not eval_terms(terms, 1200).nums
    assert expand_cache_info()[-3:] == narrow


MONO_13 = st.builds(SM, st.sampled_from((1, -1)), st.integers(1, 12))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(z=MONO_13, zeta=MONO_13, t=MONO_13,
       mutant=st.sampled_from((None, "negated", "times q")), which=st.integers(0, 2))
def test_a_unit_keeps_the_verdict_and_the_first_mismatch(z, zeta, t, mutant, which):
    """Over the box of ``lemma3.6@sampled``, true or with one term negated or
    times q, the theta form of the addition relation and its P form, the
    theta form over (q^13; q^13)^4, have one first nonzero coefficient
    below q^120, or both vanish."""
    prods = [term.prod for term in verify_addition(z, zeta, t, 13)[0]]
    if mutant == "negated":
        prods[which] = -prods[which]
    elif mutant == "times q":
        prods[which] = Product(1, 1) * prods[which]
    unit = poch(1, 13, 13, 4)
    theta_form = eval_terms(tuple(map(FormulaTerm, prods)), 120)
    p_form = eval_terms(tuple(FormulaTerm(prod / unit) for prod in prods), 120)
    assert next(theta_form.terms(), None) == next(p_form.terms(), None)
