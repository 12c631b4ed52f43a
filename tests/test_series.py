"""Series ring: arithmetic examples, error contracts, and algebraic laws."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import overrank
from overrank import products, series
from overrank.errors import BeyondTruncation, NegativeExponent
from overrank.lambert import lambert_sum
from overrank.products import Product, poch
from overrank.series import (
    LaurentSeries,
    _mul_schoolbook,
    extract_progression,
    first_mismatch,
    mul,
    substitute_power,
)
from reference import inverse


def S(min_exp, coeffs, order):
    return LaurentSeries(min_exp, coeffs, order)


def geometric(order):
    return S(0, [1] * order, order)


def partition_counts(n_max):
    """Independent oracle: dynamic-programming partition counter."""
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            table[total] += table[total - part]
    return table


def pochhammer_q(order):
    """(q;q)_inf by direct factor-by-factor expansion (local oracle)."""
    out = S(0, [1], order)
    for k in range(1, order):
        out = out * S(0, [1] + [0] * (k - 1) + [-1], order)
    return out


class TestExamples:
    def test_add(self):
        a = S(0, [1, 2], 3)
        b = S(0, [-1, 0, 1], 3)
        assert list((a + b).terms()) == [(1, 2), (2, 1)]

    def test_add_identity(self):
        f = S(-2, [3, 0, 1, 5], 4)
        assert first_mismatch(f + LaurentSeries.zero(4), f) is None

    def test_add_inverse(self):
        f = S(0, [1, 2, 4, 8, 14], 5)
        assert (f + (-f)).is_zero()

    def test_mul_geometric(self):
        one_minus_q = S(0, [1, -1], 20)
        assert first_mismatch(one_minus_q * geometric(20), LaurentSeries.one(19)) is None

    def test_mul_monomials(self):
        a = LaurentSeries.monomial(1, -2, 10)
        b = LaurentSeries.monomial(1, 5, 10)
        assert list((a * b).terms()) == [(3, 1)]

    def test_mul_binomial_square(self):
        one_plus_q = S(0, [1, 1], 10)
        assert list((one_plus_q * one_plus_q).terms()) == [(0, 1), (1, 2), (2, 1)]

    def test_inverse_geometric(self):
        assert first_mismatch(inverse(S(0, [1, -1], 20)), geometric(20)) is None

    def test_inverse_monomial(self):
        inv = inverse(LaurentSeries.monomial(1, 1, 10))
        assert list(inv.terms()) == [(-1, 1)]

    def test_inverse_partition_gf(self):
        n = 30
        inv = inverse(pochhammer_q(n))
        assert [inv.coeff(k) for k in range(n)] == partition_counts(n - 1)

    def test_substitute_power(self):
        f = S(0, [1, 1], 2)
        assert list(substitute_power(f, 3).terms()) == [(0, 1), (3, 1)]
        assert substitute_power(f, 1) == f

    def test_extract_progression(self):
        a = S(0, [1, 2, 3, 4], 4)
        g = extract_progression(a, 2, 1)
        assert list(g.terms()) == [(0, 2), (1, 4)]
        assert extract_progression(a, 1, 0) == a

    def test_coeff(self):
        f = S(0, [1, 2], 3)
        assert f.coeff(1) == 2
        assert f.coeff(2) == 0
        with pytest.raises(BeyondTruncation):
            f.coeff(5)

    def test_extract_needs_power_series(self):
        with pytest.raises(NegativeExponent):
            extract_progression(S(-1, [1, 1], 5), 2, 0)

    def test_canonical_trim(self):
        f = S(0, [0, 0, 3, 0, 0], 7)
        assert f.min_exp == 2 and f.coeffs == (3,)
        assert LaurentSeries(1, [0, 0], 5).is_zero()

    def test_order_propagation(self):
        a = S(1, [1, 1], 5)
        b = S(-2, [1, 0, 2], 4)
        assert (a + b).order == 4
        assert mul(a, b).order == min(a.order + b.min_exp, b.order + a.min_exp)
        assert mul(a, b).min_exp >= a.min_exp + b.min_exp

    def test_halves_survive_exactly(self):
        f = S(0, [Fraction(1, 2), 1], 4)
        assert (f + f).coeff(0) == 1
        assert (f * f).coeff(0) == Fraction(1, 4)

    def test_integral_fractions_become_int(self):
        f = S(0, [Fraction(4, 2), Fraction(1, 2), 3, Fraction(-6, 3), Fraction(2, 3)], 5)
        assert f.coeffs == (2, Fraction(1, 2), 3, -2, Fraction(2, 3))
        assert [type(c) for c in f.coeffs] == [int, Fraction, int, int, Fraction]
        assert S(0, [Fraction(0), Fraction(5, 1)], 3).coeffs == (5,)
        assert type(S(0, [Fraction(5, 1)], 3).coeffs[0]) is int

    def test_dense_operands_take_the_packed_path(self, monkeypatch):
        def schoolbook_called(a, b):
            raise AssertionError("dense operands fell back to the schoolbook loop")

        a = S(-3, [(-1) ** i * (i + 1) for i in range(80)], 77)
        b = S(2, [Fraction(i, 2) for i in range(1, 70)], 71)
        expected = _mul_schoolbook(a, b)
        monkeypatch.setattr(series, "_mul_schoolbook", schoolbook_called)
        assert mul(a, b) == expected

    def test_a_side_with_few_nonzeros_takes_the_schoolbook_path(self, monkeypatch):
        def pack_called(cs, size):
            raise AssertionError("a 4-nonzero operand took the packed path")

        a = S(0, [1, 0, -1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 1], 90)
        b = S(-5, [(-1) ** i * (i + 1) for i in range(80)], 75)
        expected = _mul_schoolbook(a, b)
        monkeypatch.setattr(series, "_pack", pack_called)
        assert mul(a, b) == expected


coeffs_st = st.lists(st.integers(-9, 9), min_size=0, max_size=10)


@st.composite
def series_st(draw):
    min_exp = draw(st.integers(-5, 5))
    cs = draw(coeffs_st)
    slack = draw(st.integers(0, 3))
    return LaurentSeries(min_exp, cs, min_exp + len(cs) + slack)


@st.composite
def invertible_st(draw):
    min_exp = draw(st.integers(-3, 3))
    lead = draw(st.sampled_from([c for c in range(-9, 10) if c]))
    cs = [lead] + draw(st.lists(st.integers(-9, 9), max_size=8))
    slack = draw(st.integers(0, 2))
    return LaurentSeries(min_exp, cs, min_exp + len(cs) + slack)


@st.composite
def power_series_st(draw):
    min_exp = draw(st.integers(0, 4))
    cs = draw(coeffs_st)
    slack = draw(st.integers(0, 3))
    return LaurentSeries(min_exp, cs, min_exp + len(cs) + slack)


class TestRingAxioms:
    @given(series_st(), series_st())
    def test_add_commutative(self, a, b):
        assert a + b == b + a

    @given(series_st(), series_st(), series_st())
    def test_add_associative(self, a, b, c):
        assert first_mismatch((a + b) + c, a + (b + c)) is None

    @given(series_st(), series_st())
    def test_mul_commutative(self, a, b):
        assert first_mismatch(a * b, b * a) is None

    @given(series_st(), series_st(), series_st())
    def test_mul_associative(self, a, b, c):
        assert first_mismatch((a * b) * c, a * (b * c)) is None

    @given(series_st(), series_st(), series_st())
    def test_distributive(self, a, b, c):
        assert first_mismatch(a * (b + c), a * b + a * c) is None

    @given(series_st())
    def test_identities(self, a):
        assert first_mismatch(a + LaurentSeries.zero(a.order), a) is None
        assert first_mismatch(a * LaurentSeries.one(a.order - min(a.min_exp, 0)), a) is None

    @given(invertible_st())
    def test_mul_inverse(self, a):
        prod = a * inverse(a)
        assert first_mismatch(prod, LaurentSeries.one(prod.order)) is None

    @settings(max_examples=60)
    @given(power_series_st(), st.sampled_from([2, 3, 5]))
    def test_dissection_completeness(self, f, m):
        total = LaurentSeries.zero(f.order)
        for d in range(m):
            piece = substitute_power(extract_progression(f, m, d), m).shift(d)
            total = total + piece.truncate(f.order)
        assert first_mismatch(total, f) is None

    @given(series_st(), series_st())
    def test_add_is_coefficientwise(self, a, b):
        total, order = a + b, min(a.order, b.order)
        assert total.order == order
        assert all(total.coeff(n) == a.coeff(n) + b.coeff(n)
                   for n in range(min(a.min_exp, b.min_exp, order), order))

    @given(power_series_st(),
           st.integers(1, 6).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m - 1))))
    @example(S(7, [1, 2, 3], 12), (4, 1))  # the window starts past the first mn + d
    def test_progression_is_every_mth_coefficient(self, a, md):
        m, d = md
        g = extract_progression(a, m, d)
        assert g.order == max(0, -((d - a.order) // m))
        assert all(g.coeff(n) == a.coeff(m * n + d) for n in range(g.order))

    @given(series_st(), series_st(), st.integers(1, 4))
    def test_substitution_homomorphism(self, a, b, k):
        assert first_mismatch(
            substitute_power(mul(a, b), k),
            mul(substitute_power(a, k), substitute_power(b, k)),
        ) is None


# ----------------------------------------------------------------------
# the packed (Kronecker) product against the schoolbook reference
# ----------------------------------------------------------------------


@st.composite
def long_series_st(draw):
    """At least 64 stored coefficients, so nearly every pair has more than
    ``_SCHOOLBOOK_MAX_NONZEROS`` nonzeros a side and takes the packed path:
    dense or sparse, small or above 2^200, integral, dyadic or with
    denominator 3, and runs of zeros at both ends of the drawn window before
    it is trimmed."""
    size = draw(st.sampled_from((9, 1 << 20, 1 << 210)))
    entry = st.integers(-size, size)
    if draw(st.booleans()):  # sparse: mostly zeros
        entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)
    body = draw(st.lists(entry, min_size=64, max_size=130))
    body[0] = body[0] or 1
    body[-1] = body[-1] or -1
    den = draw(st.sampled_from((1, 1, 2, 4, 3)))
    cs = [0] * draw(st.integers(0, 5)) + [Fraction(c, den) for c in body] \
        + [0] * draw(st.integers(0, 5))
    min_exp = draw(st.integers(-40, 40))
    return LaurentSeries(min_exp, cs, min_exp + len(cs) + draw(st.integers(0, 90)))


@settings(max_examples=120, deadline=None)
@given(long_series_st(), long_series_st())
@example(S(0, [255] * 130, 130), S(0, [-255] * 130, 130))  # a coefficient at the bound
def test_packed_mul_matches_schoolbook(a, b):
    got = mul(a, b)
    assert got == _mul_schoolbook(a, b)
    assert not any(type(c) is Fraction and c.denominator == 1 for c in got.coeffs)


@pytest.mark.parametrize("size", range(1, 25))
def test_slots_round_trip(size):
    """_pack and _unpack are inverse for every slot size a product can take,
    through every word view, the extremes of the signed slots included, with
    a value above the slots."""
    rng = random.Random(size)
    w = 8 * size
    half = 1 << (w - 1)
    # 4 + count slots: a few, either side of the per-slot cutoff, and many
    for count in (1, 2, 7, series._PER_SLOT_MAX - 4, series._PER_SLOT_MAX - 3, 300):
        cs = [-half, half - 1, 0, -1] + [rng.randrange(-half, half) for _ in range(count)]
        packed = series._pack(cs, size)
        assert packed == sum(c << (w * i) for i, c in enumerate(cs))
        # any multiple of 2^(w len(cs)) on top is dropped
        assert series._unpack(packed + (rng.randrange(1, 1 << 40) << (w * len(cs))), size,
                              len(cs)) == cs


def test_slots_of_a_product_that_wraps():
    """A product whose coefficients exceed the slot decodes, slot by slot, to
    their residues mod 2^w in [-half, half): what the narrow runs of the
    product kernel rely on before they are checked."""
    size, w = 1, 8
    a = [100, -100, 77, 1]
    b = [90, 3, -128, 5]
    exact = [sum(a[j] * b[i - j] for j in range(max(0, i - 3), min(i, 3) + 1)) for i in range(7)]
    got = series._unpack(series._pack(a, size) * series._pack(b, size), size, 7)
    assert got == _carried(exact, w) != exact


def _carried(cs, w):
    """The balanced base-2^w digits of sum_i cs[i] 2^(w i), lowest first."""
    v, out = sum(c << (w * i) for i, c in enumerate(cs)), []
    for _ in cs:
        digit = (v + (1 << (w - 1))) % (1 << w) - (1 << (w - 1))
        out.append(digit)
        v = (v - digit) >> w
    return out


def _naive_product(a, b):
    """The Cauchy product of a and b as a double sum over their terms."""
    order = min(a.order + b.min_exp, b.order + a.min_exp)
    out = {}
    for i, x in a.terms():
        for j, y in b.terms():
            if i + j < order:
                out[i + j] = out.get(i + j, 0) + x * y
    return LaurentSeries.from_terms(out, order)


@st.composite
def short_series_st(draw):
    """A few stored coefficients, ints or Fractions, often past the order
    that a product with the other operand keeps."""
    entry = st.one_of(st.just(0), st.integers(-9, 9),
                      st.fractions(min_value=-5, max_value=5, max_denominator=6))
    cs = draw(st.lists(entry, min_size=0, max_size=12))
    min_exp = draw(st.integers(-6, 6))
    return LaurentSeries(min_exp, cs, min_exp + len(cs) + draw(st.integers(0, 8)))


@settings(max_examples=200, deadline=None)
@given(short_series_st(), short_series_st())
@example(S(0, [1, -1, 2, Fraction(1, 3)], 4), S(0, [Fraction(3, 2)] * 20, 20))
@example(S(0, [1] + [0] * 11 + [1], 13), S(0, list(range(1, 11)), 10))  # a nonzero past n
def test_schoolbook_is_the_double_sum(a, b):
    assert _mul_schoolbook(a, b) == _naive_product(a, b)


# ----------------------------------------------------------------------
# first_mismatch against the per-exponent loop
# ----------------------------------------------------------------------


def _first_mismatch_reference(a, b):
    for n in range(min(a.min_exp, b.min_exp), min(a.order, b.order)):
        if a.coeff(n) != b.coeff(n):
            return (n, a.coeff(n), b.coeff(n))
    return None


coeff_value_st = st.one_of(st.integers(-3, 3), st.sampled_from((Fraction(1, 2), Fraction(-3, 4))))


@settings(max_examples=300)
@given(terms=st.dictionaries(st.integers(-10, 30), coeff_value_st, max_size=12),
       changes=st.dictionaries(st.integers(-20, 45), coeff_value_st, max_size=3),
       order_a=st.integers(-15, 45), order_b=st.integers(-15, 45))
@example(terms={0: 1, 1: 2}, changes={-5: 1}, order_a=10, order_b=12)  # before both windows
@example(terms={0: 1, 5: 2}, changes={3: 1}, order_a=10, order_b=12)  # inside them
@example(terms={0: 1, 1: 2}, changes={8: 1}, order_a=10, order_b=12)  # after both windows
@example(terms={0: 1, 1: 2}, changes={11: 1}, order_a=10, order_b=12)  # past one order
# denominators 2 and 4: a half against a quarter, then an int against one
@example(terms={0: Fraction(1, 2)}, changes={0: Fraction(-3, 4)}, order_a=3, order_b=3)
@example(terms={0: Fraction(1, 2), 2: 1}, changes={2: Fraction(-3, 4)}, order_a=4, order_b=4)
def test_first_mismatch_matches_loop(terms, changes, order_a, order_b):
    """first_mismatch reports what the loop reports, the coefficients'
    types included."""
    a = LaurentSeries.from_terms(terms, order_a)
    b = LaurentSeries.from_terms({**terms, **changes}, order_b)
    for x, y in ((a, b), (b, a)):
        got, want = first_mismatch(x, y), _first_mismatch_reference(x, y)
        assert got == want
        assert want is None or list(map(type, got)) == list(map(type, want))


# ----------------------------------------------------------------------
# den: every operation and producer knows its denominator without a scan
# ----------------------------------------------------------------------


def _knows_its_denominator(s):
    """s holds int numerators over den in lowest terms, is what the public
    constructor builds from its coefficients, their types included, and den
    is the lcm of their denominators."""
    assert all(type(n) is int for n in s.nums) and s.den >= 1 and gcd(s.den, *s.nums) == 1
    assert s.coeffs == tuple(Fraction(n, s.den) for n in s.nums)
    rebuilt = LaurentSeries(s.min_exp, s.coeffs, s.order)
    assert (s.min_exp, s.coeffs, s.order) == (rebuilt.min_exp, rebuilt.coeffs, rebuilt.order)
    assert list(map(type, s.coeffs)) == list(map(type, rebuilt.coeffs))
    assert s.den == rebuilt.den == lcm(*(c.denominator for c in s.coeffs))
    assert s == rebuilt and hash(s) == hash(rebuilt)


# ints, Fractions, and Fractions that are integers
mixed_entry = st.one_of(st.integers(-9, 9), st.fractions(-5, 5, max_denominator=6),
                        st.integers(-9, 9).map(lambda c: Fraction(2 * c, 2)))


@st.composite
def mixed_series_st(draw):
    """A short series whose coefficients are drawn from one of: ints alone,
    any mixed_entry, or ints with integral Fractions, so that many are
    integral and reach the operations' integer paths."""
    entry = draw(st.sampled_from((st.integers(-9, 9), mixed_entry,
                                  st.integers(-9, 9).map(lambda c: Fraction(c)))))
    cs = draw(st.lists(entry, max_size=14))
    min_exp = draw(st.integers(-5, 5))
    return LaurentSeries(min_exp, cs, min_exp + len(cs) + draw(st.integers(0, 3)))


@settings(max_examples=300, deadline=None)
@given(mixed_series_st(), mixed_series_st(), st.integers(-4, 4),
       st.fractions(-3, 3, max_denominator=4).filter(bool), st.integers(-3, 3),
       st.integers(-6, 12), st.integers(1, 4),
       st.integers(1, 5).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m - 1))))
@example(S(0, [Fraction(1, 2), 1], 3), S(0, [Fraction(1, 2), 1], 3), 2, Fraction(2), 0, 1, 2,
         (2, 0))  # halves that cancel in a sum and a product
# the only half dropped, by the cut and by the progression: den falls to 1
@example(S(0, [1, 2, Fraction(1, 2)], 3), S(0, [1], 3), 1, Fraction(1), 0, 2, 1, (2, 0))
# 1/2 as 2/4 from the builder and as Fraction(2, 4) from the constructor
@example(series._from_ints(0, [2], 1, 4), S(0, [Fraction(2, 4)], 1), 1, Fraction(1), 0, 1, 1,
         (1, 0))
# a + (-a) with halves: zero, over den 1
@example(S(0, [Fraction(1, 2), 1], 3), S(0, [Fraction(-1, 2), -1], 3), 1, Fraction(1), 0, 1, 1,
         (1, 0))
# the same numerators over 2 and over 1: not equal
@example(S(0, [Fraction(1, 2), 1], 3), S(0, [1, 2], 3), 1, Fraction(1), 0, 1, 1, (1, 0))
def test_operations_know_their_denominator(a, b, k, f, shift, cut, power, md):
    m, d = md
    for s in (a, b, a + b, a - b, -a, a + (-a), a.scale(k), a.scale(f), a.shift(shift),
              a.truncate(cut), mul(a, b), _mul_schoolbook(a, b), substitute_power(a, power),
              extract_progression(a.shift(5), m, d)):
        _knows_its_denominator(s)
    zero = a + (-a)
    assert zero.is_zero() and zero.den == 1
    # equality and hash are those of the exact coefficients
    same = (a.min_exp, a.coeffs, a.order) == (b.min_exp, b.coeffs, b.order)
    assert (a == b) is same and (not same or hash(a) == hash(b))


PRODUCTS = (poch(1, 1, 1) / poch(-1, 1, 1), poch(-1, 2, 5) * poch(-1, 3, 5),
            poch(1, 1, 1, 3) / poch(1, 2, 4))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRODUCTS),
       st.sampled_from((1, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2))),
       st.integers(-3, 3), mixed_series_st(), st.integers(-2, 40), st.booleans())
def test_products_know_their_denominator(prod, scalar, qexp, s, order, kernel):
    prod = Product(scalar, qexp) * prod
    _knows_its_denominator(prod.expand(order))
    with pytest.MonkeyPatch.context() as mp:
        if kernel:  # the theta kernel at every length
            mp.setattr(products, "_TIMES_MIN_LENGTH", 0)
        _knows_its_denominator(prod.times(s, order))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(-8, 8), st.sampled_from((1, -1)), st.integers(1, 4),
       st.integers(-3, 3), st.integers(1, 40))
def test_lambert_sums_with_halves_know_their_denominator(quad, lin, csign, step, at, order):
    """1/(1 + q^(step (n - at))) is 1/2 at n = at."""
    got = lambert_sum(quad, lin, csign, [(-1, -step * at, step)], order)
    _knows_its_denominator(got)
    assert not got.den & (got.den - 1)


# A script that counts the calls of the public constructor over
# run_suite(0.25), and the coefficients handed to it, in a fresh process so
# that no cache is warm.  With an argument it first routes that module's
# builds from integers through the constructor.
_COUNT_CONSTRUCTIONS = """
import sys
from fractions import Fraction
from overrank import registry, series
new, seen = series.LaurentSeries.__new__, [0, 0]
def counting(cls, min_exp, coeffs, order):
    cs = tuple(coeffs)
    seen[0] += 1
    seen[1] += len(cs)
    return new(cls, min_exp, cs, order)
series.LaurentSeries.__new__ = counting
if len(sys.argv) > 1:
    module = sys.modules["overrank." + sys.argv[1]]
    module._from_ints = lambda min_exp, nums, order, d=1: series.LaurentSeries(
        min_exp, [Fraction(c, d) for c in nums], order)
registry.run_suite(0.25)
print(*seen)
"""


def _constructions(*routed):
    env = {k: v for k, v in os.environ.items() if k != "OVERRANK_SEED"}
    env["PYTHONPATH"] = str(Path(overrank.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", _COUNT_CONSTRUCTIONS, *routed], env=env,
                         capture_output=True, text=True, check=True).stdout
    return tuple(map(int, out.split()))


_MAX_CONSTRUCTIONS = (100, 1000)  # (calls, coefficients)


def test_the_suite_scans_few_coefficients():
    """Every producer builds its numerators over a denominator by
    ``_from_ints``.  Left to the public constructor, which reads every
    coefficient it is given to write it over the lcm of their denominators,
    are the handful of series written out term by term: the monomials and
    ``from_terms``, 43 calls over 82 coefficients when this test was
    written.  The ceilings leave room for a few more of those and stay far
    below one producer built through the constructor, which the next test
    checks: ``Product.expand`` and ``times`` come to 515 calls over 27 128
    coefficients, ``lambert_sum`` to 436 over 20 519."""
    calls, coeffs = _constructions()
    assert calls <= _MAX_CONSTRUCTIONS[0] and coeffs <= _MAX_CONSTRUCTIONS[1], (calls, coeffs)


@pytest.mark.parametrize("module", ["products", "lambert"])
def test_a_producer_built_through_the_constructor_exceeds_the_ceilings(module):
    """The ceilings above catch one producer that builds its series from
    coefficients again."""
    calls, coeffs = _constructions(module)
    assert calls > _MAX_CONSTRUCTIONS[0] and coeffs > _MAX_CONSTRUCTIONS[1], (calls, coeffs)
