"""Generalized Lambert series: bilateral sums with quadratic exponents and
simple-pole denominators, the sums Sbar(b), and the g-functions.

The workhorse is ``lambert_sum``, which evaluates

    sum_{n in Z} csign^n * q^(quad*n^2 + lin*n) / prod_i (1 - s_i q^(off_i + step_i*n))

exactly as a truncated Laurent series.  Denominators with negative exponent
are rewritten with 1/(1 - s*q^(-f)) = -s*q^f / (1 - s*q^f), the single most
error-prone spot in this whole business, so it lives in one audited place.
The lowest exponent of term n is quad*n^2 + lin*n + sum_i max(0, -(off_i +
step_i*n)), a convex function of n, so the terms below the truncation order
are one run of n around its minimum, and the sum visits exactly that run.
Every term goes into one integer list: a term c / (1 - s q^e) is the
geometric run c s^k at q^(ek), added by one strided slice, and
``products.binomial_pass`` divides a term by any further denominators.  A
term c / D with two or more denominators, no two sharing a root of unity
(``_share_a_root``), is periodic: D divides 1 - q^L and c / D = c N / (1 -
q^L), so where the term is longer than L each nonzero of N is one strided
add of step L.  L grows with the lcm of the exponents, not with the order,
so it is found first and N is built only for such a term.  The rank-class
denominators (1 + q^n)(1 - q^(mn)) are such a term for odd m, with L = 2mn
and N = 1 - q^n + q^2n - ... + q^((m-1)n).  The periodic adds of all terms
are summed by (period, start) before any is made, and one call may take
several linear coefficients that share the rest, so the two sums of a rank
class are one pass in which the terms n and -n share their adds.
Power-series positivity is asserted only where the mathematics promises it.

The identities of this layer (``check_*`` and ``verify_lemma41``) return
their two sides as terms, each a ``Product`` times an optional named sum of
this module (a ``Route``); ``rankdiff.eval_terms`` builds each sum at the
order its product's power of q leaves, deeper where that power is negative.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import cycle, islice, repeat
from math import lcm
from operator import add, itemgetter
from typing import Optional, Tuple

from .errors import BadArgument, PoleHit
from .products import (P, FormulaTerm as T, Product, Route, Sides, SignedMonomial, binomial_pass,
                       poch)
# mul is not called here: perfbench/test_bench.py reads lambert.mul to check
# that the layer trace rebinds every alias of series.mul
from .series import LaurentSeries, _from_ints, memo, mul  # noqa: F401


@memo
def lambert_sum(quad, lin, csign, denoms, order, *, primed=False) -> LaurentSeries:
    """Bilateral sum csign^n q^(quad n^2 + lin n) / prod (1 - s q^(off + step n)).

    `denoms` is a sequence of (sign, offset, step) triples.  `lin` may also
    be a tuple of linear coefficients, which gives the sum of their sums in
    one pass: their terms share one list and their periodic adds merge.  A
    denominator that vanishes identically at some n raises PoleHit, unless
    that n is 0 and the sum is primed (n = 0 omitted); a primed sum must
    have such a denominator (z = q^0).  A denominator equal to 2 at some n
    (sign -1, exponent 0) contributes the exact scalar 1/2.
    """
    if quad < 1:
        raise ValueError("quadratic coefficient must be positive")
    if primed and (1, 0) not in {(s, off) for s, off, _ in denoms}:
        raise ValueError("primed sums are defined for z = q^0 only")
    for s, off, step in denoms:
        if s == 1 and off % step == 0:
            n0 = -off // step
            if not (primed and n0 == 0):
                raise PoleHit(f"denominator 1 - q^({off} + {step}n) vanishes at n = {n0}")

    def term(n, lin):
        """The n-th term as c * q^shift / prod (1 - s q^e) / 2^halves, every e >= 1."""
        shift = quad * n * n + lin * n
        c = 1 if csign == 1 or n % 2 == 0 else -1
        halves = 0
        exps = []
        for s, off, step in denoms:
            e = off + step * n
            if e == 0:
                halves += 1  # sign is -1 here: factor 1/(1+1)
            elif e > 0:
                exps.append((s, e))
            else:  # 1/(1 - s q^-f) = -s q^f / (1 - s q^f)
                c, shift = -s * c, shift - e
                exps.append((s, -e))
        return shift, c, halves, exps

    # the lowest exponent f(n) = term(n)[0] is convex in n, so the terms below
    # the order are one run of n around a minimum of f: walk downhill from 0,
    # then extend both ways while f(n) < order
    terms = []
    for lin in (lin,) if isinstance(lin, int) else lin:
        low = 0
        for direction in (1, -1):
            while term(low + direction, lin)[0] < term(low, lin)[0]:
                low += direction
        for n, direction in ((low, 1), (low - 1, -1)):
            while (t := term(n, lin))[0] < order:
                if not (primed and n == 0):
                    terms.append(t)
                n += direction

    # every term goes into one integer list, scaled by 2^top, divided once;
    # the periodic terms' strided adds are made once per (period, start)
    lo = min((t[0] for t in terms), default=order)
    top = max((t[2] for t in terms), default=0)
    acc = [0] * (order - lo)
    strided = defaultdict(int)
    for shift, c, halves, exps in terms:
        c <<= top - halves
        i = shift - lo
        if not exps:
            acc[i] += c
            continue
        if len(exps) > 1 and (period := _period(tuple(exps))) and order - shift > period:
            # c N / (1 - q^L): one strided add of step L per nonzero of N
            for j, x in _period_numerator(tuple(exps)):
                strided[period, i + j] += c * x
            continue
        # c / (1 - s q^e) is c s^k at q^(ek): one strided add, for the
        # denominator of least e; binomial_pass divides by any others
        (s, e), *rest = sorted(exps, key=itemgetter(1))
        geometric = repeat(c) if s == 1 else cycle((c, -c))
        if rest:
            part = [0] * (order - shift)
            part[::e] = islice(geometric, -(-len(part) // e))
            for s, e in rest:
                binomial_pass(part, s, e, -1)
            acc[i:] = map(add, acc[i:], part)
        else:
            acc[i::e] = map(add, acc[i::e], geometric)
    for (period, start), c in strided.items():
        if c:
            acc[start::period] = map(add, acc[start::period], repeat(c))
    return _from_ints(lo, acc, order, 1 << top)


def _share_a_root(s: int, a: int, t: int, b: int) -> bool:
    """Whether 1 - s q^a and 1 - t q^b vanish at a common root of unity.

    1 - q^a vanishes at the roots of unity whose order divides a, 1 + q^a at
    those whose order divides 2a and has exactly one factor 2 more than a.
    So two factors 1 - q^a and 1 - q^b share the root 1, 1 + q^a and 1 + q^b
    share a root iff a and b hold the same power of 2, and 1 + q^a and
    1 - q^b iff b holds a higher one.  x & -x is the power of 2 in x.
    """
    if s == t:
        return s == 1 or a & -a == b & -b
    if s == 1:
        a, b = b, a
    return b & -b > a & -a


# a denominator met again, as in the other sum of a rank class, is a lookup
@lru_cache(maxsize=1024)
def _period(exps: Tuple[Tuple[int, int], ...]) -> Optional[int]:
    """The least L with D = prod (1 - s q^e) over the (s, e) pairs dividing
    1 - q^L; None when no such L exists.

    1 - q^L is the product of 1 - zeta q over the L-th roots of unity zeta,
    each once.  So it is a multiple of D exactly when no two binomials share
    a root, and then L is the lcm of the orders of all their roots: e for
    1 - q^e and 2e for 1 + q^e.  L may be far past any order a term needs,
    so this does not build N.
    """
    for k, (s, a) in enumerate(exps):
        for t, b in exps[:k]:
            if _share_a_root(s, a, t, b):
                return None
    return lcm(*[e if s == 1 else 2 * e for s, e in exps])


@lru_cache(maxsize=1024)
def _period_numerator(exps: Tuple[Tuple[int, int], ...]) -> Tuple[Tuple[int, int], ...]:
    """The nonzero coefficients, as (j, N_j), of N = (1 - q^L) / D, for D
    and L = ``_period(exps)`` as there; N has degree L - sum e.

    N agrees with 1 / D below q^L, so binomial_pass divides D out of 1.
    """
    numer = [1] + [0] * (_period(exps) - sum(e for _, e in exps))
    for s, e in exps:
        binomial_pass(numer, s, e, -1)
    return tuple((j, x) for j, x in enumerate(numer) if x)


def sigma_ab(a: int, b: int, ell: int, order: int) -> LaurentSeries:
    """Index form Sum(a, b) = sum_n (-1)^n y^(bn + ell*n(n+1)) / (1 - y^(ell*n + a)),
    as a series in the base variable y.  Sum(0, b) is primed by definition (no
    n = 0 term); any other a with a % ell == 0 raises PoleHit.  Out-of-range
    indices simply produce intermediate negative exponents."""
    return lambert_sum(ell, b + ell, -1, [(1, a, ell)], order, primed=not a)


def s_bar(b: int, ell: int, order: int) -> LaurentSeries:
    """Sbar(b) = sum'_{n != 0} (-1)^n q^(n^2 + bn) / (1 - q^(ell*n)), base q."""
    if ell < 1:
        raise BadArgument(f"Sbar needs ell >= 1, got {ell}")
    out = lambert_sum(1, b, -1, [(1, 0, ell)], order, primed=True)
    if out.nums and out.min_exp < 0:  # only for b < -1 or b > ell + 1
        raise BadArgument(f"Sbar({b}) with ell={ell} has negative exponents: {out!r}")
    return out


# ----------------------------------------------------------------------
# the g-functions
# ----------------------------------------------------------------------


def p_ratio(s: int, e: int, base: int) -> Product:
    """z P(z^2) P(-1) / (P(z) P(-z)) at z = s*q^e, the P-quotient that
    multiplies Sum(z, 1, q) in g(z, q) and in Lemma 4.1, with q = q^base."""
    return Product(s, e) * P(1, 2 * e, base) * P(-1, 0, base) / (P(s, e, base) * P(-s, e, base))


@memo
def g_series(z_sign: int, z_exp: int, base: int, order: int) -> LaurentSeries:
    """Generic g(z, q^base) at z = s*q^e:

        g(z,q) = z P(z^2)P(-1)/(P(z)P(-z)) Sum(z,1,q) - z^2 Sum(z^2,z^2,q)
                 - sum'_{n != 0} (-1)^n z^(-2n) q^(n(n+1)) / (1 - q^n).

    Negative and oversized exponents are legal; they route through the same
    Laurent machinery (used for the reflection and shift identities).
    """
    s, e = z_sign, z_exp
    ratio = p_ratio(s, e, base)
    n = order + max(0, -2 * e, -ratio.qexp)  # what f2's shift and f1's q^qexp lose
    sig1 = lambert_sum(base, base, -1, [(s, e, base)], n)
    f1 = ratio.times(sig1)
    f2 = sigma_ab(2 * e, 2 * e, base, n).shift(2 * e)
    f3 = sigma_ab(0, -2 * e, base, n)
    return (f1 - f2 - f3).truncate(order)


def g_index(a: int, ell: int, order: int) -> LaurentSeries:
    """g(a) = g(y^a, y^ell) as a power series in the base variable y."""
    out = g_series(1, a, ell, order)
    if out.min_exp < 0:
        raise AssertionError(f"g({a}) produced negative exponents: {out!r}")
    return out


# ----------------------------------------------------------------------
# identities on the Lambert layer, each as its two sides
# ----------------------------------------------------------------------


def _bilateral(quad: int, lin: int, csign: int, *denoms: Tuple[int, int, int]) -> Route:
    """The route of ``lambert_sum(quad, lin, csign, denoms)``."""
    return Route(lambert_sum, (quad, lin, csign, denoms))


def check_sigma_shift(z: SignedMonomial, zeta: SignedMonomial, base: int) -> Sides:
    """z^2 Sum(z,zeta,q) + zeta Sum(zq,zeta,q) = -sum_n (-1)^n zeta^n q^(n(n-1)) (1 + z q^n)."""
    sz, ez = z.sign, z.exp
    sc, ec = zeta.sign, zeta.exp
    lhs = (T(Product(1, 2 * ez), _bilateral(base, ec + base, -sc, (sz, ez, base))),
           T(Product(sc, ec), _bilateral(base, ec + base, -sc, (sz, ez + base, base))))
    rhs = (T(Product(-1), _bilateral(base, ec - base, -sc)),
           T(Product(-sz, ez), _bilateral(base, ec, -sc)))
    return lhs, rhs


def check_step(z: SignedMonomial, base: int) -> Sides:
    """z^2 Sum(z,1,q) + Sum(zq,1,q) = -z (q;q)_inf / (-q;q)_inf at q = q^base."""
    sz, ez = z.sign, z.exp
    lhs = (T(Product(1, 2 * ez), _bilateral(base, base, -1, (sz, ez, base))),
           T(Product(), _bilateral(base, base, -1, (sz, ez + base, base))))
    return lhs, (T(Product(-sz, ez) * poch(1, base, base) / poch(-1, base, base)),)


def check_short(z: SignedMonomial, base: int) -> Sides:
    """Sum(z,1,q) + z^-2 Sum(z^-1,1,q) = -z^-1 sum_n (-1)^n q^(n^2) at q = q^base."""
    sz, ez = z.sign, z.exp
    lhs = (T(Product(), _bilateral(base, base, -1, (sz, ez, base))),
           T(Product(1, -2 * ez), _bilateral(base, base, -1, (sz, -ez, base))))
    return lhs, (T(Product(-sz, -ez), _bilateral(base, 0, -1)),)


def check_constant(z: SignedMonomial, base: int) -> Sides:
    """g(z,q) - g(zq,q) = -2."""
    return ((T(Product(), Route(g_series, (z.sign, z.exp, base))),
             T(Product(-1), Route(g_series, (z.sign, z.exp + base, base)))), (T(Product(-2)),))


def check_gees(z: SignedMonomial, base: int) -> Sides:
    """g(z^-1, q) + g(z, q) = -1."""
    return ((T(Product(), Route(g_series, (z.sign, -z.exp, base))),
             T(Product(), Route(g_series, (z.sign, z.exp, base)))), (T(Product(-1)),))


def check_g2(a: int, ell: int) -> Sides:
    """g(a) + g(ell - a) = 1, in the base variable y."""
    return ((T(Product(), Route(g_index, (a, ell))), T(Product(), Route(g_index, (ell - a, ell)))),
            (T(),))


def check_part1(z: SignedMonomial, base: int) -> Sides:
    """2g(z,q) - g(z^2,q) + 1/2 = (q)^2 P(-z^4)/(P(z^4)P(-1))
    + z P(-1)^2 (q)^2 P(z^2) / (P(z)^2 P(-z)^2)."""
    s, e = z.sign, z.exp
    lhs = (T(Product(2), Route(g_series, (s, e, base))),
           T(Product(-1), Route(g_series, (1, 2 * e, base))), T(Product(Fraction(1, 2))))
    esq = poch(1, base, base, 2)
    first = esq * P(-1, 4 * e, base) / (P(1, 4 * e, base) * P(-1, 0, base))
    second = Product(s, e) * P(-1, 0, base) ** 2 * esq * P(1, 2 * e, base) / (
        P(s, e, base) ** 2 * P(-s, e, base) ** 2
    )
    return lhs, (T(first), T(second))


def verify_lemma41(zeta: SignedMonomial, z: SignedMonomial, base: int) -> Sides:
    """Bilateral two-pole sum equals a P-quotient multiple of Sum(z,1,q) plus a
    pure product:

        sum_n (-1)^n q^(n^2+n) [ zeta^-2n/(1 - z zeta^-1 q^n) + zeta^(2n+2)/(1 - z zeta q^n) ]
        = zeta P(zeta^2)P(-1)/(P(zeta)P(-zeta)) Sum(z,1,q)
          + P(zeta)P(zeta^2)P(-z)(q;q)^2 / (P(z)P(z zeta)P(z/zeta)P(-zeta)).
    """
    sc, ec = zeta.sign, zeta.exp
    sz, ez = z.sign, z.exp
    lhs = (T(Product(), _bilateral(base, base - 2 * ec, -1, (sz * sc, ez - ec, base))),
           T(Product(1, 2 * ec), _bilateral(base, base + 2 * ec, -1, (sz * sc, ez + ec, base))))
    prod = P(sc, ec, base) * P(1, 2 * ec, base) * P(-sz, ez, base) * poch(1, base, base, 2) / (
        P(sz, ez, base) * P(sz * sc, ez + ec, base) * P(sz * sc, ez - ec, base) * P(-sc, ec, base)
    )
    return lhs, (T(p_ratio(sc, ec, base), _bilateral(base, base, -1, (sz, ez, base))), T(prod))
