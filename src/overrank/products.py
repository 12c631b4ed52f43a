"""Infinite products: Pochhammer symbols, the two-sided product P(z,q),
theta series, and verifiers for the pure product identities.

Throughout, generic product arguments are instantiated as signed monomials
s*q^j (s = +-1), which keeps the whole engine univariate.  The two-sided
product

    P(z, q) = prod_{r >= 1} (1 - z q^(r-1)) (1 - q^r / z)

satisfies P(z^-1 q, q) = P(z, q) and P(zq, q) = -z^-1 P(z, q); arguments
whose exponent falls outside [0, base) are reduced with these relations,
accumulating an exact monomial prefactor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .report import IdentityReport, compare
from .series import LaurentSeries


@dataclass(frozen=True)
class SignedMonomial:
    """A term s*q^j with s in {+1, -1} and j >= 0."""

    sign: int
    exp: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.exp < 0:
            raise ValueError(f"exponent must be nonnegative, got {self.exp}")

    def __str__(self):
        s = "-" if self.sign < 0 else ""
        return f"{s}q^{self.exp}" if self.exp else f"{s}1"


def _poch_raw(sign: int, r: int, m: int, order: int) -> LaurentSeries:
    """(sign*q^r; q^m)_inf truncated below `order`; requires r >= 0."""
    if order <= 0:
        return LaurentSeries.zero(order)
    out = [0] * order
    out[0] = 1
    e = r
    while e < order:
        if e == 0:
            if sign == 1:
                return LaurentSeries.zero(order)  # factor (1 - 1)
            out = [2 * c for c in out]
        elif sign == 1:
            for i in range(order - 1, e - 1, -1):
                c = out[i - e]
                if c:
                    out[i] -= c
        else:
            for i in range(order - 1, e - 1, -1):
                c = out[i - e]
                if c:
                    out[i] += c
        e += m
    return LaurentSeries(0, out, order)


def pochhammer_inf(arg: SignedMonomial, modulus: int, order: int) -> LaurentSeries:
    """Expand (arg; q^modulus)_inf = prod_{k>=0} (1 - arg*q^(k*modulus))."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    return _poch_raw(arg.sign, arg.exp, modulus, order)


# ----------------------------------------------------------------------
# the two-sided product P
# ----------------------------------------------------------------------


def _p_normalize(sign: int, exp: int, base: int) -> Tuple[int, int, int]:
    """Reduce exp into [0, base); returns (pref_sign, pref_exp, reduced_exp)
    with P(s*q^exp) = pref_sign * q^pref_exp * P(s*q^reduced_exp)."""
    ps, pe = 1, 0
    while exp >= base:
        exp -= base
        ps, pe = ps * -sign, pe - exp
    while exp < 0:
        ps, pe = ps * -sign, pe + exp
        exp += base
    return ps, pe, exp


def p_mono(sign: int, exp: int, base: int, order: int) -> LaurentSeries:
    """P(sign*q^exp, q^base) for an arbitrary integer exponent.

    Exponents outside [0, base) are reduced first, so the result may carry a
    monomial prefactor with negative exponent (a genuine Laurent series).
    """
    ps, pe, e = _p_normalize(sign, exp, base)
    need = order - pe
    if need <= 0:
        return LaurentSeries.zero(order)
    res = _poch_raw(sign, e, base, need) * _poch_raw(sign, base - e, base, need)
    if ps < 0:
        res = -res
    return res.shift(pe)


def p_zero(ell: int, order: int) -> LaurentSeries:
    """The special value P(0) = (q^ell; q^ell)_inf in the base variable."""
    return _poch_raw(1, ell, ell, order)


# ----------------------------------------------------------------------
# theta series and the triple product
# ----------------------------------------------------------------------


def theta(z: SignedMonomial, base: int, order: int) -> LaurentSeries:
    """Bilateral theta sum sum_{n in Z} z^n q^(base*n^2), z = s*q^e."""
    s, e = z.sign, z.exp
    terms: dict = {}
    n = 0
    while True:
        exp = base * n * n + e * n
        if n > 0 and exp >= order:
            break
        if exp < order:
            terms[exp] = terms.get(exp, 0) + (1 if s == 1 or n % 2 == 0 else -1)
        n += 1
    k = 1
    while k <= e // base + 1 or base * k * k - e * k < order:
        exp = base * k * k - e * k
        if exp < order:
            terms[exp] = terms.get(exp, 0) + (1 if s == 1 or k % 2 == 0 else -1)
        k += 1
    return LaurentSeries.from_terms(terms, order)


def triple_product(z: SignedMonomial, base: int, order: int) -> LaurentSeries:
    """(-zq, -q/z, q^2; q^2)_inf with q = q^base, for z = s*q^e, 0 <= e <= base."""
    s, e = z.sign, z.exp
    if e > base:
        raise ValueError("triple product instantiation needs exp <= base")
    return (
        _poch_raw(-s, e + base, 2 * base, order)
        * _poch_raw(-s, base - e, 2 * base, order)
        * _poch_raw(1, 2 * base, 2 * base, order)
    )


# ----------------------------------------------------------------------
# product identity verifiers
# ----------------------------------------------------------------------


def verify_lemma31(variant: str, order: int) -> IdentityReport:
    """Dissection of (q;q)/( -q;q) into base-9/18 (eq1) or base-25/50 (eq2) products."""
    lhs = _poch_raw(1, 1, 1, order) / _poch_raw(-1, 1, 1, order)
    if variant == "eq1":
        rhs = _poch_raw(1, 9, 9, order) / _poch_raw(-1, 9, 9, order)
        rhs = rhs - 2 * (
            _poch_raw(1, 3, 18, order) * _poch_raw(1, 15, 18, order) * _poch_raw(1, 18, 18, order)
        ).shift(1).truncate(order)
    elif variant == "eq2":
        rhs = _poch_raw(1, 25, 25, order) / _poch_raw(-1, 25, 25, order)
        rhs = rhs - 2 * (
            _poch_raw(1, 15, 50, order) * _poch_raw(1, 35, 50, order) * _poch_raw(1, 50, 50, order)
        ).shift(1).truncate(order)
        rhs = rhs + 2 * (
            _poch_raw(1, 5, 50, order) * _poch_raw(1, 45, 50, order) * _poch_raw(1, 50, 50, order)
        ).shift(4).truncate(order)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return compare(f"lemma3.1.{variant}", lhs, rhs)


def _mono(sign: int, exp: int, series: LaurentSeries) -> LaurentSeries:
    out = series.shift(exp)
    return -out if sign < 0 else out


def verify_hickerson(
    which: str, x: SignedMonomial, z: SignedMonomial, base: int, order: int
) -> IdentityReport:
    """Two/three-term product identities relating base-q and base-q^2 P-products."""
    sx, ex = x.sign, x.exp
    sz, ez = z.sign, z.exp
    b2 = 2 * base
    slack = max(0, ex - ez) + base  # q^2-side arguments may need reducing
    n = order + slack

    def p1(s, e):
        return p_mono(s, e, base, n)

    def p2(s, e):
        return p_mono(s, e, b2, n)

    e_sq = _poch_raw(1, base, base, n) ** 2
    e2_sq = _poch_raw(1, b2, b2, n) ** 2

    if which == "lemma32":
        lhs = p1(sx, ex) * p1(sz, ez) * e_sq
        rhs = p2(-sx * sz, ex + ez) * p2(-sz * sx, base + ez - ex) * e2_sq
        rhs = rhs - _mono(sx, ex, p2(-sx * sz, ex + ez + base) * p2(-sz * sx, ez - ex) * e2_sq)
    elif which == "lemma33":
        lhs = p1(-sx, ex) * p1(sz, ez) * e_sq - p1(sx, ex) * p1(-sz, ez) * e_sq
        rhs = 2 * _mono(sx, ex, p2(sz * sx, ez - ex) * p2(sx * sz, ex + ez + base) * e2_sq)
    elif which == "lemma34":
        lhs = p1(-sx, ex) * p1(sz, ez) * e_sq + p1(sx, ex) * p1(-sz, ez) * e_sq
        rhs = 2 * p2(sx * sz, ex + ez) * p2(sz * sx, base + ez - ex) * e2_sq
    elif which == "lemma35":
        lhs = 3 * (p1(-sx, ex) * p1(sz, ez) * e_sq) - p1(sx, ex) * p1(-sz, ez) * e_sq
        rhs = 2 * p2(sx * sz, ex + ez) * p2(sz * sx, ez + base - ex) * e2_sq
        rhs = rhs + 4 * _mono(sx, ex, p2(sx * sz, ex + ez + base) * p2(sz * sx, ez - ex) * e2_sq)
    else:
        raise ValueError(f"unknown identity {which!r}")
    tag = f"{which}@x={x},z={z},base={base}"
    return compare(tag, lhs.truncate(order), rhs.truncate(order))


def verify_addition(
    z: SignedMonomial, zeta: SignedMonomial, t: SignedMonomial, base: int, order: int
) -> IdentityReport:
    """Three-term addition relation:
    P^2(z)P(zeta*t)P(zeta/t) - P^2(zeta)P(zt)P(z/t) + (zeta/t)P^2(t)P(z*zeta)P(z/zeta) = 0.
    """
    sz, ez = z.sign, z.exp
    sc, ec = zeta.sign, zeta.exp
    st, et = t.sign, t.exp
    n = order + max(0, et - ec) + base

    def p(s, e):
        return p_mono(s, e, base, n)

    total = p(sz, ez) ** 2 * p(sc * st, ec + et) * p(sc * st, ec - et)
    total = total - p(sc, ec) ** 2 * p(sz * st, ez + et) * p(sz * st, ez - et)
    third = p(st, et) ** 2 * p(sz * sc, ez + ec) * p(sz * sc, ez - ec)
    total = total + _mono(sc * st, ec - et, third)
    total = total.truncate(order)
    tag = f"lemma3.6@z={z},zeta={zeta},t={t},base={base}"
    return compare(tag, total, LaurentSeries.zero(order))
