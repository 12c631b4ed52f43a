"""Exact truncated Laurent series over the rationals in one variable q.

A series is a contiguous window of exact rational coefficients together with
an exclusive truncation order: coefficients at exponents >= ``order`` are
unknown, everything below is exact (exponents below the stored window are
exactly zero).  All values are immutable; all operations are pure.

Coefficients are Python ints whenever the value is integral and
``fractions.Fraction`` otherwise, so the common all-integer case stays on the
fast native-int path.  Both types expose ``numerator``/``denominator`` and
compare exactly, so the union behaves as a single exact-rational scalar type.
"""

from __future__ import annotations

import operator
import sys
from array import array
from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import BeyondTruncation, NegativeExponent

Coefficient = Union[int, Fraction]


def _norm(c: Coefficient) -> Coefficient:
    """Collapse integral Fractions to int so arithmetic stays on the fast path."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _divide(cs: List[int], d: int) -> List[Coefficient]:
    """The integers cs over d > 0: an int wherever d divides, else a Fraction."""
    return cs if d == 1 else [c // d if not c % d else Fraction(c, d) for c in cs]


def _has_fraction(cs: Tuple[Coefficient, ...]) -> bool:
    """Whether any coefficient is a Fraction, by one C-level scan of the types."""
    return Fraction in set(map(type, cs))


class LaurentSeries:
    """A truncated Laurent series sum_{n >= min_exp} c_n q^n + O(q^order).

    Canonical form: the stored window carries no leading or trailing zero
    coefficients; the zero series has an empty window and min_exp == order.
    """

    __slots__ = ("min_exp", "coeffs", "order")

    min_exp: int
    coeffs: Tuple[Coefficient, ...]
    order: int

    def __init__(self, min_exp: int, coeffs: Iterable[Coefficient], order: int):
        cs = tuple(coeffs)
        if _has_fraction(cs):
            cs = tuple(map(_norm, cs))
        lo, hi = 0, len(cs)
        while lo < hi and not cs[lo]:
            lo += 1
        while hi > lo and not cs[hi - 1]:
            hi -= 1
        min_exp += lo
        cs = cs[lo:hi]
        if not cs:
            min_exp = order
        elif min_exp + len(cs) > order:
            raise ValueError(
                f"coefficients reach exponent {min_exp + len(cs) - 1} "
                f"but truncation order is {order}"
            )
        if min_exp > order:
            raise ValueError(f"min_exp {min_exp} exceeds order {order}")
        object.__setattr__(self, "min_exp", min_exp)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "LaurentSeries":
        return cls(order, (), order)

    @classmethod
    def one(cls, order: int) -> "LaurentSeries":
        return cls.monomial(1, 0, order)

    @classmethod
    def monomial(cls, c: Coefficient, exp: int, order: int) -> "LaurentSeries":
        if exp >= order:
            return cls.zero(order)
        return cls(exp, (c,), order)

    @classmethod
    def from_terms(cls, terms: Mapping[int, Coefficient], order: int) -> "LaurentSeries":
        """Build a series from an exponent -> coefficient mapping."""
        known = {e: c for e, c in terms.items() if e < order and c}
        if not known:
            return cls.zero(order)
        lo = min(known)
        window = [0] * (max(known) + 1 - lo)
        for e, c in known.items():
            window[e - lo] = c
        return cls(lo, window, order)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int) -> Coefficient:
        """Exact coefficient of q^n; raises BeyondTruncation for n >= order."""
        if n >= self.order:
            raise BeyondTruncation(f"exponent {n} is beyond truncation order {self.order}")
        i = n - self.min_exp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def terms(self) -> Iterator[Tuple[int, Coefficient]]:
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.min_exp + i, c

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.min_exp == other.min_exp
            and self.coeffs == other.coeffs
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.min_exp, self.coeffs, self.order))

    def __repr__(self) -> str:
        parts = []
        for e, c in list(self.terms())[:8]:
            parts.append(f"{c}*q^{e}" if e else f"{c}")
        if len(self.coeffs) > 8:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        return f"<{body} + O(q^{self.order})>"

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return add(self, other.__neg__())

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.min_exp, [-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            return mul(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c: Coefficient) -> "LaurentSeries":
        if not c:
            return LaurentSeries.zero(self.order)
        return LaurentSeries(self.min_exp, [c * x for x in self.coeffs], self.order)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by q^k."""
        return LaurentSeries(self.min_exp + k, self.coeffs, self.order + k)

    def truncate(self, order: int) -> "LaurentSeries":
        """Forget all coefficients at exponents >= order."""
        if order >= self.order:
            return self
        keep = max(0, min(len(self.coeffs), order - self.min_exp))
        return LaurentSeries(self.min_exp, self.coeffs[:keep], order)


# the two sides of an identity, as a check returns them
Sides = Tuple[LaurentSeries, LaurentSeries]


def add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Coefficientwise sum; order = min(a.order, b.order)."""
    order = min(a.order, b.order)
    lo = min(a.min_exp, b.min_exp, order)
    out = [0] * (order - lo)
    for src in (a, b):
        base = src.min_exp - lo
        end = min(base + len(src.coeffs), len(out))
        if base < end:
            out[base:end] = map(operator.add, out[base:end], src.coeffs)
    return LaurentSeries(lo, out, order)


# The schoolbook loop makes one slice pass over one operand per nonzero
# coefficient of the other; packing costs a few word operations per
# coefficient of both operands and of the product.  On random operands of
# 100 to 3000 coefficients (2 cores, Python 3.11) the slice pass was the
# faster up to 4 to 6 nonzeros on the sparser side against 3-bit
# coefficients, and up to 8 to 16 against 60-bit ones.  ``run_suite`` makes
# 80 calls here at scale 1 and 81 at scale 0.25, almost all from short
# ``Product.times`` calls; replayed, best of 7, they took 10.9 and 2.9 ms
# at a cutoff of 4, 10.7 and 3.8 ms at 8, and 17.1 and 3.9 ms at 12.
_SCHOOLBOOK_MAX_NONZEROS = 4


def mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Cauchy product.

    The result is exact below min(a.order + b.min_exp, b.order + a.min_exp):
    the first unknown coefficient of either factor first affects that exponent.

    The product is taken by Kronecker substitution: each side, truncated to
    the output window and with its denominators cleared, is packed into one
    integer at q = 2^w, and one bigint product carries every coefficient
    (D. Harvey, arXiv:0712.4046).  When either side has at most
    ``_SCHOOLBOOK_MAX_NONZEROS`` nonzero coefficients, ``_mul_schoolbook``
    is faster and is used instead.
    """
    order = min(a.order + b.min_exp, b.order + a.min_exp)
    lo = a.min_exp + b.min_exp
    if not a.coeffs or not b.coeffs:
        return LaurentSeries.zero(order)
    n = order - lo
    ac, bc = a.coeffs[:n], b.coeffs[:n]
    if min(len(ac) - ac.count(0), len(bc) - bc.count(0)) <= _SCHOOLBOOK_MAX_NONZEROS:
        return _mul_schoolbook(a, b)
    ac, da = _clear_denominators(ac)
    bc, db = _clear_denominators(bc)
    # every output coefficient is a sum of at most min(len) products, so it
    # lies strictly inside (-2^(w-2), 2^(w-2)): the slots never overlap
    bound = max(map(abs, ac)) * max(map(abs, bc)) * min(len(ac), len(bc))
    size = (bound.bit_length() + 2 + 7) // 8
    m = min(n, len(ac) + len(bc) - 1)
    out = _unpack(_pack(ac, size) * _pack(bc, size), size, m)
    return LaurentSeries(lo, _divide(out, da * db), order)


def _clear_denominators(cs: Tuple[Coefficient, ...]) -> Tuple[Tuple[int, ...], int]:
    """(d * cs as ints, d) for the least common denominator d."""
    if not _has_fraction(cs):
        return cs, 1
    d = lcm(*(c.denominator for c in cs))
    return tuple(c.numerator * (d // c.denominator) for c in cs), d


def _slot_run(count: int, size: int) -> int:
    """half * sum_{i < count} 2^(8 size i), for half = 2^(8 size - 1): the
    offset half in each of count slots."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


# Slots are moved between an integer and Python ints through arrays of
# machine words, so no Python-level step is taken per slot up to 8 bytes.  A
# slot of 3, 5, 6 or 7 bytes is widened to the next word by strided byte
# copies; one above 8 bytes is written slot by slot by ``to_bytes`` and read
# as 8-byte planes, joined by ``map``.
_SIGNED = {array(c).itemsize: c for c in "bhilq"}
_BIG_ENDIAN = sys.byteorder == "big"
_SIGN_BYTE = bytes(0xFF if b & 0x80 else 0 for b in range(256))


def _word(size: int) -> int:
    """The word a slot of size bytes is widened to: 1, 2, 4 or 8 bytes, or a
    multiple of 8 bytes above 8."""
    return 1 << (size - 1).bit_length() if size <= 8 else -(-size // 8) * 8


def _words(x: Union[bytes, Sequence[int]], code: str) -> array:
    """An array of the type code over x, ints or the bytes of little-endian
    words, its byte order swapped on a big-endian host: read from such bytes
    it holds their values, and built from ints its bytes are such words."""
    out = array(code, x)
    if _BIG_ENDIAN:
        out.byteswap()
    return out


def _pack(cs: Sequence[int], size: int) -> int:
    """sum_i cs[i] 2^(8 size i), each |cs[i]| < half = 2^(8 size - 1).

    Each slot is written as its two's complement u_i = cs[i] mod 2^(8 size);
    flipping the top bit of every slot turns u_i into cs[i] + half, and
    subtracting half from every slot then gives the value.
    """
    word = _word(size)
    if word > 8:
        raw = b"".join([c.to_bytes(size, "little", signed=True) for c in cs])
    else:
        raw = _words(cs, _SIGNED[word]).tobytes()
        if word != size:
            low = bytearray(size * len(cs))
            for b in range(size):
                low[b::size] = raw[b::word]
            raw = low
    run = _slot_run(len(cs), size)
    return (int.from_bytes(raw, "little") ^ run) - run


def _unpack(v: int, size: int, count: int) -> List[int]:
    """The count slots c_i of v = sum_i c_i 2^(8 size i) mod 2^(8 size
    count), each -half <= c_i < half for half = 2^(8 size - 1).

    Adding half to every slot makes each one a nonnegative offset value, so no
    borrow crosses a slot boundary; flipping each slot's top bit back leaves
    c_i in two's complement, which the signed words read.
    """
    run = _slot_run(count, size)
    raw = (((v + run) & ((1 << (8 * size * count)) - 1)) ^ run).to_bytes(size * count, "little")
    word = _word(size)
    if word != size:
        wide = bytearray(word * count)
        for b in range(size):
            wide[b::word] = raw[b::size]
        # copy each slot's sign into its new high bytes
        sign = raw[size - 1::size].translate(_SIGN_BYTE)
        for b in range(size, word):
            wide[b::word] = sign
        raw = wide
    if word <= 8:
        return _words(raw, _SIGNED[word]).tolist()
    k = word // 8
    low = _words(raw, "Q")
    out = _words(raw, "q")[k - 1::k]
    for j in range(k - 2, -1, -1):
        out = map(operator.add, map(operator.lshift, out, repeat(64)), low[j::k])
    return list(out)


def _mul_schoolbook(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Cauchy product by one slice pass over the other operand per nonzero of
    the sparser one: ``mul``'s path when one operand has very few nonzeros,
    and the reference its packed path is tested against."""
    order = min(a.order + b.min_exp, b.order + a.min_exp)
    lo = a.min_exp + b.min_exp
    if not a.coeffs or not b.coeffs:
        return LaurentSeries.zero(order)
    # iterate over the operand with fewer nonzero entries
    na = sum(1 for c in a.coeffs if c)
    nb = sum(1 for c in b.coeffs if c)
    if nb < na:
        a, b = b, a
    n = order - lo
    out = [0] * n
    bc = b.coeffs
    for i, ca in enumerate(a.coeffs[:n]):
        if ca:
            m = min(len(bc), n - i)
            out[i:i + m] = map(operator.add, out[i:i + m], map(operator.mul, repeat(ca), bc[:m]))
    return LaurentSeries(lo, out, order)


def substitute_power(a: LaurentSeries, k: int) -> LaurentSeries:
    """Substitute q -> q^k (k >= 1); every stored exponent n becomes k*n."""
    if k < 1:
        raise ValueError("substitution power must be >= 1")
    if k == 1 or not a.coeffs:
        return LaurentSeries(a.min_exp * k, a.coeffs, a.order * k)
    out = [0] * ((len(a.coeffs) - 1) * k + 1)
    out[::k] = a.coeffs
    return LaurentSeries(a.min_exp * k, out, a.order * k)


def extract_progression(a: LaurentSeries, m: int, d: int) -> LaurentSeries:
    """Series of the coefficients on the progression mn + d: g_n = a_{mn+d}.

    Requires a.min_exp >= 0 and 0 <= d < m.  The roundtrip
    sum_d q^d * substitute_power(extract_progression(a, m, d), m)
    reproduces a on its guaranteed range.
    """
    if a.min_exp < 0:
        raise NegativeExponent(
            f"progression extraction needs a power series, found min_exp {a.min_exp}"
        )
    if not 0 <= d < m:
        raise ValueError(f"residue {d} not in [0, {m})")
    g_order = max(0, -((d - a.order) // m))  # ceil((order - d) / m)
    lo = max(0, -((d - a.min_exp) // m))  # the first n with mn + d >= min_exp
    return LaurentSeries(lo, a.coeffs[m * lo + d - a.min_exp::m], g_order)


def first_mismatch(
    a: LaurentSeries, b: LaurentSeries
) -> Optional[Tuple[int, Coefficient, Coefficient]]:
    """First exponent below min(a.order, b.order) where the two series differ.

    Returns (exponent, a-coefficient, b-coefficient), or None if the series
    agree on the whole compared range.
    """
    hi = min(a.order, b.order)
    lo = min(a.min_exp, b.min_exp)
    wa, wb = _window(a, lo, hi), _window(b, lo, hi)
    if wa == wb:
        return None
    i = next(i for i, (ca, cb) in enumerate(zip(wa, wb)) if ca != cb)
    return (lo + i, wa[i], wb[i])


def _window(a: LaurentSeries, lo: int, hi: int) -> Tuple[Coefficient, ...]:
    """The coefficients of a at exponents lo <= n < hi, for lo <= a.min_exp."""
    head = min(a.min_exp, hi) - lo
    body = a.coeffs[:hi - lo - head]
    return (0,) * head + body + (0,) * (hi - lo - head - len(body))

