"""Exact truncated Laurent series over the rationals in one variable q.

A series is a contiguous window of exact rational coefficients together with
an exclusive truncation order: coefficients at exponents >= ``order`` are
unknown, everything below is exact (exponents below the stored window are
exactly zero).  All values are immutable; all operations are pure.

A series stores its coefficients as the integers ``nums`` over one
denominator ``den`` >= 1, in lowest terms: gcd(den, *nums) = 1, so an
integral series has den 1.  Every operation works on the integers, under one
rule for the denominator of its result (a sum over the lcm of its operands',
a product over their product), and builds that result by ``_from_ints``,
which divides out one gcd.  ``coeffs`` is the exact view for readers:
``nums`` itself for an integral series, and otherwise an int where a
coefficient is integral and a ``fractions.Fraction`` where it is not.
"""

from __future__ import annotations

import operator
import sys
from array import array
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import BeyondTruncation, NegativeExponent

Coefficient = Union[int, Fraction]


def _ratio(n: int, d: int) -> Coefficient:
    """n/d as an int where it is integral, else as a Fraction."""
    return n // d if not n % d else Fraction(n, d)


class LaurentSeries:
    """A truncated Laurent series sum_{n >= min_exp} c_n q^n + O(q^order),
    c_n = nums[n - min_exp] / den.

    Canonical form: the stored window carries no leading or trailing zero
    numerators, gcd(den, *nums) = 1, and the zero series has an empty window,
    min_exp == order and den == 1.
    """

    __slots__ = ("min_exp", "nums", "order", "den")

    min_exp: int
    nums: Tuple[int, ...]
    order: int
    den: int

    def __new__(cls, min_exp: int, coeffs: Iterable[Coefficient], order: int):
        """The series of exact coefficients, as numerators over the lcm of
        their denominators."""
        cs = tuple(coeffs)
        den = lcm(*(c.denominator for c in cs))
        return _from_ints(min_exp, [c.numerator * (den // c.denominator) for c in cs], order, den)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "LaurentSeries":
        return _from_ints(order, (), order)

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

    @property
    def coeffs(self) -> Tuple[Coefficient, ...]:
        """The stored window as exact rationals: ``nums`` for an integral
        series, else ints where integral and Fractions where not."""
        if self.den == 1:
            return self.nums
        return tuple(map(_ratio, self.nums, repeat(self.den)))

    def is_zero(self) -> bool:
        return not self.nums

    def coeff(self, n: int) -> Coefficient:
        """Exact coefficient of q^n; raises BeyondTruncation for n >= order."""
        if n >= self.order:
            raise BeyondTruncation(f"exponent {n} is beyond truncation order {self.order}")
        i = n - self.min_exp
        if 0 <= i < len(self.nums):
            return _ratio(self.nums[i], self.den)
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
            and self.nums == other.nums
            and self.den == other.den
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.min_exp, self.nums, self.den, self.order))

    def __repr__(self) -> str:
        parts = []
        for e, c in list(self.terms())[:8]:
            parts.append(f"{c}*q^{e}" if e else f"{c}")
        if len(self.nums) > 8:
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
        return _from_ints(self.min_exp, map(operator.neg, self.nums), self.order, self.den)

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
        return _from_ints(self.min_exp, map(operator.mul, repeat(c.numerator), self.nums),
                          self.order, self.den * c.denominator)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by q^k."""
        return _from_ints(self.min_exp + k, self.nums, self.order + k, self.den)

    def truncate(self, order: int) -> "LaurentSeries":
        """Forget all coefficients at exponents >= order."""
        if order >= self.order:
            return self
        keep = max(0, min(len(self.nums), order - self.min_exp))
        return _from_ints(self.min_exp, self.nums[:keep], order, self.den)


def _from_ints(min_exp: int, nums: Iterable[int], order: int, d: int = 1) -> LaurentSeries:
    """The series of the integers nums over d >= 1 from q^min_exp on, in
    canonical form: the fraction reduced by one gcd where d > 1, the zeros
    at both ends trimmed and the window checked against the order."""
    cs = tuple(nums)
    if d != 1 and (g := gcd(d, *cs)) != 1:
        cs = tuple(map(operator.floordiv, cs, repeat(g)))
        d //= g
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
    s = object.__new__(LaurentSeries)
    object.__setattr__(s, "min_exp", min_exp)
    object.__setattr__(s, "nums", cs)
    object.__setattr__(s, "order", order)
    object.__setattr__(s, "den", d)
    return s


def _times(cs: Tuple[int, ...], k: int) -> Tuple[int, ...]:
    """The integers cs times k; cs itself for k = 1."""
    return cs if k == 1 else tuple(map(operator.mul, cs, repeat(k)))


# the two sides of an identity, as a check returns them
Sides = Tuple[LaurentSeries, LaurentSeries]


def add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Coefficientwise sum; order = min(a.order, b.order)."""
    order = min(a.order, b.order)
    if b.min_exp < a.min_exp:
        a, b = b, a
    lo = min(a.min_exp, order)
    den = lcm(a.den, b.den)
    ac = _times(a.nums[:order - lo], den // a.den)
    bc = _times(b.nums[:max(0, order - b.min_exp)], den // b.den)
    gap = b.min_exp - lo  # where b's window starts in a's
    if not bc:
        out = ac
    elif gap >= len(ac):
        out = ac + (0,) * (gap - len(ac)) + bc
    else:  # one of the two tails past the overlap is empty
        out = (ac[:gap] + tuple(map(operator.add, ac[gap:], bc))
               + ac[gap + len(bc):] + bc[len(ac) - gap:])
    return _from_ints(lo, out, order, den)


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

    The product is taken by Kronecker substitution: the numerators of each
    side, truncated to the output window, are packed into one integer at
    q = 2^w, and one bigint product carries every coefficient over
    a.den * b.den (D. Harvey, arXiv:0712.4046).  When either side has at most
    ``_SCHOOLBOOK_MAX_NONZEROS`` nonzero coefficients, ``_mul_schoolbook``
    is faster and is used instead.
    """
    order = min(a.order + b.min_exp, b.order + a.min_exp)
    lo = a.min_exp + b.min_exp
    if not a.nums or not b.nums:
        return LaurentSeries.zero(order)
    n = order - lo
    ac, bc = a.nums[:n], b.nums[:n]
    if min(len(ac) - ac.count(0), len(bc) - bc.count(0)) <= _SCHOOLBOOK_MAX_NONZEROS:
        return _mul_schoolbook(a, b)
    # every output coefficient is a sum of at most min(len) products, so it
    # lies strictly inside (-2^(w-2), 2^(w-2)): the slots never overlap
    bound = max(map(abs, ac)) * max(map(abs, bc)) * min(len(ac), len(bc))
    size = (bound.bit_length() + 2 + 7) // 8
    m = min(n, len(ac) + len(bc) - 1)
    out = _unpack(_pack(ac, size) * _pack(bc, size), size, m)
    return _from_ints(lo, out, order, a.den * b.den)


def _slot_run(count: int, size: int) -> int:
    """half * sum_{i < count} 2^(8 size i), for half = 2^(8 size - 1): the
    offset half in each of count slots."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


# Slots are moved between an integer and Python ints through arrays of
# machine words, so no Python-level step is taken per slot up to 8 bytes.  A
# slot of 3, 5, 6 or 7 bytes is widened to the next word by strided byte
# copies; one above 8 bytes is written slot by slot by ``to_bytes`` and read
# as 8-byte planes, joined by ``map``, or, for at most _PER_SLOT_MAX slots,
# slot by slot by ``from_bytes``.  The planes cost a fixed few arrays and
# maps: decoding 1 to 32 random slots (best of 7; 2 cores, Python 3.11), the
# per-slot loop was 2.3-7.0x faster at 8 slots or fewer of 9, 13 and 17
# bytes, 1.8-2.7x at 12, and 1.1-2.2x at 16 to 24; of 16 bytes, whose planes
# need no widening, it tied at 8 slots and lost 15% at 12 and 18% at 16.
_PER_SLOT_MAX = 12
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
    if word > 8 and count <= _PER_SLOT_MAX:
        return [int.from_bytes(raw[i:i + size], "little", signed=True)
                for i in range(0, size * count, size)]
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
    if not a.nums or not b.nums:
        return LaurentSeries.zero(order)
    # iterate over the operand with fewer nonzero entries
    na, nb = len(a.nums) - a.nums.count(0), len(b.nums) - b.nums.count(0)
    if nb < na:
        a, b = b, a
    n = order - lo
    out = [0] * n
    bc = b.nums
    for i, ca in enumerate(a.nums[:n]):
        if ca:
            m = min(len(bc), n - i)
            out[i:i + m] = map(operator.add, out[i:i + m], map(operator.mul, repeat(ca), bc[:m]))
    return _from_ints(lo, out, order, a.den * b.den)


def substitute_power(a: LaurentSeries, k: int) -> LaurentSeries:
    """Substitute q -> q^k (k >= 1); every stored exponent n becomes k*n."""
    if k < 1:
        raise ValueError("substitution power must be >= 1")
    if k == 1 or not a.nums:
        return _from_ints(a.min_exp * k, a.nums, a.order * k, a.den)
    out = [0] * ((len(a.nums) - 1) * k + 1)
    out[::k] = a.nums
    return _from_ints(a.min_exp * k, out, a.order * k, a.den)


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
    return _from_ints(lo, a.nums[m * lo + d - a.min_exp::m], g_order, a.den)


def first_mismatch(
    a: LaurentSeries, b: LaurentSeries
) -> Optional[Tuple[int, Coefficient, Coefficient]]:
    """First exponent below min(a.order, b.order) where the two series differ.

    Returns (exponent, a-coefficient, b-coefficient), or None if the series
    agree on the whole compared range.
    """
    hi = min(a.order, b.order)
    lo = min(a.min_exp, b.min_exp)
    den = lcm(a.den, b.den)
    wa, wb = _window(a, lo, hi, den), _window(b, lo, hi, den)
    if wa == wb:
        return None
    i = next(i for i, (ca, cb) in enumerate(zip(wa, wb)) if ca != cb)
    return (lo + i, _ratio(wa[i], den), _ratio(wb[i], den))


def _window(a: LaurentSeries, lo: int, hi: int, den: int) -> Tuple[int, ...]:
    """The numerators over den, a multiple of a.den, of a at exponents
    lo <= n < hi, for lo <= a.min_exp."""
    head = min(a.min_exp, hi) - lo
    body = _times(a.nums[:hi - lo - head], den // a.den)
    return (0,) * head + body + (0,) * (hi - lo - head - len(body))

