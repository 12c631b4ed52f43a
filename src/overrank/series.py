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
import threading
from array import array
from collections import Counter, namedtuple
from fractions import Fraction
from functools import wraps
from itertools import repeat
from math import gcd, lcm
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

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
    def monomial(cls, c: Coefficient, exp: int, order: int) -> "LaurentSeries":
        if exp >= order:
            return cls.zero(order)
        return cls(exp, (c,), order)

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


def add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Coefficientwise sum; order = min(a.order, b.order)."""
    order = min(a.order, b.order)
    lo = min(a.min_exp, b.min_exp, order)
    den = lcm(a.den, b.den)
    return _from_ints(lo, map(operator.add, _window(a, lo, order, den), _window(b, lo, order, den)),
                      order, den)


def mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Cauchy product.

    The result is exact below min(a.order + b.min_exp, b.order + a.min_exp):
    the first unknown coefficient of either factor first affects that exponent.

    The product is taken by Kronecker substitution, whatever the operands'
    sizes or sparsity: the numerators of each side, truncated to the output
    window, are packed into one integer at q = 2^w, and one bigint product
    carries every coefficient over a.den * b.den (D. Harvey, arXiv:0712.4046).
    """
    order = min(a.order + b.min_exp, b.order + a.min_exp)
    lo = a.min_exp + b.min_exp
    if not a.nums or not b.nums:
        return LaurentSeries.zero(order)
    n = order - lo
    ac, bc = a.nums[:n], b.nums[:n]
    # every output coefficient is a sum of at most min(len) products
    size = _slot_size(max(map(abs, ac)) * max(map(abs, bc)) * min(len(ac), len(bc)))
    m = min(n, len(ac) + len(bc) - 1)
    out = _unpack(_pack(ac, size) * _pack(bc, size), size, m)
    return _from_ints(lo, out, order, a.den * b.den)


def _slot_size(bound: int) -> int:
    """The bytes of a ``_pack``/``_unpack`` slot that holds every integer of
    size at most bound: the slot's w bits hold -2^(w-1) to 2^(w-1) - 1, and
    bound < 2^(bound.bit_length()).  Every packed width is taken here."""
    return (bound.bit_length() + 8) // 8


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


def substitute_power(a: LaurentSeries, k: int) -> LaurentSeries:
    """Substitute q -> q^k (k >= 1); every stored exponent n becomes k*n."""
    if k < 1:
        raise ValueError("substitution power must be >= 1")
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
    body = a.nums[:hi - lo - head]
    if den != a.den:
        body = tuple(map(operator.mul, body, repeat(den // a.den)))
    return (0,) * head + body + (0,) * (hi - lo - head - len(body))


# The one memo: (function, its arguments but the order) -> the deepest series
# built, oldest first, at most _EXPAND_LIMIT coefficients (``_size``) in all;
# the counts are each function's hits (True), misses (False) and "stored".
_EXPAND_LIMIT = 1 << 20
_memo: Dict[tuple, LaurentSeries] = {}
_memo_counts: Counter = Counter()
_memo_lock = threading.Lock()
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def memo(fn: Callable[..., LaurentSeries]) -> Callable[..., LaurentSeries]:
    """fn on the one memo, for an fn whose result is a series of exactly the
    ``order`` it is passed, by position or by keyword, after which it takes
    keyword arguments only.  A call is keyed by fn and its other arguments,
    a list as a tuple; one no deeper than its entry is the entry truncated,
    and a deeper one is built at exactly its order and replaces the entry,
    unless a deeper one was stored meanwhile.  ``cache_info()`` and
    ``cache_clear()`` are ``lru_cache``'s, maxsize the bound, currsize fn's coefficients."""
    at = fn.__code__.co_varnames.index("order")

    @wraps(fn)
    def memoised(*args, **kwargs):
        order = kwargs["order"] if "order" in kwargs else args[at]
        key = (memoised, *(tuple(a) if type(a) is list else a for a in args[:at]),
               *sorted(item for item in kwargs.items() if item[0] != "order"))
        with _memo_lock:
            known = _memo.get(key)
            hit = known is not None and known.order >= order
            _memo_counts[memoised, hit] += 1
        if hit:
            return known.truncate(order)
        out = fn(*args, **kwargs)
        with _memo_lock:
            old = _memo.get(key)
            if _size(out) <= _EXPAND_LIMIT and (old is None or old.order < out.order):
                _memo.pop(key, None)
                _memo[key] = out
                _memo_counts["stored"] += _size(out) - (0 if old is None else _size(old))
                while _memo_counts["stored"] > _EXPAND_LIMIT:
                    _memo_counts["stored"] -= _size(_memo.pop(next(iter(_memo))))
        return out

    def cache_info() -> CacheInfo:
        with _memo_lock:
            return CacheInfo(_memo_counts[memoised, True], _memo_counts[memoised, False],
                             _EXPAND_LIMIT, sum(_size(s) for key, s in _memo.items()
                                                if key[0] is memoised))

    def cache_clear() -> None:
        with _memo_lock:
            for key in [key for key in _memo if key[0] is memoised]:
                _memo_counts["stored"] -= _size(_memo.pop(key))
            _memo_counts[memoised, True] = _memo_counts[memoised, False] = 0

    memoised.cache_info, memoised.cache_clear = cache_info, cache_clear
    return memoised


def _size(s: LaurentSeries) -> int:  # the coefficients from the first to the order
    return s.order - s.min_exp
