"""Infinite products: Pochhammer symbols, the two-sided product P(z,q), the
triple product, and verifiers for the pure product identities.

Throughout, generic product arguments are instantiated as signed monomials
s*q^j (s = +-1), which keeps the whole engine univariate.  The two-sided
product

    P(z, q) = prod_{r >= 1} (1 - z q^(r-1)) (1 - q^r / z)

satisfies P(z^-1 q, q) = P(z, q) and P(zq, q) = -z^-1 P(z, q); arguments
whose exponent falls outside [0, base) are reduced with these relations,
accumulating an exact monomial prefactor.

Every quotient of Pochhammer symbols in the package is one ``Product``
value, turned into a series by ``Product.expand`` or, times a series, by
``Product.times``, which from ``_TIMES_MIN_LENGTH`` terms on never expands
it.  ``expand`` memoises the expansion of each factor multiset, so a product
met again at the same or a shorter length costs one slice; a product in q^g
is expanded in q and spread.  Both run one kernel, ``_expand_packed``, on
the series they multiply by: 1 for ``expand``.  A miss is written by
``_decompose`` as theta functions
theta_s(r, p) = (s q^r, s q^(p-r), q^p; q^p)_inf to integer powers, whose
sums by Jacobi's triple product have O(sqrt(n/p)) terms below q^n: a class
pair borrows the pentagonal (q^p; q^p) = theta_+(p, 3p) its theta lacks.  The
classes that pair with nothing are left as binomials, in which the binomials
of those factors cancel.  Everything is carried in one integer at q = 2^w
(Kronecker substitution): a numerator theta costs one shift-add per term, a
binomial one shift-add or a few for a denominator, and the denominator
thetas are divided out by one 2-adic Newton inverse whose products with them
are shift-adds too, then multiplied into the series by one product.  w is a
proven bound on the coefficients: on the theta sums and binomials where
neither has a denominator, else on the factors' Euler exponents, in which
the borrowed pentagonals cancel, widened by the series' largest coefficient.
A long quotient of thetas alone is first run at the width that a probe of
its first quarter predicts, or that the series needs if that is more, as
such results are mostly far narrower than that bound, and kept only once
multiplying it back by the denominator proves it.  The in-place list pass
``binomial_pass`` serves the Lambert sums and ``triple_product``, which do
not go through the kernel, and is the reference ``expand`` and ``times`` are
tested against.
"""

from __future__ import annotations

import threading
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, repeat
from math import ceil, exp, expm1, fsum, gcd, log, log1p, pi, prod, sqrt
from operator import add, gt, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import PoleHit
from .series import Coefficient, LaurentSeries, Sides, _from_ints, _pack, _unpack, mul


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


Factor = Tuple[Tuple[int, int, int], int]  # ((sign, r, step), mult)


@dataclass(frozen=True)
class Product:
    """scalar * q^qexp * prod (sign*q^r; q^step)_inf^mult, with r >= 1.

    Build one with ``poch`` and ``P`` and combine with ``*``, ``/`` and integer
    ``**``; these only add multiplicities, so equal factors cancel before any
    series is built.  ``factors`` is sorted and holds no zero multiplicity;
    the zero product has scalar 0 and no factors.  ``expand`` gives the
    series and ``times`` the series times another.
    """

    scalar: Coefficient = 1
    qexp: int = 0
    factors: Tuple[Factor, ...] = ()

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Product(other)
        if not isinstance(other, Product):
            return NotImplemented
        return _product(self.scalar * other.scalar, self.qexp + other.qexp,
                        self.factors, other.factors, 1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Product(other)
        if not isinstance(other, Product):
            return NotImplemented
        if not other.scalar:
            raise PoleHit(f"division by the zero product {other}")
        return _product(Fraction(self.scalar) / other.scalar, self.qexp - other.qexp,
                        self.factors, other.factors, -1)

    def __pow__(self, n: int) -> "Product":
        if n < 0:
            return Product() / self ** -n
        return _product(self.scalar ** n, self.qexp * n, (), self.factors, n)

    def __neg__(self) -> "Product":
        return Product(-self.scalar, self.qexp, self.factors)

    def expand(self, order: int) -> LaurentSeries:
        """The series, exact below `order`: the factors' expansion, memoised
        by ``_expand_factors``, shifted by q^qexp and times the scalar."""
        n = order - self.qexp
        if n <= 0 or not self.scalar:
            return LaurentSeries.zero(order)
        out = _expand_factors(self.factors, n)
        num, den = self.scalar.numerator, self.scalar.denominator
        if num != 1:
            out = [num * c for c in out]
        return _from_ints(self.qexp, out, order, den)

    def times(self, s: LaurentSeries, order: int) -> LaurentSeries:
        """mul(self.expand(order), s).  From ``_TIMES_MIN_LENGTH`` terms on,
        without expanding the product: the kernel takes the numerators of s
        as its multiplicand and runs at the width of the result.
        Not memoised."""
        nonzero = order > self.qexp and self.scalar
        # the order of mul's result; the expansion starts at q^qexp unless zero
        out_order = min(order + s.min_exp, s.order + (self.qexp if nonzero else order))
        if not nonzero or not s.nums:
            return LaurentSeries.zero(out_order)
        lo = self.qexp + s.min_exp
        if self.factors and out_order - lo < _TIMES_MIN_LENGTH:
            return mul(self.expand(order), s)
        cs = s.nums[:out_order - lo]
        out = _expand_packed(self.factors, out_order - lo, cs) if self.factors else cs
        num, den = self.scalar.numerator, self.scalar.denominator
        if num != 1:
            out = [num * c for c in out]
        return _from_ints(lo, out, out_order, den * s.den)


# A short product times a series is cheaper as its memoised expansion times
# the series: the kernel's decomposition, packing and inverse are paid on
# every call, and the widths it saves are small.  Every ``times`` call of
# ``run_suite(1.0)`` and of the ``deep`` entries was timed on both routes
# (median of 5 runs; 2 cores, Python 3.11).  Per octave of terms the kernel
# lost by 1.6-2.8x below 64 and at 128-255 (21.5 against 13.1 ms over 47
# calls), tied at 64-127 and, on the suite, at 256-511, lost 1.8 against
# 1.4 ms at 256-511 on ``deep``, and won from 1024 on (30 against 81 ms).
# At 512-1023, where ``deep`` meets memoised expansions, it lost 5.6
# against 3.7 ms, but on a miss, once the narrow try runs, it won by
# 1.2-3.6x (the class product times a class-sum difference at 800 terms:
# 1.9 against 6.8 ms), against 1.1x at 300-400 terms.
_TIMES_MIN_LENGTH = 512


# Product.factors -> the longest expansion of those factors made so far.  At
# most _EXPAND_LIMIT coefficients are kept in all; the oldest insertions go
# first.  Entries are tuples, so no caller can change one.
_EXPAND_LIMIT = 1 << 20
_expanded: Dict[Tuple[Factor, ...], Tuple[int, ...]] = {}
_expand_counts = {"hits": 0, "misses": 0, "stored": 0, "verified": 0, "fallbacks": 0}
_expand_lock = threading.Lock()

ExpandCacheInfo = namedtuple("ExpandCacheInfo", "hits misses maxsize currsize verified fallbacks")


def expand_cache_info() -> ExpandCacheInfo:
    """Hits, misses, the bound and the stored coefficients of the ``expand``
    memo, in the shape of ``functools.lru_cache``'s ``cache_info()``, then
    the kernel runs, of misses and of ``times`` alike, kept at a narrow width
    and proven by multiplying back (``_verified_quotient``) and those that
    fell back from a narrow try to the majorant width."""
    with _expand_lock:
        c = _expand_counts
        return ExpandCacheInfo(c["hits"], c["misses"], _EXPAND_LIMIT, c["stored"],
                               c["verified"], c["fallbacks"])


def _expand_factors(factors: Tuple[Factor, ...], n: int) -> Sequence[int]:
    """The first n coefficients of prod (1 - s*q^e)^mult over the factors: a
    slice of a memo entry at least n long, or else ``_expand_packed``, stored
    in place of any shorter entry (another thread may have stored a longer
    one meanwhile).

    When every r and step share a divisor g > 1 the product is G(q^g): G is
    expanded, and memoised, at ceil(n/g) and spread over every g-th slot, so
    (q^5;q^5)^k and (q;q)^k share one entry.
    """
    g = gcd(*(x for (_, r, step), _ in factors for x in (r, step)))
    if g > 1:
        out = [0] * n
        out[::g] = _expand_factors(
            tuple(((s, r // g, step // g), m) for (s, r, step), m in factors), -(-n // g))
        return out
    with _expand_lock:
        known = _expanded.get(factors)
        if known is not None and len(known) >= n:
            _expand_counts["hits"] += 1
            return known[:n]
        _expand_counts["misses"] += 1
    out = tuple(_expand_packed(factors, n))
    if n <= _EXPAND_LIMIT:
        with _expand_lock:
            old = _expanded.get(factors, ())
            if len(old) < n:
                _expanded.pop(factors, None)
                _expanded[factors] = out
                stored = _expand_counts["stored"] + n - len(old)
                while stored > _EXPAND_LIMIT:
                    stored -= len(_expanded.pop(next(iter(_expanded))))
                _expand_counts["stored"] = stored
    return out


def _expand_packed(factors: Tuple[Factor, ...], n: int, s: Sequence[int] = (1,)) -> List[int]:
    """The first n coefficients of s times prod (1 - sign*q^e)^mult over the
    factors, for s the integer coefficients of a power series (1 for the
    product itself), carried in one integer at q = 2^w (Kronecker
    substitution): s packed is the multiplicand v of ``_times_thetas``.

    ``_decompose`` writes the factors as theta functions, each a sparse sum
    by the triple product, and a rest, which ``_euler_exponents`` writes as
    binomials that cancel across its factors.  The thetas, then the
    binomials, each a sparse sum too, are taken by ``_times_thetas`` at the
    majorant slot width: ``_slot_bits`` bounds the product's coefficients,
    and s widens that by its largest.  From ``_VERIFIED_MIN_LENGTH`` on, a
    quotient of thetas alone with a denominator is first tried at a narrow
    width by ``_verified_quotient``, and returned if it passes.  q -> 2^w
    maps Z[q]/(q^n) onto Z/2^(w n) as rings, so every step is exact on v
    whatever the size of the coefficients met on the way; only the final
    ones must fit a slot.  One power of 1 - sign*q^e is the shift-add
    v - sign*(v << w e), keeping the slots below q^n; dividing by 1 - q^e
    multiplies by (1 + q^e)(1 + q^2e)(1 + q^4e)... while the exponent stays
    below n.
    """
    thetas, rest = _decompose(factors)
    binomials = _euler_exponents(rest, n) if rest else []
    size = _majorant_size(factors, thetas, binomials, n, s)
    if n >= _VERIFIED_MIN_LENGTH and not rest and any(k < 0 for _, k in thetas):
        out = _verified_quotient(factors, thetas, n, s, size)
        with _expand_lock:
            _expand_counts["fallbacks" if out is None else "verified"] += 1
        if out is not None:
            return out
    return _expand_at(thetas, binomials, n, size, s)


def _majorant_size(factors: Tuple[Factor, ...], thetas: Sequence[Tuple[Theta, int]],
                   binomials: Sequence[Tuple[int, int, int]], n: int, s: Sequence[int]) -> int:
    """A slot size in bytes that holds each of the first n coefficients of s
    times the product: each is at most max|s| times the sum of the sizes of
    the product's first n, which the bound of ``_slot_bits`` covers too."""
    extra = (max(map(abs, s[:n]), default=1) - 1).bit_length()
    return (_slot_bits(factors, thetas, binomials, n) + extra + 7) // 8


def _expand_at(thetas: Sequence[Tuple[Theta, int]], binomials: Sequence[Tuple[int, int, int]],
               n: int, size: int, s: Sequence[int]) -> List[int]:
    """The first n coefficients of s times the thetas and the binomials, each
    to its power, decoded from slots of size bytes: exact wherever every one
    of them fits in a slot, and the decode of the kernel's result mod
    2^(8 size n) otherwise."""
    w = 8 * size
    sums = [(_theta_shifts(theta, w, n), k) for theta, k in thetas]
    for e, sign, mult in binomials:
        if mult > 0:
            sums.append(([(w * e, sign == 1)], mult))
        else:  # only 1 - q^e is ever a denominator
            sums += [([(w * e << j, False)], -mult) for j in range(((n - 1) // e).bit_length())]
    return _unpack(_times_thetas(sums, w, n, _pack(s[:n], size)), size, n)


# Besides its run, a narrow try costs a probe at n/4 and a check, so it pays
# only on long quotients.  Every such kernel call of ``run_suite`` at order
# scales 0.25, 1 and 8 and of the ``deep`` entries was timed on both routes
# (2 cores, Python 3.11).  Below 512 the narrow try lost, by 1.2-2.1x in
# all per octave of n; from 512 on it cut scale 8's 131 such calls from 1.79
# to 1.00 s and deep's 15 from 95 to 40 ms, and cutoffs of 384 to 640 came
# within 0.1% of each other at scale 8.
_VERIFIED_MIN_LENGTH = 512


def _verified_quotient(factors: Tuple[Factor, ...], quotient: List[Tuple[Theta, int]], n: int,
                       s: Sequence[int], majorant: int) -> Optional[List[int]]:
    """The first n coefficients of s times the product of the thetas of the
    quotient, each to its power, or None when they are not found at a width
    well below the majorant slot of ``majorant`` bytes.

    A probe takes the first n/4 coefficients exactly, at their own majorant
    width, and ``_predicted_size`` reads a width for all n off them, widened
    where s does not fit it, as s is packed at that width.  The check that
    proves a run is at least as wide as the run, so none is made
    where twice that width exceeds the majorant (of the factors 1, 1.5, 2
    and 3 tried on the calls timed below, 1.5 and 2 gave the least totals,
    within 2% of each other; 1 cost scale 8 5% more and 3 cost deep 22%
    more).  The run is kept only if ``_multiplies_back`` proves it.
    """
    m = n // 4
    probe = _expand_at(quotient, [], m, _majorant_size(factors, quotient, [], m, s), s)
    size = max(_predicted_size(probe), (max(map(abs, s[:n])).bit_length() + 8) // 8)
    if 2 * size > majorant:
        return None
    f = _expand_at(quotient, [], n, size, s)
    return f if _multiplies_back(f, quotient, n, s) else None


def _predicted_size(probe: List[int]) -> int:
    """The slot size in bytes predicted for 4 len(probe) coefficients whose
    first len(probe) are the probe.

    With b(i) the bits of the largest of the first i, the growth from b(m/4)
    to b(m) is carried on to 4m, twice over, as log |f_i| = c sqrt(i)
    gains twice as much from m to 4m as from m/4 to m, and a polynomial
    growth as much.  Four bits more hold the sign and the lower-order terms.
    """
    b16 = max(map(abs, probe[:len(probe) // 4]), default=0).bit_length()
    b4 = max(map(abs, probe), default=0).bit_length()
    return (3 * b4 - 2 * b16 + 4 + 7) // 8


def _multiplies_back(f: List[int], quotient: List[Tuple[Theta, int]], n: int,
                     s: Sequence[int] = (1,)) -> bool:
    """Whether f D = s N mod q^n, for N and D the products of the numerator
    and the denominator thetas of the quotient; as D has constant term 1,
    then f is s N / D mod q^n.

    Each coefficient of f D - s N below q^n has size at most
    max|f| |D|_1 + max|s| |N|_1, where |.|_1 is the sum of the sizes of the
    coefficients below q^n, which ``_l1_bound`` bounds.  At q = 2^w with that
    bound below 2^(w-1), the packed f D - s N is 0 mod 2^(w n) only if every
    one of those coefficients is 0.
    """
    nums = [(theta, k) for theta, k in quotient if k > 0]
    dens = [(theta, -k) for theta, k in quotient if k < 0]
    bound = max(map(abs, f)) * _l1_bound(dens, n) + max(map(abs, s[:n])) * _l1_bound(nums, n)
    size = (bound.bit_length() + 8) // 8
    w = 8 * size
    lhs = _times_thetas([(_theta_shifts(theta, w, n), k) for theta, k in dens], w, n,
                        _pack(f, size))
    rhs = _times_thetas([(_theta_shifts(theta, w, n), k) for theta, k in nums], w, n,
                        _pack(s[:n], size))
    return not (lhs - rhs) & ((1 << (w * n)) - 1)


def _l1_bound(thetas: Sequence[Tuple[Theta, int]], n: int) -> int:
    """A bound on the sum of the sizes of the first n coefficients of the
    product of the thetas, each to its power k > 0: the product of the l1
    norms of their sums below q^n, each to its power, or the Cauchy bound
    M(x) / x^(n-1) of ``_slot_bits``, whichever is less.  The latter holds
    as each size is at most the majorant's coefficient [q^i] M, and
    x^(i-(n-1)) >= 1 for i < n."""
    norms = prod((1 + sum(abs(c) for _, c in _theta_terms(*theta, n))) ** k for theta, k in thetas)
    return min(norms, 1 << (_slot_bits((), thetas, [], n) - 1))


Theta = Tuple[int, int, int]  # (s, r, p): theta_s(r, p), 0 < r <= p / 2


def _theta_terms(s: int, r: int, p: int, n: int) -> List[Tuple[int, int]]:
    """The terms (e, c), 0 < e < n, of theta_s(r, p) by increasing e; its
    constant term is 1.

    By Jacobi's triple product theta_s(r, p) is the sum of
    (-s)^m q^(p m(m-1)/2 + r m) over all integers m.  m = j and m = -j,
    j >= 1, give the exponents p j(j-1)/2 + r j <= p j(j+1)/2 - r j, which
    meet when 2r = p, and lie below those of j + 1.
    """
    out, c = [], 1
    for j in count(1):
        c *= -s
        lo = p * j * (j - 1) // 2 + r * j
        if lo >= n:
            return out
        hi = lo + (p - 2 * r) * j
        if lo == hi:
            out.append((lo, 2 * c))
        else:
            out.append((lo, c))
            if hi < n:
                out.append((hi, c))


def _theta_shifts(theta: Theta, w: int, n: int) -> List[Tuple[int, bool]]:
    """(shift, negative) for each term c q^e of the theta below q^n at
    q = 2^w: 2^shift = |c| 2^(w e), as |c| is 1 or 2."""
    return [(w * e + (abs(c) == 2), c < 0) for e, c in _theta_terms(*theta, n)]


def _times_theta(v: int, shifts: List[Tuple[int, bool]], mask: int) -> int:
    """v times the sparse sum of ``_theta_shifts`` mod mask + 1 = 2^(w m): one
    shift-add per term below q^m.  Every product of a packed value with a
    theta or a binomial is taken here."""
    acc = v
    for shift, negative in shifts:
        low = mask >> shift
        if not low:
            break
        t = (v & low) << shift
        acc = acc - t if negative else acc + t
    return acc & mask


def _times_thetas(sums: Sequence[Tuple[List[Tuple[int, bool]], int]], w: int, n: int,
                  v: int = 1) -> int:
    """v times the product of the sparse sums (shifts, k) of
    ``_theta_shifts``, each to its power k, mod 2^(w n) at q = 2^w: the
    denominators (k < 0) by one ``_inverse_packed``, then one
    ``_times_theta`` per numerator power."""
    mask = (1 << (w * n)) - 1
    dens = [(shifts, -k) for shifts, k in sums if k < 0]
    if dens:
        v = v * _inverse_packed(dens, w, n) & mask
    for shifts, k in sums:
        for _ in range(k):  # none for a denominator
            v = _times_theta(v, shifts, mask)
    return v


def _inverse_packed(dens: List[Tuple[List[Tuple[int, bool]], int]], w: int, n: int) -> int:
    """y with y D(2^w) = 1 mod 2^(w n), for D the product of the thetas
    (shifts, k) of ``_theta_shifts``, each to the power k > 0.

    D(0) = 1, so D(2^w) is odd and y = 1 mod 2^w.  Newton's step lifts
    D y = 1 mod 2^a to mod 2^b, b <= 2a: with d = D y mod 2^b and
    h = d >> a, y - 2^a (y h mod 2^(b-a)) is the inverse mod 2^b, as
    (1 + 2^a h)(1 - 2^a h) = 1 mod 2^b.  D y is taken by shift-adds, so the
    step's one multiplication is y h, of two numbers of b - a bits.
    """
    sizes = []
    while n > 1:
        sizes.append(n)
        n = (n + 1) // 2
    y, a = 1, w
    for size in reversed(sizes):
        b = w * size
        d = _times_thetas(dens, w, size, y)
        low = (1 << (b - a)) - 1
        y += ((-(y & low) * (d >> a)) & low) << a
        a = b
    return y


def _decompose(factors: Tuple[Factor, ...]) -> Tuple[List[Tuple[Theta, int]], List[Factor]]:
    """(thetas, rest) whose product is the product of the factors: (theta, k)
    pairs of a ``Theta`` and a power k != 0, k < 0 in the denominator, and
    the factors that have no place in a theta.

    A class pair (s q^r, s q^(p-r); q^p)^k is theta_s(r, p)^k / (q^p; q^p)^k,
    and so is (s q^(p/2); q^p)^(2k); (q^p; q^p) is the pentagonal
    theta_+(p, 3p), and (-q^p; q^p) = 1 / (q^p; q^2p) is
    theta_+(p, 3p) / theta_+(p, 2p).  So each class borrows the (q^p; q^p)
    its theta lacks, and the thetas of one argument add their powers.  A
    class whose partner has another multiplicity or sign, the class p/2 to
    an odd power and r > p stay in the rest.
    """
    powers = Counter()
    mults = dict(factors)
    rest = []
    for (s, r, p), m in factors:
        if r == p:
            powers[(1, p, 3 * p)] += m
            if s == -1:
                powers[(1, p, 2 * p)] -= m
        elif r > p or mults.get((s, p - r, p)) != m or (2 * r == p and m % 2):
            rest.append(((s, r, p), m))
        elif 2 * r <= p:  # with its partner p - r, which places none itself
            k = m // 2 if 2 * r == p else m
            powers[(s, r, p)] += k
            powers[(1, p, 3 * p)] -= k
    return sorted((theta, k) for theta, k in powers.items() if k), rest


def _euler_exponents(factors: Sequence[Factor], n: int) -> List[Tuple[int, int, int]]:
    """(e, sign, mult) triples, 0 < e < n, whose binomials
    (1 - sign*q^e)^mult multiply to the product of the factors mod q^n, with
    the binomials of all the factors cancelled against each other: first
    numerators (1 + q^e)^k, then (1 - q^e)^(a_e) for each nonzero Euler
    exponent a_e.

    Every factor goes into a by strided slices: (q^r; q^step)^m adds m to a_e
    for e = r, r + step, ..., and (-q^r; q^step)^m, by 1 + q^e =
    (1 - q^2e) / (1 - q^e), subtracts m from a_e and adds m to a_2e while
    2e < n.  Going up e once, k = min(-a_e, a_2e) of a pair a_e < 0 < a_2e
    is turned back into the numerator (1 + q^e)^k, which costs one shift-add
    per power where 1 / (1 - q^e) costs a chain.  Every nonzero a_e left is
    a numerator when a_e > 0, a denominator when a_e < 0.
    """
    a = [0] * n
    for (sign, r, step), m in factors:
        a[r::step] = map(add if sign == 1 else sub, a[r::step], repeat(m))
        if sign == -1:
            a[2 * r::2 * step] = map(add, a[2 * r::2 * step], repeat(m))
    out = []
    for e in list(compress(range((n + 1) // 2), map(gt, repeat(0), a))):
        k = min(-a[e], a[2 * e])
        if k > 0:
            a[e] += k
            a[2 * e] -= k
            out.append((e, -1, k))
    out += zip(compress(range(n), a), repeat(1), filter(None, a))
    return out


def _slot_bits(factors: Tuple[Factor, ...], thetas: Sequence[Tuple[Theta, int]],
               binomials: Sequence[Tuple[int, int, int]], n: int) -> int:
    """A slot width, in bits and sign included, that holds each of the first n
    coefficients f_i of the product of the factors, which ``_decompose`` and
    ``_euler_exponents`` write as the thetas times the binomials, and holds
    the sum of their sizes too.

    That form is bounded where it has no denominator.  Otherwise the
    factors' own Euler exponents are, in which the (q^p; q^p) a class
    borrows for its theta cancels.
    """
    if any(k < 0 for _, k in thetas) or any(m < 0 for _, _, m in binomials):
        thetas, binomials = [], _euler_exponents(factors, n)
    sums = [(_theta_terms(*theta, n), k) for theta, k in thetas]
    if not binomials and not sums:
        return 2  # the product is 1
    # The majorant M, the product of (1 + q^e)^mult over the numerator
    # binomials, (1 - q^e)^-|mult| over the denominator ones and
    # (sum |c| q^e)^k over the terms below q^n of each theta, has
    # nonnegative coefficients and |f_i| <= [q^i] M.  So by Cauchy's
    # inequality |f_i| <= M(x) / x^i <= M(x) / x^(n-1) for every 0 < x < 1,
    # and so is the sum over i < n of [q^i] M x^(i-(n-1)) >= |f_i|.
    # At x = exp(-t), binomials at a density d among the e < n add about
    # c d |mult| / t to log M(x), with c = pi^2/12 for a numerator and
    # pi^2/6 for a denominator; a theta sum adds only about k log(1/t) / 2.
    # So log M(x) is about a / ((n - 1) t) with a = sum c |mult| over the
    # binomials, and t = sqrt(a) / (n - 1) puts the bound near its minimum,
    # or t = 1 / (n - 1) with thetas alone; any t > 0 gives a true bound.
    a = fsum(abs(m) * (pi * pi / 12 if m > 0 else pi * pi / 6) for _, _, m in binomials)
    t = (sqrt(a) if a else 1.0) / max(n - 1, 1)
    log_m = fsum([m * log1p(exp(-t * e)) if m > 0 else m * log(-expm1(-t * e))
                  for e, _, m in binomials]
                 + [k * log(fsum([1.0] + [abs(c) * exp(-t * e) for e, c in terms]))
                    for terms, k in sums])
    bits = (log_m + (n - 1) * t) / log(2)
    # Margin: bits is the bound at x = exp(-t) up to float rounding.  Each
    # binomial term is off by a few ulps of itself plus at most |mult| 2^-51:
    # exp, expm1, log and log1p are correct to an ulp, and the rounding of
    # t*e moves -log(1 - e^-u) by at most 2^-53, as u / (e^u - 1) <= 1.  fsum
    # adds exactly.  A theta's sum S >= 1 is off by a relative
    # (u + 2) 2^-53 at most, u = t*e <= (n - 1) t <= bits log 2, and
    # log S <= bits log 2, as no term of log_m is negative; so k log S is off
    # by less than k (3 bits + 3) 2^-53.  So while sum |mult| over the
    # majorant's binomials < 2^40 and sum k over the theta sums < 2^30, which
    # no expansion that fits in memory reaches, bits is off by less than
    # 2^-9 + bits * 2^-49 + (bits + 1) 2^-20, below 1/2 for any slot under
    # 2^18 bits: one bit covers that, and one more holds the sign.
    return ceil(bits) + 2


def binomial_pass(out: list, sign: int, e: int, mult: int) -> None:
    """Multiply the power series `out` in place by (1 - sign*q^e)^mult, e >= 1,
    truncated at len(out); mult < 0 divides.

    Multiplying is one descending pass out[i] -= sign*out[i-e] per power (a
    slice ``map``, so the right-hand slice holds the old values).  Dividing is
    one ascending pass out[i] += sign*out[i-e] per power, in blocks of e, each
    block reading the block before it, already divided.  Integer input stays
    integer.
    """
    n = len(out)
    if mult > 0:
        op = sub if sign == 1 else add
        for _ in range(mult):
            out[e:] = map(op, out[e:], out[:n - e])
    else:
        op = add if sign == 1 else sub
        for _ in range(-mult):
            for a in range(e, n, e):
                out[a:a + e] = map(op, out[a:a + e], out[a - e:a])


def _product(scalar: Coefficient, qexp: int, a: Tuple[Factor, ...],
             b: Tuple[Factor, ...], k: int) -> Product:
    """scalar * q^qexp * (factors a) * (factors b)^k, in canonical form."""
    if not scalar:
        return Product(0)
    mults = dict(a)
    for key, m in b:
        mults[key] = mults.get(key, 0) + k * m
    factors = tuple(sorted((key, m) for key, m in mults.items() if m))
    if scalar.denominator == 1:
        scalar = scalar.numerator
    return Product(scalar, qexp, factors)


def poch(sign: int, r: int, step: int, mult: int = 1) -> Product:
    """(sign*q^r; q^step)_inf^mult for r >= 0 (mult < 0: a denominator).

    At r = 0 the first factor is 1 - sign: for sign -1 it is the scalar 2, for
    sign +1 the product is zero, and a pole in a denominator.
    """
    if sign not in (1, -1) or r < 0 or step < 1:
        raise ValueError(f"bad Pochhammer (sign={sign}, r={r}, step={step})")
    if r > 0:
        return _product(1, 0, (), (((sign, r, step), 1),), mult)
    if sign == -1:
        return Product(2) ** mult * poch(-1, step, step, mult)
    if mult < 0:
        raise PoleHit(f"(1; q^{step})_inf = 0 in a denominator")
    return Product(0 if mult else 1)


# ----------------------------------------------------------------------
# the two-sided product P
# ----------------------------------------------------------------------


# every argument is an int and a Product is immutable, so a repeat is a lookup
@lru_cache(maxsize=1024)
def P(sign: int, exp: int, base: int) -> Product:
    """P(sign*q^exp, q^base) = (z; q^base)_inf (q^base/z; q^base)_inf, z = sign*q^exp.

    Any integer exponent works: it is first reduced into [0, base), which
    collects a prefactor +-q^e with e possibly negative.
    """
    if base < 1:
        raise ValueError("base must be positive")
    ps, pe = 1, 0
    while exp >= base:
        exp -= base
        ps, pe = ps * -sign, pe - exp
    while exp < 0:
        ps, pe = ps * -sign, pe + exp
        exp += base
    return Product(ps, pe) * poch(sign, exp, base) * poch(sign, base - exp, base)


# ----------------------------------------------------------------------
# the triple product
# ----------------------------------------------------------------------


def triple_product(z: SignedMonomial, base: int, order: int) -> LaurentSeries:
    """(-zq, -q/z, q^2; q^2)_inf with q = q^base, for z = s*q^e, 0 <= e <= base."""
    s, e = z.sign, z.exp
    if e > base:
        raise ValueError("triple product instantiation needs exp <= base")
    b2 = 2 * base
    prod = poch(-s, e + base, b2) * poch(-s, base - e, b2) * poch(1, b2, b2)
    if order <= 0 or not prod.scalar:
        return LaurentSeries.zero(order)
    # Not prod.expand: that takes a complete theta by its triple-product sum,
    # which is the identity this series is compared against (jtp@*), so it
    # is built binomial by binomial over its three Pochhammer classes.
    out = [1] + [0] * (order - 1)
    for (sign, r, step), mult in prod.factors:
        for x in range(r, order, step):
            binomial_pass(out, sign, x, mult)
    return _from_ints(0, out, order).scale(prod.scalar)


# ----------------------------------------------------------------------
# product identities, each as its two sides
# ----------------------------------------------------------------------


def _expand_sum(terms, order: int) -> LaurentSeries:
    total = LaurentSeries.zero(order)
    for t in terms:
        total = total + t.expand(order)
    return total


def verify_lemma31(variant: str, order: int) -> Sides:
    """Dissection of (q;q)/( -q;q) into base-9/18 (eq1) or base-25/50 (eq2) products."""
    lhs = (poch(1, 1, 1) / poch(-1, 1, 1)).expand(order)
    if variant == "eq1":
        rhs = [poch(1, 9, 9) / poch(-1, 9, 9),
               Product(-2, 1) * poch(1, 3, 18) * poch(1, 15, 18) * poch(1, 18, 18)]
    elif variant == "eq2":
        rhs = [poch(1, 25, 25) / poch(-1, 25, 25),
               Product(-2, 1) * poch(1, 15, 50) * poch(1, 35, 50) * poch(1, 50, 50),
               Product(2, 4) * poch(1, 5, 50) * poch(1, 45, 50) * poch(1, 50, 50)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return lhs, _expand_sum(rhs, order)


def verify_hickerson(
    which: str, x: SignedMonomial, z: SignedMonomial, base: int, order: int
) -> Sides:
    """Two/three-term product identities relating base-q and base-q^2 P-products."""
    sx, ex = x.sign, x.exp
    sz, ez = z.sign, z.exp
    b2 = 2 * base
    xm = Product(sx, ex)  # the monomial x

    def p1(s, e):
        return P(s, e, base)

    def p2(s, e):
        return P(s, e, b2)

    e_sq = poch(1, base, base, 2)
    e2_sq = poch(1, b2, b2, 2)

    if which == "lemma32":
        lhs = [p1(sx, ex) * p1(sz, ez) * e_sq]
        rhs = [p2(-sx * sz, ex + ez) * p2(-sz * sx, base + ez - ex) * e2_sq,
               -xm * p2(-sx * sz, ex + ez + base) * p2(-sz * sx, ez - ex) * e2_sq]
    elif which == "lemma33":
        lhs = [p1(-sx, ex) * p1(sz, ez) * e_sq, -p1(sx, ex) * p1(-sz, ez) * e_sq]
        rhs = [2 * xm * p2(sz * sx, ez - ex) * p2(sx * sz, ex + ez + base) * e2_sq]
    elif which == "lemma34":
        lhs = [p1(-sx, ex) * p1(sz, ez) * e_sq, p1(sx, ex) * p1(-sz, ez) * e_sq]
        rhs = [2 * p2(sx * sz, ex + ez) * p2(sz * sx, base + ez - ex) * e2_sq]
    elif which == "lemma35":
        lhs = [3 * p1(-sx, ex) * p1(sz, ez) * e_sq, -p1(sx, ex) * p1(-sz, ez) * e_sq]
        rhs = [2 * p2(sx * sz, ex + ez) * p2(sz * sx, ez + base - ex) * e2_sq,
               4 * xm * p2(sx * sz, ex + ez + base) * p2(sz * sx, ez - ex) * e2_sq]
    else:
        raise ValueError(f"unknown identity {which!r}")
    return _expand_sum(lhs, order), _expand_sum(rhs, order)


def verify_addition(
    z: SignedMonomial, zeta: SignedMonomial, t: SignedMonomial, base: int, order: int
) -> Sides:
    """Three-term addition relation:
    P^2(z)P(zeta*t)P(zeta/t) - P^2(zeta)P(zt)P(z/t) + (zeta/t)P^2(t)P(z*zeta)P(z/zeta) = 0.
    """
    sz, ez = z.sign, z.exp
    sc, ec = zeta.sign, zeta.exp
    st, et = t.sign, t.exp

    def p(s, e):
        return P(s, e, base)

    total = [p(sz, ez) ** 2 * p(sc * st, ec + et) * p(sc * st, ec - et),
             -p(sc, ec) ** 2 * p(sz * st, ez + et) * p(sz * st, ez - et),
             Product(sc * st, ec - et) * p(st, et) ** 2 * p(sz * sc, ez + ec) * p(sz * sc, ez - ec)]
    return _expand_sum(total, order), LaurentSeries.zero(order)
