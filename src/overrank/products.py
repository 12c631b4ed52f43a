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
value, and ``Product.expand`` is the only place that turns one into a series.
It memoises the expansion of each factor multiset, so a product met again at
the same or a shorter length costs one slice; a product in q^g is expanded in
q and spread.  A miss is written by ``_decompose`` as theta functions
theta_s(r, p) = (s q^r, s q^(p-r), q^p; q^p)_inf to integer powers, whose
sums by Jacobi's triple product have O(sqrt(n/p)) terms below q^n: a class
pair borrows the pentagonal (q^p; q^p) = theta_+(p, 3p) its theta lacks.  The
classes that pair with nothing are left as binomials, in which the binomials
of those factors cancel.  Everything is carried in one integer at q = 2^w
(Kronecker substitution): a numerator theta costs one shift-add per term, a
binomial one shift-add or a few for a denominator, and the denominator
thetas are divided out by one 2-adic Newton inverse whose products with them
are shift-adds too.  w is a proven bound on the coefficients: on the theta
sums and binomials where neither has a denominator, else on the factors'
Euler exponents, in which the borrowed pentagonals cancel.  A long miss that
is a quotient of thetas alone is first expanded at one byte per slot, as
such quotients mostly have small coefficients, and kept only once
multiplying it back by the denominator proves it.  The in-place list pass
``binomial_pass`` serves the Lambert sums and ``triple_product``, which do
not go through the memo, and is the reference ``expand`` is tested against.
"""

from __future__ import annotations

import threading
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, repeat
from math import ceil, exp, expm1, fsum, gcd, log, log1p, pi, prod, sqrt
from operator import add, gt, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import PoleHit
from .series import Coefficient, LaurentSeries, Sides, _divide, _norm, _pack, _unpack


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
    the zero product has scalar 0 and no factors.  ``expand`` is the only way
    to a series.
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
        return LaurentSeries(self.qexp, _divide(out, den), order)


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
    the misses expanded at one byte and proven by multiplying back
    (``_verified_quotient``) and those that fell back to a majorant width."""
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


def _expand_packed(factors: Tuple[Factor, ...], n: int) -> List[int]:
    """The first n coefficients of prod (1 - s*q^e)^mult over the factors,
    carried in one integer v = F(2^w) mod 2^(w n) (Kronecker substitution).

    ``_decompose`` writes the factors as theta functions, each a sparse sum
    by the triple product, and a rest, which ``_euler_exponents`` writes as
    binomials that cancel across its factors.  From ``_VERIFIED_MIN_LENGTH``
    on, a quotient of thetas alone with a denominator is first tried by
    ``_verified_quotient``, and returned if it passes.  Otherwise the thetas,
    then the binomials, each a sparse sum too, are taken by ``_times_thetas``
    at the slot width of ``_slot_bits``.  q -> 2^w maps Z[q]/(q^n) onto
    Z/2^(w n) as rings, so every step is exact on v whatever the size of the
    coefficients met on the way; only the final ones must fit a slot.  One
    power of 1 - s*q^e is the shift-add v - s*(v << w e), keeping the slots
    below q^n; dividing by 1 - q^e multiplies by (1 + q^e)(1 + q^2e)
    (1 + q^4e)... while the exponent stays below n.
    """
    thetas, rest = _decompose(factors)
    if n >= _VERIFIED_MIN_LENGTH and not rest and any(k < 0 for _, k in thetas):
        out = _verified_quotient(thetas, n)
        with _expand_lock:
            _expand_counts["fallbacks" if out is None else "verified"] += 1
        if out is not None:
            return out
    binomials = _euler_exponents(rest, n) if rest else []
    size = (_slot_bits(factors, thetas, binomials, n) + 7) // 8
    w = 8 * size
    sums = [(_theta_shifts(theta, w, n), k) for theta, k in thetas]
    for e, sign, mult in binomials:
        if mult > 0:
            sums.append(([(w * e, sign == 1)], mult))
        else:  # only 1 - q^e is ever a denominator
            sums += [([(w * e << j, False)], -mult) for j in range(((n - 1) // e).bit_length())]
    return _unpack(_times_thetas(sums, w, n), size, 1 << (w - 1), n)


# The one-byte try of _verified_quotient pays on quotients whose majorant
# slot is wide and whose coefficients are small; on the growth quotients it
# is wasted and adds to the majorant run.  Both routes were timed on every
# recorded miss of ``run_suite`` at order scales 0.25, 1 and 8 and of seven
# entries at 4-10x their default orders (2 cores, Python 3.11), the majorant
# run at the width of the factors' Euler exponents.  Cutoffs of 448 and 512
# gave each workload its least total; 320 and 384 cost the long entries
# 0.3-0.6%, 256 cost ``run_suite`` at scale 1 4%, and 640 to 1024 cost it
# 0.4-1.4% at scale 8 and the long entries up to 7.5%.
_VERIFIED_MIN_LENGTH = 512


def _verified_quotient(quotient: List[Tuple[Theta, int]], n: int) -> Optional[List[int]]:
    """The first n coefficients of the product of the thetas of the quotient,
    each to its power, or None when they do not fit in one byte.

    The kernel is exact mod 2^(8 n) at one byte per slot, so its decode f is
    the product as soon as every coefficient lies in [-2^7, 2^7).  f is
    dropped at the first |f_i| >= 2^6, first at n/4, which turns most growth
    quotients away cheaply, then at n, and kept only if ``_multiplies_back``
    proves it.
    """
    sums = [(_theta_shifts(theta, 8, n), k) for theta, k in quotient]
    for m in (n // 4, n):
        f = _unpack(_times_thetas(sums, 8, m), 1, 1 << 7, m)
        if max(map(abs, f), default=0) >= 1 << 6:
            return None
    return f if _multiplies_back(f, quotient, n) else None


def _multiplies_back(f: List[int], quotient: List[Tuple[Theta, int]], n: int) -> bool:
    """Whether f D = N mod q^n, for N and D the products of the numerator and
    the denominator thetas of the quotient; as D has constant term 1, then f
    is N / D mod q^n.

    Each coefficient of f D - N below q^n has size at most
    max|f| |D|_1 + |N|_1, where |.|_1 is the sum of the sizes of the
    coefficients below q^n, at most the product of those of the theta sums,
    each to its power.  At q = 2^w with that bound below 2^(w-1), the packed
    f D - N is 0 mod 2^(w n) only if every one of those coefficients is 0.
    """
    norms = {theta: 1 + sum(abs(c) for _, c in _theta_terms(*theta, n)) for theta, _ in quotient}
    num = prod(norms[theta] ** k for theta, k in quotient if k > 0)
    den = prod(norms[theta] ** -k for theta, k in quotient if k < 0)
    size = ((max(map(abs, f)) * den + num).bit_length() + 8) // 8
    w = 8 * size
    dens = [(_theta_shifts(theta, w, n), -k) for theta, k in quotient if k < 0]
    nums = [(_theta_shifts(theta, w, n), k) for theta, k in quotient if k > 0]
    lhs = _times_thetas(dens, w, n, _pack(f, size, 1 << (w - 1)))
    return not (lhs - _times_thetas(nums, w, n)) & ((1 << (w * n)) - 1)


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
    ``_euler_exponents`` write as the thetas times the binomials.

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
    # inequality |f_i| <= M(x) / x^i <= M(x) / x^(n-1) for every 0 < x < 1.
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
    return Product(_norm(scalar), qexp, factors)


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
    return LaurentSeries(0, out, order).scale(prod.scalar)


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
