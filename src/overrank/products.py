"""Infinite products: Pochhammer symbols, the two-sided product P(z,q), the
triple product, and verifiers for the pure product identities.

Throughout, generic product arguments are instantiated as signed monomials
s*q^j (s = +-1), which keeps the whole engine univariate.  The two-sided
product

    P(z, q) = prod_{r >= 1} (1 - z q^(r-1)) (1 - q^r / z)

satisfies P(z^-1 q, q) = P(z, q) and P(zq, q) = -z^-1 P(z, q); arguments
whose exponent falls outside [0, base) are reduced with these relations,
accumulating an exact monomial prefactor.  This module's identities are stated
over Jacobi's theta P(z, q) (q;q)_inf (``theta``), never dividing by (q;q)_inf.

Every quotient of Pochhammer symbols in the package is one ``Product``
value, turned into a series by ``Product.expand`` or, times a series, by
``Product.times``, exact wherever the series is, which from
``_NARROW_MIN_LENGTH`` terms on never expands it.  ``expand`` takes the
expansion of each factor multiset from the one memo, ``series.memo``, so a
product met again at the same or a shorter length costs one truncation; a
product in q^g is expanded in q and spread.  Both run one kernel,
``_expand_packed``, on the series they multiply by (1 for ``expand``):
``_decompose`` writes the factors as theta functions, sparse sums by
Jacobi's triple product, and a rest of binomials, and all are carried in
one integer at q = 2^w (Kronecker substitution), w a proven bound on the
coefficients (``_majorant_size``) or, for a quotient of thetas alone from
that same length on, a narrower width that the run proves
(``_verified_quotient``), read off the quotient's own exact first quarter
where the multiplicand's width does not hold it.  Every denominator, theta
or binomial, is divided out with its 2-adic inverse taken to half the
length (``_times_thetas``).
The in-place list pass ``binomial_pass`` serves the Lambert sums and
``triple_product``, which do not go through the kernel, and is the
reference ``expand`` and ``times`` are tested against.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import compress, count, repeat
from math import ceil, exp, expm1, fsum, gcd, log, log1p, pi, prod, sqrt
from operator import add, gt, sub
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import PoleHit
from .series import (Coefficient, LaurentSeries, _from_ints, _memo_lock, _pack, _slot_size,
                     _unpack, memo, mul, substitute_power)


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
        """The series, exact below `order`: the factors' memoised expansion,
        shifted by q^qexp and times the scalar, or a monomial where there are
        no factors.  A product in q^g is G(q^g) for the G that is memoised,
        so (q^5;q^5)^k and (q;q)^k share one entry."""
        n = order - self.qexp
        if n <= 0 or not self.scalar:
            return LaurentSeries.zero(order)
        if not self.factors:
            return LaurentSeries.monomial(self.scalar, self.qexp, order)
        g = gcd(*(x for (_, r, step), _ in self.factors for x in (r, step)))
        if g > 1:
            unit = tuple(((s, r // g, step // g), m) for (s, r, step), m in self.factors)
            out = substitute_power(_expand_factors(unit, -(-n // g)), g).truncate(n).nums
        else:
            out = _expand_factors(self.factors, n).nums
        num, den = self.scalar.numerator, self.scalar.denominator
        if num != 1:
            out = [num * c for c in out]
        return _from_ints(self.qexp, out, order, den)

    def times(self, s: LaurentSeries) -> LaurentSeries:
        """The product times s, exact wherever s is: below s.order + qexp.
        Below ``_NARROW_MIN_LENGTH`` terms it is mul by the memoised
        expansion, taken as deep as mul reads it; from there on the kernel
        takes the numerators of s as its multiplicand and runs at the width
        of the result, never expanding the product.  Not memoised."""
        order = s.order + self.qexp
        if not self.scalar or not s.nums:
            return LaurentSeries.zero(order)
        n = s.order - s.min_exp
        if self.factors and n < _NARROW_MIN_LENGTH:
            return mul(self.expand(n + self.qexp), s)
        out = _expand_packed(self.factors, n, s.nums) if self.factors else s.nums
        num, den = self.scalar.numerator, self.scalar.denominator
        if num != 1:
            out = [num * c for c in out]
        return _from_ints(self.qexp + s.min_exp, out, order, den * s.den)

    def __str__(self) -> str:
        """The product as the anchors print it: -2 q (q^3;q^18)(q^18;q^18), (q;q) / (-q;q)."""
        num = "".join(_poch_str(*f, m) for f, m in self.factors if m > 0)
        den = [_poch_str(*f, -m) for f, m in self.factors if m < 0]
        body = " ".join(x for x in (_q(self.qexp) if self.qexp else "", num) if x)
        if den:
            body = f"{body or 1} / " + (den[0] if len(den) == 1 else f"({''.join(den)})")
        if not body:
            return str(self.scalar)
        return {1: "", -1: "-"}.get(self.scalar, f"{self.scalar} ") + body


def _poch_str(sign: int, r: int, step: int, mult: int) -> str:
    return f"({'-' * (sign < 0)}{_q(r)};{_q(step)})" + (f"^{mult}" if mult != 1 else "")


def _q(e: int) -> str:
    return "q" if e == 1 else f"q^{e}"


@dataclass(frozen=True)
class Route:
    """A named series fn(*args, n), exact below y^n, read at y = q^lift; its
    arguments are hashable, so routes of equal function and arguments are equal."""

    fn: Callable[..., LaurentSeries]
    args: tuple = ()
    lift: int = 1

    def build(self, n: int, g: int = 1) -> LaurentSeries:
        """The series in q^g, g dividing lift, exact below (q^g)^n, built at
        the least order in y that needs."""
        k = self.lift // g
        y = self.fn(*self.args, max(1, -(-n // k)) if self.lift > 1 else n)
        return (substitute_power(y, k) if k > 1 else y).truncate(n)

    def __str__(self) -> str:
        lift = f"[{_q(self.lift)}]" if self.lift != 1 else ""
        return f"{self.fn.__name__}({','.join(map(str, self.args))}){lift}"


@dataclass(frozen=True)
class FormulaTerm:
    """One additive term of a side: prod times the optional route's series."""

    prod: Product = Product()
    series: Optional[Route] = None

    def __str__(self) -> str:
        prod = str(self.prod)
        if self.series is None:
            return prod
        return {"1": "", "-1": "-"}.get(prod, prod + " ") + str(self.series)


Terms = Tuple[FormulaTerm, ...]
Sides = Tuple[Terms, Terms]  # the two sides of an identity, as a check returns them


def _terms(*prods: Product) -> Terms:
    return tuple(map(FormulaTerm, prods))


# Below this many terms a product times a series is its memoised expansion
# times the series, and the kernel runs at the majorant width; from it on
# ``times`` runs the kernel on the series, and a theta quotient with a
# denominator tries narrow widths first.  On a short product the kernel's
# decomposition, packing and inverse, paid on every call, outweigh the widths
# it saves.  Every ``times`` call of ``run_suite(1.0)`` and of the ``deep``
# entries was timed on both routes (median of 5 runs; 2 cores, Python
# 3.11).  Per octave of terms the kernel lost by 1.6-2.8x below 64 and at
# 128-255 (21.5 against 13.1 ms over 47 calls), tied at 64-127 and, on the
# suite, at 256-511, lost 1.8 against 1.4 ms at 256-511 on ``deep``, and won
# from 1024 on (30 against 81 ms).  At 512-1023, where ``deep`` meets memoised
# expansions, it lost 5.6 against 3.7 ms, but on a miss, with the narrow try,
# it won by 1.2-3.6x (the class product times a class-sum difference at 800
# terms: 1.9 against 6.8 ms), against 1.1x at 300-400 terms.  The narrow try
# costs at least a run and a check, so it pays only on long quotients.  Every
# such kernel call of ``run_suite`` at order scales 0.25, 1 and 8 and of the
# ``deep`` entries was timed on both routes (2 cores, Python 3.11) when each
# try began with a probe: below 512 the narrow try lost, by 1.2-2.1x in all per
# octave of n; from 512 on it cut scale 8's 131 such calls from 1.79 to 1.00 s
# and deep's 15 from 95 to 40 ms, and cutoffs of 384 to 640 came within 0.1% of
# each other at scale 8.  With the first try at the multiplicand's width, the
# kernel calls of ``run_suite(1.0)`` took 32-38 ms at 512, 41-50 ms at 256 and
# 53-64 ms at 128 (best of 5 per call, two passes).  With the recursive probe, a
# cutoff of 16 made all of ``run_suite(1.0)`` slower in 6 of 6 pairs, 0.096
# against 0.117 s median.
_NARROW_MIN_LENGTH = 512


_expand_counts = {"verified": 0, "probed": 0, "fallbacks": 0}

ExpandCacheInfo = namedtuple("ExpandCacheInfo",
                             "hits misses maxsize currsize verified probed fallbacks")


def expand_cache_info() -> ExpandCacheInfo:
    """The ``cache_info()`` of the expansions, then the kernel calls, of
    misses and of ``times`` alike and not of their probes, kept at a narrow
    width that the run proves (``_verified_quotient``), those of them that
    needed a probe, and those that fell back from a narrow try to the
    majorant width."""
    return ExpandCacheInfo(*_expand_factors.cache_info(), *_expand_counts.values())


@memo
def _expand_factors(factors: Tuple[Factor, ...], order: int) -> LaurentSeries:
    """prod (1 - s*q^e)^mult over the factors below q^order, by ``_expand_packed``."""
    return _from_ints(0, _expand_packed(factors, order), order)


def _expand_packed(factors: Tuple[Factor, ...], n: int, s: Sequence[int] = (1,)) -> List[int]:
    """The first n coefficients of s times prod (1 - sign*q^e)^mult over the
    factors, for s the integer coefficients of a power series (1 for the
    product itself), carried in one integer at q = 2^w (Kronecker
    substitution): s packed is the multiplicand v of ``_times_thetas``.

    ``_decompose`` writes the factors as theta functions, each a sparse sum
    by the triple product, and a rest, which ``_euler_exponents`` writes as
    binomials that cancel across its factors.  The thetas, then the
    binomials, each a sparse sum too, are taken by ``_times_thetas`` at the
    majorant slot width of ``_majorant_size``.  From
    ``_NARROW_MIN_LENGTH`` on, where ``times`` calls it, a quotient of
    thetas alone with a denominator goes to ``_verified_quotient``, which
    tries narrow widths first, and its outcome is counted.  q -> 2^w maps
    Z[q]/(q^n) onto Z/2^(w n) as rings, so every step is exact on v whatever
    the size of the coefficients met on the way; only the final ones must
    fit a slot.  One power of 1 - sign*q^e is the shift-add v - sign*(v <<
    w e), keeping the slots below q^n; a denominator 1 - q^e is divided out
    with the thetas'.
    """
    thetas, rest = _decompose(factors)
    if n >= _NARROW_MIN_LENGTH and not rest and any(k < 0 for _, k in thetas):
        f, outcome = _verified_quotient(factors, thetas, n, s)
        with _memo_lock:
            for key in outcome:
                _expand_counts[key] += 1
        return f
    return _expand_at(thetas, _euler_exponents(rest, n) if rest else [], n,
                      _majorant_size(factors, thetas, rest, n, s), s)


def _majorant_size(factors: Tuple[Factor, ...], thetas: Sequence[Tuple[Theta, int]],
                   rest: Sequence[Factor], n: int, s: Sequence[int]) -> int:
    """A slot size in bytes that holds each of the first n coefficients of s
    times the product of the factors, which ``_decompose`` writes as the
    thetas times the rest: each is at most max|s| times the sum of the sizes
    of the product's first n.  That sum is bounded by ``_l1_norm`` where the
    thetas are all numerators and there is no rest, else by
    ``_euler_bound``."""
    if rest or any(k < 0 for _, k in thetas):
        bound = _euler_bound(factors, n)
    else:
        bound = _l1_norm(thetas, n)
    return _slot_size(max(map(abs, s[:n]), default=1) * bound)


def _expand_at(thetas: Sequence[Tuple[Theta, int]], binomials: Sequence[Tuple[int, int, int]],
               n: int, size: int, s: Sequence[int]) -> List[int]:
    """The first n coefficients of s times the thetas and the binomials, each
    to its power, decoded from slots of size bytes: exact wherever every one
    of them fits in a slot, and the decode of the kernel's result
    mod 2^(8 size n) otherwise."""
    w = 8 * size
    sums = [(_theta_shifts(theta, w, n), k) for theta, k in thetas]
    # only 1 - q^e is ever a denominator, divided out with the thetas'
    sums += [([(w * e, sign == 1)], mult) for e, sign, mult in binomials]
    return _unpack(_times_thetas(sums, w, n, _pack(s[:n], size)), size, n)


def _verified_quotient(factors: Tuple[Factor, ...], quotient: List[Tuple[Theta, int]], n: int,
                       s: Sequence[int]) -> Tuple[List[int], Tuple[str, ...]]:
    """(f, outcome): f the first n coefficients of s times the product of
    the thetas of the quotient, each to its power, and outcome the
    ``expand_cache_info`` fields it counts in.

    f is the first of these runs that ``_proven_run`` proves.  The first is
    at the width of s itself, the narrowest at which s packs; 12 of
    ``deep``'s 14 calls are kept there.  A quotient of negative weight, with
    more denominator than numerator theta powers, as pbar = 1 / theta_+(1, 2),
    grows, and every such first run measured failed (at ``run_suite`` scales
    4 and 8 and on ``deep``), so it makes none.  The next is at the width
    ``_predicted_size`` reads off the exact first n/4 coefficients, taken by
    this same path, a byte wider than the first at least; below 4 terms
    there is none.  Else the run is at the majorant width.
    """
    first = _slot_size(max(map(abs, s[:n])))
    if sum(k for _, k in quotient) >= 0:
        f = _proven_run(quotient, n, first, s)
        if f is not None:
            return f, ("verified",)
    if n >= 4:
        probe, _ = _verified_quotient(factors, quotient, n // 4, s)
        f = _proven_run(quotient, n, max(_predicted_size(probe), first + 1), s)
        if f is not None:
            return f, ("verified", "probed")
    size = _majorant_size(factors, quotient, [], n, s)
    return _expand_at(quotient, [], n, size, s), ("fallbacks",)


def _proven_run(quotient: List[Tuple[Theta, int]], n: int, size: int,
                s: Sequence[int]) -> Optional[List[int]]:
    """The ``_expand_at`` run of s times the quotient at slots of size bytes,
    if it is exact, else None.

    Packed, the run f has f D = s N mod 2^(8 size n) by construction, for N
    and D the products of the numerator and the denominator thetas.  Where
    the slot also holds max|f| |D|_1 + max|s| |N|_1, the bound of
    ``_multiplies_back``, that congruence forces f D = s N, so the run is
    proven with no shift-add; else ``_multiplies_back`` decides.
    """
    f = _expand_at(quotient, [], n, size, s)
    if _check_size(f, quotient, n, s) <= size or _multiplies_back(f, quotient, n, s):
        return f
    return None


def _predicted_size(probe: List[int]) -> int:
    """The slot size in bytes predicted for 4 len(probe) coefficients whose
    first len(probe) are the probe.

    With b(i) the bits of the largest of the first i, the growth from b(m/4)
    to b(m) is carried on to 4m, twice over, as log |f_i| = c sqrt(i)
    gains twice as much from m to 4m as from m/4 to m, and a polynomial
    growth as much.  Three bits more hold the lower-order terms.
    """
    b16 = max(map(abs, probe[:len(probe) // 4]), default=0).bit_length()
    b4 = max(map(abs, probe), default=0).bit_length()
    return _slot_size((1 << (3 * b4 - 2 * b16 + 3)) - 1)


def _check_size(f: List[int], quotient: List[Tuple[Theta, int]], n: int,
                s: Sequence[int]) -> int:
    """The slot size in bytes of ``_multiplies_back``: it holds
    max|f| |D|_1 + max|s| |N|_1, where |.|_1 is the sum of the sizes of the
    coefficients below q^n, which ``_l1_norm`` bounds."""
    nums = [(theta, k) for theta, k in quotient if k > 0]
    dens = [(theta, -k) for theta, k in quotient if k < 0]
    return _slot_size(max(map(abs, f)) * _l1_norm(dens, n)
                      + max(map(abs, s[:n])) * _l1_norm(nums, n))


def _multiplies_back(f: List[int], quotient: List[Tuple[Theta, int]], n: int,
                     s: Sequence[int] = (1,)) -> bool:
    """Whether f D = s N mod q^n, for N and D the products of the numerator
    and the denominator thetas of the quotient; as D has constant term 1,
    then f is s N / D mod q^n.

    Each coefficient of f D - s N below q^n has size at most
    max|f| |D|_1 + max|s| |N|_1.  At q = 2^w with that bound below 2^(w-1),
    the ``_check_size`` width, the packed f D - s N is 0 mod 2^(w n) only if
    every one of those coefficients is 0.
    """
    size = _check_size(f, quotient, n, s)
    w = 8 * size
    lhs = _times_thetas([(_theta_shifts(theta, w, n), -k) for theta, k in quotient if k < 0],
                        w, n, _pack(f, size))
    rhs = _times_thetas([(_theta_shifts(theta, w, n), k) for theta, k in quotient if k > 0],
                        w, n, _pack(s[:n], size))
    return not (lhs - rhs) & ((1 << (w * n)) - 1)


def _l1_norm(thetas: Sequence[Tuple[Theta, int]], n: int) -> int:
    """A bound on the sum of the sizes of the first n coefficients of the
    product of the thetas, each to its power k > 0: the product of the l1
    norms of their sums below q^n, each to its power."""
    return prod((1 + sum(abs(c) for _, c in _theta_terms(*theta, n))) ** k for theta, k in thetas)


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
    denominators (k < 0) first, then one ``_times_theta`` per numerator
    power.

    v / D, for D the product of the denominators, takes the inverse y of D
    only to h = ceil(n/2) slots, by ``_inverse_packed`` (Karp and
    Markstein's division): f = v y mod 2^(w h) has D f = v mod 2^(w h), so
    the residual v - D f, by shift-adds, is 2^(w h) r, and v / D is
    f + 2^(w h) (r y mod 2^(w (n-h))), as n - h <= h.  So the division is
    two products of h slots where a full inverse takes one of n, and the
    Newton step that lifts y from h to n slots is not made.
    """
    mask = (1 << (w * n)) - 1
    dens = [(shifts, -k) for shifts, k in sums if k < 0]
    if dens:
        h = (n + 1) // 2
        y, wh = _inverse_packed(dens, w, h), w * h
        f = (v & ((1 << wh) - 1)) * y & ((1 << wh) - 1)
        r = (v - _times_thetas(dens, w, n, f)) & mask
        v = f + (((r >> wh) * y & mask >> wh) << wh)
    for shifts, k in sums:
        for _ in range(k):  # none for a denominator
            v = _times_theta(v, shifts, mask)
    return v


def _inverse_packed(dens: List[Tuple[List[Tuple[int, bool]], int]], w: int, n: int) -> int:
    """y with y D(2^w) = 1 mod 2^(w n), for D the product of the thetas
    (shifts, k) of ``_theta_shifts``, each to the power k > 0;
    ``_times_thetas`` takes it to half the length of the quotient it
    divides.

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
    theta_+(p, 3p).  So each class borrows the (q^p; q^p) its theta lacks,
    and the thetas of one argument add their powers.  A class whose partner
    has another multiplicity or sign, the class p/2 to an odd power and
    r > p stay in the rest.

    (-q^p; q^p) = 1 / (q^p; q^2p) is theta_+(p, 3p) / theta_+(p, 2p), and,
    as theta_+(p, 2p) theta_+(2p, 6p) = theta_+(p, 3p)^2, also
    theta_+(2p, 6p) / theta_+(p, 3p).  Once the classes are placed, each
    (-q^p; q^p)^m in turn, by increasing p, takes the form that leaves
    fewer theta powers in all, the first on a tie: pbar is 1 / theta_+(1, 2).
    """
    powers = Counter()
    mults = dict(factors)
    rest, minus = [], []
    for (s, r, p), m in factors:
        if r == p:
            if s == 1:
                powers[(1, p, 3 * p)] += m
            else:
                minus.append((p, m))
        elif r > p or mults.get((s, p - r, p)) != m or (2 * r == p and m % 2):
            rest.append(((s, r, p), m))
        elif 2 * r <= p:  # with its partner p - r, which places none itself
            k = m // 2 if 2 * r == p else m
            powers[(s, r, p)] += k
            powers[(1, p, 3 * p)] -= k
    for p, m in minus:
        forms = [{(1, p, 3 * p): m, (1, p, 2 * p): -m}, {(1, 2 * p, 6 * p): m, (1, p, 3 * p): -m}]
        powers.update(min(forms, key=lambda form: sum(abs(powers[theta] + k) - abs(powers[theta])
                                                      for theta, k in form.items())))
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
    per power where (1 - q^2e) / (1 - q^e) costs one and a denominator, by
    which the inverse's steps and the residual of ``_times_thetas`` multiply
    again.  Every nonzero a_e left is a numerator when a_e > 0, a
    denominator when a_e < 0.
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


def _euler_bound(factors: Tuple[Factor, ...], n: int) -> int:
    """A bound on the sum of the sizes of the first n coefficients f_i of the
    product of the factors, by Cauchy's inequality on the binomials of their
    Euler exponents, in which the (q^p; q^p) a class borrows for its theta
    cancels."""
    binomials = _euler_exponents(factors, n)
    if not binomials:
        return 1  # the product is 1
    # The majorant M, the product of (1 + q^e)^mult over the numerator
    # binomials and (1 - q^e)^-|mult| over the denominator ones, has
    # nonnegative coefficients and |f_i| <= [q^i] M.  So by Cauchy's
    # inequality |f_i| <= M(x) / x^i <= M(x) / x^(n-1) for every 0 < x < 1,
    # and so is the sum over i < n of [q^i] M x^(i-(n-1)) >= |f_i|.
    # At x = exp(-t), binomials at a density d among the e < n add about
    # c d |mult| / t to log M(x), with c = pi^2/12 for a numerator and
    # pi^2/6 for a denominator.  So log M(x) is about a / ((n - 1) t) with
    # a = sum c |mult| over the binomials, and t = sqrt(a) / (n - 1) puts
    # the bound near its minimum; any t > 0 gives a true bound.
    a = fsum(abs(m) * (pi * pi / 12 if m > 0 else pi * pi / 6) for _, _, m in binomials)
    t = sqrt(a) / max(n - 1, 1)
    log_m = fsum(m * log1p(exp(-t * e)) if m > 0 else m * log(-expm1(-t * e))
                 for e, _, m in binomials)
    bits = (log_m + (n - 1) * t) / log(2)
    # Margin: bits is the bound's log2 at x = exp(-t) up to float rounding.
    # Each term is off by a few ulps of itself plus at most |mult| 2^-51:
    # exp, expm1, log and log1p are correct to an ulp, and the rounding of
    # t*e moves -log(1 - e^-u) by at most 2^-53, as u / (e^u - 1) <= 1.  fsum
    # adds exactly.  So while sum |mult| < 2^40, which no expansion that
    # fits in memory reaches, bits is off by less than 2^-9 + bits * 2^-49,
    # below 1/2 for any bound under 2^(2^18): the sum is below
    # 2^(bits + 1/2) < 2^(ceil(bits) + 1).
    return (1 << (ceil(bits) + 1)) - 1


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


@lru_cache(maxsize=1024)  # as P: a repeat is a lookup
def theta(sign: int, exp: int, base: int) -> Product:
    """Jacobi's theta P(sign*q^exp, q^base) (q^base; q^base)_inf, P times a unit."""
    return P(sign, exp, base) * poch(1, base, base)


# ----------------------------------------------------------------------
# the triple product
# ----------------------------------------------------------------------


def triple_product(z: SignedMonomial, base: int, order: int) -> LaurentSeries:
    """(-zq, -q/z, q^2; q^2)_inf with q = q^base, for z = s*q^e, 0 <= e <= base."""
    s, e = z.sign, z.exp
    if e > base:
        raise ValueError("triple product instantiation needs exp <= base")
    prod = theta(-s, e + base, 2 * base)
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


# the dissections of (q;q)/(-q;q) into base-9/18 (eq1) and base-25/50 (eq2)
# products
LEMMA31_TABLE = {
    "eq1": _terms(poch(1, 9, 9) / poch(-1, 9, 9), Product(-2, 1) * theta(1, 3, 18)),
    "eq2": _terms(poch(1, 25, 25) / poch(-1, 25, 25), Product(-2, 1) * theta(1, 15, 50),
                  Product(2, 4) * theta(1, 5, 50)),
}


def verify_lemma31(variant: str) -> Sides:
    """(q;q)/(-q;q) against its dissection in ``LEMMA31_TABLE``."""
    return _terms(poch(1, 1, 1) / poch(-1, 1, 1)), LEMMA31_TABLE[variant]


def verify_hickerson(which: str, x: SignedMonomial, z: SignedMonomial, base: int) -> Sides:
    """Two/three-term identities among base-q and base-q^2 thetas, two per term."""
    sx, ex = x.sign, x.exp
    sz, ez = z.sign, z.exp
    xm = Product(sx, ex)  # the monomial x

    p1, p2 = partial(theta, base=base), partial(theta, base=2 * base)

    if which == "lemma32":
        lhs = [p1(sx, ex) * p1(sz, ez)]
        rhs = [p2(-sx * sz, ex + ez) * p2(-sz * sx, base + ez - ex),
               -xm * p2(-sx * sz, ex + ez + base) * p2(-sz * sx, ez - ex)]
    elif which == "lemma33":
        lhs = [p1(-sx, ex) * p1(sz, ez), -p1(sx, ex) * p1(-sz, ez)]
        rhs = [2 * xm * p2(sz * sx, ez - ex) * p2(sx * sz, ex + ez + base)]
    elif which == "lemma34":
        lhs = [p1(-sx, ex) * p1(sz, ez), p1(sx, ex) * p1(-sz, ez)]
        rhs = [2 * p2(sx * sz, ex + ez) * p2(sz * sx, base + ez - ex)]
    elif which == "lemma35":
        lhs = [3 * p1(-sx, ex) * p1(sz, ez), -p1(sx, ex) * p1(-sz, ez)]
        rhs = [2 * p2(sx * sz, ex + ez) * p2(sz * sx, ez + base - ex),
               4 * xm * p2(sx * sz, ex + ez + base) * p2(sz * sx, ez - ex)]
    else:
        raise ValueError(f"unknown identity {which!r}")
    return _terms(*lhs), _terms(*rhs)


def verify_addition(z: SignedMonomial, zeta: SignedMonomial, t: SignedMonomial, base: int) -> Sides:
    """Three-term addition relation, over thetas: the lemma
    P^2(z)P(zeta*t)P(zeta/t) - P^2(zeta)P(zt)P(z/t) + (zeta/t)P^2(t)P(z*zeta)P(z/zeta) = 0
    with each term times the unit u = (q^base; q^base)^4.  As u = 1 + O(q), a sum f and f u
    vanish together and share their first nonzero term: no verdict or first mismatch moves.
    """
    sz, ez = z.sign, z.exp
    sc, ec = zeta.sign, zeta.exp
    st, et = t.sign, t.exp

    p = partial(theta, base=base)
    total = [p(sz, ez) ** 2 * p(sc * st, ec + et) * p(sc * st, ec - et),
             -p(sc, ec) ** 2 * p(sz * st, ez + et) * p(sz * st, ez - et),
             Product(sc * st, ec - et) * p(st, et) ** 2 * p(sz * sc, ez + ec) * p(sz * sc, ez - ec)]
    return _terms(*total), ()
