"""Ground-truth combinatorics: overpartition counts by Dyson's rank, the
rank-class counts, and their generating functions.

An overpartition is a partition in which the first occurrence of each
distinct part value may be overlined; the rank is the largest part minus the
number of parts.  The counting oracle sums Lovejoy's rank generating
function term by term, with the rank held modulo a modulus in packed slots
(see ``_count_by_residue``); it is independent of the analytic generating
functions it validates coefficient by coefficient, and has no size cap.
Each table is built at exactly the order asked (``_rows``), so a caller
that reads several weights one by one asks for the largest first;
``class_table`` reads every weight below an order from one table.

Each rank-class series is one product, ``RANK_CLASS_PRODUCT`` = 2(-q;q)/(q;q),
times a Lambert sum, ``rank_class_sum``, whose two linear coefficients take
one ``lambert_sum`` pass, memoised there (``series.memo``); callers that
combine classes, as ``rankdiff`` does, subtract the sums before they
multiply by the product, or cancel the product against their own.

Convention at n = 0: the analytic rank generating functions have constant
term 0 for every rank class, while the counts include the empty
overpartition (rank 0) once.  The series builders below follow the analytic
convention; the counting oracle is compared for n >= 1 only.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from itertools import chain, cycle
from operator import add
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from .errors import BadArgument
from .lambert import lambert_sum
from .products import poch
from .series import LaurentSeries, _from_ints, _slot_size, _unpack


def _count_by_residue(modulus: int, order: int) -> List[List[int]]:
    """rows[n][s] = number of overpartitions of n with rank = s (mod modulus),
    for 0 <= n < order, from Lovejoy's rank generating function

        sum_{m,n} Nbar(m,n) z^m q^n = sum_k (-1;q)_k q^(k(k+1)/2) / ((zq;q)_k (q/z;q)_k)

    (Lovejoy, "Rank and conjugation for the Frobenius representation of an
    overpartition", Ann. Comb. 9, 2005), summed term by term: term k is term
    k - 1 times (1 + q^(k-1)) q^k / ((1 - z q^k)(1 - q^k / z)) and starts at
    q^(k(k+1)/2), so about sqrt(2 order) terms reach q^order.

    Each weight holds its z-polynomial modulo z^modulus - 1 as counts packed
    into one integer, slot s for rank s mod modulus, so multiplying by z^j
    rotates the slots by j; the ranks of n < order lie in (-order, order), so
    modulus 2 * order - 1 gives the exact histogram.  Every term has
    nonnegative coefficients, and each partial product on the way to a term,
    as each partial sum, is at most the final row coefficientwise; so every
    slot holds a count of at most pbar(order - 1), which fixes the slot width,
    and no count carries into its neighbour.  Modulus 1 (z = 1) rotates by no
    bits and needs no slot: its counts, which size every other modulus, are
    the integers themselves.
    """
    nbytes = _slot_size(_rows(1, order)[order - 1][0]) if modulus > 1 else 0
    width = 8 * nbytes
    full = (1 << (modulus * width)) - 1
    term = [1] + [0] * (order - 1)  # term 0; n = 0 is (), of rank 0
    total = term[:]
    k = 1
    while (lo := k * (k + 1) // 2) < order:
        term = [0] * k + term[:order - k]  # times q^k
        term[2 * k - 1:] = map(add, term[2 * k - 1:], term[k:order - k + 1])  # 1 + q^(k-1)
        for up in (width, modulus * width - width):  # divided by 1 - z q^k, then 1 - q^k / z
            down = modulus * width - up
            for n in range(lo + k, order):
                x = term[n - k]
                term[n] += ((x << up) & full) | (x >> down)
        total[lo:] = map(add, total[lo:], term[lo:])
        k += 1
    return [_unpack(packed, nbytes, modulus) if nbytes else [packed] for packed in total]


# modulus (None: the exact rank) -> counting rows for n < len(rows)
_TABLES: Dict[Optional[int], list] = {}
_TABLES_LOCK = threading.RLock()


def _rows(modulus: Optional[int], order: int) -> list:
    """The counting table of one modulus, covering at least every n < order.

    A table shorter than asked is rebuilt at exactly the order asked, under
    the lock, so the longest table wins; as for the memo, a caller that
    needs several weights asks for the largest first.  The exact table
    (modulus None) is the residue table modulo 2 * order - 1, wide enough
    for every rank of n < order, which ``rank_table`` reads.
    """
    with _TABLES_LOCK:
        rows = _TABLES.get(modulus, [])
        if len(rows) < order:
            rows = _TABLES[modulus] = _count_by_residue(modulus or 2 * order - 1, order)
        return rows


def _check_weight(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")


@lru_cache(maxsize=None)
def rank_table(n: int) -> Mapping[int, int]:
    """Exact rank histogram of the overpartitions of n, a read-only
    rank -> count mapping holding only the nonzero counts (counting oracle):
    row n of the exact table, whose residue s with 2s >= size is the rank
    s - size."""
    _check_weight(n)
    row = _rows(None, n + 1)[n]
    size = len(row)
    return MappingProxyType({(s if 2 * s < size else s - size): c for s, c in enumerate(row) if c})


def nbar(m: int, n: int) -> int:
    """Number of overpartitions of n with rank m (counting oracle)."""
    return rank_table(n).get(m, 0)


def nbar_class(s: int, m: int, n: int) -> int:
    """Number of overpartitions of n with rank congruent to s mod m (counting oracle)."""
    if not 0 <= s < m:
        raise ValueError(f"residue {s} not in [0, {m})")
    _check_weight(n)
    if m >= 2 * n - 1:  # the ranks of n lie in [1 - n, n - 1]: only s and s - m can occur
        return nbar(s, n) + nbar(s - m, n)
    return _rows(m, n + 1)[n][s]


def class_table(m: int, order: int) -> List[Tuple[int, ...]]:
    """The m rank-class counts of every n < order, from one table: entry s
    of row n is nbar_class(s, m, n)."""
    if m < 1:
        raise ValueError(f"modulus {m} is not positive")
    if order < 1:
        raise ValueError(f"order {order} is not positive")
    return list(map(tuple, _rows(m, order)[:order]))


# ----------------------------------------------------------------------
# generating functions
# ----------------------------------------------------------------------


def pbar_series(order: int) -> LaurentSeries:
    """(-q;q)_inf / (q;q)_inf = sum_n pbar(n) q^n."""
    return (poch(-1, 1, 1) / poch(1, 1, 1)).expand(order)


def nbar_series(m: int, order: int) -> LaurentSeries:
    """sum_n Nbar(m,n) q^n
    = 2 (-q;q)/(q;q) sum_{n>=1} (-1)^(n-1) q^(n^2+|m|n) (1-q^n)/(1+q^n).

    The constant term is 0 (analytic convention).  As (1 - x)/(1 + x) =
    1 - 2x + 2x^2 - ..., each term is one strided add of step n."""
    m = abs(m)
    inner = [0] * order
    n = 1
    while (lead := n * n + m * n) < order:
        c = 1 if n % 2 else -1
        inner[lead::n] = map(add, inner[lead::n], chain((c,), cycle((-2 * c, 2 * c))))
        n += 1
    return RANK_CLASS_PRODUCT.times(_from_ints(0, inner, order))


# the product of every rank-class series
RANK_CLASS_PRODUCT = 2 * poch(-1, 1, 1) / poch(1, 1, 1)


def rank_class_sum(s: int, m: int, order: int) -> LaurentSeries:
    """sum'_{n in Z} (-1)^n q^(n^2+n) (q^(sn) + q^((m-s)n)) / ((1 + q^n)(1 - q^(mn))),
    the Lambert sum of the rank-class series of s mod m, which ``lambert_sum``
    memoises.

    The n = 0 term is omitted; negative-n denominators expand exactly through
    the Laurent layer.  A power series with constant term 0."""
    if not 0 <= s < m:
        raise BadArgument(f"residue {s} not in [0, {m})")
    out = lambert_sum(1, (1 + s, 1 + m - s), -1, [(-1, 0, 1), (1, 0, m)], order, primed=True)
    if out.min_exp < 0:
        raise AssertionError(f"rank-class sum ({s},{m}) has negative exponents")
    return out


def nbar_class_series(s: int, m: int, order: int) -> LaurentSeries:
    """sum_n Nbar(s,m,n) q^n = RANK_CLASS_PRODUCT * rank_class_sum(s, m)
    = 2 (-q;q)/(q;q) sum'_{n in Z} (-1)^n q^(n^2+n) (q^(sn) + q^((m-s)n))
      / ((1 + q^n)(1 - q^(mn))).

    Constant term 0 (analytic convention)."""
    return RANK_CLASS_PRODUCT.times(rank_class_sum(s, m, order))
