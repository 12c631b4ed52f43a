"""Ground-truth combinatorics: overpartition counts by Dyson's rank, the
rank-class counts, and their generating functions.

An overpartition is a partition in which the first occurrence of each
distinct part value may be overlined; the rank is the largest part minus the
number of parts.  The counting oracle is a dynamic program over the largest
part (see ``_count_by_residue``), independent of the analytic generating
functions it validates coefficient by coefficient; it has no size cap.

Each rank-class series is one product, ``RANK_CLASS_PRODUCT`` = 2(-q;q)/(q;q),
times a Lambert sum, ``rank_class_sum``, which is cached; callers that
combine classes, as ``rankdiff`` does, subtract the sums before they multiply
by the product, or cancel the product against their own.

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

from .lambert import lambert_sum
from .products import poch
from .series import LaurentSeries, _from_ints, _slot_size, _unpack


def _count_by_residue(modulus: Optional[int], order: int) -> List[List[int]]:
    """rows[n][s] = number of overpartitions of n with rank = s (mod modulus),
    for 0 <= n < order, by a counting DP over the largest part L; modulus
    None counts the exact ranks, which lie in (-order, order), as residues
    modulo 2 * order - 1.

    With t marking the number of parts, F_L = prod_{v<=L} (1 + t q^v)/(1 - t q^v)
    generates the overpartitions with every part at most L (Corteel-Lovejoy,
    "Overpartitions", Trans. AMS 356, 2004).  Those whose largest part is
    exactly L are F_L - F_{L-1} = 2 t q^L F_{L-1}/(1 - t q^L), and each has
    rank L - #parts.  The t-polynomial of each weight is held as counts
    packed into one integer, and a count moves from #parts k to -rank =
    k - L.  For a modulus only #parts mod modulus matters: ``modulus`` slots
    (slot k: #parts = k mod modulus), and multiplying by t^a rotates the
    slots by a.  For the exact ranks no slot wraps round: #parts < order and
    slot -rank + order - 1 < 2 * order - 1, so multiplying by t^a is a plain
    shift by a slots.  Every count is at most pbar(order - 1), which fixes
    the slot width.
    """
    if modulus == 1:
        nbytes = _slot_size(1 << (order - 1))  # pbar(n) <= 2^n bounds the single slot
    else:
        nbytes = _slot_size(_rows(1, order)[order - 1][0])
    width = 8 * nbytes
    if modulus is None:
        slots, offset = 2 * order - 1, order - 1

        def shift(x: int, bits: int) -> int:
            return x << bits
    else:
        slots, offset = modulus, 0
        full = (1 << (modulus * width)) - 1

        def shift(x: int, bits: int) -> int:  # modulo t^modulus - 1
            return ((x << bits) & full) | (x >> (modulus * width - bits))

    parts = [1] + [0] * (order - 1)  # F_L by weight; starts at F_0 = 1
    # slot k: -rank + offset = k (mod slots); n = 0 is (), of rank 0
    ranks = [1 << (offset * width)] + [0] * (order - 1)
    for big in range(1, order):
        # times 2 t^-L as one shift of that many bits: doubling carries no
        # count of new into the next slot, as each is at most pbar(n) / 2
        back = (offset - big) % slots * width + 1
        for n in range(big, order):  # F_{L-1} / (1 - t q^L)
            parts[n] += shift(parts[n - big], width)
        for n in range(order - 1, big - 1, -1):  # times (1 + t q^L), giving F_L
            new = shift(parts[n - big], width)
            parts[n] += new
            ranks[n] += shift(new, back)  # largest part exactly L: rank L - k
    out = []
    for packed in ranks:
        counts = _unpack(packed, nbytes, slots)
        out.append([counts[(offset - s) % slots] for s in range(slots)])
    return out


# modulus (None: the exact rank) -> counting rows for n < len(rows)
_TABLES: Dict[Optional[int], list] = {}
_TABLES_LOCK = threading.RLock()


def _rows(modulus: Optional[int], order: int) -> list:
    """The counting table of one modulus, covering at least every n < order.

    A table that is too short is rebuilt at least twice as long, so asking
    for n = 0, 1, 2, ... in turn costs a bounded multiple of one build.  The
    exact table (modulus None) maps rank -> count for each n; it is the
    residue table modulo 2 * order - 1, wide enough for every rank of n < order.
    """
    with _TABLES_LOCK:
        rows = _TABLES.get(modulus, [])
        if len(rows) < order:
            order = max(order, 2 * len(rows))
            if modulus is None:
                size = 2 * order - 1
                rows = [{(s if s < order else s - size): c for s, c in enumerate(row) if c}
                        for row in _count_by_residue(None, order)]
            else:
                rows = _count_by_residue(modulus, order)
            _TABLES[modulus] = rows
        return rows


def _check_weight(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")


@lru_cache(maxsize=None)
def rank_table(n: int) -> Mapping[int, int]:
    """Exact rank histogram of the overpartitions of n, a read-only
    rank -> count mapping holding only the nonzero counts (counting oracle)."""
    _check_weight(n)
    return MappingProxyType(_rows(None, n + 1)[n])


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


def class_counts(m: int, n: int) -> Tuple[int, ...]:
    """All m rank-class counts of n at once: entry s is nbar_class(s, m, n)."""
    if m < 1:
        raise ValueError(f"modulus {m} is not positive")
    _check_weight(n)
    if m >= 2 * n - 1:  # at least as many classes as ranks: fold the histogram
        counts = [0] * m
        for rank, count in rank_table(n).items():
            counts[rank % m] += count
        return tuple(counts)
    return tuple(_rows(m, n + 1)[n])


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
    return RANK_CLASS_PRODUCT.times(_from_ints(0, inner, order), order)


# the product of every rank-class series
RANK_CLASS_PRODUCT = 2 * poch(-1, 1, 1) / poch(1, 1, 1)


@lru_cache(maxsize=32)
def rank_class_sum(s: int, m: int, order: int) -> LaurentSeries:
    """sum'_{n in Z} (-1)^n q^(n^2+n) (q^(sn) + q^((m-s)n)) / ((1 + q^n)(1 - q^(mn))),
    the Lambert sum of the rank-class series of s mod m.

    The n = 0 term is omitted; negative-n denominators expand exactly through
    the Laurent layer.  A power series with constant term 0."""
    if not 0 <= s < m:
        raise ValueError(f"residue {s} not in [0, {m})")
    denoms = [(-1, 0, 1), (1, 0, m)]
    out = (lambert_sum(1, 1 + s, -1, denoms, order, primed=True)
           + lambert_sum(1, 1 + m - s, -1, denoms, order, primed=True))
    if out.min_exp < 0:
        raise AssertionError(f"rank-class sum ({s},{m}) has negative exponents")
    return out


def nbar_class_series(s: int, m: int, order: int) -> LaurentSeries:
    """sum_n Nbar(s,m,n) q^n = RANK_CLASS_PRODUCT * rank_class_sum(s, m)
    = 2 (-q;q)/(q;q) sum'_{n in Z} (-1)^n q^(n^2+n) (q^(sn) + q^((m-s)n))
      / ((1 + q^n)(1 - q^(mn))).

    Constant term 0 (analytic convention)."""
    return RANK_CLASS_PRODUCT.times(rank_class_sum(s, m, order), order)
