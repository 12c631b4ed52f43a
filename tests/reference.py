"""Slow references that the tests compare the package against.

The counting oracle, a sum of Lovejoy's rank generating function, is pinned
to ``count_by_largest_part``, the dynamic program over the largest part that
it replaced, and to ``overpartitions``, the object enumeration that the DP
replaced; the theta-sum and Lambert tests build their expected series with
``inverse``, term by term; ``series.mul``'s packed (Kronecker) product is
pinned to ``_mul_schoolbook``, one slice pass per nonzero; and
``rankdiff.eval_terms``, which groups terms by their product, to
``eval_terms_termwise``; ``from_terms`` writes a series from an exponent ->
coefficient mapping.  None of them is used by the package itself.
"""

import operator
from fractions import Fraction
from itertools import repeat

from overrank.rankdiff import eval_terms
from overrank.series import LaurentSeries, _from_ints


def evaluated(sides, order):
    """The two sides of a check as series exact below q^order, as
    ``registry._run`` evaluates them."""
    return tuple(eval_terms(side, order) for side in sides)


def eval_terms_termwise(terms, order):
    """The sum of the terms, one at a time: each route built at order - qexp
    and multiplied by the product's expansion by ``_mul_schoolbook``, the
    expansion taken as deep as the route's negative powers need; a product
    with no factors shifts and scales the route exactly."""
    total = LaurentSeries.zero(order)
    for t in terms:
        p = t.prod
        if t.series is None:
            total = total + p.expand(order)
            continue
        r = t.series.build(order - p.qexp)
        if p.factors:
            total = total + _mul_schoolbook(p.expand(order - min(0, r.min_exp)), r)
        else:
            total = total + r.shift(p.qexp).scale(p.scalar)
    return total


def overpartitions(n):
    """Yield every overpartition of n exactly once, as a (parts, overlined)
    pair: the parts nonincreasing, and the frozenset of overlined values.

    Generation is by largest part value with an overline choice at the first
    occurrence of each distinct value, so each object appears once.
    """

    def rec(remaining, max_part):
        if remaining == 0:
            yield (), frozenset()
            return
        for v in range(min(remaining, max_part), 0, -1):
            for mult in range(1, remaining // v + 1):
                head = (v,) * mult
                for tail, over in rec(remaining - mult * v, v - 1):
                    yield head + tail, over
                    yield head + tail, over | {v}

    return rec(n, n)


def rank(parts):
    """Largest part minus number of parts; the empty overpartition has rank 0."""
    return parts[0] - len(parts) if parts else 0


def count_by_largest_part(modulus, order):
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
    shift by a slots.  Every count is at most pbar(order - 1) <= 2^(order - 1),
    which this function's own modulus-1 table gives, and that fixes the slot
    width; the slots are read back by masks.
    """
    if modulus == 1:
        width = order + 1
    else:
        width = count_by_largest_part(1, order)[order - 1][0].bit_length() + 1
    if modulus is None:
        slots, offset = 2 * order - 1, order - 1

        def shift(x, bits):
            return x << bits
    else:
        slots, offset = modulus, 0
        full = (1 << (modulus * width)) - 1

        def shift(x, bits):  # modulo t^modulus - 1
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
    mask = (1 << width) - 1
    return [[packed >> ((offset - s) % slots * width) & mask for s in range(slots)]
            for packed in ranks]


def from_terms(terms, order):
    """The series of an exponent -> coefficient mapping below q^order."""
    known = {e: c for e, c in terms.items() if e < order and c}
    if not known:
        return LaurentSeries.zero(order)
    lo = min(known)
    window = [0] * (max(known) + 1 - lo)
    for e, c in known.items():
        window[e - lo] = c
    return LaurentSeries(lo, window, order)


def inverse(a: LaurentSeries) -> LaurentSeries:
    """Multiplicative inverse b with a * b = 1 + O(q^(a.order - a.min_exp)),
    one coefficient at a time.  The lowest-degree coefficient must be nonzero;
    b.min_exp = -a.min_exp."""
    m = a.min_exp
    length = a.order - m
    lead = a.coeffs[0]
    inv0 = lead if lead in (1, -1) else 1 / Fraction(lead)
    nz = [(j, c) for j, c in enumerate(a.coeffs) if j and c]
    out = [0] * length
    out[0] = inv0
    for n in range(1, length):
        s = 0
        for j, c in nz:
            if j > n:
                break
            s += c * out[n - j]
        out[n] = -s * inv0
    return LaurentSeries(-m, out, a.order - 2 * m)


def _mul_schoolbook(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Cauchy product by one slice pass over the other operand per nonzero of
    the sparser one: the reference ``mul``'s packed path is tested against."""
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
