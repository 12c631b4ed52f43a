"""Slow references that the tests compare the package against.

The counting oracle is pinned to ``overpartitions``, the object enumeration
it replaced, and the theta-sum and Lambert tests build their expected series
with ``inverse``, term by term.  Neither is used by the package itself.
"""

from fractions import Fraction

from overrank.series import LaurentSeries


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
