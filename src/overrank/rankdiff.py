"""Rank-difference generating functions: oracle side, closed-form side, and
the supporting decompositions.

Every identity here is data: a check returns its two sides as tuples of
``products.FormulaTerm``, each a ``Product`` times the series of an optional
named ``Route``, and ``eval_terms``, which the registry calls at the order
it checks, turns a side into a series.  Closed forms are transcribed into declarative tables
(one FormulaTerm per additive term, one ``poch`` per Pochhammer symbol, signs
and exponents spelled out) so each table row can be audited against the
identity it encodes, factor by factor.  An index-level object (P(a),
Sum(a,b), g(a)) lives in the base variable y and is read in q = y^ell: a
product by ``_lifted``, a route by its ``lift``, which builds it at the
least y order that the q order needs.

The rank side of a class difference is built from ``combinat``'s parts:
the two classes' Lambert sums are subtracted first, so the oracle multiplies
by the product 2(-q;q)/(q;q) once, and the combinations, whose factor
(q;q)/(2(-q;q)) cancels that product as ``Product`` values, not at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from typing import Dict, List, Tuple

from .combinat import RANK_CLASS_PRODUCT, rank_class_sum
from .errors import BadArgument
from .lambert import g_index, p_ratio, s_bar, sigma_ab
from .products import P, FormulaTerm, Product, Route, Sides, Terms, poch
from .series import LaurentSeries, extract_progression, memo, substitute_power


@dataclass(frozen=True)
class RankDiffKey:
    """One dissected rank difference of ``THEOREM_TABLE``: modulus ell, class
    pair (s,t), residue d."""

    ell: int
    s: int
    t: int
    d: int

    def __post_init__(self):
        if (self.ell, self.s, self.t, self.d) not in THEOREM_TABLE:
            known = ", ".join(f"{ell}.{s}{t}.{d}" for ell, s, t, d in THEOREM_TABLE)
            raise BadArgument(f"no rank difference R{self.s}{self.t}({self.d}) mod {self.ell}; "
                              f"the paper's are {known}")

    @property
    def slug(self) -> str:
        return f"R{self.s}{self.t}.d{self.d}"


@dataclass(frozen=True)
class FinalFormSpec:
    """One Sbar(ell - 2m) evaluation: (ell, m) with m in the fundamental range."""

    ell: int
    m: int

    def __post_init__(self):
        if (self.ell, self.m) not in {(3, 1), (5, 1), (5, 2)}:
            raise ValueError(f"unsupported (ell, m) = ({self.ell}, {self.m})")

    def excluded_sum_indices(self) -> Tuple[int, ...]:
        """a in {1, .., (ell-1)/2} omitting a = +-m mod ell."""
        bad = {self.m % self.ell, (-self.m) % self.ell}
        return tuple(a for a in range(1, (self.ell - 1) // 2 + 1) if a % self.ell not in bad)


# ----------------------------------------------------------------------
# the one evaluator
# ----------------------------------------------------------------------


def eval_terms(terms: Terms, order: int) -> LaurentSeries:
    """The sum of the terms, exact below q^order.

    Terms whose products have equal power of q and factors are one group:
    the scalar-weighted sum of their routes, each built at order - qexp (a
    term with no route counts as 1), is multiplied by the group's product
    once, by ``Product.times``, which reads its depth off that sum, and
    shifted exactly.  Where every factor and route lives in y = q^g, g > 1,
    the group is built in y and spread.  A group of no route is its
    product's memoised expansion.
    """
    groups: Dict[Tuple[int, tuple], List[FormulaTerm]] = {}
    for t in terms:
        if t.prod.scalar:
            groups.setdefault((t.prod.qexp, t.prod.factors), []).append(t)
    total = None
    for (qexp, factors), group in groups.items():
        routes = [t.series.lift for t in group if t.series is not None]
        if not routes:
            part = (group[0].prod if len(group) == 1 else
                    Product(sum(t.prod.scalar for t in group), qexp, factors)).expand(order)
        else:
            g = gcd(*routes)
            g = gcd(g, *(x for (_, r, step), _ in factors for x in (r, step))) if g > 1 else 1
            n = -(-(order - qexp) // g)
            s, const = None, 0
            for t in group:
                if t.series is None:
                    const += t.prod.scalar
                    continue
                r = t.series.build(n, g)
                r = r if t.prod.scalar == 1 else r.scale(t.prod.scalar)
                s = r if s is None else s + r
            if const:
                s = s + LaurentSeries.monomial(const, 0, n)
            if factors:
                unit = Product(1, 0, factors if g == 1 else tuple(
                    ((sg, r // g, step // g), m) for (sg, r, step), m in factors))
                s = unit.times(s)
            if g > 1:
                s = substitute_power(s, g).truncate(order - qexp)
            part = s.shift(qexp) if qexp else s
        total = part if total is None else total + part
    return LaurentSeries.zero(order) if total is None else total


def _lifted(prod: Product, ell: int) -> Product:
    """prod at q -> q^ell."""
    return Product(prod.scalar, prod.qexp * ell,
                   tuple(((s, r * ell, step * ell), m) for (s, r, step), m in prod.factors))


def _sum(z: int, base: int) -> Route:
    """Sum(q^z, 1, q^base)."""
    return Route(sigma_ab, (z, 0, base))


def _g(a: int, ell: int) -> Route:
    """g(a), a series in y = q^ell, read in q."""
    return Route(g_index, (a, ell), ell)


T = FormulaTerm

# closed forms for the thirteen dissected rank differences, keyed by
# (ell, s, t, d); an empty tuple means the identically zero series
THEOREM_TABLE = {
    (3, 0, 1, 0): (
        T(Product(-1)),
        T(poch(1, 3, 3) ** 2 * poch(-1, 1, 1) / (poch(1, 1, 1) * poch(-1, 3, 3) ** 2)),
    ),
    (3, 0, 1, 1): (
        T(2 * poch(1, 3, 3) * poch(1, 6, 6) / poch(1, 1, 1)),
    ),
    (3, 0, 1, 2): (
        T(4 * poch(-1, 3, 3) ** 2 * poch(1, 6, 6) ** 2 / poch(1, 2, 2)),
        T(-6 * poch(-1, 3, 3) / poch(1, 3, 3), _sum(1, 3)),
    ),
    (5, 1, 2, 0): (
        T(Product(2, 1) * poch(1, 10, 10)
          / (poch(1, 3, 10) * poch(1, 4, 10) * poch(1, 6, 10) * poch(1, 7, 10))),
    ),
    (5, 1, 2, 1): (
        T(Product(-2, 1) * poch(-1, 5, 5) / poch(1, 5, 5), _sum(2, 5)),
    ),
    (5, 1, 2, 2): (
        T(2 * poch(1, 10, 10) / (poch(1, 1, 5) * poch(1, 4, 5))),
    ),
    (5, 1, 2, 3): (
        T(-2 * poch(1, 10, 10) / (poch(1, 2, 5) * poch(1, 3, 5))),
    ),
    (5, 1, 2, 4): (
        T(6 * poch(-1, 5, 5) / poch(1, 5, 5), _sum(1, 5)),
        T(-4 * poch(1, 2, 10) * poch(1, 8, 10) * poch(1, 10, 10)
          / (poch(1, 4, 10) ** 2 * poch(1, 6, 10) ** 2 * poch(1, 1, 10) * poch(1, 9, 10))),
    ),
    (5, 0, 2, 0): (
        T(Product(-1)),
        T(poch(-1, 2, 5) * poch(-1, 3, 5) * poch(1, 5, 5)
          / (poch(1, 2, 5) * poch(1, 3, 5) * poch(-1, 5, 5))),
    ),
    (5, 0, 2, 1): (
        T(2 * poch(1, 4, 10) * poch(1, 6, 10) * poch(1, 10, 10)
          / (poch(1, 2, 10) ** 2 * poch(1, 8, 10) ** 2 * poch(1, 3, 10) * poch(1, 7, 10))),
        T(Product(4, 1) * poch(-1, 5, 5) / poch(1, 5, 5), _sum(2, 5)),
    ),
    (5, 0, 2, 2): (),
    (5, 0, 2, 3): (
        T(2 * poch(1, 10, 10) / (poch(1, 2, 5) * poch(1, 3, 5))),
    ),
    (5, 0, 2, 4): (
        T(2 * poch(1, 2, 10) * poch(1, 8, 10) * poch(1, 10, 10)
          / (poch(1, 4, 10) ** 2 * poch(1, 6, 10) ** 2 * poch(1, 1, 10) * poch(1, 9, 10))),
        T(-2 * poch(-1, 5, 5) / poch(1, 5, 5), _sum(1, 5)),
    ),
}


def rank_diff_formula(key: RankDiffKey) -> Terms:
    """Closed form of R_st(d) in the dissected variable, from the table."""
    return THEOREM_TABLE[(key.ell, key.s, key.t, key.d)]


def rank_diff_oracle(key: RankDiffKey, order: int) -> LaurentSeries:
    """R_st(d) built from the rank-class generating functions alone: the
    progression ell*n + d of the class-series difference, the difference of
    the two Lambert sums times their common product."""
    pair = _class_pair_difference(key.s, key.t, key.ell, key.ell * order + key.ell - 1)
    return extract_progression(pair, key.ell, key.d).truncate(order)


# the ell residues of a class pair at one order share one entry
@memo
def _class_pair_difference(s: int, t: int, ell: int, order: int) -> LaurentSeries:
    """sum_n (Nbar(s,ell,n) - Nbar(t,ell,n)) q^n below q^order: the class
    product times the difference of the two Lambert sums, in one ``times`` call."""
    return RANK_CLASS_PRODUCT.times(rank_class_sum(s, ell, order) - rank_class_sum(t, ell, order))


# ----------------------------------------------------------------------
# Sbar(ell - 2m): substitution decomposition and final form
# ----------------------------------------------------------------------


def s_bar_b_decomposition(spec: FinalFormSpec) -> Sides:
    """Sbar(ell-2m) rewritten over n = ell*r + m + b with b in {0, -m, m, +-a}:

        (-1)^m q^(m(ell-m)) Sum(m,0) + Sum(0,-2m) + y^(2m) Sum(2m,2m)
        + sum''_a (-1)^(m+a) q^((a+m)(a-m+ell)) [Sum(m+a,2a) + y^(-2a) Sum(m-a,-2a)]
    """
    ell, m = spec.ell, spec.m
    rhs = [T(Product((-1) ** m, m * (ell - m)), Route(sigma_ab, (m, 0, ell), ell)),
           T(Product(), Route(sigma_ab, (0, -2 * m, ell), ell)),
           T(Product(1, 2 * m * ell), Route(sigma_ab, (2 * m, 2 * m, ell), ell))]
    for a in spec.excluded_sum_indices():
        sgn, c = (-1) ** (m + a), (a + m) * (a - m + ell)
        rhs += [T(Product(sgn, c), Route(sigma_ab, (m + a, 2 * a, ell), ell)),
                T(Product(sgn, c - 2 * a * ell), Route(sigma_ab, (m - a, -2 * a, ell), ell))]
    return (T(Product(), Route(s_bar, (ell - 2 * m, ell))),), tuple(rhs)


def sigma_coefficient_bracket(spec: FinalFormSpec) -> Terms:
    """The coefficient of Sum(m,0) in the final form of Sbar(ell-2m):

        (-1)^m q^(m(ell-m)) + y^m P(2m)P(-1)/(P(m)P(-y^m))
        + sum''_a (-1)^(m+a) q^((a+m)(a-m+ell)) y^(-a) P(2a)P(-1)/(P(a)P(-y^a))
    """
    ell, m = spec.ell, spec.m
    out = [T(Product((-1) ** m, m * (ell - m))), T(_lifted(p_ratio(1, m, ell), ell))]
    for a in spec.excluded_sum_indices():
        c = (a + m) * (a - m + ell) - 2 * a * ell  # y^-a is y^-2a times p_ratio's y^a
        out.append(T(Product((-1) ** (m + a), c) * _lifted(p_ratio(1, a, ell), ell)))
    return tuple(out)


def s_bar_final_form(spec: FinalFormSpec) -> Sides:
    """Sbar(ell-2m) against its final form:

        -g(m)
        + sum''_a (-1)^(m+a) q^((a+m)(a-m+ell)) y^(-2a)
              P(a)P(2a)P(-y^m)P(0)^2 / (P(m)P(m+a)P(m-a)P(-y^a))
        + Sum(m,0) * { sigma_coefficient_bracket }
    """
    ell, m = spec.ell, spec.m
    rhs = [T(Product(-1), _g(m, ell))]
    for a in spec.excluded_sum_indices():
        c = (a + m) * (a - m + ell) - 2 * a * ell
        prod = P(1, a, ell) * P(1, 2 * a, ell) * P(-1, m, ell) * poch(1, ell, ell, 2) / (
            P(1, m, ell) * P(1, m + a, ell) * P(1, m - a, ell) * P(-1, a, ell)
        )
        rhs.append(T(Product((-1) ** (m + a), c) * _lifted(prod, ell)))
    sig = Route(sigma_ab, (m, 0, ell), ell)
    rhs += [T(t.prod, sig) for t in sigma_coefficient_bracket(spec)]
    return (T(Product(), Route(s_bar, (ell - 2 * m, ell))),), tuple(rhs)


def bracket_closed_form(ell: int, m: int) -> Product:
    """The Prop-style closed form of the Sum(m,0)-coefficient bracket of
    Sbar(ell - 2m), in the dissected variable, with L = ell^2:

        (-1)^m q^(m(ell-m)) (q;q)(-q^L;q^L) / ((-q;q)(q^L;q^L))
    """
    sq = ell * ell
    return (Product((-1) ** m, m * (ell - m)) * poch(1, 1, 1) * poch(-1, sq, sq)
            / (poch(-1, 1, 1) * poch(1, sq, sq)))


def brackets(spec: FinalFormSpec) -> Sides:
    """Assembled Sum(m,0)-coefficient vs its product closed form."""
    return sigma_coefficient_bracket(spec), (T(bracket_closed_form(spec.ell, spec.m)),)


# literal Sbar closed forms: Sbar(1) for ell=3, Sbar(1) and Sbar(3) for ell=5,
# each b = ell - 2m; the Sum entries are the lifted Sum(m,0), i.e.
# Sum(q^(ell*m), 1, q^(ell^2)), times the bracket's closed form
SBAR_CLOSED_TABLE = {
    's1too': (3, 1, (
        T(Product(-1), _g(1, 3)),
        T(bracket_closed_form(3, 1), _sum(3, 9)),
    )),
    's1': (5, 1, (
        T(Product(-1), _g(2, 5)),
        T(bracket_closed_form(5, 2), _sum(10, 25)),
        T(Product(-1, 2) * poch(1, 25, 25) ** 2 * poch(-1, 10, 25) * poch(-1, 15, 25)
          / (poch(1, 10, 25) * poch(1, 15, 25) * poch(-1, 5, 25) * poch(-1, 20, 25))),
    )),
    's3': (5, 3, (
        T(Product(-1), _g(1, 5)),
        T(bracket_closed_form(5, 1), _sum(5, 25)),
        T(Product(1, 3) * poch(1, 25, 25) ** 2 * poch(-1, 5, 25) * poch(-1, 20, 25)
          / (poch(1, 5, 25) * poch(1, 20, 25) * poch(-1, 10, 25) * poch(-1, 15, 25))),
    )),
}


def verify_sbar_closed(which: str) -> Sides:
    """Sbar(b) against its literal closed form (-g +- product*Sum +- product)."""
    ell, b, terms = SBAR_CLOSED_TABLE[which]
    return (T(Product(), Route(s_bar, (b, ell))),), terms


# ----------------------------------------------------------------------
# class-difference combinations
# ----------------------------------------------------------------------

COMBINATION_TABLE = {
    "ell3_01": (3, 0, 1, ((3, 1), (1, 3))),
    "ell5_12": (5, 1, 2, ((-1, 1), (-3, 3))),
    # the Sbar(5) coefficient is +1: with Sbar(5) = 1/2 - (q)/(2(-q)) this is
    # the combination that matches the rank side (confirmed to high order; -1
    # fails already at q^1)
    "ell5_02": (5, 0, 2, ((1, 5), (2, 1), (1, 3))),
}

_HALF_RATIO = Fraction(1, 2) * poch(1, 1, 1) / poch(-1, 1, 1)  # (q;q)/(2(-q;q))


def combination_lhs(pair: str) -> Terms:
    """The stated Sbar combination for a class pair (e.g. 3*Sbar(1) + Sbar(3))."""
    ell, _s, _t, combo = COMBINATION_TABLE[pair]
    return tuple(T(Product(coeff), Route(s_bar, (b, ell))) for coeff, b in combo)


def combination_rank_side(pair: str) -> Terms:
    """The same series built independently:
    sum_n (Nbar(s,ell,n) - Nbar(t,ell,n)) q^n * (q;q)/(2(-q;q)), as the
    difference of the two classes' Lambert sums times the product of the
    class series and that ratio, which cancel to 1."""
    ell, s, t, _ = COMBINATION_TABLE[pair]
    prod = RANK_CLASS_PRODUCT * _HALF_RATIO
    return (T(prod, Route(rank_class_sum, (s, ell))), T(-prod, Route(rank_class_sum, (t, ell))))


def combination_theorem_sides(pair: str) -> Sides:
    """The combination times 2(-q;q)/(q;q) against the class-series
    difference assembled from the closed forms, the degree-(ell-1)
    polynomial sum_d q^d r_st(d)(q^ell).  The product goes with the Sbar
    sums, so each lifted closed-form product keeps the factors, and the
    memoised expansion, of its own thm row."""
    ell, s, t, _ = COMBINATION_TABLE[pair]
    lhs = tuple(T(x.prod / _HALF_RATIO, x.series) for x in combination_lhs(pair))
    rhs = tuple(T(Product(1, d) * _lifted(x.prod, ell),
                  x.series and replace(x.series, lift=x.series.lift * ell))
                for d in range(ell) for x in rank_diff_formula(RankDiffKey(ell, s, t, d)))
    return lhs, rhs


# ----------------------------------------------------------------------
# coefficient identities from the polynomial comparison (base q^25 / q^50)
# ----------------------------------------------------------------------

Fr = Fraction

CHECK_TABLE = {
    0: (
        (T(Product(), _g(2, 5)),
         T(Product(3), _g(1, 5))),
        (T(Product(1, 5) * poch(1, 25, 25) ** 2
           / (poch(1, 15, 50) * poch(1, 20, 50) * poch(1, 30, 50) * poch(1, 35, 50))),
         T(Product(4, 5) * poch(1, 10, 50) * poch(1, 15, 50) * poch(1, 35, 50) * poch(1, 40, 50)
           * poch(1, 50, 50) ** 2
           / (poch(1, 20, 50) ** 2 * poch(1, 30, 50) ** 2 * poch(1, 5, 50) * poch(1, 45, 50)))),
    ),
    1: (
        (T(Product(1, 5) * poch(1, 50, 50) * poch(1, 15, 50) * poch(1, 35, 50) * poch(1, 50, 50)
           / (poch(1, 15, 50) * poch(1, 20, 50) * poch(1, 30, 50) * poch(1, 35, 50))),),
        (T(Product(1, 5) * poch(1, 50, 50) * poch(1, 5, 50) * poch(1, 45, 50) * poch(1, 50, 50)
           / (poch(1, 5, 25) * poch(1, 20, 25))),),
    ),
    2: (
        (T(poch(1, 25, 25) ** 2 * poch(-1, 10, 25) * poch(-1, 15, 25)
           / (poch(1, 10, 25) * poch(1, 15, 25) * poch(-1, 5, 25) * poch(-1, 20, 25))),),
        (T(poch(1, 25, 25) ** 2 / (poch(1, 5, 25) * poch(1, 20, 25))),
         T(Product(-2, 5) * poch(1, 50, 50) ** 2 * poch(1, 5, 50) * poch(1, 45, 50)
           / (poch(1, 10, 25) * poch(1, 15, 25)))),
    ),
    3: (
        (T(3 * poch(1, 25, 25) ** 2 * poch(-1, 5, 25) * poch(-1, 20, 25)
           / (poch(1, 5, 25) * poch(1, 20, 25) * poch(-1, 10, 25) * poch(-1, 15, 25))),),
        (T(poch(1, 25, 25) ** 2 / (poch(1, 10, 25) * poch(1, 15, 25))),
         T(2 * poch(1, 50, 50) ** 2 * poch(1, 15, 50) * poch(1, 35, 50)
           / (poch(1, 5, 25) * poch(1, 20, 25))),
         T(Product(4, 5) * poch(1, 10, 50) * poch(1, 40, 50) * poch(1, 50, 50) ** 2
           / (poch(1, 20, 50) ** 2 * poch(1, 30, 50) ** 2))),
    ),
    4: (
        (T(poch(1, 10, 50) * poch(1, 40, 50) * poch(1, 50, 50) * poch(1, 25, 25)
           / (poch(1, 20, 50) ** 2 * poch(1, 30, 50) ** 2 * poch(1, 5, 50) * poch(1, 45, 50)
              * poch(-1, 25, 25))),),
        (T(poch(1, 50, 50) ** 2 * poch(1, 15, 50) * poch(1, 35, 50)
           / (poch(1, 10, 25) * poch(1, 15, 25))),
         T(Product(1, 5) * poch(1, 50, 50) ** 2 * poch(1, 5, 50) * poch(1, 45, 50)
           / (poch(1, 15, 50) * poch(1, 20, 50) * poch(1, 30, 50) * poch(1, 35, 50)))),
    ),
    5: (
        (T(Product(Fr(1, 2))),
         T(Product(-2), _g(2, 5)),
         T(Product(-1), _g(1, 5))),
        (T(Fr(1, 2) * poch(-1, 10, 25) * poch(-1, 15, 25) * poch(1, 25, 25) ** 2
           / (poch(1, 10, 25) * poch(1, 15, 25) * poch(-1, 25, 25) ** 2)),
         T(Product(-2, 5) * poch(1, 10, 50) * poch(1, 40, 50) * poch(1, 15, 50) * poch(1, 35, 50)
           * poch(1, 50, 50) ** 2
           / (poch(1, 20, 50) ** 2 * poch(1, 30, 50) ** 2 * poch(1, 5, 50) * poch(1, 45, 50))),
         T(Product(2, 5) * poch(1, 20, 50) * poch(1, 30, 50) * poch(1, 5, 50) * poch(1, 45, 50)
           * poch(1, 50, 50) ** 2
           / (poch(1, 10, 50) ** 2 * poch(1, 40, 50) ** 2 * poch(1, 15, 50) * poch(1, 35, 50)))),
    ),
    6: (
        (T(poch(1, 20, 50) * poch(1, 30, 50) * poch(1, 50, 50) * poch(1, 25, 25)
           / (poch(1, 10, 50) ** 2 * poch(1, 40, 50) ** 2 * poch(1, 15, 50) * poch(1, 35, 50)
              * poch(-1, 25, 25))),),
        (T(poch(-1, 10, 25) * poch(-1, 15, 25) * poch(1, 25, 25) * poch(1, 15, 50)
           * poch(1, 35, 50) * poch(1, 50, 50)
           / (poch(1, 10, 25) * poch(1, 15, 25) * poch(-1, 25, 25))),),
    ),
    7: (
        (T(poch(1, 25, 25) ** 2 * poch(-1, 10, 25) * poch(-1, 15, 25)
           / (poch(-1, 5, 25) * poch(-1, 20, 25) * poch(1, 10, 25) * poch(1, 15, 25))),),
        (T(poch(1, 50, 50) ** 2 * poch(1, 20, 50) * poch(1, 30, 50)
           / (poch(1, 10, 50) ** 2 * poch(1, 40, 50) ** 2)),
         T(Product(-1, 5) * poch(1, 50, 50) ** 2 * poch(1, 5, 50) * poch(1, 45, 50)
           / (poch(1, 10, 25) * poch(1, 15, 25)))),
    ),
    8: (
        (T(poch(1, 25, 25) ** 2 * poch(-1, 5, 25) * poch(-1, 20, 25)
           / (poch(-1, 10, 25) * poch(-1, 15, 25) * poch(1, 5, 25) * poch(1, 20, 25))),),
        (T(poch(1, 25, 25) ** 2 / (poch(1, 10, 25) * poch(1, 15, 25))),
         T(Product(2, 5) * poch(1, 50, 50) ** 2 * poch(1, 10, 50) * poch(1, 40, 50)
           / (poch(1, 20, 50) ** 2 * poch(1, 30, 50) ** 2))),
    ),
    9: (
        (T(poch(1, 10, 50) * poch(1, 40, 50) * poch(1, 50, 50) * poch(1, 25, 25)
           / (poch(1, 20, 50) ** 2 * poch(1, 30, 50) ** 2 * poch(1, 5, 50) * poch(1, 45, 50)
              * poch(-1, 25, 25))),
         T(poch(-1, 10, 25) * poch(-1, 15, 25) * poch(1, 25, 25) * poch(1, 5, 50)
           * poch(1, 45, 50) * poch(1, 50, 50)
           / (poch(1, 10, 25) * poch(1, 15, 25) * poch(-1, 25, 25)))),
        (T(2 * poch(1, 50, 50) ** 2 * poch(1, 15, 50) * poch(1, 35, 50)
           / (poch(1, 10, 25) * poch(1, 15, 25))),),
    ),
}


def verify_check(idx: int) -> Sides:
    """One of the ten coefficient identities extracted from the polynomial
    comparison of the two Sbar routes (all in base q^25/q^50, with y = q^5)."""
    return CHECK_TABLE[idx]
