"""Identity registry: stable ids mapped to checks, plus the deterministic
suite runner.

The registry is a table with one row per identity: an id, the statement
(anchor), a default truncation order, a tier, and a check bound to its
arguments that builds both sides at a requested order.  The registry alone
compares the sides and sets each report's id, runtime and notes.  Sampled
entries draw monomial instantiations from a seeded generator (override the
seed with the OVERRANK_SEED environment variable); the seed is recorded in the
report notes so sampled runs are reproducible.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Sequence

from . import combinat, lambert, products, rankdiff
from .combinat import nbar, nbar_class, rank_table
from .errors import BadArgument, UnknownIdentity
from .lambert import lambert_sum, s_bar, theta
from .products import P, Product, SignedMonomial as SM, poch, triple_product
from .report import IdentityReport, compare, merge
from .series import LaurentSeries, Sides, extract_progression

DEFAULT_SEED = 271828

N0_NOTE = ("n=0 convention: the analytic series has constant term 0, enumeration "
           "counts the empty overpartition once; compared for n >= 1")


@dataclass(frozen=True)
class IdentityEntry:
    id: str
    anchor: str
    default_order: int
    tier: str  # product | lambert | oracle | combination
    build: Callable[[int], IdentityReport] = field(repr=False, compare=False)


def _seed_base() -> int:
    env = os.environ.get("OVERRANK_SEED")
    return int(env) if env else DEFAULT_SEED


def _rng(entry_id: str) -> random.Random:
    return random.Random(f"{_seed_base()}:{entry_id}")


def _seed_note() -> str:
    return f"seed={_seed_base()}"


# ----------------------------------------------------------------------
# builds: each binds a check to its arguments and maps an order to a report
# ----------------------------------------------------------------------


def _check(check: Callable[..., Sides], *args) -> Callable[[int], IdentityReport]:
    """Compare the two sides that check(*args, order) returns."""
    return lambda order: compare(*check(*args, order))


def _pair(lhs: Callable[[int], LaurentSeries], rhs: Callable[[int], LaurentSeries],
          notes: str = "") -> Callable[[int], IdentityReport]:
    """Compare lhs(order) against rhs(order); lhs is built first."""
    return lambda order: compare(lhs(order), rhs(order), notes)


def _sampled(entry_id: str, check: Callable[..., Sides],
             draw: Callable[[random.Random], tuple], n: int) -> Callable[[int], IdentityReport]:
    """Merge n comparisons of check(*draw(rng), order) over the entry's seeded
    generator."""
    def build(order: int) -> IdentityReport:
        rng = _rng(entry_id)
        parts = [compare(*check(*draw(rng), order)) for _ in range(n)]
        return replace(merge(parts), notes=_seed_note())
    return build


# draws: the order of the rng calls fixes the sampled instantiations

def _mono(rng: random.Random, lo: int, hi: int) -> SM:
    """+-q^e with lo <= e <= hi, sign drawn first."""
    return SM(rng.choice((1, -1)), rng.randint(lo, hi))


def _draw_z(*bases: int) -> Callable[[random.Random], tuple]:
    """(z, base): base from `bases`, then z = +-q^e with 0 < e < base."""
    def draw(rng: random.Random) -> tuple:
        base = rng.choice(bases)
        return _mono(rng, 1, base - 1), base
    return draw


def _draw_jtp(rng: random.Random) -> tuple:
    base = rng.randint(1, 4)
    return _mono(rng, 0, base), base


def _draw_sigma_shift(rng: random.Random) -> tuple:
    base = rng.choice((3, 5, 7))
    ez = rng.randint(1, base - 1)  # z's exponent is drawn before its sign
    z = SM(rng.choice((1, -1)), ez)
    return z, _mono(rng, 0, base - 1), base


def _draw_lemma41(rng: random.Random, base: int = 7) -> tuple:
    """(zeta, z, base); exponent pairs with ez = +-ec (mod base) are redrawn."""
    while True:
        ec = rng.randint(1, base - 1)
        ez = rng.randint(1, base - 1)
        if (ez - ec) % base and (ez + ec) % base:
            return SM(rng.choice((1, -1)), ec), SM(rng.choice((1, -1)), ez), base


def _counted_series(count, order: int, start: int = 1) -> LaurentSeries:
    # largest n first, so the counting table is built once at full size
    return LaurentSeries.from_terms({n: count(n) for n in range(order - 1, start - 1, -1)},
                                    order)


def _jtp(z: SM, base: int, order: int) -> Sides:
    return theta(z, base, order), triple_product(z, base, order)


def _p_triple_product(s: int, e: int, ell: int, order: int) -> LaurentSeries:
    """P(s*q^e, q^ell) (q^ell; q^ell) by Jacobi's triple product, the sum of
    (-s)^n q^(ell n(n-1)/2 + en) over all n, with nothing of ``products``.

    It is built in x = q^(1/2), where every exponent ell n(n-1) + 2en is
    even, and its even part is taken; a Laurent sum is shifted up first."""
    x = lambert_sum(ell, 2 * e - ell, -s, [], 2 * order)
    up = max(0, -x.min_exp)
    return extract_progression(x.shift(up), 2, 0).shift(-up // 2)


def _p_relation(rel: str, ell: int, order: int) -> IdentityReport:
    """The P relations at z = +-q^a (p1, p2) or z = q^a (p3, p4), 0 < a < ell:
    each ``Product`` form of one P value that the relation lists, times
    (q^ell; q^ell), against the triple-product sum of that value.  Forms
    that P's exponent reduction makes equal as ``Product`` values are one
    series, compared once."""
    euler = poch(1, ell, ell)
    parts = []
    for a in range(1, ell):
        for s in ((1, -1) if rel in ("p1", "p2") else (1,)):
            if rel in ("p1", "p3"):  # P(q^ell / z) = P(z) at z = s q^a
                e, forms = a, [P(s, ell - a, ell), P(s, a, ell)]
            elif rel == "p2":  # P(zq) = -z^-1 P(z) at z = s q^a
                e, forms = a + ell, [P(s, a + ell, ell), Product(-s, -a) * P(s, a, ell)]
            else:  # p4: P(q^-a) = P(q^(ell+a)) = -y^-a P(a)
                e, forms = -a, [P(1, -a, ell), P(1, ell + a, ell), Product(-1, -a) * P(1, a, ell)]
            rhs = _p_triple_product(s, e, ell, order)
            parts += [compare((form * euler).expand(order), rhs) for form in set(forms)]
    return merge(parts)


def _half_minus_ratio(order: int) -> LaurentSeries:
    """1/2 - (q;q)/(2(-q;q))."""
    return LaurentSeries.monomial(Fraction(1, 2), 0, order) - rankdiff._HALF_RATIO.expand(order)


def _neg_s_bar(b: int, ell: int, order: int) -> LaurentSeries:
    return -s_bar(b, ell, order)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

_PBAR_ANCHOR = "sum pbar(n) q^n = (-q;q)/(q;q)"
_BRK = "(q;q)(-q^L;q^L)/((-q;q)(q^L;q^L))"


def _entries() -> List[IdentityEntry]:
    E = IdentityEntry
    out: List[IdentityEntry] = []

    # counting oracle vs analytic generating functions
    out.append(E("oracle.pbar", _PBAR_ANCHOR, 31, "oracle",
                 _pair(combinat.pbar_series,
                       partial(_counted_series, lambda n: rank_table(n).total(), start=0))))
    for m in (0, 1, 2):
        out.append(E(f"gen@m={m}",
                     "sum Nbar(m,n) q^n = 2(-q;q)/(q;q) sum_{n>=1} (-1)^(n-1) "
                     "q^(n^2+|m|n)(1-q^n)/(1+q^n)",
                     31, "oracle",
                     _pair(partial(combinat.nbar_series, m),
                           partial(_counted_series, partial(nbar, m)), notes=N0_NOTE)))
    for s, m in ((0, 3), (1, 3), (0, 5), (1, 5), (2, 5)):
        out.append(E(f"gen1@s={s},m={m}",
                     "sum Nbar(s,m,n) q^n = 2(-q;q)/(q;q) sum'_n (-1)^n q^(n^2+n)"
                     "(q^(sn)+q^((m-s)n)) / ((1+q^n)(1-q^(mn)))",
                     31, "oracle",
                     _pair(partial(combinat.nbar_class_series, s, m),
                           partial(_counted_series, partial(nbar_class, s, m)),
                           notes=N0_NOTE)))

    # the thirteen dissected rank differences
    anchors = {
        (3, 0, 1, 0): "R01(0) = -1 + (q^3;q^3)^2 (-q;q) / ((q;q)(-q^3;q^3)^2)",
        (3, 0, 1, 1): "R01(1) = 2 (q^3;q^3)(q^6;q^6) / (q;q)",
        (3, 0, 1, 2): "R01(2) = 4 (-q^3;q^3)^2 (q^6;q^6)^2/(q^2;q^2)"
                      " - 6 (-q^3;q^3)/(q^3;q^3) Sum(q,1,q^3)",
        (5, 1, 2, 0): "R12(0) = 2q (q^10;q^10) / (q^3,q^4,q^6,q^7;q^10)",
        (5, 1, 2, 1): "R12(1) = -2q (-q^5;q^5)/(q^5;q^5) Sum(q^2,1,q^5)",
        (5, 1, 2, 2): "R12(2) = 2 (q^10;q^10) / (q,q^4;q^5)",
        (5, 1, 2, 3): "R12(3) = -2 (q^10;q^10) / (q^2,q^3;q^5)",
        (5, 1, 2, 4): "R12(4) = 6 (-q^5;q^5)/(q^5;q^5) Sum(q,1,q^5)"
                      " - 4 (q^2,q^8,q^10;q^10) / ((q^4,q^6;q^10)^2 (q,q^9;q^10))",
        (5, 0, 2, 0): "R02(0) = -1 + (-q^2,-q^3;q^5)(q^5;q^5) / ((q^2,q^3;q^5)(-q^5;q^5))",
        (5, 0, 2, 1): "R02(1) = 2 (q^4,q^6,q^10;q^10)/((q^2,q^8;q^10)^2 (q^3,q^7;q^10))"
                      " + 4q (-q^5;q^5)/(q^5;q^5) Sum(q^2,1,q^5)",
        (5, 0, 2, 2): "R02(2) = 0",
        (5, 0, 2, 3): "R02(3) = 2 (q^10;q^10) / (q^2,q^3;q^5)",
        (5, 0, 2, 4): "R02(4) = 2 (q^2,q^8,q^10;q^10)/((q^4,q^6;q^10)^2 (q,q^9;q^10))"
                      " - 2 (-q^5;q^5)/(q^5;q^5) Sum(q,1,q^5)",
    }
    for (ell, s, t, d), anchor in anchors.items():
        key = rankdiff.RankDiffKey(ell, s, t, d)
        out.append(E(f"thm{ell}.{key.slug}", anchor, 40, "oracle",
                     _pair(partial(rankdiff.rank_diff_formula, key),
                           partial(rankdiff.rank_diff_oracle, key))))

    # triple product
    out.append(E("jtp@z=q^1,base=1", "sum z^n q^(n^2) = (-zq,-q/z,q^2;q^2)",
                 200, "product", _check(_jtp, SM(1, 1), 1)))
    out.append(E("jtp@z=-1,base=1", "sum (-1)^n q^(n^2) = (q;q)/(-q;q)",
                 200, "product", _check(_jtp, SM(-1, 0), 1)))
    out.append(E("jtp@sampled", "sum z^n q^(base n^2) = (-zq,-q/z,q^2;q^2) at q=q^base",
                 200, "product", _sampled("jtp@sampled", _jtp, _draw_jtp, 10)))

    # P relations
    rel_anchor = {
        "p1": "P(z^-1 q, q) = P(z, q)",
        "p2": "P(zq, q) = -z^-1 P(z, q)",
        "p3": "P(ell - a) = P(a)",
        "p4": "P(-a) = P(ell + a) = -y^-a P(a)",
    }
    for rel in ("p1", "p2", "p3", "p4"):
        for ell in (3, 5, 7):
            out.append(E(f"{rel}@ell={ell}", rel_anchor[rel], 200, "product",
                         partial(_p_relation, rel, ell)))

    # product dissections of (q;q)/(-q;q)
    out.append(E("lemma3.1.eq1",
                 "(q;q)/(-q;q) = (q^9;q^9)/(-q^9;q^9) - 2q (q^3,q^15,q^18;q^18)",
                 150, "product", _check(products.verify_lemma31, "eq1")))
    out.append(E("lemma3.1.eq2",
                 "(q;q)/(-q;q) = (q^25;q^25)/(-q^25;q^25) - 2q (q^15,q^35,q^50;q^50)"
                 " + 2q^4 (q^5,q^45,q^50;q^50)",
                 150, "product", _check(products.verify_lemma31, "eq2")))

    # two-term product identities (base q vs base q^2)
    hick_anchor = {
        "lemma32": "P(x,q)P(z,q)(q)^2 = P(-xz,q^2)P(-qz/x,q^2)(q^2)^2"
                   " - x P(-xzq,q^2)P(-z/x,q^2)(q^2)^2",
        "lemma33": "P(-x,q)P(z,q)(q)^2 - P(x,q)P(-z,q)(q)^2 = 2x P(z/x,q^2)P(xzq,q^2)(q^2)^2",
        "lemma34": "P(-x,q)P(z,q)(q)^2 + P(x,q)P(-z,q)(q)^2 = 2 P(xz,q^2)P(qz/x,q^2)(q^2)^2",
        "lemma35": "3P(-x,q)P(z,q)(q)^2 - P(x,q)P(-z,q)(q)^2 = 2P(xz,q^2)P(zq/x,q^2)(q^2)^2"
                   " + 4x P(xzq,q^2)P(z/x,q^2)(q^2)^2",
    }
    named_hick = [
        ("lemma32", SM(1, 5), SM(1, 10), 25, 300),
        ("lemma33", SM(-1, 5), SM(-1, 10), 25, 300),
        ("lemma33", SM(1, 5), SM(1, 10), 25, 300),
        ("lemma34", SM(1, 5), SM(1, 10), 25, 300),
        ("lemma35", SM(1, 5), SM(1, 10), 25, 300),
    ]
    for which, x, z, base, order in named_hick:
        out.append(E(f"lemma3.{which[-1]}@x={x},z={z},base={base}", hick_anchor[which], order,
                     "product", _check(products.verify_hickerson, which, x, z, base)))
    for which in ("lemma32", "lemma33", "lemma34", "lemma35"):
        eid = f"lemma3.{which[-1]}@sampled"
        out.append(E(eid, hick_anchor[which], 300, "product",
                     _sampled(eid, partial(products.verify_hickerson, which),
                              lambda rng: (_mono(rng, 1, 10), _mono(rng, 1, 10), 11), 10)))

    # addition relation
    add_anchor = ("P^2(z)P(zeta t)P(zeta/t) - P^2(zeta)P(zt)P(z/t)"
                  " + (zeta/t)P^2(t)P(z zeta)P(z/zeta) = 0")
    out.append(E("lemma3.6@z=q^20,zeta=q^10,t=q^5,base=50", add_anchor, 400, "product",
                 _check(products.verify_addition, SM(1, 20), SM(1, 10), SM(1, 5), 50)))
    out.append(E("lemma3.6@z=q^20,zeta=q^15,t=q^10,base=50", add_anchor, 400, "product",
                 _check(products.verify_addition, SM(1, 20), SM(1, 15), SM(1, 10), 50)))
    out.append(E("lemma3.6@sampled", add_anchor, 300, "product",
                 _sampled("lemma3.6@sampled", products.verify_addition,
                          lambda rng: (_mono(rng, 1, 12), _mono(rng, 1, 12),
                                       _mono(rng, 1, 12), 13), 10)))

    # Sbar closed form and reflection
    for ell in (3, 5):
        out.append(E(f"lemma2.1@ell={ell}", "Sbar(ell) = 1/2 - (q;q)/(2(-q;q))",
                     200, "lambert", _pair(partial(s_bar, ell, ell), _half_minus_ratio)))
        for b in range(1, ell + 1):
            out.append(E(f"rels@b={b},ell={ell}", "Sbar(b) = -Sbar(ell-b)",
                         200, "lambert",
                         _pair(partial(s_bar, b, ell), partial(_neg_s_bar, ell - b, ell))))

    # shift / reflection identities for the bilateral sums
    out.append(E("sigma-shift@sampled",
                 "z^2 Sum(z,zeta,q) + zeta Sum(zq,zeta,q) = "
                 "-sum (-1)^n zeta^n q^(n(n-1))(1+zq^n)",
                 150, "lambert", _sampled("sigma-shift@sampled", lambert.check_sigma_shift,
                                          _draw_sigma_shift, 6)))
    out.append(E("step@z=q^2,base=7", "z^2 Sum(z,1,q) + Sum(zq,1,q) = -z (q;q)/(-q;q)",
                 200, "lambert", _check(lambert.check_step, SM(1, 2), 7)))
    out.append(E("step@sampled", "z^2 Sum(z,1,q) + Sum(zq,1,q) = -z (q;q)/(-q;q)",
                 150, "lambert",
                 _sampled("step@sampled", lambert.check_step, _draw_z(3, 5, 7), 6)))
    out.append(E("short@sampled",
                 "Sum(z,1,q) + z^-2 Sum(z^-1,1,q) = -z^-1 sum (-1)^n q^(n^2)",
                 150, "lambert",
                 _sampled("short@sampled", lambert.check_short, _draw_z(3, 5, 7), 6)))

    # bilateral two-pole identity and its specializations
    l41_anchor = ("sum (-1)^n q^(n^2+n)[zeta^-2n/(1-z zeta^-1 q^n)"
                  " + zeta^(2n+2)/(1-z zeta q^n)] = zeta P(zeta^2)P(-1)/(P(zeta)P(-zeta))"
                  " Sum(z,1,q) + P(zeta)P(zeta^2)P(-z)(q)^2/(P(z)P(z zeta)P(z/zeta)P(-zeta))")
    out.append(E("lemma4.1@zeta=q^1,z=q^2,base=5", l41_anchor, 300, "lambert",
                 _check(lambert.verify_lemma41, SM(1, 1), SM(1, 2), 5)))
    out.append(E("lemma4.1@zeta=q^2,z=q^1,base=5", l41_anchor, 300, "lambert",
                 _check(lambert.verify_lemma41, SM(1, 2), SM(1, 1), 5)))
    out.append(E("lemma4.1@zeta=-q^1,z=q^1,base=3", l41_anchor, 200, "lambert",
                 _check(lambert.verify_lemma41, SM(-1, 1), SM(1, 1), 3)))
    out.append(E("lemma4.1@sampled", l41_anchor, 200, "lambert",
                 _sampled("lemma4.1@sampled", lambert.verify_lemma41, _draw_lemma41, 10)))

    # the second key identity and the g-function relations
    part1_anchor = ("2g(z,q) - g(z^2,q) + 1/2 = (q)^2 P(-z^4)/(P(z^4)P(-1))"
                    " + z P(-1)^2 (q)^2 P(z^2)/(P(z)^2 P(-z)^2)")
    out.append(E("part1@z=q^1,base=5", part1_anchor, 300, "lambert",
                 _check(lambert.check_part1, SM(1, 1), 5)))
    out.append(E("part1@z=q^1,base=3", part1_anchor, 200, "lambert",
                 _check(lambert.check_part1, SM(1, 1), 3)))
    out.append(E("part1@sampled", part1_anchor, 150, "lambert",
                 _sampled("part1@sampled", lambert.check_part1, _draw_z(5, 7), 6)))
    for a, ell in ((1, 3), (1, 5), (2, 5)):
        out.append(E(f"g2@a={a},ell={ell}", "g(a) + g(ell-a) = 1", 200, "lambert",
                     _check(lambert.check_g2, a, ell)))
        out.append(E(f"g1@a={a},ell={ell}",
                     "2g(a) - g(2a) + 1/2 = P(-y^4a)P(0)^2/(P(4a)P(-1))"
                     " + y^a P(-1)^2 P(0)^2 P(2a)/(P(a)^2 P(-y^a)^2)",
                     300, "lambert", _check(lambert.check_part1, SM(1, a), ell)))
    out.append(E("constant@z=q^1,base=3", "g(z,q) - g(zq,q) = -2", 200, "lambert",
                 _check(lambert.check_constant, SM(1, 1), 3)))
    out.append(E("constant@sampled", "g(z,q) - g(zq,q) = -2", 150, "lambert",
                 _sampled("constant@sampled", lambert.check_constant, _draw_z(3, 5), 5)))
    out.append(E("gees@z=q^1,base=5", "g(z^-1,q) + g(z,q) = -1", 200, "lambert",
                 _check(lambert.check_gees, SM(1, 1), 5)))
    out.append(E("gees@sampled", "g(z^-1,q) + g(z,q) = -1", 150, "lambert",
                 _sampled("gees@sampled", lambert.check_gees, _draw_z(3, 5), 5)))

    # Sbar(ell-2m) decompositions and the Sum(m,0)-coefficient brackets
    for ell, m in ((3, 1), (5, 2), (5, 1)):
        spec = rankdiff.FinalFormSpec(ell, m)
        out.append(E(f"sbdecomp@ell={ell},m={m}",
                     "Sbar(ell-2m) = (-1)^m q^(m(ell-m)) Sum(m,0) + Sum(0,-2m)"
                     " + y^2m Sum(2m,2m) + sum''_a (-1)^(m+a) q^((a+m)(a-m+ell))"
                     " [Sum(m+a,2a) + y^-2a Sum(m-a,-2a)]",
                     150, "combination",
                     _pair(partial(s_bar, ell - 2 * m, ell),
                           partial(rankdiff.s_bar_b_decomposition, spec))))
        out.append(E(f"final@ell={ell},m={m}",
                     "Sbar(ell-2m) = -g(m) + sum''_a (product term) + Sum(m,0){bracket}",
                     150, "combination",
                     _pair(partial(s_bar, ell - 2 * m, ell),
                           partial(rankdiff.s_bar_final_form, spec))))
    out.append(E("bracket@ell=3,m=1", "{ } = -q^2 " + _BRK + ", L=9", 200,
                 "combination", _check(rankdiff.brackets, rankdiff.FinalFormSpec(3, 1))))
    out.append(E("bracket@ell=5,m=2", "{ } = q^6 " + _BRK + ", L=25", 300,
                 "combination", _check(rankdiff.brackets, rankdiff.FinalFormSpec(5, 2))))
    out.append(E("bracket@ell=5,m=1", "{ } = -q^4 " + _BRK + ", L=25", 300,
                 "combination", _check(rankdiff.brackets, rankdiff.FinalFormSpec(5, 1))))
    out.append(E("s1too", "Sbar(1) = -g(1) - q^2 Sum(1,0) " + _BRK + " (ell=3, L=9)",
                 150, "combination", _check(rankdiff.verify_sbar_closed, "s1too")))
    out.append(E("s1", "Sbar(1) = -g(2) + qy Sum(2,0) " + _BRK + " - q^2 (q^25;q^25)^2"
                 "(-q^10,-q^15;q^25)/((q^10,q^15;q^25)(-q^5,-q^20;q^25)) (ell=5, L=25)",
                 150, "combination", _check(rankdiff.verify_sbar_closed, "s1")))
    out.append(E("s3", "Sbar(3) = -g(1) - q^4 Sum(1,0) " + _BRK + " + q^3 (q^25;q^25)^2"
                 "(-q^5,-q^20;q^25)/((q^5,q^20;q^25)(-q^10,-q^15;q^25)) (ell=5, L=25)",
                 150, "combination", _check(rankdiff.verify_sbar_closed, "s3")))

    # class-difference combinations, against both independent routes
    combo_anchor = {
        "ell3_01": "sum (Nbar(0,3,n)-Nbar(1,3,n)) q^n (q;q)/(2(-q;q)) = 3Sbar(1) + Sbar(3)",
        "ell5_12": "sum (Nbar(1,5,n)-Nbar(2,5,n)) q^n (q;q)/(2(-q;q)) = -Sbar(1) - 3Sbar(3)",
        "ell5_02": "sum (Nbar(0,5,n)-Nbar(2,5,n)) q^n (q;q)/(2(-q;q)) = "
                   "Sbar(5) + 2Sbar(1) + Sbar(3)",
    }
    for pair in ("ell3_01", "ell5_12", "ell5_02"):
        notes = ("Sbar(5) enters with coefficient +1 (the printed -1 fails at q^1)"
                 if pair == "ell5_02" else "")
        lhs = partial(rankdiff.combination_lhs, pair)
        out.append(E(f"combo.{pair}", combo_anchor[pair], 100, "combination",
                     _pair(lhs, partial(rankdiff.combination_rank_side, pair), notes=notes)))
        out.append(E(f"thmpoly.{pair}",
                     combo_anchor[pair] + "  [closed-form polynomial route]",
                     100, "combination",
                     _pair(lhs, partial(rankdiff.combination_theorem_side, pair))))

    # the ten coefficient identities (base q^25 / q^50, y = q^5)
    check_anchor = {
        0: "g(2) + 3g(1) = y (q^25;q^25)^2/(q^15,q^20,q^30,q^35;q^50) + 4y (q^10,q^15,"
           "q^35,q^40;q^50)(q^50;q^50)^2/((q^20,q^30;q^50)^2 (q^5,q^45;q^50))",
        1: "y (q^50;q^50)(q^15,q^35,q^50;q^50)/(q^15,q^20,q^30,q^35;q^50) = "
           "y (q^50;q^50)(q^5,q^45,q^50;q^50)/(q^5,q^20;q^25)",
        2: "(q^25)^2(-q^10,-q^15;q^25)/((q^10,q^15;q^25)(-q^5,-q^20;q^25)) = "
           "(q^25)^2/(q^5,q^20;q^25) - 2y (q^50)^2(q^5,q^45;q^50)/(q^10,q^15;q^25)",
        3: "3(q^25)^2(-q^5,-q^20;q^25)/((q^5,q^20;q^25)(-q^10,-q^15;q^25)) = "
           "(q^25)^2/(q^10,q^15;q^25) + 2(q^50)^2(q^15,q^35;q^50)/(q^5,q^20;q^25)"
           " + 4y (q^10,q^40;q^50)(q^50)^2/(q^20,q^30;q^50)^2",
        4: "(q^10,q^40,q^50;q^50)(q^25;q^25)/((q^20,q^30;q^50)^2(q^5,q^45;q^50)"
           "(-q^25;q^25)) = (q^50)^2(q^15,q^35;q^50)/(q^10,q^15;q^25)"
           " + y (q^50)^2(q^5,q^45;q^50)/(q^15,q^20,q^30,q^35;q^50)",
        5: "1/2 - 2g(2) - g(1) = (1/2)(-q^10,-q^15;q^25)(q^25)^2/((q^10,q^15;q^25)"
           "(-q^25;q^25)^2) - 2y(q^10,q^40;q^50)(q^15,q^35;q^50)(q^50)^2/((q^20,q^30;"
           "q^50)^2(q^5,q^45;q^50)) + 2y(q^20,q^30;q^50)(q^5,q^45;q^50)(q^50)^2/"
           "((q^10,q^40;q^50)^2(q^15,q^35;q^50))",
        6: "(q^20,q^30,q^50;q^50)(q^25;q^25)/((q^10,q^40;q^50)^2(q^15,q^35;q^50)"
           "(-q^25;q^25)) = (-q^10,-q^15;q^25)(q^25;q^25)(q^15,q^35,q^50;q^50)/"
           "((q^10,q^15;q^25)(-q^25;q^25))",
        7: "(q^25)^2(-q^10,-q^15;q^25)/((-q^5,-q^20;q^25)(q^10,q^15;q^25)) = "
           "(q^50)^2(q^20,q^30;q^50)/(q^10,q^40;q^50)^2 - y(q^50)^2(q^5,q^45;q^50)/"
           "(q^10,q^15;q^25)",
        8: "(q^25)^2(-q^5,-q^20;q^25)/((-q^10,-q^15;q^25)(q^5,q^20;q^25)) = "
           "(q^25)^2/(q^10,q^15;q^25) + 2y(q^50)^2(q^10,q^40;q^50)/(q^20,q^30;q^50)^2",
        9: "(q^10,q^40,q^50;q^50)(q^25;q^25)/((q^20,q^30;q^50)^2(q^5,q^45;q^50)"
           "(-q^25;q^25)) + (-q^10,-q^15;q^25)(q^25;q^25)(q^5,q^45,q^50;q^50)/"
           "((q^10,q^15;q^25)(-q^25;q^25)) = 2(q^50)^2(q^15,q^35;q^50)/(q^10,q^15;q^25)",
    }
    for i in range(10):
        tier = "lambert" if i in (0, 5) else "product"
        out.append(E(f"check{i}", check_anchor[i], 400, tier,
                     _check(rankdiff.verify_check, i)))

    return out


_REGISTRY: Dict[str, IdentityEntry] = {}


def _registry() -> Dict[str, IdentityEntry]:
    global _REGISTRY
    if not _REGISTRY:
        entries = _entries()
        ids = [e.id for e in entries]
        if len(ids) != len(set(ids)):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise RuntimeError(f"duplicate registry ids: {dupes}")
        _REGISTRY = {e.id: e for e in entries}
    return _REGISTRY


def list_identities() -> List[IdentityEntry]:
    """All registry entries in deterministic id order."""
    return sorted(_registry().values(), key=lambda e: e.id)


def _run(entry: IdentityEntry, order: int) -> IdentityReport:
    """Build the entry's report, timed; a check that compared fewer than
    `order` coefficients is a failure, whatever it found."""
    t0 = time.perf_counter()
    report = entry.build(order)
    ms = int((time.perf_counter() - t0) * 1000)
    if report.checked_order < order:
        short = f"short check: {report.checked_order} of {order} coefficients compared"
        report = replace(report, ok=False,
                         notes="; ".join(n for n in (report.notes, short) if n))
    return replace(report, id=entry.id, runtime_ms=ms)


def check_order(order: int) -> None:
    """Raise ``BadArgument`` for an order below 1, or above ``sys.maxsize``,
    past which no series of that length can be indexed."""
    if order < 1:
        raise BadArgument(f"order must be at least 1, got {order}")
    if order > sys.maxsize:
        raise BadArgument(f"order must be at most {sys.maxsize}, got {order}")


def verify(id: str, order: int) -> IdentityReport:
    """Run one identity check at the given truncation order (``check_order``)."""
    reg = _registry()
    if id not in reg:
        raise UnknownIdentity(f"no identity with id {id!r}")
    check_order(order)
    return _run(reg[id], order)


def run_suite(order_scale: float = 1.0) -> List[IdentityReport]:
    """Verify every entry at int(default_order * order_scale), in id order.

    The scale must leave every entry at an order ``check_order`` accepts.  A
    failure inside one entry is reported as that entry's failure; the run
    goes on.
    """
    if not (order_scale > 0 and math.isfinite(order_scale)):
        raise BadArgument(f"order scale must be positive and finite, got {order_scale}")
    entries = list_identities()
    low = min(entries, key=lambda e: e.default_order)
    if int(low.default_order * order_scale) < 1:
        raise BadArgument(f"order scale {order_scale} puts {low.id} (default order "
                          f"{low.default_order}) below order 1")
    high = max(entries, key=lambda e: e.default_order)
    if int(high.default_order * order_scale) > sys.maxsize:
        raise BadArgument(f"order scale {order_scale} puts {high.id} (default order "
                          f"{high.default_order}) above order {sys.maxsize}")
    reports = []
    for entry in entries:
        try:
            reports.append(_run(entry, int(entry.default_order * order_scale)))
        except Exception as exc:  # a broken entry must not sink the suite
            reports.append(IdentityReport(id=entry.id, ok=False, checked_order=0,
                                          notes=f"error: {type(exc).__name__}: {exc}"))
    return reports


def reports_json(reports: Sequence[IdentityReport], stable: bool = False) -> str:
    """Canonical JSON for a report list; stable=True zeroes runtimes so two
    identical runs serialize to identical bytes."""
    payload = [r.to_json_dict(include_runtime=not stable) for r in reports]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
