"""Identity registry: stable ids mapped to verification closures, plus the
deterministic suite runner.

Every entry evaluates both sides of one identity at a requested truncation
order and reports the first mismatching coefficient, if any.  Sampled entries
draw monomial instantiations from a seeded generator (override the seed with
the OVERRANK_SEED environment variable); the seed is recorded in the report
notes so sampled runs are reproducible.
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from . import combinat, lambert, products, rankdiff
from .combinat import nbar, nbar_class, rank_table
from .errors import BadArgument, UnknownIdentity
from .lambert import s_bar
from .products import SignedMonomial as SM, p_mono, theta, triple_product
from .report import IdentityReport, compare, merge
from .series import LaurentSeries

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
# builders
# ----------------------------------------------------------------------


def _counted_series(count, order: int, start: int = 1) -> LaurentSeries:
    # largest n first, so the counting table is built once at full size
    return LaurentSeries.from_terms({n: count(n) for n in range(order - 1, start - 1, -1)},
                                    order)


def _build_pbar(order: int) -> IdentityReport:
    series = combinat.pbar_series(order)
    counted = _counted_series(lambda n: rank_table(n).total(), order, start=0)
    return compare("oracle.pbar", series, counted)


def _build_gen(m: int):
    def build(order: int) -> IdentityReport:
        return compare(f"gen@m={m}", combinat.nbar_series(m, order),
                       _counted_series(lambda n: nbar(m, n), order), start=1, notes=N0_NOTE)
    return build


def _build_gen1(s: int, m: int):
    def build(order: int) -> IdentityReport:
        return compare(f"gen1@s={s},m={m}", combinat.nbar_class_series(s, m, order),
                       _counted_series(lambda n: nbar_class(s, m, n), order), start=1,
                       notes=N0_NOTE)
    return build


def _build_thm(key: rankdiff.RankDiffKey):
    def build(order: int) -> IdentityReport:
        lhs = rankdiff.rank_diff_formula(key, order)
        rhs = rankdiff.rank_diff_oracle(key, order)
        return compare(f"thm{key.ell}.{key.slug}", lhs, rhs)
    return build


def _build_jtp(z: SM, base: int):
    def build(order: int) -> IdentityReport:
        return compare(f"jtp@z={z},base={base}", theta(z, base, order),
                       triple_product(z, base, order))
    return build


def _build_jtp_sampled(entry_id: str):
    def build(order: int) -> IdentityReport:
        rng = _rng(entry_id)
        parts = []
        for _ in range(10):
            base = rng.randint(1, 4)
            z = SM(rng.choice((1, -1)), rng.randint(0, base))
            parts.append(compare(f"z={z},base={base}", theta(z, base, order),
                                 triple_product(z, base, order)))
        return merge(entry_id, parts).with_notes(_seed_note())
    return build


def _build_p_relation(rel: str, ell: int):
    def build(order: int) -> IdentityReport:
        parts = []
        for a in range(1, ell):
            for s in (1, -1):
                if rel == "p1":
                    lhs = p_mono(s, ell - a, ell, order)
                    rhs = p_mono(s, a, ell, order)
                elif rel == "p2":
                    lhs = p_mono(s, a + ell, ell, order)
                    rhs = p_mono(s, a, ell, order).shift(-a).scale(-s).truncate(order)
                elif rel == "p3":
                    if s == -1:
                        continue  # index form is defined for positive arguments
                    lhs = p_mono(1, ell - a, ell, order)
                    rhs = p_mono(1, a, ell, order)
                elif rel == "p4":
                    if s == -1:
                        continue
                    lhs = p_mono(1, -a, ell, order)
                    mid = p_mono(1, ell + a, ell, order)
                    rhs = p_mono(1, a, ell, order).shift(-a).scale(-1).truncate(order)
                    parts.append(compare(f"a={a}.left", lhs, mid))
                    parts.append(compare(f"a={a}.right", lhs, rhs))
                    continue
                else:
                    raise ValueError(rel)
                parts.append(compare(f"a={a},s={s}", lhs, rhs))
        return merge(f"{rel}@ell={ell}", parts)
    return build


def _build_lemma31(variant: str):
    return lambda order: products.verify_lemma31(variant, order)


def _build_hickerson(which: str, x: SM, z: SM, base: int):
    def build(order: int) -> IdentityReport:
        r = products.verify_hickerson(which, x, z, base, order)
        return r.with_id(_hick_id(which, x, z, base))
    return build


def _hick_id(which: str, x: SM, z: SM, base: int) -> str:
    num = {"lemma32": "3.2", "lemma33": "3.3", "lemma34": "3.4", "lemma35": "3.5"}[which]
    return f"lemma{num}@x={x},z={z},base={base}"


def _build_hickerson_sampled(which: str, entry_id: str, base: int = 11):
    def build(order: int) -> IdentityReport:
        rng = _rng(entry_id)
        parts = []
        for _ in range(10):
            x = SM(rng.choice((1, -1)), rng.randint(1, base - 1))
            z = SM(rng.choice((1, -1)), rng.randint(1, base - 1))
            parts.append(products.verify_hickerson(which, x, z, base, order))
        return merge(entry_id, parts).with_notes(_seed_note())
    return build


def _build_addition(z: SM, zeta: SM, t: SM, base: int):
    return lambda order: products.verify_addition(z, zeta, t, base, order)


def _build_addition_sampled(entry_id: str, base: int = 13):
    def build(order: int) -> IdentityReport:
        rng = _rng(entry_id)
        parts = []
        for _ in range(10):
            z = SM(rng.choice((1, -1)), rng.randint(1, base - 1))
            zeta = SM(rng.choice((1, -1)), rng.randint(1, base - 1))
            t = SM(rng.choice((1, -1)), rng.randint(1, base - 1))
            parts.append(products.verify_addition(z, zeta, t, base, order))
        return merge(entry_id, parts).with_notes(_seed_note())
    return build


def _build_lemma21(ell: int):
    def build(order: int) -> IdentityReport:
        from fractions import Fraction
        lhs = s_bar(ell, ell, order)
        ratio = products._poch_raw(1, 1, 1, order) / products._poch_raw(-1, 1, 1, order)
        rhs = ratio.scale(Fraction(-1, 2)) + LaurentSeries.monomial(Fraction(1, 2), 0, order)
        return compare(f"lemma2.1@ell={ell}", lhs, rhs)
    return build


def _build_rels(b: int, ell: int):
    def build(order: int) -> IdentityReport:
        return compare(f"rels@b={b},ell={ell}", s_bar(b, ell, order),
                       -s_bar(ell - b, ell, order))
    return build


def _build_sigma_shift_sampled(entry_id: str):
    def build(order: int) -> IdentityReport:
        rng = _rng(entry_id)
        parts = []
        for _ in range(6):
            base = rng.choice((3, 5, 7))
            ez = rng.randint(1, base - 1)
            z = SM(rng.choice((1, -1)), ez)
            zeta = SM(rng.choice((1, -1)), rng.randint(0, base - 1))
            parts.append(lambert.check_sigma_shift(z, zeta, base, order))
        return merge(entry_id, parts).with_notes(_seed_note())
    return build


def _build_step(z: SM, base: int):
    return lambda order: lambert.check_step(z, base, order)


def _build_simple_sampled(entry_id: str, check, n_samples: int = 6, bases=(3, 5, 7)):
    """Sampled runs of a check(z, base, order) identity over admissible monomials."""
    def build(order: int) -> IdentityReport:
        rng = _rng(entry_id)
        parts = []
        for _ in range(n_samples):
            base = rng.choice(bases)
            z = SM(rng.choice((1, -1)), rng.randint(1, base - 1))
            parts.append(check(z, base, order))
        return merge(entry_id, parts).with_notes(_seed_note())
    return build


def _build_lemma41(zeta: SM, z: SM, base: int):
    return lambda order: lambert.verify_lemma41(zeta, z, base, order)


def _build_lemma41_sampled(entry_id: str, base: int = 7):
    def build(order: int) -> IdentityReport:
        rng = _rng(entry_id)
        parts = []
        tries = 0
        while len(parts) < 10 and tries < 200:
            tries += 1
            ec = rng.randint(1, base - 1)
            ez = rng.randint(1, base - 1)
            if (ez - ec) % base == 0 or (ez + ec) % base == 0:
                continue
            zeta = SM(rng.choice((1, -1)), ec)
            z = SM(rng.choice((1, -1)), ez)
            parts.append(lambert.verify_lemma41(zeta, z, base, order))
        return merge(entry_id, parts).with_notes(_seed_note())
    return build


def _build_part1(z: SM, base: int):
    return lambda order: lambert.check_part1(z, base, order)


def _build_g2(a: int, ell: int):
    return lambda order: lambert.check_g2(a, ell, order)


def _build_g1(a: int, ell: int):
    return lambda order: lambert.check_g1(a, ell, order)


def _build_constant(z: SM, base: int):
    return lambda order: lambert.check_constant(z, base, order)


def _build_gees(z: SM, base: int):
    return lambda order: lambert.check_gees(z, base, order)


def _build_sbdecomp(spec: rankdiff.FinalFormSpec):
    def build(order: int) -> IdentityReport:
        lhs = s_bar(spec.ell - 2 * spec.m, spec.ell, order)
        rhs = rankdiff.s_bar_b_decomposition(spec, order)
        return compare(f"sbdecomp@ell={spec.ell},m={spec.m}", lhs, rhs)
    return build


def _build_final(spec: rankdiff.FinalFormSpec):
    def build(order: int) -> IdentityReport:
        lhs = s_bar(spec.ell - 2 * spec.m, spec.ell, order)
        rhs = rankdiff.s_bar_final_form(spec, order)
        return compare(f"final@ell={spec.ell},m={spec.m}", lhs, rhs)
    return build


def _build_bracket(spec: rankdiff.FinalFormSpec):
    return lambda order: rankdiff.brackets(spec, order)


def _build_sbar_closed(which: str):
    return lambda order: rankdiff.verify_sbar_closed(which, order)


def _build_combo(pair: str, notes: str = ""):
    def build(order: int) -> IdentityReport:
        lhs = rankdiff.combination_lhs(pair, order)
        rhs = rankdiff.combination_rank_side(pair, order)
        return compare(f"combo.{pair}", lhs, rhs, notes=notes)
    return build


def _build_thmpoly(pair: str):
    def build(order: int) -> IdentityReport:
        lhs = rankdiff.combination_lhs(pair, order)
        rhs = rankdiff.combination_theorem_side(pair, order)
        return compare(f"thmpoly.{pair}", lhs, rhs)
    return build


def _build_check(idx: int):
    return lambda order: rankdiff.verify_check(idx, order)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

_PBAR_ANCHOR = "sum pbar(n) q^n = (-q;q)/(q;q)"
_BRK = "(q;q)(-q^L;q^L)/((-q;q)(q^L;q^L))"


def _entries() -> List[IdentityEntry]:
    E = IdentityEntry
    out: List[IdentityEntry] = []

    # enumeration oracle vs analytic generating functions
    out.append(E("oracle.pbar", _PBAR_ANCHOR, 31, "oracle", _build_pbar))
    for m in (0, 1, 2):
        out.append(E(f"gen@m={m}",
                     "sum Nbar(m,n) q^n = 2(-q;q)/(q;q) sum_{n>=1} (-1)^(n-1) "
                     "q^(n^2+|m|n)(1-q^n)/(1+q^n)",
                     31, "oracle", _build_gen(m)))
    for s, m in ((0, 3), (1, 3), (0, 5), (1, 5), (2, 5)):
        out.append(E(f"gen1@s={s},m={m}",
                     "sum Nbar(s,m,n) q^n = 2(-q;q)/(q;q) sum'_n (-1)^n q^(n^2+n)"
                     "(q^(sn)+q^((m-s)n)) / ((1+q^n)(1-q^(mn)))",
                     31, "oracle", _build_gen1(s, m)))

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
        out.append(E(f"thm{ell}.{key.slug}", anchor, 40, "oracle", _build_thm(key)))

    # triple product
    out.append(E("jtp@z=q^1,base=1", "sum z^n q^(n^2) = (-zq,-q/z,q^2;q^2)",
                 200, "product", _build_jtp(SM(1, 1), 1)))
    out.append(E("jtp@z=-1,base=1", "sum (-1)^n q^(n^2) = (q;q)/(-q;q)",
                 200, "product", _build_jtp(SM(-1, 0), 1)))
    out.append(E("jtp@sampled", "sum z^n q^(base n^2) = (-zq,-q/z,q^2;q^2) at q=q^base",
                 200, "product", _build_jtp_sampled("jtp@sampled")))

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
                         _build_p_relation(rel, ell)))

    # product dissections of (q;q)/(-q;q)
    out.append(E("lemma3.1.eq1",
                 "(q;q)/(-q;q) = (q^9;q^9)/(-q^9;q^9) - 2q (q^3,q^15,q^18;q^18)",
                 150, "product", _build_lemma31("eq1")))
    out.append(E("lemma3.1.eq2",
                 "(q;q)/(-q;q) = (q^25;q^25)/(-q^25;q^25) - 2q (q^15,q^35,q^50;q^50)"
                 " + 2q^4 (q^5,q^45,q^50;q^50)",
                 150, "product", _build_lemma31("eq2")))

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
        out.append(E(_hick_id(which, x, z, base), hick_anchor[which], order, "product",
                     _build_hickerson(which, x, z, base)))
    for which in ("lemma32", "lemma33", "lemma34", "lemma35"):
        num = {"lemma32": "3.2", "lemma33": "3.3", "lemma34": "3.4", "lemma35": "3.5"}[which]
        eid = f"lemma{num}@sampled"
        out.append(E(eid, hick_anchor[which], 300, "product",
                     _build_hickerson_sampled(which, eid)))

    # addition relation
    add_anchor = ("P^2(z)P(zeta t)P(zeta/t) - P^2(zeta)P(zt)P(z/t)"
                  " + (zeta/t)P^2(t)P(z zeta)P(z/zeta) = 0")
    out.append(E("lemma3.6@z=q^20,zeta=q^10,t=q^5,base=50", add_anchor, 400, "product",
                 _build_addition(SM(1, 20), SM(1, 10), SM(1, 5), 50)))
    out.append(E("lemma3.6@z=q^20,zeta=q^15,t=q^10,base=50", add_anchor, 400, "product",
                 _build_addition(SM(1, 20), SM(1, 15), SM(1, 10), 50)))
    out.append(E("lemma3.6@sampled", add_anchor, 300, "product",
                 _build_addition_sampled("lemma3.6@sampled")))

    # Sbar closed form and reflection
    for ell in (3, 5):
        out.append(E(f"lemma2.1@ell={ell}", "Sbar(ell) = 1/2 - (q;q)/(2(-q;q))",
                     200, "lambert", _build_lemma21(ell)))
        for b in range(1, ell + 1):
            out.append(E(f"rels@b={b},ell={ell}", "Sbar(b) = -Sbar(ell-b)",
                         200, "lambert", _build_rels(b, ell)))

    # shift / reflection identities for the bilateral sums
    out.append(E("sigma-shift@sampled",
                 "z^2 Sum(z,zeta,q) + zeta Sum(zq,zeta,q) = "
                 "-sum (-1)^n zeta^n q^(n(n-1))(1+zq^n)",
                 150, "lambert", _build_sigma_shift_sampled("sigma-shift@sampled")))
    out.append(E("step@z=q^2,base=7", "z^2 Sum(z,1,q) + Sum(zq,1,q) = -z (q;q)/(-q;q)",
                 200, "lambert", _build_step(SM(1, 2), 7)))
    out.append(E("step@sampled", "z^2 Sum(z,1,q) + Sum(zq,1,q) = -z (q;q)/(-q;q)",
                 150, "lambert",
                 _build_simple_sampled("step@sampled", lambert.check_step)))
    out.append(E("short@sampled",
                 "Sum(z,1,q) + z^-2 Sum(z^-1,1,q) = -z^-1 sum (-1)^n q^(n^2)",
                 150, "lambert",
                 _build_simple_sampled("short@sampled", lambert.check_short)))

    # bilateral two-pole identity and its specializations
    l41_anchor = ("sum (-1)^n q^(n^2+n)[zeta^-2n/(1-z zeta^-1 q^n)"
                  " + zeta^(2n+2)/(1-z zeta q^n)] = zeta P(zeta^2)P(-1)/(P(zeta)P(-zeta))"
                  " Sum(z,1,q) + P(zeta)P(zeta^2)P(-z)(q)^2/(P(z)P(z zeta)P(z/zeta)P(-zeta))")
    out.append(E("lemma4.1@zeta=q^1,z=q^2,base=5", l41_anchor, 300, "lambert",
                 _build_lemma41(SM(1, 1), SM(1, 2), 5)))
    out.append(E("lemma4.1@zeta=q^2,z=q^1,base=5", l41_anchor, 300, "lambert",
                 _build_lemma41(SM(1, 2), SM(1, 1), 5)))
    out.append(E("lemma4.1@zeta=-q^1,z=q^1,base=3", l41_anchor, 200, "lambert",
                 _build_lemma41(SM(-1, 1), SM(1, 1), 3)))
    out.append(E("lemma4.1@sampled", l41_anchor, 200, "lambert",
                 _build_lemma41_sampled("lemma4.1@sampled")))

    # the second key identity and the g-function relations
    part1_anchor = ("2g(z,q) - g(z^2,q) + 1/2 = (q)^2 P(-z^4)/(P(z^4)P(-1))"
                    " + z P(-1)^2 (q)^2 P(z^2)/(P(z)^2 P(-z)^2)")
    out.append(E("part1@z=q^1,base=5", part1_anchor, 300, "lambert",
                 _build_part1(SM(1, 1), 5)))
    out.append(E("part1@z=q^1,base=3", part1_anchor, 200, "lambert",
                 _build_part1(SM(1, 1), 3)))
    out.append(E("part1@sampled", part1_anchor, 150, "lambert",
                 _build_simple_sampled("part1@sampled", lambert.check_part1,
                                       n_samples=6, bases=(5, 7))))
    for a, ell in ((1, 3), (1, 5), (2, 5)):
        out.append(E(f"g2@a={a},ell={ell}", "g(a) + g(ell-a) = 1", 200, "lambert",
                     _build_g2(a, ell)))
        out.append(E(f"g1@a={a},ell={ell}",
                     "2g(a) - g(2a) + 1/2 = P(-y^4a)P(0)^2/(P(4a)P(-1))"
                     " + y^a P(-1)^2 P(0)^2 P(2a)/(P(a)^2 P(-y^a)^2)",
                     300, "lambert", _build_g1(a, ell)))
    out.append(E("constant@z=q^1,base=3", "g(z,q) - g(zq,q) = -2", 200, "lambert",
                 _build_constant(SM(1, 1), 3)))
    out.append(E("constant@sampled", "g(z,q) - g(zq,q) = -2", 150, "lambert",
                 _build_simple_sampled("constant@sampled", lambert.check_constant,
                                       n_samples=5, bases=(3, 5))))
    out.append(E("gees@z=q^1,base=5", "g(z^-1,q) + g(z,q) = -1", 200, "lambert",
                 _build_gees(SM(1, 1), 5)))
    out.append(E("gees@sampled", "g(z^-1,q) + g(z,q) = -1", 150, "lambert",
                 _build_simple_sampled("gees@sampled", lambert.check_gees,
                                       n_samples=5, bases=(3, 5))))

    # Sbar(ell-2m) decompositions and the Sum(m,0)-coefficient brackets
    for ell, m in ((3, 1), (5, 2), (5, 1)):
        spec = rankdiff.FinalFormSpec(ell, m)
        out.append(E(f"sbdecomp@ell={ell},m={m}",
                     "Sbar(ell-2m) = (-1)^m q^(m(ell-m)) Sum(m,0) + Sum(0,-2m)"
                     " + y^2m Sum(2m,2m) + sum''_a (-1)^(m+a) q^((a+m)(a-m+ell))"
                     " [Sum(m+a,2a) + y^-2a Sum(m-a,-2a)]",
                     150, "combination", _build_sbdecomp(spec)))
        out.append(E(f"final@ell={ell},m={m}",
                     "Sbar(ell-2m) = -g(m) + sum''_a (product term) + Sum(m,0){bracket}",
                     150, "combination", _build_final(spec)))
    out.append(E("bracket@ell=3,m=1", "{ } = -q^2 " + _BRK + ", L=9", 200,
                 "combination", _build_bracket(rankdiff.FinalFormSpec(3, 1))))
    out.append(E("bracket@ell=5,m=2", "{ } = q^6 " + _BRK + ", L=25", 300,
                 "combination", _build_bracket(rankdiff.FinalFormSpec(5, 2))))
    out.append(E("bracket@ell=5,m=1", "{ } = -q^4 " + _BRK + ", L=25", 300,
                 "combination", _build_bracket(rankdiff.FinalFormSpec(5, 1))))
    out.append(E("s1too", "Sbar(1) = -g(1) - q^2 Sum(1,0) " + _BRK + " (ell=3, L=9)",
                 150, "combination", _build_sbar_closed("s1too")))
    out.append(E("s1", "Sbar(1) = -g(2) + qy Sum(2,0) " + _BRK + " - q^2 (q^25;q^25)^2"
                 "(-q^10,-q^15;q^25)/((q^10,q^15;q^25)(-q^5,-q^20;q^25)) (ell=5, L=25)",
                 150, "combination", _build_sbar_closed("s1")))
    out.append(E("s3", "Sbar(3) = -g(1) - q^4 Sum(1,0) " + _BRK + " + q^3 (q^25;q^25)^2"
                 "(-q^5,-q^20;q^25)/((q^5,q^20;q^25)(-q^10,-q^15;q^25)) (ell=5, L=25)",
                 150, "combination", _build_sbar_closed("s3")))

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
        out.append(E(f"combo.{pair}", combo_anchor[pair], 100, "combination",
                     _build_combo(pair, notes)))
        out.append(E(f"thmpoly.{pair}",
                     combo_anchor[pair] + "  [closed-form polynomial route]",
                     100, "combination", _build_thmpoly(pair)))

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
        out.append(E(f"check{i}", check_anchor[i], 400, tier, _build_check(i)))

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


def verify(id: str, order: int) -> IdentityReport:
    """Run one identity check at the given truncation order (at least 1)."""
    reg = _registry()
    if id not in reg:
        raise UnknownIdentity(f"no identity with id {id!r}")
    if order < 1:
        raise BadArgument(f"order must be at least 1, got {order}")
    entry = reg[id]
    t0 = time.perf_counter()
    report = entry.build(order)
    ms = int((time.perf_counter() - t0) * 1000)
    return report.with_id(entry.id).with_runtime(ms)


def run_suite(order_scale: float = 1.0, parallelism: int = 1) -> List[IdentityReport]:
    """Verify every entry at default_order * order_scale.

    Reports come back in id order regardless of execution interleaving, and
    per-entry failures are collected rather than aborting the run.
    """
    if not order_scale > 0:
        raise BadArgument(f"order scale must be positive, got {order_scale}")
    entries = list_identities()

    def run_one(entry: IdentityEntry) -> IdentityReport:
        order = max(1, int(entry.default_order * order_scale))
        t0 = time.perf_counter()
        try:
            report = entry.build(order)
        except Exception as exc:  # a broken entry must not sink the suite
            report = IdentityReport(id=entry.id, ok=False, checked_order=0,
                                    notes=f"error: {type(exc).__name__}: {exc}")
        ms = int((time.perf_counter() - t0) * 1000)
        return report.with_id(entry.id).with_runtime(ms)

    if parallelism <= 1:
        reports = [run_one(e) for e in entries]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            reports = list(pool.map(run_one, entries))
    return sorted(reports, key=lambda r: r.id)


def reports_json(reports: Sequence[IdentityReport], stable: bool = False) -> str:
    """Canonical JSON for a report list; stable=True zeroes runtimes so two
    identical runs serialize to identical bytes."""
    payload = [r.to_json_dict(include_runtime=not stable) for r in reports]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
