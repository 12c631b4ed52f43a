"""Identity registry: stable ids mapped to checks, plus the deterministic
suite runner.

The registry is a table with one row per identity: an id, the statement
(anchor), a default truncation order, a tier, and a builder that returns the
row's comparisons, each the two sides of an identity as terms
(``products.FormulaTerm``).  A builder takes no order and reads the
transcription tables and the seed when it runs.  ``_run`` alone evaluates
the sides at the requested order (``rankdiff.eval_terms``), compares them,
merges the comparisons and sets each report's id, runtime and notes.  The
anchor of a row backed by a table is rendered from its terms when first read.
Sampled entries draw monomial instantiations from a seeded generator
(override the seed with the OVERRANK_SEED environment variable); the seed is
recorded in the report notes so sampled runs are reproducible.
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
from functools import cached_property, partial
from typing import Callable, Dict, List, Sequence, Union

from . import combinat, lambert, products, rankdiff
from .combinat import nbar, nbar_class
from .errors import BadArgument, UnknownIdentity
from .lambert import lambert_sum, s_bar
from .products import (FormulaTerm as T, Product, Route, Sides, SignedMonomial as SM, Terms,
                       theta, triple_product)
from .rankdiff import eval_terms
from .report import IdentityReport, compare, merge
from .series import LaurentSeries, _from_ints, extract_progression

DEFAULT_SEED = 271828

N0_NOTE = ("n=0 convention: the analytic series has constant term 0, enumeration "
           "counts the empty overpartition once; compared for n >= 1")


@dataclass(frozen=True)
class IdentityEntry:
    id: str
    statement: Union[str, Callable[[], str]]  # the anchor, or what renders it
    default_order: int
    tier: str  # product | lambert | oracle | combination
    build: Callable[[], List[Sides]] = field(repr=False, compare=False)
    notes: str = ""
    sampled: bool = False  # notes are the seed, read when the row runs

    @cached_property
    def anchor(self) -> str:
        """The statement; a table row's is rendered from its terms when first read."""
        return self.statement if isinstance(self.statement, str) else self.statement()


def _seed_base() -> int:
    env = os.environ.get("OVERRANK_SEED")
    return int(env) if env else DEFAULT_SEED


def _rng(entry_id: str) -> random.Random:
    return random.Random(f"{_seed_base()}:{entry_id}")


def _seed_note() -> str:
    return f"seed={_seed_base()}"


# ----------------------------------------------------------------------
# builds: each binds a check to its arguments and returns its comparisons
# ----------------------------------------------------------------------


def _named(check: Callable[..., Sides], *args) -> Callable[[], List[Sides]]:
    """The one comparison check(*args)."""
    return lambda: [check(*args)]


def _sampled(name: str, anchor: str, order: int, tier: str, check: Callable[..., Sides],
             draw: Callable[[random.Random], tuple], n: int) -> IdentityEntry:
    """The row name@sampled: n comparisons check(*draw(rng)) over its seeded
    generator."""
    entry_id = f"{name}@sampled"

    def build() -> List[Sides]:
        rng = _rng(entry_id)
        return [check(*draw(rng)) for _ in range(n)]
    return IdentityEntry(entry_id, anchor, order, tier, build, sampled=True)


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


def _route(fn: Callable[..., LaurentSeries], *args) -> Terms:
    """The one term fn(*args, order)."""
    return (T(Product(), Route(fn, args)),)


def _counted_series(count: Callable[..., int], args: tuple, start: int,
                    order: int) -> LaurentSeries:
    """sum count(*args, n) q^n over start <= n < order, asking for the
    largest n first: a counting table is rebuilt at exactly the order asked,
    so it is built once, at full length."""
    counts = [count(*args, n) for n in range(order - 1, start - 1, -1)]
    return _from_ints(start, counts[::-1], order)


def _counted(analytic: Terms, count: Callable[..., int], args: tuple,
             start: int = 1) -> Callable[[], List[Sides]]:
    """The analytic series against the counts count(*args, n), n >= start."""
    return lambda: [(analytic, _route(_counted_series, count, args, start))]


def _jtp(z: SM, base: int) -> Sides:
    return _route(lambert_sum, base, z.exp, z.sign, ()), _route(triple_product, z, base)


def _p_triple_product(s: int, e: int, ell: int, order: int) -> LaurentSeries:
    """P(s*q^e, q^ell) (q^ell; q^ell) by Jacobi's triple product, the sum of
    (-s)^n q^(ell n(n-1)/2 + en) over all n, with nothing of ``products``.

    It is built in x = q^(1/2), where every exponent ell n(n-1) + 2en is
    even, and its even part is taken; a Laurent sum is shifted up first."""
    x = lambert_sum(ell, 2 * e - ell, -s, [], 2 * order)
    up = max(0, -x.min_exp)
    return extract_progression(x.shift(up), 2, 0).shift(-up // 2)


def _p_relation(rel: str, ell: int) -> List[Sides]:
    """The P relations at z = +-q^a (p1, p2) or z = q^a (p3, p4), 0 < a < ell:
    each ``Product`` form of one P value that the relation lists, as a theta,
    against the triple-product sum of that theta.  Forms that P's exponent
    reduction makes equal as ``Product`` values are one series, compared once."""
    out = []
    for a in range(1, ell):
        for s in ((1, -1) if rel in ("p1", "p2") else (1,)):
            if rel in ("p1", "p3"):  # P(q^ell / z) = P(z) at z = s q^a
                e, forms = a, [theta(s, ell - a, ell), theta(s, a, ell)]
            elif rel == "p2":  # P(zq) = -z^-1 P(z) at z = s q^a
                e, forms = a + ell, [theta(s, a + ell, ell), Product(-s, -a) * theta(s, a, ell)]
            else:  # p4: P(q^-a) = P(q^(ell+a)) = -y^-a P(a)
                e, forms = -a, [theta(1, -a, ell), theta(1, ell + a, ell),
                                Product(-1, -a) * theta(1, a, ell)]
            rhs = _route(_p_triple_product, s, e, ell)
            out += [((T(form),), rhs) for form in set(forms)]
    return out


def _render(*sides: Terms) -> str:
    """Sides as the anchors print them: the terms of each joined by + and -
    (0 for none), the sides by =."""
    return " = ".join(" + ".join(map(str, terms)).replace(" + -", " - ") or "0" for terms in sides)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

def _entries() -> List[IdentityEntry]:
    E = IdentityEntry
    out: List[IdentityEntry] = []

    # counting oracle vs analytic generating functions
    out.append(E("oracle.pbar", "sum pbar(n) q^n = (-q;q)/(q;q)", 31, "oracle",
                 _counted(_route(combinat.pbar_series), nbar_class, (0, 1), 0)))
    for m in (0, 1, 2):
        out.append(E(f"gen@m={m}",
                     "sum Nbar(m,n) q^n = 2(-q;q)/(q;q) sum_{n>=1} (-1)^(n-1) "
                     "q^(n^2+|m|n)(1-q^n)/(1+q^n)",
                     31, "oracle", _counted(_route(combinat.nbar_series, m), nbar, (m,)), N0_NOTE))
    for s, m in ((0, 3), (1, 3), (0, 5), (1, 5), (2, 5)):
        out.append(E(f"gen1@s={s},m={m}",
                     "sum Nbar(s,m,n) q^n = 2(-q;q)/(q;q) sum'_n (-1)^n q^(n^2+n)"
                     "(q^(sn)+q^((m-s)n)) / ((1+q^n)(1-q^(mn)))", 31, "oracle",
                     _counted(_route(combinat.nbar_class_series, s, m), nbar_class, (s, m)),
                     N0_NOTE))

    # the thirteen dissected rank differences
    for ell, s, t, d in rankdiff.THEOREM_TABLE:
        key = rankdiff.RankDiffKey(ell, s, t, d)
        out.append(E(f"thm{ell}.{key.slug}",
                     lambda key=key: f"R{key.s}{key.t}({key.d}) = "
                                     f"{_render(rankdiff.rank_diff_formula(key))}", 40, "oracle",
                     lambda key=key: [(rankdiff.rank_diff_formula(key),
                                       _route(rankdiff.rank_diff_oracle, key))]))

    # triple product
    out.append(E("jtp@z=q^1,base=1", "sum z^n q^(n^2) = (-zq,-q/z,q^2;q^2)",
                 200, "product", _named(_jtp, SM(1, 1), 1)))
    out.append(E("jtp@z=-1,base=1", "sum (-1)^n q^(n^2) = (q;q)/(-q;q)",
                 200, "product", _named(_jtp, SM(-1, 0), 1)))
    out.append(_sampled("jtp", "sum z^n q^(base n^2) = (-zq,-q/z,q^2;q^2) at q=q^base",
                        200, "product", _jtp, _draw_jtp, 10))

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
    for variant in ("eq1", "eq2"):
        out.append(E(f"lemma3.1.{variant}", lambda v=variant: _render(*products.verify_lemma31(v)),
                     150, "product", _named(products.verify_lemma31, variant)))

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
                     "product", _named(products.verify_hickerson, which, x, z, base)))
    for which in ("lemma32", "lemma33", "lemma34", "lemma35"):
        out.append(_sampled(f"lemma3.{which[-1]}", hick_anchor[which], 300, "product",
                            partial(products.verify_hickerson, which),
                            lambda rng: (_mono(rng, 1, 10), _mono(rng, 1, 10), 11), 10))

    # addition relation
    add_anchor = ("P^2(z)P(zeta t)P(zeta/t) - P^2(zeta)P(zt)P(z/t)"
                  " + (zeta/t)P^2(t)P(z zeta)P(z/zeta) = 0")
    for z, zeta, t in ((SM(1, 20), SM(1, 10), SM(1, 5)), (SM(1, 20), SM(1, 15), SM(1, 10))):
        out.append(E(f"lemma3.6@z={z},zeta={zeta},t={t},base=50", add_anchor, 400, "product",
                     _named(products.verify_addition, z, zeta, t, 50)))
    out.append(_sampled("lemma3.6", add_anchor, 300, "product", products.verify_addition,
                        lambda rng: (_mono(rng, 1, 12), _mono(rng, 1, 12), _mono(rng, 1, 12), 13),
                        10))

    # Sbar closed form and reflection
    for ell in (3, 5):
        out.append(E(f"lemma2.1@ell={ell}", "Sbar(ell) = 1/2 - (q;q)/(2(-q;q))",
                     200, "lambert",
                     lambda ell=ell: [(_route(s_bar, ell, ell),
                                       (T(Product(Fraction(1, 2))), T(-rankdiff._HALF_RATIO)))]))
        for b in range(1, ell + 1):
            out.append(E(f"rels@b={b},ell={ell}", "Sbar(b) = -Sbar(ell-b)",
                         200, "lambert",
                         lambda b=b, ell=ell: [(_route(s_bar, b, ell),
                                                (T(Product(-1), Route(s_bar, (ell - b, ell))),))]))

    # shift / reflection identities for the bilateral sums
    out.append(_sampled("sigma-shift", "z^2 Sum(z,zeta,q) + zeta Sum(zq,zeta,q) = "
                        "-sum (-1)^n zeta^n q^(n(n-1))(1+zq^n)",
                        150, "lambert", lambert.check_sigma_shift, _draw_sigma_shift, 6))
    out.append(E("step@z=q^2,base=7", "z^2 Sum(z,1,q) + Sum(zq,1,q) = -z (q;q)/(-q;q)",
                 200, "lambert", _named(lambert.check_step, SM(1, 2), 7)))
    out.append(_sampled("step", "z^2 Sum(z,1,q) + Sum(zq,1,q) = -z (q;q)/(-q;q)",
                        150, "lambert", lambert.check_step, _draw_z(3, 5, 7), 6))
    out.append(_sampled("short", "Sum(z,1,q) + z^-2 Sum(z^-1,1,q) = -z^-1 sum (-1)^n q^(n^2)",
                        150, "lambert", lambert.check_short, _draw_z(3, 5, 7), 6))

    # bilateral two-pole identity and its specializations
    l41_anchor = ("sum (-1)^n q^(n^2+n)[zeta^-2n/(1-z zeta^-1 q^n)"
                  " + zeta^(2n+2)/(1-z zeta q^n)] = zeta P(zeta^2)P(-1)/(P(zeta)P(-zeta))"
                  " Sum(z,1,q) + P(zeta)P(zeta^2)P(-z)(q)^2/(P(z)P(z zeta)P(z/zeta)P(-zeta))")
    for zeta, z, base, order in ((SM(1, 1), SM(1, 2), 5, 300), (SM(1, 2), SM(1, 1), 5, 300),
                                 (SM(-1, 1), SM(1, 1), 3, 200)):
        out.append(E(f"lemma4.1@zeta={zeta},z={z},base={base}", l41_anchor, order, "lambert",
                     _named(lambert.verify_lemma41, zeta, z, base)))
    out.append(_sampled("lemma4.1", l41_anchor, 200, "lambert", lambert.verify_lemma41,
                        _draw_lemma41, 10))

    # the second key identity and the g-function relations
    part1_anchor = ("2g(z,q) - g(z^2,q) + 1/2 = (q)^2 P(-z^4)/(P(z^4)P(-1))"
                    " + z P(-1)^2 (q)^2 P(z^2)/(P(z)^2 P(-z)^2)")
    for base, order in ((5, 300), (3, 200)):
        out.append(E(f"part1@z=q^1,base={base}", part1_anchor, order, "lambert",
                     _named(lambert.check_part1, SM(1, 1), base)))
    out.append(_sampled("part1", part1_anchor, 150, "lambert", lambert.check_part1,
                        _draw_z(5, 7), 6))
    for a, ell in ((1, 3), (1, 5), (2, 5)):
        out.append(E(f"g2@a={a},ell={ell}", "g(a) + g(ell-a) = 1", 200, "lambert",
                     _named(lambert.check_g2, a, ell)))
        out.append(E(f"g1@a={a},ell={ell}",
                     "2g(a) - g(2a) + 1/2 = P(-y^4a)P(0)^2/(P(4a)P(-1))"
                     " + y^a P(-1)^2 P(0)^2 P(2a)/(P(a)^2 P(-y^a)^2)",
                     300, "lambert", _named(lambert.check_part1, SM(1, a), ell)))
    out.append(E("constant@z=q^1,base=3", "g(z,q) - g(zq,q) = -2", 200, "lambert",
                 _named(lambert.check_constant, SM(1, 1), 3)))
    out.append(_sampled("constant", "g(z,q) - g(zq,q) = -2", 150, "lambert",
                        lambert.check_constant, _draw_z(3, 5), 5))
    out.append(E("gees@z=q^1,base=5", "g(z^-1,q) + g(z,q) = -1", 200, "lambert",
                 _named(lambert.check_gees, SM(1, 1), 5)))
    out.append(_sampled("gees", "g(z^-1,q) + g(z,q) = -1", 150, "lambert",
                        lambert.check_gees, _draw_z(3, 5), 5))

    # Sbar(ell-2m) decompositions and the Sum(m,0)-coefficient brackets
    for ell, m in ((3, 1), (5, 2), (5, 1)):
        spec = rankdiff.FinalFormSpec(ell, m)
        out.append(E(f"sbdecomp@ell={ell},m={m}",
                     "Sbar(ell-2m) = (-1)^m q^(m(ell-m)) Sum(m,0) + Sum(0,-2m)"
                     " + y^2m Sum(2m,2m) + sum''_a (-1)^(m+a) q^((a+m)(a-m+ell))"
                     " [Sum(m+a,2a) + y^-2a Sum(m-a,-2a)]",
                     150, "combination", _named(rankdiff.s_bar_b_decomposition, spec)))
        out.append(E(f"final@ell={ell},m={m}",
                     "Sbar(ell-2m) = -g(m) + sum''_a (product term) + Sum(m,0){bracket}",
                     150, "combination", _named(rankdiff.s_bar_final_form, spec)))
    for (ell, m), order in {(3, 1): 200, (5, 2): 300, (5, 1): 300}.items():
        out.append(E(f"bracket@ell={ell},m={m}",
                     lambda ell=ell, m=m: f"{{ }} = {rankdiff.bracket_closed_form(ell, m)}",
                     order, "combination",
                     _named(rankdiff.brackets, rankdiff.FinalFormSpec(ell, m))))
    for which in rankdiff.SBAR_CLOSED_TABLE:
        out.append(E(which, lambda w=which: _render(*rankdiff.verify_sbar_closed(w)), 150,
                     "combination", _named(rankdiff.verify_sbar_closed, which)))

    # class-difference combinations, against both independent routes
    combo_anchor = {
        "ell3_01": ("Nbar(0,3,n)-Nbar(1,3,n)", "3Sbar(1) + Sbar(3)"),
        "ell5_12": ("Nbar(1,5,n)-Nbar(2,5,n)", "-Sbar(1) - 3Sbar(3)"),
        "ell5_02": ("Nbar(0,5,n)-Nbar(2,5,n)", "Sbar(5) + 2Sbar(1) + Sbar(3)"),
    }
    for pair, (diff, combo) in combo_anchor.items():
        notes = ("Sbar(5) enters with coefficient +1 (the printed -1 fails at q^1)"
                 if pair == "ell5_02" else "")
        out.append(E(f"combo.{pair}", f"sum ({diff}) q^n (q;q)/(2(-q;q)) = {combo}", 100,
                     "combination",
                     lambda pair=pair: [(rankdiff.combination_lhs(pair),
                                         rankdiff.combination_rank_side(pair))], notes))
        out.append(E(f"thmpoly.{pair}",
                     f"2(-q;q)/(q;q) ({combo}) = sum_d q^d R(d)(q^ell)"
                     "  [closed-form polynomial route]",
                     100, "combination", _named(rankdiff.combination_theorem_sides, pair)))

    # the ten coefficient identities (base q^25 / q^50, y = q^5)
    for i in range(10):
        tier = "lambert" if i in (0, 5) else "product"
        out.append(E(f"check{i}", lambda i=i: _render(*rankdiff.verify_check(i)), 400, tier,
                     _named(rankdiff.verify_check, i)))

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
    """Evaluate both sides of each of the entry's comparisons at the order,
    compare them and merge the reports, timed; a check that compared fewer
    than `order` coefficients is a failure, whatever it found."""
    t0 = time.perf_counter()
    report = merge([compare(eval_terms(lhs, order), eval_terms(rhs, order))
                    for lhs, rhs in entry.build()])
    ms = int((time.perf_counter() - t0) * 1000)
    notes = _seed_note() if entry.sampled else entry.notes
    if report.checked_order < order:
        short = f"short check: {report.checked_order} of {order} coefficients compared"
        report, notes = replace(report, ok=False), "; ".join(n for n in (notes, short) if n)
    return replace(report, id=entry.id, runtime_ms=ms, notes=notes)


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
