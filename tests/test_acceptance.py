"""Acceptance gate: the exit criteria for the whole build, one test per
criterion, each printing a PASS/FAIL line.  All comparisons are exact
coefficient equality (tolerance zero); orders are pinned here.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import dataclasses
import random
import time
from unittest.mock import patch

from overrank import registry
from overrank.combinat import nbar_class, pbar_series, rank_table
from overrank.lambert import s_bar, sigma_ab, sigma_primed
from overrank.products import poch
from overrank.rankdiff import (
    CHECK_TABLE,
    THEOREM_TABLE,
    FinalFormSpec,
    RankDiffKey,
    brackets,
    eval_terms,
    rank_diff_formula,
    rank_diff_oracle,
    verify_check,
)
from overrank.report import compare
from overrank.series import (
    LaurentSeries,
    extract_progression,
    first_mismatch,
    mul,
    substitute_power,
)
from reference import evaluated
from test_lambert import _lambert_reference

THM_IDS_3 = [f"thm3.R01.d{d}" for d in range(3)]
THM_IDS_5 = [f"thm5.R{s}{t}.d{d}" for (s, t) in ((1, 2), (0, 2)) for d in range(5)]


def _criterion(num, desc, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _all_pass(ids, order):
    bad = []
    for id_ in ids:
        r = registry.verify(id_, order) if order else None
        if r is not None and not r.ok:
            bad.append((id_, r.first_mismatch))
    if bad:
        print("  failures:", bad)
    return not bad


def test_criterion_1_pbar_enumeration_vs_series():
    ok = sum(rank_table(4).values()) == 14
    pb = pbar_series(31)
    ok = ok and pb.coeff(4) == 14
    ok = ok and all(pb.coeff(n) == sum(rank_table(n).values()) for n in range(31))
    _criterion(1, "pbar(4) = 14 both routes; enumeration agrees with the series "
                  "for all n <= 30", ok)


def test_criterion_2_modulus_three_rank_differences():
    ok = _all_pass(THM_IDS_3, 40)
    _criterion(2, "all three dissected rank differences mod 3 match the oracle "
                  "to order 40 (pipeline order 122)", ok)


def test_criterion_3_modulus_five_rank_differences():
    ok = _all_pass(THM_IDS_5, 40)
    zero = rank_diff_oracle(RankDiffKey(5, 0, 2, 2), 40)
    ok = ok and not zero.nums
    spot = all(nbar_class(0, 5, n) == nbar_class(2, 5, n) for n in range(2, 31, 5))
    ok = ok and spot
    _criterion(3, "all ten dissected rank differences mod 5 match the oracle to "
                  "order 40; R02(2) identically zero, confirmed by enumeration "
                  "at 5n+2 <= 30", ok)


def test_criterion_4_sbar_and_p_relations():
    ids = ["lemma2.1@ell=3", "lemma2.1@ell=5"]
    ids += [f"rels@b={b},ell={ell}" for ell in (3, 5) for b in range(1, ell + 1)]
    ids += [f"{rel}@ell={ell}" for rel in ("p1", "p2", "p3", "p4") for ell in (3, 5, 7)]
    ok = _all_pass(ids, 200)
    _criterion(4, "Sbar(ell) product form, Sbar reflection for all b, and the four "
                  "P relations for all sampled arguments, exact to order 200", ok)


def test_criterion_5_product_identities():
    ok = _all_pass(["lemma3.1.eq1", "lemma3.1.eq2"], 150)
    named = [
        "lemma3.2@x=q^5,z=q^10,base=25",
        "lemma3.3@x=-q^5,z=-q^10,base=25",
        "lemma3.3@x=q^5,z=q^10,base=25",
        "lemma3.4@x=q^5,z=q^10,base=25",
        "lemma3.5@x=q^5,z=q^10,base=25",
    ]
    ok = ok and _all_pass(named, 300)
    ok = ok and _all_pass(["lemma3.6@z=q^20,zeta=q^10,t=q^5,base=50",
                           "lemma3.6@z=q^20,zeta=q^15,t=q^10,base=50"], 400)
    sampled = [f"lemma3.{k}@sampled" for k in (2, 3, 4, 5, 6)]
    ok = ok and _all_pass(sampled, 300)
    _criterion(5, "both product dissections to order 150; all two/three-term "
                  "product identities at their named instantiations (orders "
                  "300-400) plus 10 seeded samples each", ok)


def test_criterion_6_key_lambert_identities():
    ok = _all_pass(["lemma4.1@zeta=q^1,z=q^2,base=5", "lemma4.1@zeta=q^2,z=q^1,base=5"], 300)
    ok = ok and _all_pass(["lemma4.1@zeta=-q^1,z=q^1,base=3", "lemma4.1@sampled"], 200)
    ok = ok and _all_pass(["part1@z=q^1,base=5"], 300)
    ok = ok and _all_pass(["part1@z=q^1,base=3", "constant@z=q^1,base=3",
                           "gees@z=q^1,base=5"], 200)
    ok = ok and _all_pass([f"g2@a={a},ell={ell}" for a, ell in ((1, 3), (1, 5), (2, 5))], 200)
    ok = ok and _all_pass([f"g1@a={a},ell={ell}" for a, ell in ((1, 3), (1, 5), (2, 5))], 300)
    _criterion(6, "two-pole bilateral identity and its specializations; the "
                  "doubling identity, shift constant, reflection, and both "
                  "g-relations at every relevant (a, ell), exact to order 200-300", ok)


def test_criterion_7_section_five_machinery():
    reg = {e.id: e for e in registry.list_identities()}
    ids = [f"sbdecomp@ell={e},m={m}" for e, m in ((3, 1), (5, 2), (5, 1))]
    ids += [f"final@ell={e},m={m}" for e, m in ((3, 1), (5, 2), (5, 1))]
    ids += ["s1too", "s1", "s3"]
    ids += [f"bracket@ell={e},m={m}" for e, m in ((3, 1), (5, 2), (5, 1))]
    ids += [f"combo.{p}" for p in ("ell3_01", "ell5_12", "ell5_02")]
    ids += [f"thmpoly.{p}" for p in ("ell3_01", "ell5_12", "ell5_02")]
    ids += [f"check{i}" for i in range(10)]
    bad = []
    for id_ in ids:
        r = registry.verify(id_, reg[id_].default_order)
        if not r.ok:
            bad.append((id_, r.first_mismatch))
    if bad:
        print("  failures:", bad)
    _criterion(7, "substitution decomposition, final form, closed Sbar forms, "
                  "all three brackets, all three combinations (both routes), and "
                  "all ten coefficient identities at registry default orders", not bad)


def test_criterion_8_property_suites():
    rng = random.Random(20260808)

    def rand_series(power=False):
        lo = rng.randint(0 if power else -5, 5)
        cs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 10))]
        return LaurentSeries(lo, cs, lo + len(cs) + rng.randint(0, 3))

    ok = True
    for _ in range(40):
        a, b, c = rand_series(), rand_series(), rand_series()
        ok = ok and first_mismatch((a + b) + c, a + (b + c)) is None
        ok = ok and first_mismatch(mul(a, b), mul(b, a)) is None
        ok = ok and first_mismatch(mul(mul(a, b), c), mul(a, mul(b, c))) is None
        ok = ok and first_mismatch(mul(a, b + c), mul(a, b) + mul(a, c)) is None
    for _ in range(20):
        f = rand_series(power=True)
        for m in (2, 3, 5):
            total = LaurentSeries.zero(f.order)
            for d in range(m):
                piece = substitute_power(extract_progression(f, m, d), m).shift(d)
                total = total + piece.truncate(f.order)
            ok = ok and first_mismatch(total, f) is None
    named = [sigma_ab(1, 0, 5, 60), sigma_primed(-2, 5, 60), s_bar(1, 5, 60)]
    termwise = [_lambert_reference(5, 5, -1, [(1, 1, 5)], 60, False),
                _lambert_reference(5, 3, -1, [(1, 0, 5)], 60, True),
                _lambert_reference(1, 1, -1, [(1, 0, 5)], 60, True)]
    ok = ok and all(first_mismatch(x, y) is None for x, y in zip(named, termwise))
    for n in range(31):
        counts = rank_table(n)
        ok = ok and all(counts.get(m, 0) == counts.get(-m, 0) for m in range(9))
    from overrank.combinat import nbar_class_series
    for m in (3, 5):
        total = LaurentSeries.monomial(1, 0, 31)
        for s in range(m):
            total = total + nbar_class_series(s, m, 31)
        ok = ok and first_mismatch(total, pbar_series(31)) is None
    _criterion(8, "ring axioms, dissection completeness, bilateral sums against "
                  "their term-by-term reference, rank symmetry, and class-sum "
                  "completeness", ok)


def test_criterion_9_mutation_sensitivity():
    ok = True
    # 1: sign flip inside a theorem product
    key = RankDiffKey(3, 0, 1, 1)
    good = THEOREM_TABLE[(3, 0, 1, 1)]
    flipped = good[0].prod / poch(1, 3, 3) * poch(-1, 3, 3)
    mutated = (dataclasses.replace(good[0], prod=flipped),)
    with patch.dict(THEOREM_TABLE, {(3, 0, 1, 1): mutated}):
        r = compare(eval_terms(rank_diff_formula(key), 25), rank_diff_oracle(key, 25))
    ok = ok and (not r.ok) and r.first_mismatch is not None
    # 2: exponent bump inside a coefficient identity
    lhs_terms, rhs_terms = CHECK_TABLE[1]
    bumped = lhs_terms[0].prod / poch(1, 15, 50) * poch(1, 20, 50)
    bumped_lhs = (dataclasses.replace(lhs_terms[0], prod=bumped),)
    with patch.dict(CHECK_TABLE, {1: (bumped_lhs, rhs_terms)}):
        r = compare(*evaluated(verify_check(1), 120))
    ok = ok and (not r.ok) and r.first_mismatch is not None
    # 3: prefactor sign flip in a bracket closed form
    from overrank import rankdiff
    good_b = rankdiff.bracket_closed_form
    with patch.object(rankdiff, "bracket_closed_form", lambda ell, m: -good_b(ell, m)):
        r = compare(*evaluated(brackets(FinalFormSpec(3, 1)), 60))
    ok = ok and (not r.ok) and r.first_mismatch is not None and r.first_mismatch.exp == 2
    # the untouched entries still pass
    ok = ok and registry.verify("thm3.R01.d1", 25).ok
    ok = ok and registry.verify("check1", 120).ok
    ok = ok and registry.verify("bracket@ell=3,m=1", 60).ok
    _criterion(9, "each of three single-token mutations fails exactly its own "
                  "entry with a located first mismatch", ok)


def test_criterion_10_full_suite_deterministic_and_fast():
    t0 = time.time()
    reports = registry.run_suite(order_scale=1.0)
    elapsed = time.time() - t0
    bad = [(r.id, r.first_mismatch, r.notes) for r in reports if not r.ok]
    if bad:
        print("  failures:", bad)
    ok = not bad and elapsed < 600
    again = registry.reports_json(registry.run_suite(order_scale=0.25), stable=True)
    once = registry.reports_json(registry.run_suite(order_scale=0.25), stable=True)
    ok = ok and again == once
    print(f"  full suite: {len(reports)} identities in {elapsed:.1f} s")
    _criterion(10, "full suite green at default orders in under 10 minutes; "
                   "byte-identical stable reports across repeat runs", ok)
