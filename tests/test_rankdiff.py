"""Rank-difference assemblies: closed forms vs oracle, the Sbar machinery,
and mutation sensitivity of the transcription tables."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from overrank import products, rankdiff, registry, series
from overrank.combinat import RANK_CLASS_PRODUCT, nbar_class, nbar_class_series, rank_class_sum
from overrank.lambert import lambert_sum, s_bar, sigma_ab
from overrank.products import FormulaTerm, Product, Route, SignedMonomial as SM, poch
from overrank.rankdiff import (
    CHECK_TABLE,
    COMBINATION_TABLE,
    SBAR_CLOSED_TABLE,
    THEOREM_TABLE,
    _HALF_RATIO,
    _class_pair_difference,
    FinalFormSpec,
    RankDiffKey,
    bracket_closed_form,
    brackets,
    combination_lhs,
    combination_rank_side,
    combination_theorem_sides,
    eval_terms,
    rank_diff_formula,
    rank_diff_oracle,
    s_bar_b_decomposition,
    s_bar_final_form,
    sigma_coefficient_bracket,
    verify_check,
    verify_sbar_closed,
)
from overrank.report import compare
from overrank.series import (
    LaurentSeries,
    extract_progression,
    first_mismatch,
    mul,
)
from reference import eval_terms_termwise, evaluated, from_terms

ALL_KEYS = [RankDiffKey(ell, s, t, d) for (ell, s, t, d) in THEOREM_TABLE]


def theta(z, base, order):
    """The bilateral theta sum sum_n z^n q^(base n^2), z = s q^e."""
    return lambert_sum(base, z.exp, z.sign, [], order)


SIGNS = st.sampled_from((1, -1))


@st.composite
def routes(draw):
    """A lambert_sum with at most one denominator, a theta sum or an Sbar,
    at lift 1 to 3; a few start at a negative power of q."""
    kind = draw(st.sampled_from(("lambert_sum", "theta", "s_bar")))
    if kind == "lambert_sum":
        sign, off, step = draw(SIGNS), draw(st.integers(-3, 3)), draw(st.integers(1, 3))
        if off % step == 0:  # 1 - q^(off + step n) would vanish at some n
            sign = -1
        denoms = draw(st.sampled_from(((), ((sign, off, step),))))
        fn, args = lambert_sum, (draw(st.integers(1, 3)), draw(st.integers(-4, 4)), draw(SIGNS),
                                 denoms)
    elif kind == "theta":
        base = draw(st.integers(1, 3))
        fn, args = theta, (SM(draw(SIGNS), draw(st.integers(0, 2 * base))), base)
    else:
        ell = draw(st.integers(1, 5))
        fn, args = s_bar, (draw(st.integers(0, ell)), ell)
    return Route(fn, args, draw(st.integers(1, 3)))


@st.composite
def term_tuples(draw):
    """Terms over a few small products, so that equal factors and powers of
    q recur with other scalars, each with a route or none."""
    factors = st.lists(st.tuples(SIGNS, st.integers(1, 3), st.integers(1, 3),
                                 st.integers(-2, 2)), max_size=2)
    prods = []
    for _ in range(draw(st.integers(1, 3))):
        p = Product(1, draw(st.integers(-3, 3)))
        for sign, r, step, mult in draw(factors):
            p = p * poch(sign, r, step, mult)
        prods.append(p)
    scalars = st.sampled_from((1, -1, 2, -3, Fraction(1, 2)))
    return tuple(FormulaTerm(draw(st.sampled_from(prods)) * draw(scalars),
                             draw(st.none() | routes()))
                 for _ in range(draw(st.integers(0, 5))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(terms=term_tuples(), order=st.integers(1, 40))
def test_eval_terms_is_the_termwise_sum(terms, order):
    """The grouped evaluator against the term-by-term reference, in every
    coefficient and in the order."""
    assert eval_terms(terms, order) == eval_terms_termwise(terms, order)


class TestOracle:
    def test_spot_values(self):
        k = RankDiffKey(3, 0, 1, 1)
        assert rank_diff_oracle(k, 3).coeff(0) == 2
        k = RankDiffKey(3, 0, 1, 2)
        assert rank_diff_oracle(k, 3).coeff(0) == -2

    def test_zero_case(self):
        assert not rank_diff_oracle(RankDiffKey(5, 0, 2, 2), 20).nums

    def test_key_validation(self):
        import pytest
        with pytest.raises(ValueError):
            RankDiffKey(7, 0, 1, 0)
        with pytest.raises(ValueError):
            RankDiffKey(5, 0, 1, 0)
        with pytest.raises(ValueError):
            RankDiffKey(3, 0, 1, 3)

    def test_only_the_table_s_keys_build(self):
        """Every key of ``THEOREM_TABLE`` builds; one field off by one, or s
        and t swapped, gives a key outside it, which raises naming all 13."""
        known = ("3.01.0, 3.01.1, 3.01.2, 5.12.0, 5.12.1, 5.12.2, 5.12.3, 5.12.4, "
                 "5.02.0, 5.02.1, 5.02.2, 5.02.3, 5.02.4")
        for key in THEOREM_TABLE:
            assert dataclasses.astuple(RankDiffKey(*key)) == key
            ell, s, t, d = key
            near = {(ell, t, s, d)} | {tuple(x + dx * (i == j) for j, x in enumerate(key))
                                      for i in range(4) for dx in (-1, 1)}
            for other in near - set(THEOREM_TABLE):
                ell, s, t, d = other
                with pytest.raises(ValueError, match=rf"^no rank difference R{s}{t}\({d}\) "
                                                     rf"mod {ell}; the paper's are {known}$"):
                    RankDiffKey(*other)


class TestRankSide:
    """The rank side subtracts the class sums before it multiplies; it must
    equal the difference of the whole class series, with less work."""

    def test_oracle_is_the_class_series_difference(self):
        order = 60
        for key in ALL_KEYS:
            src = key.ell * order + key.d
            diff = nbar_class_series(key.s, key.ell, src) - nbar_class_series(key.t, key.ell, src)
            assert rank_diff_oracle(key, order) == extract_progression(diff, key.ell, key.d), key

    def test_oracle_residues_share_the_class_sums(self):
        lambert_sum.cache_clear()
        _class_pair_difference.cache_clear()
        for d in range(5):
            rank_diff_oracle(RankDiffKey(5, 1, 2, d), 40)
        assert lambert_sum.cache_info()[:2] == (0, 2)  # one build per class
        assert _class_pair_difference.cache_info()[:2] == (4, 1)  # one per class pair

    def test_combination_rank_side_is_the_class_series_difference(self):
        order = 200
        for pair, (ell, s, t, _) in COMBINATION_TABLE.items():
            diff = nbar_class_series(s, ell, order) - nbar_class_series(t, ell, order)
            rank_side = eval_terms(combination_rank_side(pair), order)
            assert rank_side == mul(diff, _HALF_RATIO.expand(order)), pair

    def test_packed_products(self, monkeypatch):
        """One kernel run per class pair, the class product times the
        class-sum difference, shared by the pair's ell residues; none and no
        packed ``mul`` per combination: the combination's ratio cancels the
        class product as Product values.  The kernel is taken at every
        length here; below ``_NARROW_MIN_LENGTH`` ``times`` takes the
        memoised expansion instead."""
        runs, packs = [], []
        kernel, pack = products._expand_packed, series._pack
        monkeypatch.setattr(products, "_NARROW_MIN_LENGTH", 0)
        monkeypatch.setattr(products, "_expand_packed",
                            lambda *args: runs.append(args[:2]) or kernel(*args))
        monkeypatch.setattr(series, "_pack", lambda *args: packs.append(args) or pack(*args))
        _class_pair_difference.cache_clear()
        for key in ALL_KEYS:
            rank_diff_oracle(key, 40)
        # at 41 ell - 1 terms, less those below the difference's first
        expected = []
        for ell, s, t in {(key.ell, key.s, key.t) for key in ALL_KEYS}:
            full = 41 * ell - 1
            diff = rank_class_sum(s, ell, full) - rank_class_sum(t, ell, full)
            expected.append((RANK_CLASS_PRODUCT.factors, full - diff.min_exp))
        assert sorted(runs) == sorted(expected)
        assert RANK_CLASS_PRODUCT * _HALF_RATIO == Product()
        for pair in COMBINATION_TABLE:
            runs.clear()
            eval_terms(combination_rank_side(pair), 200)
            assert not runs and not packs, pair


class TestClosedForms:
    def test_constant_terms(self):
        assert eval_terms(rank_diff_formula(RankDiffKey(3, 0, 1, 1)), 4).coeff(0) == 2
        # product constant 4 minus Lambert-sum constant 6*1
        assert eval_terms(rank_diff_formula(RankDiffKey(3, 0, 1, 2)), 4).coeff(0) == -2
        assert not eval_terms(rank_diff_formula(RankDiffKey(5, 0, 2, 2)), 12).nums

    def test_formula_matches_oracle(self):
        for key in ALL_KEYS:
            lhs = eval_terms(rank_diff_formula(key), 12)
            rhs = rank_diff_oracle(key, 12)
            assert first_mismatch(lhs, rhs) is None, key

    def test_formula_matches_counted_classes(self):
        # third route: the counting oracle read on ell*n + d, with no rank-class
        # generating function involved; n = 0 is left out (analytic convention).
        # The largest residue first, so each modulus's table is built once at
        # its largest weight
        order = 1000
        for key in sorted(ALL_KEYS, key=lambda k: -k.d):
            counted = from_terms(
                {j: nbar_class(key.s, key.ell, key.ell * j + key.d)
                 - nbar_class(key.t, key.ell, key.ell * j + key.d)
                 for j in range(order - 1, -1, -1) if key.ell * j + key.d >= 1}, order)
            assert first_mismatch(eval_terms(rank_diff_formula(key), order), counted) is None, key

    def test_integer_coefficients(self):
        for key in ALL_KEYS:
            for _, c in eval_terms(rank_diff_formula(key), 20).terms():
                assert c.denominator == 1, (key, c)


class TestSbarMachinery:
    def test_b_decomposition(self):
        for ell, m in ((3, 1), (5, 2), (5, 1)):
            sides = s_bar_b_decomposition(FinalFormSpec(ell, m))
            assert compare(*evaluated(sides, 90)).ok, (ell, m)

    def test_final_form(self):
        for ell, m in ((3, 1), (5, 2), (5, 1)):
            assert compare(*evaluated(s_bar_final_form(FinalFormSpec(ell, m)), 90)).ok, (ell, m)

    def test_brackets(self):
        assert compare(*evaluated(brackets(FinalFormSpec(3, 1)), 120)).ok
        assert compare(*evaluated(brackets(FinalFormSpec(5, 2)), 150)).ok
        assert eval_terms(sigma_coefficient_bracket(FinalFormSpec(5, 2)), 20).min_exp == 6
        lead = eval_terms(sigma_coefficient_bracket(FinalFormSpec(5, 1)), 20)
        assert lead.min_exp == 4 and lead.coeff(4) == -1
        assert compare(*evaluated(brackets(FinalFormSpec(5, 1)), 150)).ok

    def test_one_bracket_formula(self):
        """The formula is each bracket's closed form as the paper states it,
        and the product that multiplies the lifted Sum(m,0) in each Sbar
        closed form, as a ``Product`` value."""
        stated = {
            (3, 1): Product(-1, 2) * poch(1, 1, 1) * poch(-1, 9, 9)
            / (poch(-1, 1, 1) * poch(1, 9, 9)),
            (5, 2): Product(1, 6) * poch(1, 1, 1) * poch(-1, 25, 25)
            / (poch(-1, 1, 1) * poch(1, 25, 25)),
            (5, 1): Product(-1, 4) * poch(1, 1, 1) * poch(-1, 25, 25)
            / (poch(-1, 1, 1) * poch(1, 25, 25)),
        }
        for (ell, m), prod in stated.items():
            assert bracket_closed_form(ell, m) == prod, (ell, m)
        for which, (ell, b, terms) in SBAR_CLOSED_TABLE.items():
            m = (ell - b) // 2
            (term,) = [t for t in terms if t.series is not None and t.series.fn is sigma_ab]
            assert term.series == Route(sigma_ab, (ell * m, 0, ell * ell)), which
            assert term.prod == stated[(ell, m)], which

    def test_sbar_closed_forms(self):
        for which in ("s1too", "s1", "s3"):
            assert compare(*evaluated(verify_sbar_closed(which), 90)).ok, which

    def test_excluded_indices(self):
        assert FinalFormSpec(3, 1).excluded_sum_indices() == ()
        assert FinalFormSpec(5, 2).excluded_sum_indices() == (1,)
        assert FinalFormSpec(5, 1).excluded_sum_indices() == (2,)


class TestCombinations:
    def test_both_routes(self):
        for pair in COMBINATION_TABLE:
            lhs = eval_terms(combination_lhs(pair), 60)
            assert first_mismatch(lhs, eval_terms(combination_rank_side(pair), 60)) is None, pair
            assert compare(*evaluated(combination_theorem_sides(pair), 60)).ok, pair


class TestChecks:
    def test_all_pass(self):
        for i in range(10):
            assert compare(*evaluated(verify_check(i), 120)).ok, i


def _flip_sign(term: FormulaTerm, sign: int, r: int, step: int) -> FormulaTerm:
    """Replace the factor (sign q^r; q^step) of the term by (-sign q^r; q^step)."""
    return dataclasses.replace(term, prod=term.prod / poch(sign, r, step) * poch(-sign, r, step))


def _bump_exponent(term: FormulaTerm, sign: int, r: int, step: int) -> FormulaTerm:
    """Replace the factor (sign q^r; q^step) of the term by (sign q^(r+1); q^step)."""
    return dataclasses.replace(term, prod=term.prod / poch(sign, r, step) * poch(sign, r + 1, step))


def _one_term_negated(value):
    """Every copy of a table value, a nested tuple, with one of its
    FormulaTerms negated."""
    if isinstance(value, FormulaTerm):
        yield dataclasses.replace(value, prod=-value.prod)
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            for mutant in _one_term_negated(item):
                yield value[:i] + (mutant,) + value[i + 1:]


def _theorem_rows(key):
    """The registry rows built from one THEOREM_TABLE entry: its own thm row
    and the thmpoly row whose closed-form polynomial sums it."""
    ell, s, t, _ = key
    pair = next(p for p, (e, a, b, _) in COMBINATION_TABLE.items() if (e, a, b) == (ell, s, t))
    return [f"thm{ell}.{RankDiffKey(*key).slug}", f"thmpoly.{pair}"]


def _fails_at_default_order(row):
    entry = next(e for e in registry.list_identities() if e.id == row)
    return not registry.verify(row, entry.default_order).ok


class TestMutationSensitivity:
    def test_negating_any_table_term_fails_its_rows(self, monkeypatch):
        # the mutation matrix: every term of every transcription table, negated
        # alone, must make each registry row built from it FAIL at its default order
        runs, survivors = 0, []
        for table, rows in ((THEOREM_TABLE, _theorem_rows),
                            (CHECK_TABLE, lambda idx: [f"check{idx}"]),
                            (SBAR_CLOSED_TABLE, lambda which: [which])):
            for key, value in list(table.items()):
                for mutant in _one_term_negated(value):
                    with monkeypatch.context() as mp:
                        mp.setitem(table, key, mutant)
                        for row in rows(key):
                            runs += 1
                            if not _fails_at_default_order(row):
                                survivors.append((row, key, mutant))
        assert runs == 77 and not survivors, (runs, survivors)

    @pytest.mark.parametrize("mutate", [lambda p: -p,
                                        lambda p: Product(1, 1) * p,
                                        lambda p: Product(1, -1) * p],
                             ids=["sign", "exponent+1", "exponent-1"])
    def test_bracket_mutants_fail_every_bracket_row(self, monkeypatch, mutate):
        # the sign flipped, and the exponent m(ell - m) moved by one either way
        good = bracket_closed_form
        monkeypatch.setattr(rankdiff, "bracket_closed_form", lambda ell, m: mutate(good(ell, m)))
        for row in ("bracket@ell=3,m=1", "bracket@ell=5,m=2", "bracket@ell=5,m=1"):
            assert _fails_at_default_order(row), row

    def test_sign_flip_in_theorem_table(self, monkeypatch):
        key = RankDiffKey(3, 0, 1, 1)
        good = THEOREM_TABLE[(3, 0, 1, 1)]
        mutated = (_flip_sign(good[0], 1, 3, 3),)  # (q^3;q^3) -> (-q^3;q^3)
        with monkeypatch.context() as mp:
            mp.setitem(THEOREM_TABLE, (3, 0, 1, 1), mutated)
            report = compare(eval_terms(rank_diff_formula(key), 20), rank_diff_oracle(key, 20))
        assert not report.ok and report.first_mismatch is not None
        # every untouched entry still passes
        for other in ALL_KEYS:
            assert first_mismatch(eval_terms(rank_diff_formula(other), 10),
                                  rank_diff_oracle(other, 10)) is None

    def test_exponent_bump_in_check_table(self, monkeypatch):
        lhs_terms, rhs_terms = CHECK_TABLE[1]
        mutated = (_bump_exponent(lhs_terms[0], 1, 15, 50),)  # (q^15;q^50) -> (q^16;q^50)
        with monkeypatch.context() as mp:
            mp.setitem(CHECK_TABLE, 1, (mutated, rhs_terms))
            report = compare(*evaluated(verify_check(1), 80))
        assert not report.ok and report.first_mismatch is not None
        assert compare(*evaluated(verify_check(1), 80)).ok

    def test_prefactor_flip_in_bracket_table(self, monkeypatch):
        good = bracket_closed_form
        with monkeypatch.context() as mp:
            mp.setattr(rankdiff, "bracket_closed_form", lambda ell, m: -good(ell, m))
            report = compare(*evaluated(brackets(FinalFormSpec(3, 1)), 60))
        assert not report.ok
        assert report.first_mismatch.exp == 2  # the leading coefficient flips
        assert compare(*evaluated(brackets(FinalFormSpec(3, 1)), 60)).ok
