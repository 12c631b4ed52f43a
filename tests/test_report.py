"""Reports: the dyadic guard in ``compare``, and the layering that keeps
report building out of the engine modules."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import overrank
from overrank.report import compare
from overrank.series import LaurentSeries

ENGINE_MODULES = ("series", "products", "lambert", "combinat", "rankdiff")
PACKAGE = Path(overrank.__file__).parent


def _dyadic_by_terms(series: LaurentSeries) -> bool:
    """The reference rule: every nonzero coefficient has a power-of-two denominator."""
    return all(not (c.denominator & (c.denominator - 1)) for _, c in series.terms())


class TestDyadicGuard:
    @pytest.mark.parametrize("side", [0, 1])
    def test_a_third_on_either_side_raises(self, side):
        sides = [LaurentSeries(0, [1, Fraction(1, 2)], 4)] * 2
        sides[side] = LaurentSeries(0, [1, Fraction(1, 3)], 4)
        with pytest.raises(AssertionError, match="non-dyadic coefficient 1/3"):
            compare(*sides)

    def test_halves_and_quarters_pass(self):
        a = LaurentSeries(-1, [Fraction(1, 2), 0, Fraction(-1, 4), 3], 5)
        assert compare(a, a).ok
        assert not compare(a, LaurentSeries.zero(5)).ok

    @given(min_exp=st.integers(-5, 5),
           coeffs=st.lists(st.one_of(st.integers(-9, 9),
                                     st.fractions(max_denominator=12)), max_size=10))
    def test_raises_exactly_where_the_reference_rule_fails(self, min_exp, coeffs):
        a = LaurentSeries(min_exp, coeffs, min_exp + len(coeffs))
        one = LaurentSeries.monomial(1, 0, min_exp + len(coeffs))
        if _dyadic_by_terms(a):
            compare(a, one)
            compare(one, a)
        else:
            for sides in ((a, one), (one, a)):
                with pytest.raises(AssertionError, match="non-dyadic"):
                    compare(*sides)


def _imports_report(module: str) -> bool:
    """Whether the package module names ``report`` in any of its imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        if any("report" in name.split(".") for name in names):
            return True
    return False


class TestLayering:
    @pytest.mark.parametrize("module", ENGINE_MODULES)
    def test_engine_module_does_not_import_report(self, module):
        # checks return their two series; only the registry builds reports
        assert not _imports_report(module)

    def test_the_registry_does(self):
        assert _imports_report("registry")
