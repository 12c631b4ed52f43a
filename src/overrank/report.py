"""Verification reports: the uniform result record for every identity check.

A check is plain mathematics: it returns the two sides of its identity as
terms.  Only the registry evaluates them, turns a pair into a report
(``compare``), joins several into one (``merge``), and sets a report's id,
runtime and notes, with ``dataclasses.replace``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Tuple

from .series import Coefficient, LaurentSeries, first_mismatch


@dataclass(frozen=True)
class Mismatch:
    exp: int
    lhs: Coefficient
    rhs: Coefficient


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of comparing two truncated series coefficientwise.

    ``ok`` is True iff no mismatch was found below ``checked_order`` (the
    range on which both sides are guaranteed exact).  ``window`` carries a
    few coefficients of both sides around the first mismatch, the primary
    debugging aid for transcription errors.
    """

    id: str
    ok: bool
    checked_order: int
    first_mismatch: Optional[Mismatch] = None
    runtime_ms: int = 0
    notes: str = ""
    window: Tuple[Tuple[int, Coefficient, Coefficient], ...] = ()

    def to_json_dict(self, include_runtime: bool = True) -> dict:
        fm = self.first_mismatch
        return {"id": self.id, "pass": self.ok, "checked_order": self.checked_order,
                "first_mismatch": fm and {"exp": fm.exp, "lhs": _frac_str(fm.lhs),
                                          "rhs": _frac_str(fm.rhs)},
                "runtime_ms": self.runtime_ms if include_runtime else 0, "notes": self.notes}


def _frac_str(c: Coefficient) -> str:
    f = Fraction(c)
    return f"{f.numerator}/{f.denominator}"


def _assert_dyadic(series: LaurentSeries) -> None:
    # the only non-integer scalars in this circle of identities are halves, so
    # every denominator must be a power of two; anything else is an engine bug.
    # The series' least common denominator is then one too.
    if series.den & (series.den - 1):
        c = next(c for c in series.coeffs if c.denominator & (c.denominator - 1))
        raise AssertionError(f"non-dyadic coefficient {c} in {series!r}")


def compare(lhs: LaurentSeries, rhs: LaurentSeries) -> IdentityReport:
    """Compare two series on their common guaranteed range; the report's id
    and notes are left empty for the caller to set."""
    _assert_dyadic(lhs)
    _assert_dyadic(rhs)
    checked = min(lhs.order, rhs.order)
    fm = first_mismatch(lhs, rhs)
    if fm is None:
        return IdentityReport(id="", ok=True, checked_order=checked)
    e = fm[0]
    window = tuple(
        (n, lhs.coeff(n), rhs.coeff(n))
        for n in range(max(e - 2, min(lhs.min_exp, rhs.min_exp)), min(e + 3, checked))
    )
    return IdentityReport(id="", ok=False, checked_order=checked,
                          first_mismatch=Mismatch(e, fm[1], fm[2]), window=window)


def merge(reports: list) -> IdentityReport:
    """Combine sub-checks (e.g. several sampled instantiations) into one report.

    The merged report fails with the first failing sub-report's mismatch; its
    checked_order is the smallest among the parts.
    """
    if not reports:
        raise ValueError("cannot merge an empty report list")
    checked = min(r.checked_order for r in reports)
    for r in reports:
        if not r.ok:
            return replace(r, checked_order=checked)
    return IdentityReport(id="", ok=True, checked_order=checked)
