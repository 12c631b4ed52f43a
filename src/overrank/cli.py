"""Command-line interface: verify identities, run the suite, dump series,
and tabulate rank-class counts.

Exit codes: 0 success (all checks pass), 1 verification mismatch,
2 usage error, bad argument or unknown identity (one ``error:`` line).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Tuple

from . import combinat, registry
from .errors import BadArgument, OverrankError
from .lambert import s_bar
from .rankdiff import RankDiffKey, eval_terms, rank_diff_formula, rank_diff_oracle
from .report import IdentityReport
from .series import LaurentSeries


def _report_line(r: IdentityReport) -> str:
    status = "PASS" if r.ok else "FAIL"
    line = f"{status}  {r.id}  order={r.checked_order}  ({r.runtime_ms} ms)"
    if r.first_mismatch is not None:
        fm = r.first_mismatch
        line += f"\n      first mismatch at q^{fm.exp}: lhs={fm.lhs} rhs={fm.rhs}"
        for exp, lhs, rhs in r.window:
            line += f"\n      q^{exp}: {lhs} | {rhs}"
    if r.notes:
        line += f"\n      note: {r.notes}"
    return line


def _cmd_verify(args) -> int:
    report = registry.verify(args.id, args.order)
    if args.json:
        print(json.dumps(report.to_json_dict(include_runtime=not args.stable_json),
                         sort_keys=True, separators=(",", ":")))
    else:
        print(_report_line(report))
    return 0 if report.ok else 1


def _cmd_suite(args) -> int:
    reports = registry.run_suite(order_scale=args.order_scale)
    if args.json:
        print(registry.reports_json(reports, stable=args.stable_json))
    elif args.csv:
        print("id,pass,checked_order,mismatch_exp,lhs,rhs,runtime_ms,notes")
        for r in reports:
            fm = r.first_mismatch
            exp = fm.exp if fm else ""
            lhs = fm.lhs if fm else ""
            rhs = fm.rhs if fm else ""
            ms = 0 if args.stable_json else r.runtime_ms
            notes = r.notes.replace(",", ";")
            print(f"{r.id},{str(r.ok).lower()},{r.checked_order},{exp},{lhs},{rhs},{ms},{notes}")
    else:
        for r in reports:
            print(_report_line(r))
        n_fail = sum(1 for r in reports if not r.ok)
        print(f"-- {len(reports)} identities, {len(reports) - n_fail} passed, {n_fail} failed")
    return 0 if all(r.ok for r in reports) else 1


def _parse_rankdiff_key(text: str) -> RankDiffKey:
    """KEY format: <ell>.<s><t>.<d>, e.g. 3.01.2 or 5.12.4."""
    parts = text.split(".")
    if len(parts) != 3 or len(parts[1]) != 2 or not all(p.isdecimal() for p in parts):
        raise BadArgument(f"bad rank-difference key {text!r}; expected e.g. 5.12.4")
    return RankDiffKey(int(parts[0]), int(parts[1][0]), int(parts[1][1]), int(parts[2]))


def _int_pair(name: str, form: str) -> Tuple[int, int]:
    """The two integers after the colon of a series name of that form."""
    try:
        a, b = map(int, name.partition(":")[2].split(","))
    except ValueError:
        raise BadArgument(f"bad series name {name!r}; expected {form}") from None
    return a, b


def _named_series(name: str, order: int) -> LaurentSeries:
    kind, _, arg = name.partition(":")
    if name == "pbar":
        return combinat.pbar_series(order)
    if kind == "nbar":
        return combinat.nbar_class_series(*_int_pair(name, "nbar:s,m"), order)
    if kind == "rankdiff-oracle":
        return rank_diff_oracle(_parse_rankdiff_key(arg), order)
    if kind == "rankdiff-formula":
        return eval_terms(rank_diff_formula(_parse_rankdiff_key(arg)), order)
    if kind == "sbar":
        return s_bar(*_int_pair(name, "sbar:b,ell"), order)
    raise BadArgument(f"unknown series name {name!r}")


def _cmd_series(args) -> int:
    registry.check_order(args.order)
    series = _named_series(args.name, args.order)
    if args.csv:
        print("exponent,numerator,denominator")
    for n in range(min(series.min_exp, 0), series.order):
        c = Fraction(series.coeff(n))
        print(f"{n},{c.numerator},{c.denominator}")
    return 0


def _cmd_count(args) -> int:
    n_max, m = args.n, args.mod
    # past sys.maxsize no list of n + 1 rows, or of m classes, can be built
    if not 0 <= n_max < sys.maxsize:
        raise BadArgument(f"--n must be between 0 and {sys.maxsize - 1}, got {n_max}")
    if not 1 <= m <= sys.maxsize:
        raise BadArgument(f"--mod must be between 1 and {sys.maxsize}, got {m}")
    print("\t".join(["n", "pbar(n)"] + list(map("s={}".format, range(m)))))
    for n, classes in enumerate(combinat.class_table(m, n_max + 1)):
        print("\t".join(map(str, (n, sum(classes), *classes))))
    return 0


def _cmd_list(args) -> int:
    for e in registry.list_identities():
        print(f"{e.id}  [{e.tier}, order {e.default_order}]")
        print(f"    {e.anchor}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overrank",
        description="Verify overpartition rank-difference identities with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify one registered identity")
    p.add_argument("--id", required=True, help="registry id (see `overrank list`)")
    p.add_argument("--order", type=int, required=True, help="truncation order")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--stable-json", action="store_true",
                   help="zero runtime_ms so repeated runs are byte-identical")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("suite", help="verify every registered identity")
    p.add_argument("--order-scale", type=float, default=1.0,
                   help="multiply every default order by this factor")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.add_argument("--stable-json", action="store_true",
                   help="zero runtime_ms so repeated runs are byte-identical")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("series", help="print a named series as exact rationals")
    p.add_argument("--name", required=True,
                   help="pbar | nbar:s,m | rankdiff-oracle:KEY | rankdiff-formula:KEY"
                        " | sbar:b,ell  (KEY like 5.12.4)")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--csv", action="store_true", help="include a CSV header row")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("count", help="tabulate rank-class counts (counting oracle)")
    p.add_argument("--n", type=int, required=True, help="tabulate 0 <= n <= N")
    p.add_argument("--mod", type=int, required=True, help="rank modulus")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("list", help="print the identity registry")
    p.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OverrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
