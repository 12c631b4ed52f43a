"""Registry behavior (census, determinism, seeded sampling, isolation)
and the command-line interface."""

import contextlib
import dataclasses
import io
import json
import lzma
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from overrank import combinat, products, rankdiff, registry
from overrank.cli import main
from overrank.combinat import nbar_class_series, pbar_series
from overrank.errors import OverrankError, PoleHit, UnknownIdentity
from overrank.products import FormulaTerm, Product, Route, poch
from overrank.rankdiff import eval_terms
from overrank.report import IdentityReport
from overrank.series import LaurentSeries

SAMPLED_IDS = [
    "constant@sampled", "gees@sampled", "jtp@sampled", "lemma3.2@sampled",
    "lemma3.3@sampled", "lemma3.4@sampled", "lemma3.5@sampled", "lemma3.6@sampled",
    "lemma4.1@sampled", "part1@sampled", "short@sampled", "sigma-shift@sampled",
    "step@sampled",
]


def _golden(scale, seed):
    """The recorded stable suite JSON at an order scale, for the default seed
    (None) or an OVERRANK_SEED value."""
    suffix = "" if seed is None else f".seed{seed}"
    return Path(__file__).parent / "data" / f"suite_stable_{scale}{suffix}.json"


def _use_seed(monkeypatch, seed):
    """Unset OVERRANK_SEED for None, else set it to seed."""
    if seed is None:
        monkeypatch.delenv("OVERRANK_SEED", raising=False)
    else:
        monkeypatch.setenv("OVERRANK_SEED", seed)


class TestRegistry:
    def test_census(self):
        entries = registry.list_identities()
        assert len(entries) >= 45
        ids = [e.id for e in entries]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        for expected in ("thm5.R02.d2", "lemma2.1@ell=3", "check7", "g1@a=2,ell=5",
                         "lemma3.3@x=-q^5,z=-q^10,base=25", "bracket@ell=5,m=1"):
            assert expected in ids, expected
        assert [i for i in ids if i.endswith("@sampled")] == SAMPLED_IDS

    def test_every_entry_has_anchor_and_tier(self):
        for e in registry.list_identities():
            assert e.anchor
            assert e.tier in ("product", "lambert", "oracle", "combination")
            assert e.default_order >= 1

    def test_verify(self):
        report = registry.verify("lemma2.1@ell=3", 100)
        assert report.ok and report.id == "lemma2.1@ell=3"
        assert report.checked_order == 100

    def test_verify_deterministic(self):
        a = registry.verify("thm3.R01.d2", 15)
        b = registry.verify("thm3.R01.d2", 15)
        assert a.to_json_dict(include_runtime=False) == b.to_json_dict(include_runtime=False)

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentity):
            registry.verify("bogus", 10)

    def test_order_below_one_rejected(self):
        for order in (0, -5):
            with pytest.raises(OverrankError):
                registry.verify("check1", order)
        # every scale that would run some entry below order 1, or not at all
        for scale in (0, 0.001, 1 / 32, float("inf"), float("nan")):
            with pytest.raises(OverrankError):
                registry.run_suite(order_scale=scale)

    def test_oracle_entries_reach_the_requested_order(self):
        # no clamp at the old enumeration cap of 40
        for entry_id, order in (("oracle.pbar", 400), ("gen@m=1", 200),
                                ("gen1@s=1,m=5", 200)):
            report = registry.verify(entry_id, order)
            assert report.ok and report.checked_order == order, entry_id

    @pytest.mark.parametrize("seed", [None, "1", "12345"])
    def test_every_entry_reaches_the_requested_order(self, monkeypatch, seed):
        # each check builds its sides at the order asked for, padded only by
        # the negative shifts it applies; a side cut short shows up here
        _use_seed(monkeypatch, seed)
        bad = []
        for entry in registry.list_identities():
            for order in (1, 2, 7, entry.default_order // 2):
                report = registry.verify(entry.id, order)
                if not (report.ok and report.checked_order == order):
                    bad.append((entry.id, order, report.checked_order, report.notes))
        assert not bad

    @pytest.mark.parametrize("entry_id", [f"{rel}@ell={ell}" for rel in ("p2", "p4")
                                          for ell in (3, 5, 7)])
    def test_shifted_p_relations_reach_the_requested_order(self, entry_id):
        # the side multiplied by y^-a is built deeper, not cut short by a
        for order in (200, 50):
            report = registry.verify(entry_id, order)
            assert report.ok and report.checked_order == order, order

    @pytest.mark.parametrize("seed", [None, "1", "12345"])
    def test_stable_report_matches_golden_file(self, monkeypatch, seed):
        _use_seed(monkeypatch, seed)
        stable = registry.reports_json(registry.run_suite(order_scale=0.25), stable=True)
        assert stable == _golden(0.25, seed).read_text()

    @pytest.mark.parametrize("seed", [None, "1", "12345"])
    def test_stable_report_matches_golden_file_at_default_orders(self, monkeypatch, seed):
        _use_seed(monkeypatch, seed)
        stable = registry.reports_json(registry.run_suite(order_scale=1.0), stable=True)
        assert stable == _golden(1.0, seed).read_text()

    def test_short_check_is_a_failure(self, monkeypatch):
        # a check that compares fewer coefficients than asked is not a PASS
        def short(order):
            return LaurentSeries.zero(order - 1)

        side = (FormulaTerm(series=Route(short)),)
        stub = registry.IdentityEntry("stub", "", 10, "product", lambda: [(side, side)],
                                      notes="stub note")
        monkeypatch.setitem(registry._registry(), "stub", stub)
        report = registry.verify("stub", 10)
        assert not report.ok and report.checked_order == 9
        assert report.notes == "stub note; short check: 9 of 10 coefficients compared"

    def test_suite_smoke_scale(self):
        reports = registry.run_suite(order_scale=0.1)
        assert len(reports) == len(registry.list_identities())
        assert all(r.ok for r in reports), [r.id for r in reports if not r.ok]
        ids = [r.id for r in reports]
        assert ids == sorted(ids)

    def test_suite_deterministic_bytes(self):
        a = registry.reports_json(registry.run_suite(order_scale=0.1), stable=True)
        b = registry.reports_json(registry.run_suite(order_scale=0.1), stable=True)
        assert a == b

    def test_corrupted_entry_is_isolated(self, monkeypatch):
        reg = registry._registry()
        victim = "rels@b=1,ell=3"

        def boom():
            raise RuntimeError("injected failure")

        monkeypatch.setitem(reg, victim, dataclasses.replace(reg[victim], build=boom))
        reports = {r.id: r for r in registry.run_suite(order_scale=0.1)}
        assert not reports[victim].ok
        assert "injected failure" in reports[victim].notes
        others = [r for i, r in reports.items() if i != victim]
        assert all(r.ok for r in others)

    @pytest.mark.parametrize("entry_id", SAMPLED_IDS)
    def test_seed_env_override(self, monkeypatch, entry_id):
        monkeypatch.setenv("OVERRANK_SEED", "12345")
        seeded = []
        real_rng = registry._rng

        def spy(eid):
            rng = real_rng(eid)
            seeded.append((eid, rng))
            return rng

        monkeypatch.setattr(registry, "_rng", spy)
        report = registry.verify(entry_id, 20)
        assert report.ok and report.checked_order == 20
        assert report.notes == "seed=12345"
        # one generator, seeded from the override and the id, and drawn from
        [(eid, rng)] = seeded
        assert eid == entry_id
        assert rng.getstate() != random.Random(f"12345:{entry_id}").getstate()


def _negated(comparisons, side, pos):
    """The comparisons with the term at position pos of the side negated in
    every one that has it."""
    out = []
    for sides in comparisons:
        sides = list(sides)
        terms = sides[side]
        if pos < len(terms):
            term = terms[pos]
            negated = dataclasses.replace(term, prod=-term.prod)
            sides[side] = terms[:pos] + (negated,) + terms[pos + 1:]
        out.append(tuple(sides))
    return out


def _first_negated(value):
    """A table value, a nested tuple, with its first FormulaTerm negated."""
    if isinstance(value, FormulaTerm):
        return dataclasses.replace(value, prod=-value.prod)
    if isinstance(value, tuple):
        for i, item in enumerate(value):
            new = _first_negated(item)
            if new != item:
                return value[:i] + (new,) + value[i + 1:]
    return value


class TestRowsAsData:
    def test_negating_any_term_fails_its_row(self, monkeypatch):
        """The mutation matrix over every row: each term position of each
        side, negated in every comparison of the row (all draws of a sampled
        row at once), must make the row FAIL at its default order, unless
        the term is zero below that order in every comparison."""
        monkeypatch.delenv("OVERRANK_SEED", raising=False)
        reg = registry._registry()
        runs, zero, survivors = 0, [], []
        for entry in registry.list_identities():
            comparisons = entry.build()
            for side in (0, 1):
                for pos in range(max(len(sides[side]) for sides in comparisons)):
                    if not any(eval_terms(sides[side][pos:pos + 1], entry.default_order).nums
                               for sides in comparisons):
                        zero.append((entry.id, side, pos))
                        continue
                    runs += 1
                    mutant = dataclasses.replace(
                        entry, build=lambda b=entry.build, s=side, i=pos: _negated(b(), s, i))
                    with monkeypatch.context() as mp:
                        mp.setitem(reg, entry.id, mutant)
                        if registry.verify(entry.id, entry.default_order).ok:
                            survivors.append((entry.id, side, pos))
        assert (runs, zero, survivors) == (350, [("thm5.R02.d2", 1, 0)], [])

    def test_duplicate_rows_are_the_two_known_pairs(self, monkeypatch):
        """Rows with equal term data, whatever their default orders: each
        g1 row at a = 1 is the part1 row at z = q."""
        monkeypatch.delenv("OVERRANK_SEED", raising=False)
        groups = {}
        for entry in registry.list_identities():
            groups.setdefault(tuple(entry.build()), []).append(entry.id)
        assert sorted(ids for ids in groups.values() if len(ids) > 1) == [
            ["g1@a=1,ell=3", "part1@z=q^1,base=3"], ["g1@a=1,ell=5", "part1@z=q^1,base=5"]]

    def test_table_rows_render_their_anchors(self, monkeypatch):
        """A table row's statement is its terms: negating one term of the
        table changes the row's anchor, and only that row's."""
        def anchors():
            return {e.id: e.anchor for e in registry._entries()}

        before = anchors()
        assert before["thm5.R02.d2"] == "R02(2) = 0"
        assert before["lemma3.1.eq1"] == ("(q;q) / (-q;q) = (q^9;q^9) / (-q^9;q^9)"
                                          " - 2 q (q^3;q^18)(q^15;q^18)(q^18;q^18)")
        for table, key, row in ((rankdiff.THEOREM_TABLE, (3, 0, 1, 2), "thm3.R01.d2"),
                                (rankdiff.CHECK_TABLE, 7, "check7"),
                                (rankdiff.SBAR_CLOSED_TABLE, "s3", "s3"),
                                (products.LEMMA31_TABLE, "eq2", "lemma3.1.eq2")):
            with monkeypatch.context() as mp:
                mp.setitem(table, key, _first_negated(table[key]))
                after = anchors()
            assert [i for i in before if before[i] != after[i]] == [row], row



class TestReportJson:
    def test_schema(self):
        report = registry.verify("rels@b=1,ell=5", 50)
        d = report.to_json_dict()
        assert set(d) == {"id", "pass", "checked_order", "first_mismatch", "runtime_ms", "notes"}
        assert d["pass"] is True and d["first_mismatch"] is None

    def test_mismatch_rendering(self):
        from overrank.report import Mismatch
        r = IdentityReport(id="x", ok=False, checked_order=5,
                           first_mismatch=Mismatch(3, 1, -1))
        d = r.to_json_dict()
        assert d["first_mismatch"] == {"exp": 3, "lhs": "1/1", "rhs": "-1/1"}


class TestCli:
    def test_verify_pass(self, capsys):
        assert main(["verify", "--id", "rels@b=1,ell=3", "--order", "40"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS")

    def test_verify_unknown(self, capsys):
        assert main(["verify", "--id", "nope", "--order", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no identity with id 'nope'\n"

    def test_verify_json(self, capsys):
        assert main(["verify", "--id", "rels@b=1,ell=3", "--order", "30",
                     "--json", "--stable-json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["runtime_ms"] == 0

    def test_suite_json(self, capsys):
        assert main(["suite", "--order-scale", "0.1", "--json", "--stable-json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == len(registry.list_identities())

    def test_suite_csv(self, capsys):
        assert main(["suite", "--order-scale", "0.1", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("id,pass,")
        assert len(lines) == len(registry.list_identities()) + 1

    def test_series_pbar(self, capsys):
        assert main(["series", "--name", "pbar", "--order", "5", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "exponent,numerator,denominator"
        assert lines[1:] == ["0,1,1", "1,2,1", "2,4,1", "3,8,1", "4,14,1"]

    def test_series_named_forms(self, capsys):
        assert main(["series", "--name", "sbar:1,3", "--order", "6"]) == 0
        assert main(["series", "--name", "nbar:0,3", "--order", "6"]) == 0
        assert main(["series", "--name", "rankdiff-oracle:3.01.1", "--order", "4"]) == 0
        out = capsys.readouterr().out
        assert "0,2,1" in out  # R01(1) starts with constant 2

    def test_series_formula_matches_oracle_output(self, capsys):
        assert main(["series", "--name", "rankdiff-formula:3.01.1", "--order", "4"]) == 0
        formula_out = capsys.readouterr().out
        assert main(["series", "--name", "rankdiff-oracle:3.01.1", "--order", "4"]) == 0
        assert capsys.readouterr().out == formula_out

    def test_series_bad_name(self, capsys):
        assert main(["series", "--name", "wat", "--order", "5"]) == 2
        assert main(["series", "--name", "rankdiff-oracle:whoops", "--order", "5"]) == 2
        capsys.readouterr()
        for name, error in (
                ("nbar:0", "bad series name 'nbar:0'; expected nbar:s,m"),
                ("sbar:3", "bad series name 'sbar:3'; expected sbar:b,ell"),
                ("rankdiff-oracle:3.0a.1", "bad rank-difference key '3.0a.1'; expected e.g. 5.12.4")):
            assert main(["series", "--name", name, "--order", "5"]) == 2
            assert capsys.readouterr().err == f"error: {error}\n"

    def test_count(self, capsys):
        assert main(["count", "--n", "4", "--mod", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t") == ["n", "pbar(n)", "s=0", "s=1", "s=2"]
        assert lines[4].split("\t") == ["3", "8", "4", "2", "2"]
        assert lines[5].split("\t") == ["4", "14", "6", "4", "4"]

    def test_count_beyond_enumeration_range(self, capsys):
        assert main(["count", "--n", "60", "--mod", "3"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.strip().splitlines()]
        assert len(rows) == 62
        pb = pbar_series(61)
        classes = [nbar_class_series(s, 3, 61) for s in range(3)]
        for n, row in enumerate(rows[1:]):
            assert int(row[0]) == n and int(row[1]) == pb.coeff(n)
            if n >= 1:  # the series have constant term 0 (analytic convention)
                assert [int(c) for c in row[2:]] == [c.coeff(n) for c in classes], n

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 10, 17, 40])
    def test_count_rows_are_the_classes(self, capsys, m):
        """Every row, for n from 0 to 9, holds each class of nbar_class in turn,
        where m lies below 2n - 1 and where at or above it."""
        assert main(["count", "--n", "9", "--mod", str(m)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "\t".join(["n", "pbar(n)"] + [f"s={s}" for s in range(m)])
        for n, line in enumerate(lines[1:]):
            classes = [combinat.nbar_class(s, m, n) for s in range(m)]
            assert line == "\t".join(str(c) for c in [n, sum(classes)] + classes)
        assert len(lines) == 11

    @pytest.mark.parametrize("n, m", [(3, 300000), (12, 5), (9, 40), (0, 3), (60, 1)])
    def test_count_matches_recorded_output(self, capsys, n, m):
        """Byte-identical to the recorded table; xz keeps the 5 MB table of
        modulus 300000 small."""
        assert main(["count", "--n", str(n), "--mod", str(m)]) == 0
        recorded = Path(__file__).parent / "data" / f"count_n{n}_mod{m}.txt.xz"
        assert capsys.readouterr().out == lzma.decompress(recorded.read_bytes()).decode()

    def test_count_bad_input(self, capsys):
        assert main(["count", "--n", "5", "--mod", "0"]) == 2
        assert main(["count", "--n", "-1", "--mod", "3"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 2
        assert all(line.startswith("error: ") for line in lines)

    def test_count_rejects_a_modulus_past_maxsize(self, capsys):
        # one error line before any output, where the header alone would have
        # named one column per class
        assert main(["count", "--n", "5", "--mod", "99999999999999999999"]) == 2
        assert main(["count", "--n", "5", "--mod", str(sys.maxsize + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --mod must be between 1 and {sys.maxsize}, got {m}"
            for m in (99999999999999999999, sys.maxsize + 1)]

    def test_count_rejects_a_weight_past_maxsize(self, capsys):
        # past sys.maxsize - 1 no table of n + 1 rows can be built
        assert main(["count", "--n", "99999999999999999999", "--mod", "3"]) == 2
        assert main(["count", "--n", str(sys.maxsize), "--mod", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --n must be between 0 and {sys.maxsize - 1}, got {n}"
            for n in (99999999999999999999, sys.maxsize)]

    @pytest.mark.parametrize("argv", [
        ["verify", "--id", "check1", "--order", "0"],
        ["verify", "--id", "check1", "--order", "-5"],
        ["verify", "--id", "thm3.R01.d0", "--order", "0"],
        ["series", "--name", "pbar", "--order", "-2"],
        ["suite", "--order-scale", "0"],
        ["suite", "--order-scale", "0.001"],
        ["suite", "--order-scale", "inf"],
        ["series", "--name", "sbar:1,0", "--order", "5"],
        ["series", "--name", "pbar:x", "--order", "4"],
        ["series", "--name", "nbar:0", "--order", "5"],
        ["series", "--name", "sbar:3", "--order", "5"],
        ["series", "--name", "rankdiff-oracle:3.0a.1", "--order", "5"],
        ["verify", "--id", "check5", "--order", "99999999999999999999"],
        ["series", "--name", "pbar", "--order", "99999999999999999999"],
        ["suite", "--order-scale", "1e300"],
        ["series", "--name", "nbar:0,0", "--order", "5"],
        ["series", "--name", "foo", "--order", "5"],
        ["series", "--name", "rankdiff-oracle:5.13.1", "--order", "5"],
        ["series", "--name", "rankdiff-formula:x", "--order", "5"],
    ])
    def test_bad_input_exits_2_with_one_error_line(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_a_pole_exits_2_with_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(combinat, "pbar_series",
                            lambda order: (Product() / poch(1, 0, 1)).expand(order))
        with pytest.raises(PoleHit) as caught:
            combinat.pbar_series(5)
        assert isinstance(caught.value, ZeroDivisionError)
        assert isinstance(caught.value, OverrankError)
        assert main(["series", "--name", "pbar", "--order", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("module, name, argv", [
        (combinat, "class_table", ["count", "--n", "2", "--mod", "3"]),
        (registry, "verify", ["verify", "--id", "check1", "--order", "5"]),
    ])
    def test_running_out_of_memory_exits_2_with_one_error_line(self, capsys, monkeypatch,
                                                               module, name, argv):
        # exit 1 is a verification mismatch; no memory is allocated for real
        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(module, name, out_of_memory)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # for count, not even the header
        assert captured.err == "error: out of memory\n"

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "thm5.R02.d2" in out
        assert "R02(2) = 0" in out


SMALL = st.integers(-2, 6).map(str)
INTS = st.integers(-3, 7)


@st.composite
def cli_argv(draw):
    """verify, series, count and suite argvs at small orders, valid or not."""
    cmd = draw(st.sampled_from(["verify", "series", "count", "suite"]))
    if cmd == "verify":
        entry_id = draw(st.sampled_from([e.id for e in registry.list_identities()] + ["nope"]))
        return (["verify", "--id", entry_id, "--order", draw(SMALL)]
                + draw(st.sampled_from([[], ["--json"], ["--json", "--stable-json"]])))
    if cmd == "series":
        key = st.builds("{}.{}{}.{}".format, INTS, INTS, INTS, INTS)
        name = draw(st.one_of(
            st.sampled_from(["pbar", "nbar:1", "sbar:x,3", "wat", ""]),
            st.builds("nbar:{},{}".format, INTS, INTS),
            st.builds("sbar:{},{}".format, INTS, INTS),
            st.builds("{}:{}".format,
                      st.sampled_from(["rankdiff-oracle", "rankdiff-formula"]), key),
        ))
        return (["series", "--name", name, "--order", draw(SMALL)]
                + draw(st.sampled_from([[], ["--csv"]])))
    if cmd == "count":
        return ["count", "--n", draw(st.integers(-2, 8).map(str)),
                "--mod", draw(st.integers(-1, 6).map(str))]
    scale = draw(st.sampled_from(["0", "-1", "0.001", "0.04", "inf", "-inf", "nan", "x"]))
    return (["suite", "--order-scale", scale]
            + draw(st.sampled_from([[], ["--json", "--stable-json"], ["--csv"]])))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cli_argv())
def test_cli_fuzz_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed values with exit 2
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.getvalue().splitlines()[-1].startswith(("error: ", "usage: ", "overrank "))
