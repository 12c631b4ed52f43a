"""Registry behavior (census, determinism, seeded sampling, isolation)
and the command-line interface."""

import contextlib
import dataclasses
import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from overrank import combinat, registry
from overrank.cli import main
from overrank.combinat import nbar_class_series, pbar_series
from overrank.errors import OverrankError, PoleHit, UnknownIdentity
from overrank.products import Product, poch
from overrank.report import IdentityReport

SAMPLED_IDS = [
    "constant@sampled", "gees@sampled", "jtp@sampled", "lemma3.2@sampled",
    "lemma3.3@sampled", "lemma3.4@sampled", "lemma3.5@sampled", "lemma3.6@sampled",
    "lemma4.1@sampled", "part1@sampled", "short@sampled", "sigma-shift@sampled",
    "step@sampled",
]


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
        if seed is None:
            monkeypatch.delenv("OVERRANK_SEED", raising=False)
        else:
            monkeypatch.setenv("OVERRANK_SEED", seed)
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

    def test_stable_report_matches_golden_file(self, monkeypatch):
        monkeypatch.delenv("OVERRANK_SEED", raising=False)
        golden = Path(__file__).parent / "data" / "suite_stable_0.25.json"
        stable = registry.reports_json(registry.run_suite(order_scale=0.25), stable=True)
        assert stable == golden.read_text()

    def test_stable_report_matches_golden_file_at_default_orders(self, monkeypatch):
        monkeypatch.delenv("OVERRANK_SEED", raising=False)
        golden = Path(__file__).parent / "data" / "suite_stable_1.0.json"
        stable = registry.reports_json(registry.run_suite(order_scale=1.0), stable=True)
        assert stable == golden.read_text()

    def test_short_check_is_a_failure(self, monkeypatch):
        # a check that compares fewer coefficients than asked is not a PASS
        def build(order):
            return IdentityReport(id="", ok=True, checked_order=order - 1, notes="seed=1")

        stub = registry.IdentityEntry("stub", "", 10, "product", build)
        monkeypatch.setitem(registry._registry(), "stub", stub)
        report = registry.verify("stub", 10)
        assert not report.ok and report.checked_order == 9
        assert report.notes == "seed=1; short check: 9 of 10 coefficients compared"

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

        def boom(order):
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

    def test_count_bad_input(self, capsys):
        assert main(["count", "--n", "5", "--mod", "0"]) == 2
        assert main(["count", "--n", "-1", "--mod", "3"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 2
        assert all(line.startswith("error: ") for line in lines)

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
        ["verify", "--id", "check5", "--order", "99999999999999999999"],
        ["series", "--name", "pbar", "--order", "99999999999999999999"],
        ["suite", "--order-scale", "1e300"],
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
