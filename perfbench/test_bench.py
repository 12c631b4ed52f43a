"""Fast self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/test_bench.py        # or: python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layertrace  # noqa: E402
import run  # noqa: E402

TINY = {"entries": [["check1", 20], ["thm3.R01.d0", 4], ["jtp@sampled", 20],
                    ["oracle.pbar", 6]]}


def declared(key: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


class RunTest(unittest.TestCase):
    def setUp(self):
        run.WORKLOADS["tiny"] = TINY
        run.WORKLOADS["tiny-fail"] = dict(TINY, inject_fail="check1")

    def tearDown(self):
        del run.WORKLOADS["tiny"], run.WORKLOADS["tiny-fail"]

    def main(self, workload: str, trace: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", workload, "--seconds", "0", "--trace", str(trace)])
        return code, json.loads(buf.getvalue().strip().splitlines()[-1])

    def test_end_to_end_metrics_are_emitted_with_their_units(self):
        code, line = self.main("tiny", 0)
        self.assertEqual((code, line["correct"], line["attempted"], line["failed"]), (0, True, 4, 0))
        self.assertEqual({k: v["unit"] for k, v in line["metrics"].items()}, declared("end_to_end"))
        for name, m in line["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics_are_emitted_with_their_units(self):
        code, line = self.main("tiny", 1)
        self.assertEqual(code, 0)
        self.assertEqual({k: v["unit"] for k, v in line["metrics"].items()}, declared("per_layer"))
        metrics = {k: v["value"] for k, v in line["metrics"].items()}
        self.assertEqual(metrics["registry.verify.calls"], 4)
        self.assertEqual(metrics["registry.list_identities.calls"], 1)
        self.assertGreater(metrics["series.mul.demand_ops"], 0)
        self.assertGreater(metrics["combinat.rank_table.misses"], 0)

    def test_injected_failing_report_shows_in_fail_frac(self):
        code, line = self.main("tiny-fail", 0)
        self.assertEqual((code, line["correct"], line["attempted"], line["failed"]), (1, False, 4, 1))

    def test_grade_counts_missing_ids_short_checks_and_errors(self):
        child = {"entries": [
            {"id": "a", "ok": True, "checked": 9},
            {"id": "b", "ok": True, "checked": 10},
            {"id": "d", "ok": False, "checked": 0, "error": "ZeroLeadingTerm: boom"},
        ]}
        reasons = dict(run.grade(child, {"a": 10, "b": 10, "c": 5}))
        self.assertIn("checked_order 9 < 10", reasons["a"])
        self.assertIsNone(reasons["b"])
        self.assertEqual(reasons["c"], "missing from the registry")
        self.assertIn("ZeroLeadingTerm", reasons["d"])
        self.assertEqual(len(run.grade({"error": "child timed out"}, {"a": 1, "b": 1})), 2)

    def test_workloads_match_benchmark_json_and_floors(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = {w["name"] for w in spec["workloads"]}
        self.assertEqual(names, set(run.WORKLOADS) - {"tiny", "tiny-fail"})
        self.assertEqual(set(run.load_floors()), names)

    def test_no_sources_exits_2_without_a_result(self):
        root = run.ROOT
        run.ROOT = root / "no-such-checkout"
        try:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "tiny", "--seconds", "0", "--trace", "0"])
        finally:
            run.ROOT = root
        self.assertEqual((code, buf.getvalue()), (2, ""))


class TraceTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.ROOT / "src"))

    def test_wrappers_rebind_aliases_keep_caches_and_report_absent_names(self):
        from overrank import combinat, lambert, series
        original_mul, original_table = series.mul, combinat.rank_table
        saved = layertrace.TRACED
        layertrace.TRACED = dict(saved, series=saved["series"] + ("no_such_function",))
        try:
            tracer = layertrace.Tracer().install()
        finally:
            layertrace.TRACED = saved
        try:
            self.assertIsNot(series.mul, original_mul)
            self.assertIs(lambert.mul, series.mul)  # the `from .series import mul` alias
            combinat.rank_table.cache_clear()
            combinat.rank_table(5)
            combinat.rank_table(5)
            metrics = tracer.layer_metrics()
        finally:
            tracer.uninstall()
        self.assertIs(series.mul, original_mul)
        self.assertIs(combinat.rank_table, original_table)
        self.assertEqual(metrics["combinat.rank_table.calls"], 2)
        self.assertEqual((metrics["combinat.rank_table.misses"],
                          metrics["combinat.rank_table.hits"]), (1, 1))
        self.assertIn("series.no_such_function", tracer.absent)
        self.assertEqual(metrics["series.no_such_function.calls"], 0)

    def test_self_time_subtracts_child_spans(self):
        tracer = layertrace.Tracer()
        tracer.spans = [["a", 0.0, 10.0, -1, "r"], ["b", 1.0, 4.0, 0, "r"],
                        ["c", 5.0, 6.0, 0, "r"], ["d", 2.0, 3.0, 1, "r"]]
        self.assertEqual(tracer.self_times(), [6.0, 2.0, 1.0, 1.0])

    def test_mul_demand_counts_nonzero_products_inside_the_window(self):
        from overrank.series import LaurentSeries, mul
        a = LaurentSeries(0, [1, 0, 2], 6)
        b = LaurentSeries(0, [1, 1, 0, 1], 4)
        stats = layertrace._SeriesStats()
        stats.mul(mul(a, b), a, b)
        # window [0, 4): a0 meets b0, b1, b3; a2 meets b0, b1
        self.assertEqual(stats.demand_ops, 5)
        self.assertEqual(stats.max_len, 4)


if __name__ == "__main__":
    unittest.main()
