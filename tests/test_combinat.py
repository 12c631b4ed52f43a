"""Counting oracle, its enumeration reference, and the rank generating functions."""

import ast
import inspect
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import overrank
from overrank import combinat
from overrank.combinat import (
    class_table,
    nbar,
    nbar_class,
    nbar_class_series,
    nbar_series,
    pbar_series,
    rank_table,
)
from overrank.products import binomial_pass
from overrank.series import LaurentSeries, first_mismatch, mul
from reference import count_by_largest_part, overpartitions, rank
from test_reachability import reached


def _nbar_series_by_binomial_passes(m, order):
    """2 (-q;q)/(q;q) sum_{n>=1} (-1)^(n-1) q^(n^2+|m|n) (1-q^n)/(1+q^n), each
    term one binomial_pass by 1 - q^n and one dividing by 1 + q^n."""
    m = abs(m)
    inner = [0] * order
    n = 1
    while n * n + m * n < order:
        lead = n * n + m * n
        piece = [0] * (order - lead)
        piece[0] = 1 if n % 2 else -1
        binomial_pass(piece, 1, n, 1)
        binomial_pass(piece, -1, n, -1)
        inner[lead:] = [x + y for x, y in zip(inner[lead:], piece)]
        n += 1
    return mul(pbar_series(order).scale(2), LaurentSeries(0, inner, order)).truncate(order)


def op(parts, over=()):
    return tuple(parts), frozenset(over)


class TestEnumeration:
    def test_fourteen_overpartitions_of_four(self):
        ops = set(overpartitions(4))
        assert len(ops) == 14
        expected = {
            op([4]), op([4], [4]),
            op([3, 1]), op([3, 1], [3]), op([3, 1], [1]), op([3, 1], [3, 1]),
            op([2, 2]), op([2, 2], [2]),
            op([2, 1, 1]), op([2, 1, 1], [2]), op([2, 1, 1], [1]), op([2, 1, 1], [2, 1]),
            op([1, 1, 1, 1]), op([1, 1, 1, 1], [1]),
        }
        assert ops == expected

    def test_eight_overpartitions_of_three(self):
        ops = set(overpartitions(3))
        expected = {
            op([3]), op([3], [3]),
            op([2, 1]), op([2, 1], [2]), op([2, 1], [1]), op([2, 1], [2, 1]),
            op([1, 1, 1]), op([1, 1, 1], [1]),
        }
        assert ops == expected

    def test_empty(self):
        assert list(overpartitions(0)) == [op([])]


class TestRank:
    def test_examples(self):
        assert rank((2, 2)) == 0
        assert rank((4,)) == 3
        assert rank((1, 1, 1, 1)) == -3
        assert rank(()) == 0

    def test_table_counts(self):
        assert sorted(rank(parts) for parts, _ in overpartitions(3)) == \
            [-2, -2, 0, 0, 0, 0, 2, 2]
        assert nbar_class(0, 3, 3) == 4
        assert nbar_class(1, 3, 3) == 2
        assert nbar_class(1, 2, 2) == 4

    def test_classes_partition_the_set(self):
        assert sum(nbar_class(s, 5, 7) for s in range(5)) == sum(rank_table(7).values())

    def test_symmetry(self):
        for n in range(0, 31):
            counts = rank_table(n)
            for m in range(0, 9):
                assert counts.get(m, 0) == counts.get(-m, 0), (n, m)

    def test_counts_match_enumeration(self):
        # the counting oracle is pinned to the object enumeration
        for n in range(31):
            enumerated = Counter(rank(parts) for parts, _ in overpartitions(n))
            assert rank_table(n) == dict(enumerated), n

    def test_large_moduli_match_the_residue_tables(self):
        # from m = 2n - 1 on, the class counts are read from the exact histogram
        for n in range(12):
            for m in range(max(1, 2 * n - 4), 2 * n + 3):
                assert [nbar_class(s, m, n) for s in range(m)] == combinat._rows(m, n + 1)[n], \
                    (n, m)

    def test_counts_match_the_largest_part_dp(self):
        # the rank-function sum is pinned to the DP over the largest part that
        # it replaced, in both of the DP's layouts
        order = 300
        for m in (1, 2, 3, 5, 7, 40):
            assert combinat._count_by_residue(m, order) == count_by_largest_part(m, order), m
        assert combinat._count_by_residue(2 * order - 1, order) == \
            count_by_largest_part(None, order)

    def test_exact_table_folds_onto_the_residue_tables(self):
        # the exact histogram is the residue table modulo 2 * order - 1, so
        # folding it by rank mod m gives the residue tables of m
        order = 300
        size = 2 * order - 1
        exact = combinat._count_by_residue(size, order)
        for m in (3, 5, 7):
            folded = [[0] * m for _ in range(order)]
            for n, row in enumerate(exact):
                for s, c in enumerate(row):
                    folded[n][(s if s < order else s - size) % m] += c
            assert folded == combinat._count_by_residue(m, order), m

    def test_an_absurd_modulus_builds_no_table(self):
        m = 10**12
        assert [nbar_class(s, m, 3) for s in (0, 1, 2, 3, m - 2, m - 1)] == \
            [nbar(r, 3) for r in (0, 1, 2, 3, -2, -1)] == [4, 0, 2, 0, 2, 0]
        assert m not in combinat._TABLES

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 9, 40])
    def test_class_counts_are_the_classes(self, m):
        # one residue table against nbar_class, which folds the histogram
        # where m >= 2n - 1
        table = class_table(m, 13)
        assert len(table) == 13
        for n, row in enumerate(table):
            assert row == tuple(nbar_class(s, m, n) for s in range(m)), n

    def test_the_cached_histogram_is_read_only(self):
        with pytest.raises(TypeError):
            rank_table(5)[0] = 999
        assert nbar(0, 5) == 4 and nbar_class(0, 9, 5) == 4

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            rank_table(-1)
        with pytest.raises(ValueError):
            nbar_class(0, 3, -1)
        with pytest.raises(ValueError):
            nbar_class(0, 0, 4)
        with pytest.raises(ValueError):
            class_table(3, 0)
        with pytest.raises(ValueError):
            class_table(0, 4)

    def test_tables_grow_consistently_under_threads(self):
        want = [[nbar_class(s, 5, n) for s in range(5)] for n in range(90)]
        combinat._TABLES.pop(5)
        results = {}

        def work(i):
            results[i] = [[nbar_class(s, 5, n) for s in range(5)] for n in range(i, 90, 7)]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(7)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert results == {i: want[i::7] for i in range(7)}
        assert len(combinat._TABLES[5]) >= 90  # a shorter rebuild never replaces a longer one

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((None, 1, 2, 5)), st.lists(st.integers(1, 40), min_size=1, max_size=6))
    def test_a_table_is_rebuilt_at_exactly_the_order_asked(self, modulus, orders):
        builds = []
        build = combinat._count_by_residue

        def recorded(size, order):
            rows = build(size, order)
            builds.append((size, order))  # as the build ends, after the modulus-1 table under it
            return rows

        with mock.patch.dict(combinat._TABLES, clear=True), \
                mock.patch.object(combinat, "_count_by_residue", recorded):
            longest = 0
            for k in orders:
                before = len(builds)
                rows = combinat._rows(modulus, k)
                size = modulus or 2 * len(rows) - 1
                assert rows[:k] == build(size, len(rows))[:k], k
                if k > longest:
                    longest = k
                    assert builds[-1] == (modulus or 2 * k - 1, k)
                else:
                    assert builds[before:] == []
                assert len(rows) == longest
                assert all(order in orders for _, order in builds)

    def test_class_symmetry(self):
        for m in (3, 5):
            for n in range(0, 31):
                for s in range(1, m):
                    assert nbar_class(s, m, n) == nbar_class(m - s, m, n), (s, m, n)


class TestSeries:
    def test_pbar(self):
        pb = pbar_series(14)
        assert pb.coeff(0) == 1
        assert pb.coeff(4) == 14
        assert [pb.coeff(n) for n in range(13)] == \
            [1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232, 344, 504]

    def test_pbar_vs_enumeration(self):
        pb = pbar_series(21)
        for n in range(21):
            assert pb.coeff(n) == sum(rank_table(n).values()), n

    def test_nbar_series_low_coeffs(self):
        s = nbar_series(0, 6)
        assert [s.coeff(n) for n in range(5)] == [0, 2, 0, 4, 2]
        assert nbar_series(1, 5).coeff(2) == 2

    def test_nbar_series_sign_symmetry(self):
        assert first_mismatch(nbar_series(3, 25), nbar_series(-3, 25)) is None

    def test_nbar_series_vs_enumeration(self):
        for m in range(-8, 9):
            s = nbar_series(m, 31)
            for n in range(1, 31):
                assert s.coeff(n) == nbar(m, n), (m, n)

    @pytest.mark.parametrize("m", range(-6, 7))
    def test_nbar_series_is_its_binomial_pass_construction(self, m):
        for order in (1, 2, 3, 10, 57, 200):
            assert nbar_series(m, order) == _nbar_series_by_binomial_passes(m, order), order

    def test_class_series_low_coeffs(self):
        s = nbar_class_series(0, 3, 6)
        assert [s.coeff(n) for n in (1, 2, 3)] == [2, 0, 4]

    def test_class_series_residue_symmetry(self):
        assert first_mismatch(nbar_class_series(1, 5, 40), nbar_class_series(4, 5, 40)) is None

    def test_class_series_vs_enumeration(self):
        for m in (3, 5):
            for s in range(m):
                series = nbar_class_series(s, m, 31)
                for n in range(1, 31):
                    assert series.coeff(n) == nbar_class(s, m, n), (s, m, n)

    def test_class_counts_vs_series_past_enumeration(self):
        for m in (3, 5):
            for s in range(m):
                series = nbar_class_series(s, m, 200)
                for n in range(199, 0, -1):
                    assert series.coeff(n) == nbar_class(s, m, n), (s, m, n)

    def test_class_series_vs_counts_other_moduli(self):
        # the odd modulus 1 takes the periodic Lambert path, the even ones
        # the full-length path
        for m in (1, 2, 4, 6):
            for s in range(m):
                series = nbar_class_series(s, m, 120)
                assert [series.coeff(n) for n in range(1, 120)] == \
                    [nbar_class(s, m, n) for n in range(1, 120)], (s, m)

    def test_class_sum_completeness(self):
        for m in (3, 5):
            total = LaurentSeries.monomial(1, 0, 31)
            for s in range(m):
                total = total + nbar_class_series(s, m, 31)
            assert first_mismatch(total, pbar_series(31)) is None


def test_counting_routes_use_nothing_of_products_or_lambert():
    # the counting oracle validates the analytic routes, so it must not be
    # built from them
    tree = ast.parse(inspect.getsource(combinat))
    assert {node.module for node in tree.body if isinstance(node, ast.ImportFrom)} \
        >= {"products", "lambert"}  # the series builders of the module do use them
    found = reached([("combinat", name) for name in
                     ("_count_by_residue", "_rows", "rank_table", "nbar", "nbar_class",
                      "class_table")])
    assert {("combinat", "_count_by_residue"), ("series", "_unpack")} <= found
    assert not {module for module, _ in found} & {"products", "lambert"}


# The counting tables that one command builds, as (modulus, order) in the
# order the builds end, in a fresh process, so that no table or memo entry
# is warm.
_COUNT_BUILDS = """
import contextlib, io, sys
from overrank import cli, combinat
builds, build = [], combinat._count_by_residue
def recorded(size, order):
    rows = build(size, order)
    builds.append((size, order))
    return rows
combinat._count_by_residue = recorded
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
print(builds)
"""


def _count_builds(argv):
    env = {k: v for k, v in os.environ.items() if k != "OVERRANK_SEED"}
    env["PYTHONPATH"] = str(Path(overrank.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", _COUNT_BUILDS, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out)


@pytest.mark.parametrize("scale, builds", [
    (0.25, [(1, 7), (3, 7), (5, 3), (5, 7), (7, 4), (13, 7)]),
    (1.0, [(1, 31), (3, 31), (5, 3), (5, 31), (7, 4), (61, 31)]),
])
def test_the_suite_builds_each_table_at_the_order_it_asks(scale, builds):
    # no table is rebuilt at a longer order than asked: no doubled exact
    # table and no modulus-1 table rebuilt under it
    assert _count_builds(["suite", "--order-scale", str(scale)]) == builds


@pytest.mark.parametrize("n, m, builds", [
    (60, 3, [(1, 61), (3, 61)]),
    (12, 1, [(1, 13)]),
    (3, 300000, [(1, 4), (300000, 4)]),
])
def test_count_builds_one_table_of_its_modulus(n, m, builds):
    # the residue table of m at n + 1, sized by the modulus-1 table at the
    # same order: no exact table, and no table built twice
    assert _count_builds(["count", "--n", str(n), "--mod", str(m)]) == builds
