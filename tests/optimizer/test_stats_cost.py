"""Tests for statistics (histograms, NDV) and the cost model."""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.execution import And, Between, ColumnRef, InList, IsNull, Literal, Not, Or
from repro.optimizer import estimate_ndv
from repro.optimizer.cost import estimate_selectivity, scan_cost
from repro.optimizer.stats import (
    ColumnStats,
    Histogram,
    TableStats,
    collect_table_stats,
)

C = ColumnRef
L = Literal


class TestHistogram:
    def test_equi_height_buckets(self):
        histogram = Histogram.build(list(range(100)), buckets=10)
        assert len(histogram.bounds) == 10
        assert histogram.bounds[-1] == 99

    def test_range_selectivity_uniform(self):
        histogram = Histogram.build(list(range(1000)), buckets=20)
        half = histogram.selectivity_range(None, 499)
        assert 0.4 < half < 0.65

    def test_out_of_range_selectivity(self):
        histogram = Histogram.build(list(range(100)), buckets=10)
        assert histogram.selectivity_range(200, 300) == 0.0

    def test_null_fraction(self):
        histogram = Histogram.build([1, None, 2, None], buckets=2)
        assert histogram.null_fraction == 0.5

    def test_all_null(self):
        histogram = Histogram.build([None, None])
        assert histogram.null_fraction == 1.0
        assert histogram.selectivity_range(0, 1) == 1.0  # no info

    def test_skewed_data_buckets_follow_density(self):
        values = [1] * 900 + list(range(2, 102))
        histogram = Histogram.build(values, buckets=10)
        # most buckets end at the heavy value
        assert histogram.bounds[0] == 1


class TestNdv:
    def test_exact_when_sample_is_everything(self):
        assert estimate_ndv([1, 2, 3, 3], 4) == 3.0

    def test_scales_up_with_singletons(self):
        sample = list(range(100))  # all singletons
        estimate = estimate_ndv(sample, 10_000)
        assert estimate > 150  # extrapolates well beyond sample distinct

    def test_repeated_values_do_not_extrapolate(self):
        sample = [1, 2] * 50
        estimate = estimate_ndv(sample, 10_000)
        assert estimate < 10

    def test_empty(self):
        assert estimate_ndv([], 100) == 0.0


class TestSelectivity:
    def _stats(self):
        stats = TableStats("t", row_count=1000)
        stats.columns["a"] = ColumnStats(
            "a", 0, 999, ndv=1000.0, histogram=Histogram.build(list(range(1000))),
        )
        stats.columns["flag"] = ColumnStats(
            "flag", "N", "Y", ndv=2.0,
            histogram=Histogram.build(["N", "Y"] * 500),
        )
        return stats

    def test_equality(self):
        selectivity = estimate_selectivity(C("a") == L(5), self._stats())
        assert selectivity == pytest.approx(1 / 1000)

    def test_range(self):
        selectivity = estimate_selectivity(C("a") < L(100), self._stats())
        assert 0.03 < selectivity < 0.25

    def test_between(self):
        selectivity = estimate_selectivity(
            Between(C("a"), L(0), L(499)), self._stats()
        )
        assert 0.4 < selectivity < 0.65

    def test_conjunction_multiplies(self):
        single = estimate_selectivity(C("flag") == L("Y"), self._stats())
        double = estimate_selectivity(
            And(C("flag") == L("Y"), C("a") == L(5)), self._stats()
        )
        assert double < single

    def test_disjunction_unions(self):
        either = estimate_selectivity(
            Or(C("a") == L(1), C("a") == L(2)), self._stats()
        )
        assert either == pytest.approx(2 / 1000, rel=0.01)

    def test_negation(self):
        sel = estimate_selectivity(Not(C("a") == L(5)), self._stats())
        assert sel == pytest.approx(1 - 1 / 1000)

    def test_in_list(self):
        sel = estimate_selectivity(InList(C("flag"), ["Y"]), self._stats())
        assert sel == pytest.approx(0.5)

    def test_is_null(self):
        sel = estimate_selectivity(IsNull(C("a")), self._stats())
        assert sel == 0.0

    @pytest.mark.parametrize(
        "predicate",
        [
            And(C("a") > L(400), C("a") < L(500)),
            And(L(500) > C("a"), C("flag") == L("Y"), C("a") >= L(400)),
            And(Between(C("a"), L(350), L(600)), C("a") <= L(499), C("a") > L(400)),
        ],
        ids=repr,
    )
    def test_a_range_on_one_column_is_one_interval(self, predicate):
        """``a > 400 AND a < 500`` keeps a tenth of the rows, not the
        product of its two halves (60 % x 50 %)."""
        stats = self._stats()
        sel = estimate_selectivity(predicate, stats)
        if "flag" in repr(predicate):
            sel /= estimate_selectivity(C("flag") == L("Y"), stats)
        assert 0.1 / 1.5 <= sel <= 0.1 * 1.5


def test_table3_q3_scan_estimate_is_within_half_again_of_what_ran(tmp_path):
    """Q3 (``l_shipdate > 1200 AND l_shipdate < 1300``) on 3 nodes: the
    scan's estimate beside the rows its scans returned."""
    import re

    from repro.workloads import cstore_benchmark as cb

    data = cb.generate(scale=0.2)
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1)
    db.create_table(cb.lineitem_table())
    db.load("lineitem", data.lineitem, direct_to_ros=True)
    db.analyze_statistics()
    (q3,) = [query for query in cb.queries() if query.name == "Q3"]
    (estimate,) = re.findall(r"Scan lineitem\S* .*~(\d+) rows", db.sql("EXPLAIN " + q3.sql))
    ran = sum(
        int(rows)
        for rows in re.findall(r"Scan\(lineitem\S* .*rows=(\d+)", db.sql("EXPLAIN ANALYZE " + q3.sql))
    )
    assert ran == sum(1 for row in data.lineitem if cb.D1 < row["l_shipdate"] < cb.D2)
    assert max(int(estimate) / ran, ran / int(estimate)) <= 1.5, (estimate, ran)


class TestCompressionAwareCost:
    def test_rle_column_cheaper_to_scan(self, tmp_path):
        db = Database(str(tmp_path / "db"), node_count=1)
        db.create_table(
            TableDefinition(
                "t",
                [ColumnDef("sorted_lowcard", types.INTEGER),
                 ColumnDef("random_wide", types.INTEGER)],
            ),
            sort_order=["sorted_lowcard"],
        )
        import random

        rng = random.Random(5)
        rows = [
            {"sorted_lowcard": i % 3, "random_wide": rng.randrange(10**12)}
            for i in range(5000)
        ]
        db.load("t", rows, direct_to_ros=True)
        db.analyze_statistics()
        stats = db.stats.get("t")
        cheap = stats.column("sorted_lowcard").avg_encoded_bytes
        wide = stats.column("random_wide").avg_encoded_bytes
        assert cheap < wide / 5  # RLE vs random varints
        cheap_cost = scan_cost(stats, ["sorted_lowcard"], 1.0)
        wide_cost = scan_cost(stats, ["random_wide"], 1.0)
        assert cheap_cost.io < wide_cost.io


class TestCollect:
    def test_collect_table_stats(self, tmp_path):
        db = Database(str(tmp_path / "db"), node_count=1)
        db.create_table(
            TableDefinition("t", [ColumnDef("x", types.INTEGER)])
        )
        db.load("t", [{"x": i % 10} for i in range(500)], direct_to_ros=True)
        stats = collect_table_stats(db.cluster, "t", db.latest_epoch)
        assert stats.row_count == 500
        assert stats.column("x").min_value == 0
        assert stats.column("x").max_value == 9
        assert 8 <= stats.column("x").ndv <= 12

    def test_empty_table_stats(self, tmp_path):
        db = Database(str(tmp_path / "db"), node_count=1)
        db.create_table(TableDefinition("t", [ColumnDef("x", types.INTEGER)]))
        stats = collect_table_stats(db.cluster, "t", db.latest_epoch)
        assert stats.row_count == 0
