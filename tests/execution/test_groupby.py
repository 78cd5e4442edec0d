"""Tests for the three group-by algorithms and aggregate semantics."""

import pytest

from repro.errors import ExecutionError
from repro.execution import (
    AggregateSpec,
    ColumnRef,
    GroupByHashOperator,
    GroupByPipelinedOperator,
    PrepassGroupByOperator,
    RowSource,
    blocks_to_rows,
)

C = ColumnRef


def source(rows, columns, block_rows=64):
    return RowSource(rows, columns, block_rows=block_rows)


def by_key(rows, key):
    return {row[key]: row for row in rows}


class TestHashGroupBy:
    def test_count_sum_min_max_avg(self):
        rows = [{"g": i % 2, "v": i} for i in range(10)]
        out = blocks_to_rows(GroupByHashOperator(
            source(rows, ["g", "v"]),
            [C("g")],
            ["g"],
            [
                AggregateSpec("COUNT", None, "n"),
                AggregateSpec("SUM", C("v"), "total"),
                AggregateSpec("MIN", C("v"), "lo"),
                AggregateSpec("MAX", C("v"), "hi"),
                AggregateSpec("AVG", C("v"), "mean"),
            ],
        ).blocks())
        groups = by_key(out, "g")
        assert groups[0] == {"g": 0, "n": 5, "total": 20, "lo": 0, "hi": 8, "mean": 4.0}
        assert groups[1]["total"] == 25

    def test_nulls_ignored_by_aggregates(self):
        rows = [{"g": 1, "v": None}, {"g": 1, "v": 4}]
        out = blocks_to_rows(GroupByHashOperator(
            source(rows, ["g", "v"]),
            [C("g")],
            ["g"],
            [
                AggregateSpec("COUNT", C("v"), "n"),
                AggregateSpec("SUM", C("v"), "s"),
                AggregateSpec("AVG", C("v"), "a"),
            ],
        ).blocks())
        assert out == [{"g": 1, "n": 1, "s": 4, "a": 4.0}]

    def test_count_star_counts_null_rows(self):
        rows = [{"g": 1, "v": None}, {"g": 1, "v": 2}]
        out = blocks_to_rows(GroupByHashOperator(
            source(rows, ["g", "v"]), [C("g")], ["g"],
            [AggregateSpec("COUNT", None, "n")],
        ).blocks())
        assert out == [{"g": 1, "n": 2}]

    def test_null_group_key_is_a_group(self):
        rows = [{"g": None, "v": 1}, {"g": None, "v": 2}, {"g": 3, "v": 3}]
        out = blocks_to_rows(GroupByHashOperator(
            source(rows, ["g", "v"]), [C("g")], ["g"],
            [AggregateSpec("SUM", C("v"), "s")],
        ).blocks())
        assert sorted(out, key=lambda r: repr(r["g"])) == [
            {"g": 3, "s": 3},
            {"g": None, "s": 3},
        ]

    def test_global_aggregate(self):
        rows = [{"v": i} for i in range(5)]
        out = blocks_to_rows(GroupByHashOperator(
            source(rows, ["v"]), [], [], [AggregateSpec("SUM", C("v"), "s")]
        ).blocks())
        assert out == [{"s": 10}]

    def test_global_aggregate_empty_input(self):
        out = blocks_to_rows(GroupByHashOperator(
            source([], ["v"]), [], [],
            [AggregateSpec("COUNT", None, "n"), AggregateSpec("SUM", C("v"), "s")],
        ).blocks())
        assert out == [{"n": 0, "s": None}]

    def test_distinct_aggregate(self):
        rows = [{"g": 1, "v": 5}, {"g": 1, "v": 5}, {"g": 1, "v": 7}]
        out = blocks_to_rows(GroupByHashOperator(
            source(rows, ["g", "v"]), [C("g")], ["g"],
            [AggregateSpec("COUNT", C("v"), "n", distinct=True)],
        ).blocks())
        assert out == [{"g": 1, "n": 2}]

    def test_expression_group_key(self):
        rows = [{"v": i} for i in range(10)]
        from repro.execution import Arithmetic, Literal

        out = blocks_to_rows(GroupByHashOperator(
            source(rows, ["v"]),
            [Arithmetic("%", C("v"), Literal(3))],
            ["bucket"],
            [AggregateSpec("COUNT", None, "n")],
        ).blocks())
        assert sorted((row["bucket"], row["n"]) for row in out) == [
            (0, 4), (1, 3), (2, 3),
        ]

    def test_spill_externalization(self):
        rows = [{"g": i, "v": i} for i in range(2000)]
        operator = GroupByHashOperator(
            source(rows, ["g", "v"], block_rows=200),
            [C("g")],
            ["g"],
            [AggregateSpec("SUM", C("v"), "s"), AggregateSpec("COUNT", None, "n")],
            max_groups=100,
        )
        out = blocks_to_rows(operator.blocks())
        assert operator.spilled
        assert len(out) == 2000
        assert all(row["s"] == row["g"] and row["n"] == 1 for row in out)

    def test_spill_with_distinct_is_correct(self):
        """AVG and DISTINCT have no partial to spill: past its budget the
        operator keeps the groups it has and spills the *rows* of every
        other key for a pass of their own (it used to raise "raise the
        memory budget"; under a sort-prefix plan a Sort's spill hid it)."""
        rows = [{"g": i % 150, "v": i % 7} for i in range(900)]
        aggregates = [
            AggregateSpec("COUNT", C("v"), "n", distinct=True),
            AggregateSpec("AVG", C("v"), "a"),
        ]
        budgeted = GroupByHashOperator(
            source(rows, ["g", "v"], block_rows=64),
            [C("g")], ["g"], aggregates, max_groups=10,
        )
        roomy = GroupByHashOperator(
            source(rows, ["g", "v"]), [C("g")], ["g"], aggregates
        )
        out = blocks_to_rows(budgeted.blocks())
        assert budgeted.spilled and not roomy.spilled
        assert len(out) == 150
        assert by_key(out, "g") == by_key(blocks_to_rows(roomy.blocks()), "g")

    def test_merge_partials_mode(self):
        partials = [
            {"g": 1, "n": 3, "s": 10},
            {"g": 1, "n": 2, "s": 5},
            {"g": 2, "n": 1, "s": 7},
        ]
        out = blocks_to_rows(GroupByHashOperator(
            source(partials, ["g", "n", "s"]),
            [C("g")],
            ["g"],
            [
                AggregateSpec("COUNT", None, "n"),
                AggregateSpec("SUM", C("s"), "s"),
            ],
            merge_partials=True,
        ).blocks())
        groups = by_key(out, "g")
        assert groups[1] == {"g": 1, "n": 5, "s": 15}
        assert groups[2] == {"g": 2, "n": 1, "s": 7}


class TestPipelinedGroupBy:
    def test_matches_hash_on_sorted_input(self):
        rows = sorted(
            [{"g": i % 5, "v": i} for i in range(50)], key=lambda r: r["g"]
        )
        aggregates = [
            AggregateSpec("COUNT", None, "n"),
            AggregateSpec("SUM", C("v"), "s"),
            AggregateSpec("AVG", C("v"), "a"),
        ]
        pipelined = blocks_to_rows(GroupByPipelinedOperator(
            source(rows, ["g", "v"]), [C("g")], ["g"], aggregates
        ).blocks())
        hashed = blocks_to_rows(GroupByHashOperator(
            source(rows, ["g", "v"]), [C("g")], ["g"], aggregates
        ).blocks())
        assert sorted(pipelined, key=lambda r: r["g"]) == sorted(
            hashed, key=lambda r: r["g"]
        )

    def test_streams_groups_in_order(self):
        rows = [{"g": g, "v": 1} for g in (1, 1, 2, 3, 3, 3)]
        out = blocks_to_rows(GroupByPipelinedOperator(
            source(rows, ["g", "v"]), [C("g")], ["g"],
            [AggregateSpec("COUNT", None, "n")],
        ).blocks())
        assert out == [
            {"g": 1, "n": 2},
            {"g": 2, "n": 1},
            {"g": 3, "n": 3},
        ]

    def test_global_empty(self):
        out = blocks_to_rows(GroupByPipelinedOperator(
            source([], ["v"]), [], [], [AggregateSpec("COUNT", None, "n")]
        ).blocks())
        assert out == [{"n": 0}]


class TestPrepass:
    def test_prepass_plus_merge_equals_direct(self):
        rows = [{"g": i % 4, "v": i} for i in range(1000)]
        aggregates = [
            AggregateSpec("COUNT", None, "n"),
            AggregateSpec("SUM", C("v"), "s"),
        ]
        prepass = PrepassGroupByOperator(
            source(rows, ["g", "v"], block_rows=50),
            [C("g")], ["g"], aggregates, table_size=8,
        )
        final = GroupByHashOperator(
            prepass, [C("g")], ["g"], aggregates, merge_partials=True
        )
        direct = GroupByHashOperator(
            source(rows, ["g", "v"]), [C("g")], ["g"], aggregates
        )
        key = lambda row: row["g"]
        assert sorted(blocks_to_rows(final.blocks()), key=key) == sorted(
            blocks_to_rows(direct.blocks()), key=key
        )

    def test_prepass_reduces_rows_on_low_cardinality(self):
        rows = [{"g": i % 3, "v": 1} for i in range(5000)]
        prepass = PrepassGroupByOperator(
            source(rows, ["g", "v"], block_rows=500),
            [C("g")], ["g"], [AggregateSpec("COUNT", None, "n")],
        )
        list(prepass.blocks())
        assert prepass.rows_out_partial < prepass.rows_in / 10
        assert not prepass.shut_off

    def test_prepass_shuts_off_on_high_cardinality(self):
        rows = [{"g": i, "v": 1} for i in range(20000)]
        prepass = PrepassGroupByOperator(
            source(rows, ["g", "v"], block_rows=1000),
            [C("g")], ["g"], [AggregateSpec("COUNT", None, "n")],
            table_size=512,
        )
        out = list(prepass.blocks())
        assert prepass.shut_off
        # correctness preserved even after shutoff
        from repro.execution import SourceBlocks

        final = blocks_to_rows(GroupByHashOperator(
            SourceBlocks(out),
            [C("g")], ["g"], [AggregateSpec("COUNT", None, "n")],
            merge_partials=True,
        ).blocks())
        assert len(final) == 20000
        assert all(row["n"] == 1 for row in final)

    def test_prepass_rejects_unmergeable(self):
        with pytest.raises(ExecutionError):
            PrepassGroupByOperator(
                source([], ["g", "v"]), [C("g")], ["g"],
                [AggregateSpec("AVG", C("v"), "a")],
            )


class TestAggregateSpec:
    def test_unknown_function_rejected(self):
        with pytest.raises(ExecutionError):
            AggregateSpec("MEDIAN", C("v"), "m")

    def test_sum_requires_argument(self):
        with pytest.raises(ExecutionError):
            AggregateSpec("SUM", None, "s")

    def test_mergeability(self):
        assert AggregateSpec("COUNT", None, "n").mergeable
        assert AggregateSpec("SUM", C("v"), "s").mergeable
        assert not AggregateSpec("AVG", C("v"), "a").mergeable
        assert not AggregateSpec("COUNT", C("v"), "n", distinct=True).mergeable

    def test_merge_func(self):
        assert AggregateSpec("COUNT", None, "n").merge_func == "SUM"
        assert AggregateSpec("MIN", C("v"), "m").merge_func == "MIN"
