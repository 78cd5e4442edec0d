"""Tests for the streaming operators: filter, expr-eval, sort, limit,
distinct, analytic, exchange, unions and row blocks."""

import pytest

from repro.errors import ExecutionError
from repro.execution import (
    AnalyticOperator,
    ColumnRef,
    DistinctOperator,
    Exchange,
    ExprEvalOperator,
    FilterOperator,
    LimitOperator,
    Literal,
    ParallelUnionOperator,
    RecvOperator,
    RowBlock,
    RowSource,
    SendOperator,
    SortKey,
    SortOperator,
    StorageUnionOperator,
    UnionAllOperator,
    WindowSpec,
    blocks_to_rows,
)

C = ColumnRef
L = Literal


def source(rows, columns=None, block_rows=3):
    columns = columns or sorted(rows[0]) if rows else ["a"]
    return RowSource(rows, columns, block_rows=block_rows)


class TestRowBlock:
    def test_filter_with_nulls(self):
        block = RowBlock(columns={"a": [1, 2, 3]}, row_count=3)
        assert block.filter([True, None, False]).column("a") == [1]

    def test_concat_and_slices(self):
        a = RowBlock(columns={"x": [1, 2]}, row_count=2)
        b = RowBlock(columns={"x": [3]}, row_count=1)
        merged = RowBlock.concat([a, b])
        assert merged.column("x") == [1, 2, 3]
        assert [s.row_count for s in merged.slices(2)] == [2, 1]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ExecutionError):
            RowBlock(columns={"a": [1], "b": [1, 2]}, row_count=1)

    def test_rename_and_with_column(self):
        block = RowBlock(columns={"a": [1]}, row_count=1)
        assert block.rename({"a": "b"}).column_names == ["b"]
        assert block.with_column("c", [9]).column("c") == [9]


class TestFilterProject:
    def test_filter(self):
        rows = [{"a": i} for i in range(10)]
        out = blocks_to_rows(FilterOperator(source(rows), C("a") >= L(7)).blocks())
        assert [row["a"] for row in out] == [7, 8, 9]

    def test_expr_eval(self):
        rows = [{"a": 2, "b": 3}]
        out = blocks_to_rows(ExprEvalOperator(
            source(rows, ["a", "b"]), {"total": C("a") + C("b"), "a": C("a")}
        ).blocks())
        assert out == [{"total": 5, "a": 2}]

    def test_filter_drops_empty_blocks(self):
        rows = [{"a": 0}] * 9
        operator = FilterOperator(source(rows), C("a") > L(0))
        assert list(operator.blocks()) == []


class TestSort:
    def test_in_memory_sort(self):
        rows = [{"a": value} for value in (5, 1, 4, 2, 3)]
        out = blocks_to_rows(SortOperator(source(rows), [SortKey(C("a"))]).blocks())
        assert [row["a"] for row in out] == [1, 2, 3, 4, 5]

    def test_descending(self):
        rows = [{"a": value} for value in (1, 3, 2)]
        out = blocks_to_rows(
            SortOperator(source(rows), [SortKey(C("a"), ascending=False)]).blocks()
        )
        assert [row["a"] for row in out] == [3, 2, 1]

    def test_multi_key(self):
        rows = [
            {"a": 1, "b": 2},
            {"a": 1, "b": 1},
            {"a": 0, "b": 9},
        ]
        out = blocks_to_rows(SortOperator(
            source(rows, ["a", "b"]), [SortKey(C("a")), SortKey(C("b"))]
        ).blocks())
        assert out == [{"a": 0, "b": 9}, {"a": 1, "b": 1}, {"a": 1, "b": 2}]

    def test_nulls_first(self):
        rows = [{"a": 2}, {"a": None}, {"a": 1}]
        out = blocks_to_rows(SortOperator(source(rows), [SortKey(C("a"))]).blocks())
        assert [row["a"] for row in out] == [None, 1, 2]

    def test_external_sort_spills(self):
        rows = [{"a": value} for value in range(1000, 0, -1)]
        operator = SortOperator(
            source(rows, block_rows=100),
            [SortKey(C("a"))],
            max_buffered_rows=50,
        )
        out = blocks_to_rows(operator.blocks())
        assert [row["a"] for row in out] == list(range(1, 1001))
        assert operator.spilled_runs > 1

    def test_limit_hint(self):
        rows = [{"a": value} for value in range(100, 0, -1)]
        out = blocks_to_rows(SortOperator(
            source(rows), [SortKey(C("a"))], limit_hint=3
        ).blocks())
        assert [row["a"] for row in out] == [1, 2, 3]

    def test_external_sort_with_limit(self):
        rows = [{"a": value} for value in range(500, 0, -1)]
        out = blocks_to_rows(SortOperator(
            source(rows, block_rows=50),
            [SortKey(C("a"))],
            max_buffered_rows=40,
            limit_hint=5,
        ).blocks())
        assert [row["a"] for row in out] == [1, 2, 3, 4, 5]


class TestLimitDistinct:
    def test_limit(self):
        rows = [{"a": i} for i in range(10)]
        assert len(blocks_to_rows(LimitOperator(source(rows), 4).blocks())) == 4

    def test_limit_offset(self):
        rows = [{"a": i} for i in range(10)]
        out = blocks_to_rows(LimitOperator(source(rows), 3, offset=5).blocks())
        assert [row["a"] for row in out] == [5, 6, 7]

    def test_limit_stops_early(self):
        rows = [{"a": i} for i in range(1000)]
        upstream = source(rows, block_rows=10)
        blocks_to_rows(LimitOperator(upstream, 5).blocks())
        assert upstream.rows_produced <= 10

    def test_distinct(self):
        rows = [{"a": i % 3} for i in range(9)]
        out = blocks_to_rows(DistinctOperator(source(rows)).blocks())
        assert sorted(row["a"] for row in out) == [0, 1, 2]

    def test_union_all(self):
        a = source([{"x": 1}], ["x"])
        b = source([{"x": 2}], ["x"])
        assert len(blocks_to_rows(UnionAllOperator([a, b]).blocks())) == 2


class TestAnalytic:
    def rows(self):
        return [
            {"dept": "a", "salary": 100},
            {"dept": "a", "salary": 300},
            {"dept": "a", "salary": 200},
            {"dept": "b", "salary": 50},
            {"dept": "b", "salary": 50},
        ]

    def test_row_number(self):
        spec = WindowSpec(
            "ROW_NUMBER", None, "rn",
            partition_by=[C("dept")], order_by=[(C("salary"), True)],
        )
        out = blocks_to_rows(
            AnalyticOperator(source(self.rows(), ["dept", "salary"]), spec).blocks()
        )
        by_dept = {}
        for row in out:
            by_dept.setdefault(row["dept"], []).append(row["rn"])
        assert by_dept == {"a": [1, 2, 3], "b": [1, 2]}

    def test_rank_with_ties(self):
        spec = WindowSpec(
            "RANK", None, "r", partition_by=[C("dept")],
            order_by=[(C("salary"), True)],
        )
        out = blocks_to_rows(
            AnalyticOperator(source(self.rows(), ["dept", "salary"]), spec).blocks()
        )
        b_ranks = [row["r"] for row in out if row["dept"] == "b"]
        assert b_ranks == [1, 1]

    def test_dense_rank(self):
        spec = WindowSpec(
            "DENSE_RANK", None, "r", order_by=[(C("salary"), True)]
        )
        out = blocks_to_rows(
            AnalyticOperator(source(self.rows(), ["dept", "salary"]), spec).blocks()
        )
        assert [row["r"] for row in out] == [1, 1, 2, 3, 4]

    def test_partition_sum(self):
        spec = WindowSpec("SUM", C("salary"), "total", partition_by=[C("dept")])
        out = blocks_to_rows(
            AnalyticOperator(source(self.rows(), ["dept", "salary"]), spec).blocks()
        )
        totals = {row["dept"]: row["total"] for row in out}
        assert totals == {"a": 600, "b": 100}

    def test_running_sum(self):
        spec = WindowSpec(
            "SUM", C("salary"), "running",
            partition_by=[C("dept")], order_by=[(C("salary"), True)],
        )
        out = blocks_to_rows(
            AnalyticOperator(source(self.rows(), ["dept", "salary"]), spec).blocks()
        )
        a_running = [row["running"] for row in out if row["dept"] == "a"]
        assert a_running == [100, 300, 600]

    def test_running_peers_share_value(self):
        spec = WindowSpec(
            "COUNT", None, "c", partition_by=[C("dept")],
            order_by=[(C("salary"), True)],
        )
        out = blocks_to_rows(
            AnalyticOperator(source(self.rows(), ["dept", "salary"]), spec).blocks()
        )
        b_counts = [row["c"] for row in out if row["dept"] == "b"]
        assert b_counts == [2, 2]  # tied salaries are peers

    def test_ranking_requires_order(self):
        with pytest.raises(ExecutionError):
            WindowSpec("ROW_NUMBER", None, "rn")


class TestExchange:
    def test_broadcast(self):
        exchange = Exchange(destinations=3)
        sender = SendOperator(
            source([{"a": 1}, {"a": 2}], ["a"]), exchange, broadcast=True
        )
        outs = [
            blocks_to_rows(RecvOperator(exchange, dest, [sender]).blocks())
            for dest in range(3)
        ]
        assert all(len(rows) == 2 for rows in outs)

    def test_segmented_send_partitions_rows(self):
        exchange = Exchange(destinations=4)
        rows = [{"a": i} for i in range(100)]
        sender = SendOperator(source(rows, ["a"]), exchange, segment_exprs=[C("a")])
        received = [
            blocks_to_rows(RecvOperator(exchange, dest, [sender]).blocks())
            for dest in range(4)
        ]
        assert sum(len(r) for r in received) == 100
        # same key always lands on the same destination
        exchange2 = Exchange(destinations=4)
        sender2 = SendOperator(source(rows, ["a"]), exchange2, segment_exprs=[C("a")])
        received2 = [
            blocks_to_rows(RecvOperator(exchange2, dest, [sender2]).blocks())
            for dest in range(4)
        ]
        assert received == received2

    def test_sender_runs_once(self):
        exchange = Exchange(destinations=2)
        sender = SendOperator(
            source([{"a": 1}], ["a"]), exchange, broadcast=True
        )
        a = blocks_to_rows(RecvOperator(exchange, 0, [sender]).blocks())
        b = blocks_to_rows(RecvOperator(exchange, 1, [sender]).blocks())
        assert len(a) == 1 and len(b) == 1  # not duplicated by second run

    def test_bytes_accounted(self):
        exchange = Exchange(destinations=1)
        sender = SendOperator(
            source([{"a": "hello"}], ["a"]), exchange, segment_exprs=[C("a")]
        )
        sender.run()
        assert exchange.bytes_sent > 0

    def test_send_needs_exactly_one_mode(self):
        exchange = Exchange(destinations=1)
        with pytest.raises(ExecutionError):
            SendOperator(source([{"a": 1}], ["a"]), exchange)


class TestUnions:
    def test_storage_union_resegments_completely(self):
        rows = [{"k": i % 7, "v": i} for i in range(100)]
        union = StorageUnionOperator(
            [source(rows[:50], ["k", "v"]), source(rows[50:], ["k", "v"])],
            resegment_exprs=[C("k")],
            fanout=3,
        )
        pipes = [union.pipeline_source(i) for i in range(3)]
        seen_keys = []
        total = 0
        for pipe in pipes:
            keys = {row["k"] for row in blocks_to_rows(pipe.blocks())}
            seen_keys.append(keys)
            total += sum(1 for _ in ())
        # each key appears in exactly one pipeline
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (seen_keys[i] & seen_keys[j])

    def test_storage_union_plain(self):
        union = StorageUnionOperator(
            [source([{"a": 1}], ["a"]), source([{"a": 2}], ["a"])]
        )
        assert len(blocks_to_rows(union.blocks())) == 2

    def test_parallel_union_combines(self):
        pipes = [source([{"a": i}], ["a"]) for i in range(4)]
        out = blocks_to_rows(ParallelUnionOperator(pipes, threads=1).blocks())
        assert [row["a"] for row in out] == [0, 1, 2, 3]

    def test_parallel_union_threads(self):
        pipes = [source([{"a": i}], ["a"]) for i in range(4)]
        out = blocks_to_rows(ParallelUnionOperator(pipes, threads=4).blocks())
        assert [row["a"] for row in out] == [0, 1, 2, 3]


class TestExplain:
    def test_tree_rendering(self):
        plan = LimitOperator(
            FilterOperator(source([{"a": 1}], ["a"]), C("a") > L(0)), 1
        )
        text = plan.explain()
        assert "Limit" in text and "Filter" in text and "RowSource" in text
        assert text.index("Limit") < text.index("Filter")
