"""Tests for resource management: budgets, spills, correctness under
memory pressure (section 6.1 externalization + section 7)."""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.execution import (
    ResourcePool,
    RleVector,
    RowBlock,
    SpillFile,
    WorkloadPolicy,
)


class TestResourcePool:
    def test_operator_budget_fraction(self):
        pool = ResourcePool(
            WorkloadPolicy(query_memory_rows=1000, per_operator_fraction=0.25)
        )
        assert pool.operator_budget() == 250


class TestSpillFile:
    def test_roundtrip_order(self):
        spill = SpillFile()
        spill.write_block(RowBlock({"a": [1, 2], "b": ["x", None]}, 2))
        spill.write_block(RowBlock({"a": RleVector([(3, 2)]), "b": ["y", "z"]}, 2))
        back = list(spill.read_blocks())
        assert [block.columns for block in back] == [
            {"a": [1, 2], "b": ["x", None]},
            {"a": [3, 3], "b": ["y", "z"]},
        ]
        assert [block.row_count for block in back] == [2, 2]
        spill.close()

    def test_close_removes_file(self):
        import os

        spill = SpillFile()
        spill.write_block(RowBlock({"a": ["x"]}, 1))
        name = spill._handle.name
        spill.close()
        assert not os.path.exists(name)


@pytest.fixture
def db(tmp_path):
    # a deliberately tiny query memory budget
    db = Database(
        str(tmp_path / "db"),
        node_count=1,
        workload_policy=WorkloadPolicy(query_memory_rows=500),
    )
    db.create_table(
        TableDefinition(
            "t",
            [ColumnDef("k", types.INTEGER), ColumnDef("v", types.INTEGER)],
        )
    )
    db.load("t", [{"k": i, "v": i % 7} for i in range(5000)], direct_to_ros=True)
    db.analyze_statistics()
    return db


class TestQueriesUnderMemoryPressure:
    def test_sort_spills_but_is_correct(self, db):
        session = db.session()
        rows = session.sql("SELECT k FROM t ORDER BY k DESC LIMIT 5")
        assert [row["k"] for row in rows] == [4999, 4998, 4997, 4996, 4995]
        assert session.last_pool is not None
        assert session.last_pool.spills >= 1

    def test_wide_group_by_spills_but_is_correct(self, db):
        session = db.session()
        rows = session.sql("SELECT k, count(*) AS n FROM t GROUP BY k")
        assert len(rows) == 5000
        assert all(row["n"] == 1 for row in rows)
        assert session.last_pool.spills >= 1

    def test_sort_prefix_group_by_without_partials_spills_but_is_correct(self, db):
        """AVG and DISTINCT over 5000 groups on the sort prefix, budget
        250: this ran through a Sort's spill while a pipelined plan had
        a Sort under it; without the Sort it must still run, not raise
        "raise the memory budget"."""
        session = db.session()
        assert "GroupBy[pipelined" in session.sql(
            "EXPLAIN SELECT k, avg(v) AS a FROM t GROUP BY k"
        )
        rows = session.sql(
            "SELECT k, avg(v) AS a, count(DISTINCT v) AS d FROM t GROUP BY k"
        )
        assert sorted((row["k"], row["a"], row["d"]) for row in rows) == [
            (k, float(k % 7), 1) for k in range(5000)
        ]
        assert session.last_pool.spills >= 1

    def test_narrow_group_by_stays_in_memory(self, db):
        session = db.session()
        rows = session.sql("SELECT v, count(*) AS n FROM t GROUP BY v")
        assert len(rows) == 7
        assert session.last_pool.spills == 0

    def test_big_join_switches_to_merge(self, db, tmp_path):
        db.create_table(
            TableDefinition(
                "u",
                [ColumnDef("k2", types.INTEGER), ColumnDef("w", types.INTEGER)],
            )
        )
        db.load("u", [{"k2": i, "w": i} for i in range(5000)], direct_to_ros=True)
        db.analyze_statistics()
        session = db.session()
        rows = session.sql(
            "SELECT count(*) AS n FROM t JOIN u ON t.k = u.k2"
        )
        assert rows == [{"n": 5000}]
        assert session.last_pool.spills >= 1  # build side over budget

    def test_default_policy_avoids_spills(self, tmp_path):
        roomy = Database(str(tmp_path / "db2"), node_count=1)
        roomy.create_table(
            TableDefinition("t", [ColumnDef("k", types.INTEGER)])
        )
        roomy.load("t", [{"k": i} for i in range(5000)], direct_to_ros=True)
        roomy.analyze_statistics()
        session = roomy.session()
        session.sql("SELECT k FROM t ORDER BY k LIMIT 5")
        assert session.last_pool.spills == 0
