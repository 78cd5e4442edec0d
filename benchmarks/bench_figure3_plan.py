"""Figure 3: the parallel group-by plan.

The figure shows the plan for::

    SELECT dept_id, count(*) FROM departments
    GROUP BY dept_id HAVING count(*) < 10;

as a tree: Scans feeding a StorageUnion that locally resegments into
parallel prepass GroupBys, a ParallelUnion over final GroupBys and a
Filter.  This bench (a) prints the optimizer's plan for the same SQL,
(b) builds the figure's exact operator tree out of the execution
engine's operators and runs it, verifying both agree.
"""

from __future__ import annotations

import pytest

from conftest import _emit

from repro import ColumnDef, Database, TableDefinition, types
from repro.execution import (
    AggregateSpec,
    ColumnRef,
    FilterOperator,
    GroupByHashOperator,
    Literal,
    ParallelUnionOperator,
    PrepassGroupByOperator,
    ScanOperator,
    StorageUnionOperator,
    blocks_to_rows,
)

C = ColumnRef
L = Literal

SQL = (
    "SELECT dept_id, count(*) AS count FROM departments "
    "GROUP BY dept_id HAVING count(*) < 10"
)


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(str(tmp_path_factory.mktemp("fig3")), node_count=1)
    db.create_table(
        TableDefinition(
            "departments",
            [ColumnDef("dept_id", types.INTEGER), ColumnDef("emp", types.VARCHAR)],
        ),
        sort_order=["dept_id"],
    )
    rows = []
    for dept in range(40):
        # departments 0..19 small (< 10 employees), 20..39 large
        size = 3 if dept < 20 else 25
        for employee in range(size):
            rows.append({"dept_id": dept, "emp": f"e{dept}_{employee}"})
    db.load("departments", rows, direct_to_ros=True)
    db.run_tuple_movers()
    db.analyze_statistics()
    return db


def test_optimizer_plan_shape(benchmark, db):
    """The optimizer's plan for the figure's SQL."""
    text = db.sql("EXPLAIN " + SQL)
    _emit("\n=== Figure 3 — optimizer plan for the figure's query ===")
    _emit(text)
    assert "GroupBy" in text
    assert "HAVING" in text
    assert "Scan" in text
    benchmark.pedantic(lambda: db.sql('EXPLAIN ' + SQL), rounds=1, iterations=1)


def test_handbuilt_figure3_tree(benchmark, db):
    """Build the figure's exact operator topology and execute it."""
    family = db.cluster.catalog.super_projection_for("departments")
    manager = db.cluster.nodes[0].manager
    # bottom: scans over ROS regions feeding a StorageUnion that
    # resegments by dept_id across two local pipelines
    scan = ScanOperator(manager, family.primary.name, db.latest_epoch, ["dept_id"])
    union = StorageUnionOperator(
        [scan], resegment_exprs=[C("dept_id")], fanout=2
    )
    aggregates = [AggregateSpec("COUNT", None, "count")]
    pipelines = []
    for pipe_index in range(2):
        prepass = PrepassGroupByOperator(
            union.pipeline_source(pipe_index),
            [C("dept_id")], ["dept_id"], aggregates, table_size=8,
        )
        final = GroupByHashOperator(
            prepass, [C("dept_id")], ["dept_id"], aggregates,
            merge_partials=True,
        )
        pipelines.append(FilterOperator(final, C("count") < L(10)))
    plan = ParallelUnionOperator(pipelines, threads=2)
    _emit("\n=== Figure 3 — hand-built operator tree ===")
    _emit(plan.explain())
    rows = blocks_to_rows(plan.blocks())
    # exactly the 20 small departments pass the HAVING filter
    assert sorted(row["dept_id"] for row in rows) == list(range(20))
    assert all(row["count"] == 3 for row in rows)
    # and the SQL path agrees
    sql_rows = db.sql(SQL)
    assert sorted(
        (row["dept_id"], row["count"]) for row in sql_rows
    ) == sorted((row["dept_id"], row["count"]) for row in rows)
    benchmark.pedantic(lambda: db.sql(SQL), rounds=1, iterations=1)


def test_figure3_query_benchmark(benchmark, db):
    benchmark(lambda: db.sql(SQL))
