"""Golden tests for EXPLAIN ANALYZE output and the v_monitor tables.

One scripted scenario — load, query, moveout, mergeout — drives every
check, so the goldens pin the real end-to-end shape of the monitoring
subsystem: the annotated plan rendering (with wall times normalized
away), the exact column list of each virtual table, and the contents
those tables must report after the scenario.
"""

import re

import pytest

from repro import types
from repro.core.database import Database
from repro.core.schema import ColumnDef, TableDefinition
from repro.monitor import reset_all
from repro.monitor.tables import columns_of, table_names

JOIN_GROUP_SQL = (
    "SELECT region, COUNT(*) AS n, SUM(amount) AS total "
    "FROM sales JOIN customers ON sales.cust_id = customers.cust_id "
    "GROUP BY region ORDER BY region"
)

#: EXPLAIN ANALYZE over JOIN_GROUP_SQL after the scripted scenario,
#: with every wall-clock figure replaced by ``_`` (times are the only
#: nondeterministic part; rows, blocks, and pulls are pinned exactly).
EXPLAIN_ANALYZE_GOLDEN = """\
Query 1 (2 rows, _ ms)
Sort(region ASC)  [rows=2 blocks=1 pulls=2 time=_ self=_]
  ExprEval(region=region, n=agg_1, total=agg_2)  [rows=2 blocks=1 pulls=2 time=_ self=_]
    GroupByHash(keys=[region] aggs=[COUNT(*), SUM(amount)] merge)  [rows=2 blocks=1 pulls=2 time=_ self=_]
      PrepassGroupBy(keys=[region] table=1024)  [rows=2 blocks=1 pulls=2 time=_ self=_]
        HashJoin[INNER](sales.cust_id=customers.cust_id)  [rows=400 blocks=3 pulls=4 time=_ self=_]
          ExprEval(sales.cust_id=cust_id, amount=amount)  [rows=400 blocks=3 pulls=4 time=_ self=_]
            Scan(sales_super @e5) SIP[cust_id] from HashJoin  [rows=400 blocks=3 pulls=4 time=_ self=_]
          Source  [rows=10 blocks=3 pulls=4 time=_ self=_]
            ExprEval(customers.cust_id=cust_id, region=region)  [rows=10 blocks=3 pulls=4 time=_ self=_]
              Scan(customers_super @e5)  [rows=10 blocks=3 pulls=4 time=_ self=_]"""

GOLDEN_SCHEMAS = {
    "v_monitor.query_profiles": [
        "query_id", "sql", "epoch", "rows_returned", "query_ms",
        "operator_id", "parent_id", "depth", "operator_name", "label",
        "rows_produced", "blocks_produced", "pulls", "wall_ms", "self_ms",
        "seek_blocks", "seek_window_rows",
    ],
    "v_monitor.projection_storage": [
        "node_name", "projection_name", "anchor_table", "wos_rows",
        "ros_rows", "ros_containers", "ros_bytes", "delete_markers", "lge",
    ],
    "v_monitor.storage_containers": [
        "node_name", "projection_name", "container_id", "row_count",
        "partition_key", "local_segment", "min_epoch", "max_epoch", "bytes",
    ],
    "v_monitor.epochs": [
        "current_epoch", "latest_queryable_epoch", "ahm", "nodes_down",
    ],
    "v_monitor.locks": ["object_name", "txn_id", "mode"],
    "v_monitor.node_states": [
        "node_name", "node_index", "is_up", "supervisor_state",
        "recovery_attempts", "next_attempt_tick", "last_transition_tick",
        "heartbeat_age", "missed_heartbeats", "last_error",
    ],
    "v_monitor.metrics": [
        "name", "kind", "value", "observations", "total",
        "min_value", "max_value", "mean", "p50", "p95",
    ],
    "v_monitor.query_traces": [
        "trace_id", "name", "statement", "sql", "start_tick",
        "end_tick", "duration_ms", "span_count", "node_count",
        "node_list",
    ],
    "v_monitor.trace_spans": [
        "trace_id", "span_id", "parent_id", "name", "category",
        "node_index", "node_name", "start_tick", "end_tick",
        "start_ms", "duration_ms", "error", "attrs",
    ],
    "v_monitor.sessions": [
        "session_id", "state", "pool_name", "isolation", "txn_id",
        "current_statement", "statements_run", "statements_failed",
        "last_error",
    ],
    "v_monitor.resource_pools": [
        "pool_name", "memory_budget_rows", "memory_in_use_rows",
        "max_concurrency", "running", "queue_depth", "queued",
        "queue_timeout_ticks", "admitted_total", "queued_total",
        "rejected_total", "timed_out_total", "cancelled_total",
        "peak_running",
    ],
    "v_monitor.journal": [
        "segment", "records", "bytes", "first_lsn", "last_lsn",
        "is_active", "checkpoint_lsn", "floor_epoch",
    ],
    "v_monitor.dc_requests_completed": [
        "record_id", "tick", "statement", "session_id", "pool_name",
        "sql", "success", "error", "rows_returned",
        "duration_ms", "epoch",
    ],
    "v_monitor.dc_resource_acquisitions": [
        "record_id", "tick", "outcome", "pool_name", "session_id",
        "ticket_id", "memory_rows", "queued_ticks", "detail",
    ],
    "v_monitor.dc_lock_waits": [
        "record_id", "tick", "outcome", "txn_id", "object_name",
        "mode", "blocker_txn", "detail",
    ],
    "v_monitor.dc_node_events": [
        "record_id", "tick", "kind", "node_index", "node_name",
        "attempt", "detail",
    ],
    "v_monitor.dc_tuple_mover": [
        "record_id", "tick", "kind", "node_index", "projection_name",
        "containers_in", "containers_out", "rows_in", "rows_out",
        "rows_purged", "stratum", "duration_ms",
    ],
    "v_monitor.dc_errors": [
        "record_id", "tick", "kind", "source", "node_index", "detail",
    ],
    "v_monitor.slow_queries": [
        "record_id", "tick", "statement", "session_id", "pool_name",
        "sql", "rows_returned", "duration_ms",
        "threshold_ms",
    ],
    "v_monitor.alerts": [
        "alert", "severity", "state", "value", "raise_above",
        "clear_below", "raised_tick", "cleared_tick", "times_raised",
        "detail",
    ],
}


def _normalize(rendered: str) -> str:
    """Blank out wall-clock figures, the only nondeterministic part."""
    out = re.sub(r"\d+\.\d+ ms", "_ ms", rendered)
    out = re.sub(r"time=\d+\.\d+ms", "time=_", out)
    return re.sub(r"self=\d+\.\d+ms", "self=_", out)


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """Scripted load -> query -> moveout -> mergeout on one node.

    Four load+moveout cycles put four sales containers in stratum 0 of
    each local segment, which is exactly the merge policy's
    ``min_inputs`` — the fourth cycle's mergeout pass merges them.
    """
    reset_all()
    db = Database(str(tmp_path_factory.mktemp("golden") / "db"), node_count=1)
    db.create_table(
        TableDefinition(
            "sales",
            [
                ColumnDef("sale_id", types.INTEGER),
                ColumnDef("cust_id", types.INTEGER),
                ColumnDef("amount", types.FLOAT),
            ],
        ),
        sort_order=["sale_id"],
    )
    db.create_table(
        TableDefinition(
            "customers",
            [
                ColumnDef("cust_id", types.INTEGER),
                ColumnDef("region", types.VARCHAR),
            ],
        ),
        sort_order=["cust_id"],
    )
    db.load(
        "customers",
        [{"cust_id": c, "region": ["east", "west"][c % 2]} for c in range(10)],
    )
    for cycle in range(4):
        db.load(
            "sales",
            [
                {"sale_id": cycle * 100 + i, "cust_id": i % 10, "amount": float(i)}
                for i in range(100)
            ],
        )
        db.run_tuple_movers()
    rendered = db.sql("EXPLAIN ANALYZE " + JOIN_GROUP_SQL)
    return db, rendered


def test_explain_analyze_golden(scenario):
    _, rendered = scenario
    assert _normalize(rendered) == EXPLAIN_ANALYZE_GOLDEN


def test_profile_shows_rows_blocks_and_time(scenario):
    """Acceptance shape: every operator line carries rows, blocks and
    wall time, and the join + group-by plan is fully annotated."""
    _, rendered = scenario
    lines = rendered.splitlines()[1:]
    assert len(lines) == 10
    for line in lines:
        assert re.search(r"\[rows=\d+ blocks=\d+ pulls=\d+ time=\d", line)
    assert any("HashJoin" in line for line in lines)
    assert any("GroupByHash" in line for line in lines)


def test_monitor_schemas_golden(scenario):
    db, _ = scenario
    assert sorted(table_names()) == sorted(GOLDEN_SCHEMAS)
    for name, expected in GOLDEN_SCHEMAS.items():
        assert columns_of(name) == expected
        rows = db.sql(f"SELECT * FROM {name}")
        for row in rows:
            assert list(row) == expected


def test_query_profiles_matches_rendered_plan(scenario):
    """v_monitor.query_profiles must agree row-for-row with the
    EXPLAIN ANALYZE rendering of the same query."""
    db, rendered = scenario
    rows = db.sql(
        "SELECT depth, operator_name, rows_produced, blocks_produced, pulls "
        "FROM v_monitor.query_profiles WHERE query_id = 1 ORDER BY operator_id"
    )
    op_lines = rendered.splitlines()[1:]
    assert len(rows) == len(op_lines)
    for row, line in zip(rows, op_lines):
        assert line.startswith("  " * row["depth"] + row["operator_name"][:4])
        stats = re.search(r"\[rows=(\d+) blocks=(\d+) pulls=(\d+)", line)
        assert stats is not None
        assert row["rows_produced"] == int(stats.group(1))
        assert row["blocks_produced"] == int(stats.group(2))
        assert row["pulls"] == int(stats.group(3))


def test_projection_storage_contents(scenario):
    db, _ = scenario
    rows = db.sql(
        "SELECT * FROM v_monitor.projection_storage ORDER BY projection_name"
    )
    by_name = {row["projection_name"]: row for row in rows}
    sales = by_name["sales_super"]
    assert sales["anchor_table"] == "sales"
    assert sales["node_name"] == "node00"
    assert sales["wos_rows"] == 0  # everything moved out
    assert sales["ros_rows"] == 400
    assert sales["ros_bytes"] > 0
    assert sales["delete_markers"] == 0
    customers = by_name["customers_super"]
    assert customers["ros_rows"] == 10


def test_tuple_mover_events_contents(scenario):
    db, _ = scenario
    events = db.sql(
        "SELECT m.*, s.node_name FROM v_monitor.dc_tuple_mover m "
        "JOIN v_monitor.node_states s ON m.node_index = s.node_index "
        "ORDER BY m.record_id"
    )
    kinds = [event["kind"] for event in events]
    # one customers moveout + four sales moveouts, then the mergeouts
    # the fourth cycle triggers once stratum 0 reaches min_inputs.
    assert kinds.count("moveout") == 5
    assert kinds.count("mergeout") >= 1
    assert [event["record_id"] for event in events] == list(
        range(1, len(events) + 1)
    )
    for event in events:
        assert event["duration_ms"] >= 0.0
        assert event["node_name"] == "node00"
    moveout_rows = sum(
        event["rows_in"] for event in events if event["kind"] == "moveout"
    )
    assert moveout_rows == 410  # 10 customers + 4 x 100 sales
    for event in events:
        if event["kind"] == "mergeout":
            assert event["stratum"] >= 0
            assert event["containers_in"] >= 2
            assert event["containers_out"] == 1
            assert event["rows_out"] == event["rows_in"] - event["rows_purged"]
    merged_rows = sum(
        event["rows_in"] for event in events if event["kind"] == "mergeout"
    )
    assert merged_rows == 400  # every sales row remerged exactly once


def test_locks_table_reflects_open_transaction(scenario):
    db, _ = scenario
    assert db.sql("SELECT * FROM v_monitor.locks") == []
    session = db.session()
    session.begin()
    session.insert("sales", [{"sale_id": 9999, "cust_id": 1, "amount": 1.0}])
    held = db.sql("SELECT object_name, mode FROM v_monitor.locks")
    assert {"object_name": "sales", "mode": "I"} in held
    session.rollback()
    assert db.sql("SELECT * FROM v_monitor.locks") == []


def test_repeated_query_profiles_identical(scenario):
    """Counter hygiene: running the same query twice must yield
    identical per-operator profiles — no state leaks across queries."""
    db, _ = scenario

    def profile_of():
        db.sql(JOIN_GROUP_SQL)
        last = db.cluster.dc.rows("profiles")[-1]
        assert last["sql"] == JOIN_GROUP_SQL
        return [
            (op.depth, op.op_name, op.rows_produced, op.blocks_produced, op.pulls)
            for op in last["operators"]
        ]

    assert profile_of() == profile_of()
