"""Degraded-mode query latency: healthy vs one node down vs mid-query
failover (section 5.2-5.3).

The paper's availability claim is not just that queries *survive* node
loss but that the degraded cluster keeps serving at reasonable cost:
with one node down, that node's ring segments are scanned from the
buddy copies hosted on the survivors, concentrating their rows onto
fewer nodes.  This bench records the same aggregate query

* on the healthy 3-node cluster,
* with one node down (buddy scans, before any recovery), and
* with the node killed *mid-query* (one failover retry included),

so ``BENCH_REPORT.json`` shows the three latencies side by side, then
lets the supervisor heal the cluster and verifies the healthy latency
path is restored.
"""

from __future__ import annotations

import pytest

from conftest import env_int, print_table

from repro import ColumnDef, Database, TableDefinition, types
from repro.faults import FaultPlan

SQL = (
    "SELECT cid, COUNT(*) AS n, SUM(price) AS total "
    "FROM sales GROUP BY cid ORDER BY cid"
)

ROWS = env_int("REPRO_FAILOVER_ROWS", 30000)


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(
        str(tmp_path_factory.mktemp("failover")), node_count=3, k_safety=1
    )
    db.create_table(
        TableDefinition(
            "sales",
            [
                ColumnDef("sale_id", types.INTEGER),
                ColumnDef("cid", types.INTEGER),
                ColumnDef("price", types.FLOAT),
            ],
            primary_key=("sale_id",),
        ),
        sort_order=["sale_id"],
    )
    db.load(
        "sales",
        [
            {"sale_id": i, "cid": i % 64, "price": float(i % 97)}
            for i in range(ROWS)
        ],
        direct_to_ros=True,
    )
    db.run_tuple_movers()
    db.analyze_statistics()
    return db


@pytest.fixture(scope="module")
def timings():
    return {}


def test_query_healthy(benchmark, db, timings):
    """Baseline: all nodes up, primary copies scanned."""
    rows = benchmark(lambda: db.sql(SQL))
    assert len(rows) == 64
    timings["healthy"] = benchmark.stats.stats.mean


def test_query_mid_query_failover(benchmark, db, timings):
    """One failover retry inside the measurement: the victim dies on
    its first scan batch, the executor re-resolves against buddies and
    reruns the query at the same epoch.  Healing between rounds keeps
    every round's starting state identical."""

    def killed_mid_query():
        plan = FaultPlan(seed=1).arm("executor.scan", "crash", node=2)
        with plan:
            rows = db.sql(SQL)
        assert plan.fired
        db.cluster.supervisor.run_until_converged()
        return rows

    rows = benchmark.pedantic(killed_mid_query, rounds=3, iterations=1)
    assert len(rows) == 64
    timings["mid-query failover"] = benchmark.stats.stats.mean


def test_query_degraded_one_node_down(benchmark, db, timings):
    """Steady-state degraded mode: node 2 stays down, its segments are
    served by the buddy copies on the survivors."""
    db.fail_node(2)
    rows = benchmark(lambda: db.sql(SQL))
    assert len(rows) == 64
    timings["degraded (1 node down)"] = benchmark.stats.stats.mean


def test_supervisor_heals_and_latency_recovers(benchmark, db, timings):
    """After supervisor-driven recovery the healthy scan path (and its
    latency) is back."""
    db.cluster.supervisor.run_until_converged()
    assert db.cluster.membership.down_nodes() == []
    rows = benchmark(lambda: db.sql(SQL))
    assert len(rows) == 64
    timings["healed"] = benchmark.stats.stats.mean
    print_table(
        f"Degraded-mode query latency ({ROWS} rows, 3 nodes, K=1)",
        ["mode", "mean ms"],
        [
            [mode, f"{seconds * 1000:.2f}"]
            for mode, seconds in timings.items()
        ],
    )
