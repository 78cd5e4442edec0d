"""Recovery behaviour bench (section 5.2).

No figure in the paper, but an explicit behavioural claim: recovery is
*online* and *incremental* — a rejoining node replays only the DML it
missed (historical phase, no locks) plus a small current phase, while
queries keep answering from buddy projections throughout.  This bench
kills a node mid-load, measures what recovery copies, and shows query
availability at every stage.
"""

from __future__ import annotations

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.columnar import blocks_to_rows

from conftest import print_table
from storage_helpers import nodes_of


@pytest.fixture()
def db(tmp_path):
    db = Database(str(tmp_path / "rec"), node_count=3, k_safety=1)
    db.create_table(
        TableDefinition(
            "events",
            [ColumnDef("eid", types.INTEGER), ColumnDef("v", types.FLOAT)],
            primary_key=("eid",),
        ),
        sort_order=["eid"],
    )
    return db


def batch(start, count):
    return [{"eid": i, "v": float(i)} for i in range(start, start + count)]


def test_incremental_recovery_report(benchmark, db):
    # phase A: load while healthy, make it durable
    db.load("events", batch(0, 3000))
    db.run_tuple_movers()
    count_sql = "SELECT count(*) AS n FROM events"
    assert db.sql(count_sql)[0]["n"] == 3000

    # phase B: node 1 dies; queries keep answering via buddies
    db.fail_node(1)
    assert db.sql(count_sql)[0]["n"] == 3000

    # phase C: more DML lands while the node is down
    for start in range(3000, 6000, 1000):
        db.load("events", batch(start, 1000))
    db.sql("DELETE FROM events WHERE eid < 100")
    assert db.sql(count_sql)[0]["n"] == 5900

    # phase D: recovery — replay only the missed epochs
    report = db.recover_node(1, historical_lag=2)
    total_rows = 6000
    replayed = report.historical_rows + report.current_rows
    print_table(
        "Recovery — incremental replay after a mid-load failure",
        ["metric", "value"],
        [
            ["rows in table", total_rows],
            ["rows truncated on rejoin (post-LGE garbage)", report.truncated_rows],
            ["rows replayed in historical phase (no locks)", report.historical_rows],
            ["rows replayed in current phase (S lock)", report.current_rows],
            ["fraction of table replayed",
             f"{replayed / (2 * total_rows):.1%} (both copies)"],
        ],
    )
    # incremental: the node missed 3000 of 6000 rows per copy (primary
    # + buddy), so replay should be well below a full rebuild.
    assert 0 < replayed
    per_copy = replayed / 2
    assert per_copy < total_rows * 0.75
    assert report.current_rows > 0
    assert report.historical_rows > report.current_rows

    # phase E: the recovered node serves queries again, consistently
    assert db.sql(count_sql)[0]["n"] == 5900
    family = db.cluster.catalog.super_projection_for("events")
    own = blocks_to_rows(db.cluster.nodes[1].manager.scan(
        family.primary.name, db.latest_epoch
    ))
    loaded = batch(0, 6000)
    placed = nodes_of(family.primary.segmentation, loaded, 3)
    expected = {
        row["eid"] for row, at in zip(loaded, placed) if row["eid"] >= 100 and at == 1
    }
    assert {row["eid"] for row in own} == expected
    benchmark.pedantic(lambda: db.sql(count_sql), rounds=1, iterations=1)


def test_recovery_benchmark(benchmark, db):
    db.load("events", batch(0, 2000))
    db.run_tuple_movers()

    def cycle():
        db.fail_node(2)
        db.load("events", batch(10_000, 500))
        report = db.recover_node(2)
        return report

    benchmark.pedantic(cycle, rounds=3, iterations=1)
