"""One home per operational fact: the Data Collector rings.

``dc_tuple_mover``, ``dc_node_events`` and ``query_profiles`` are
column maps over the database's own collector, so histories of two
databases in one process never mix, profiling a SELECT writes nothing,
the kill switch empties them like the ``dc_*`` tables, and on a durable
database they come back after ``Database.open()``.
"""

import os

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.monitor import METRICS

pytestmark = pytest.mark.dc

REHOMED = ("dc_tuple_mover", "query_profiles", "dc_node_events")


def make_db(path, **kwargs):
    db = Database(str(path), node_count=3, k_safety=1, **kwargs)
    db.create_table(
        TableDefinition(
            "t", [ColumnDef("k", types.INTEGER), ColumnDef("v", types.INTEGER)]
        ),
        sort_order=["k"],
    )
    return db


def table(db, name):
    return db.sql(f"SELECT * FROM v_monitor.{name}")


def busy(db):
    """Load, one mover cycle, one SELECT, one node failure healed."""
    db.load("t", [{"k": i, "v": i % 7} for i in range(50)])
    db.run_tuple_movers()
    assert db.sql("SELECT count(*) AS n FROM t") == [{"n": 50}]
    db.cluster.fail_node(1)
    db.cluster.supervisor.run_until_converged()
    assert db.cluster.membership.is_up(1)


def test_two_databases_keep_separate_histories(tmp_path):
    a = make_db(tmp_path / "a", durable=False)
    b = make_db(tmp_path / "b", durable=False)
    busy(a)
    for name in REHOMED:
        assert table(b, name) == [], name
        assert table(a, name) != [], name
    # b starts its own ids from 1 whatever a has done
    b.sql("SELECT count(*) AS n FROM t")
    assert {row["query_id"] for row in table(b, "query_profiles")} == {1}


def test_node_events_ring_holds_recovery_transitions(tmp_path):
    db = make_db(tmp_path / "db", durable=False)
    busy(db)
    events = table(db, "dc_node_events")
    kinds = {event["kind"] for event in events}
    assert "recovery_transition" in kinds
    ids = [e["record_id"] for e in events]
    assert ids == sorted(set(ids))


def test_profiled_selects_write_only_the_requests_ring(tmp_path):
    db = make_db(tmp_path / "db")
    db.load("t", [{"k": i, "v": i} for i in range(20)])
    db.run_tuple_movers()  # mover cycle flushes: nothing is pending
    dc = db.cluster.dc
    assert dc.flush_interval == 16
    dc_dir = os.path.join(str(tmp_path / "db"), "dc")

    def sizes():
        return {
            name: os.path.getsize(os.path.join(dc_dir, name))
            for name in os.listdir(dc_dir)
        }

    start = seen = sizes()
    before = METRICS.counters_snapshot()
    profiles_before = dc.counts()["profiles"]
    rewritten = 0  # a flush rewrites each segment it touches whole
    for i in range(64):
        db.sql(f"SELECT count(*) AS n FROM t WHERE k >= {i}")
        now = sizes()
        rewritten += sum(
            size for name, size in now.items() if seen.get(name) != size
        )
        seen = now
    after = METRICS.counters_snapshot()
    assert dc.counts()["profiles"] == profiles_before + 64
    assert after["dc.records"] - before["dc.records"] == 128
    # 64 requests records at flush_interval=16: 4 flushes of 1 component
    assert after["dc.flushes"] - before["dc.flushes"] == 4
    assert after["dc.bytes_written"] - before["dc.bytes_written"] == rewritten
    changed = {name for name in seen if start.get(name) != seen[name]}
    assert changed and all(name.startswith("requests_") for name in changed)
    assert not any(name.startswith("profiles") for name in seen)
    dc.flush()  # the profiles ring left nothing pending
    assert METRICS.counters_snapshot()["dc.flushes"] == after["dc.flushes"]


def test_kill_switch_empties_the_rehomed_tables(tmp_path):
    db = make_db(tmp_path / "db", durable=False)
    db.cluster.dc.enabled = False
    busy(db)
    for name in REHOMED:
        assert table(db, name) == [], name
    rendered = db.sql("EXPLAIN ANALYZE SELECT count(*) AS n FROM t")
    assert rendered.startswith("Query 0 (1 rows")
    assert "Scan(" in rendered


def test_rehomed_tables_survive_reopen(tmp_path):
    path = tmp_path / "db"
    db = make_db(path)
    busy(db)
    db.run_tuple_movers()
    movers = table(db, "dc_tuple_mover")
    failovers = table(db, "dc_node_events")
    assert movers and failovers
    del db
    reopened = Database.open(str(path))
    assert table(reopened, "dc_tuple_mover") == movers
    recovered = table(reopened, "dc_node_events")
    assert recovered[: len(failovers)] == failovers
    assert table(reopened, "query_profiles") == []  # memory-only ring
