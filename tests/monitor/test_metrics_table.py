"""Tests for v_monitor.metrics and MetricsRegistry.capture().

The metrics table is the catch-all SQL surface over the process-wide
registry: every counter, gauge and histogram appears as one row, with
the kind-specific columns left NULL for the others.  ``capture()`` is
the scoped-delta primitive the benchmark harness leans on."""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.monitor import METRICS, reset_all


@pytest.fixture
def db(tmp_path):
    reset_all()
    db = Database(str(tmp_path / "db"), node_count=1)
    db.create_table(
        TableDefinition(
            "t", [ColumnDef("a", types.INTEGER)], primary_key=("a",)
        )
    )
    db.load("t", [{"a": i} for i in range(50)])
    return db


def _rows_by_name(db):
    rows = db.sql("SELECT * FROM v_monitor.metrics")
    return {row["name"]: row for row in rows}


def test_metrics_table_reports_all_three_kinds(db):
    METRICS.set_gauge("test.gauge", 2.5)
    for value in (1.0, 3.0, 5.0, 7.0):
        METRICS.observe("test.histogram", value)
    by_name = _rows_by_name(db)

    # real engine counters bumped by the load above are present.
    counters = [r for r in by_name.values() if r["kind"] == "counter"]
    assert counters and all(r["value"] >= 0 for r in counters)

    gauge = by_name["test.gauge"]
    assert gauge["kind"] == "gauge"
    assert gauge["value"] == 2.5
    assert gauge["observations"] is None

    histogram = by_name["test.histogram"]
    assert histogram == {
        "name": "test.histogram",
        "kind": "histogram",
        "value": None,
        "observations": 4,
        "total": 16.0,
        "min_value": 1.0,
        "max_value": 7.0,
        "mean": 4.0,
        "p50": 5.0,
        "p95": 7.0,
    }


def test_metrics_table_sorted_and_fully_columned(db):
    rows = db.sql("SELECT * FROM v_monitor.metrics")
    assert rows == sorted(rows, key=lambda r: (r["kind"], r["name"]))
    for row in rows:
        assert set(row) == {
            "name", "kind", "value", "observations", "total",
            "min_value", "max_value", "mean", "p50", "p95",
        }


def test_order_by_sorts_null_first_like_every_table(db):
    """A v_monitor ORDER BY follows the one ordering rule: NULL before
    every value ascending, after every value descending — as a table's
    ORDER BY does."""
    METRICS.set_gauge("test.gauge", 2.5)
    METRICS.observe("test.histogram", 1.0)
    ascending = [row["value"] for row in db.sql(
        "SELECT name, value FROM v_monitor.metrics ORDER BY value"
    )]
    nulls = ascending.count(None)
    assert nulls and ascending[:nulls] == [None] * nulls
    assert ascending[nulls:] == sorted(ascending[nulls:])
    descending = [row["value"] for row in db.sql(
        "SELECT name, value FROM v_monitor.metrics ORDER BY kind, value DESC"
    )]
    histograms = [row["value"] for row in db.sql(
        "SELECT value FROM v_monitor.metrics WHERE kind = 'histogram'"
    )]
    assert descending[-len(histograms):] == [None] * len(histograms)

    db.sql("CREATE TABLE n (v INTEGER)")
    db.sql("INSERT INTO n VALUES (2)")
    db.sql("INSERT INTO n VALUES (NULL)")
    db.sql("INSERT INTO n VALUES (1)")
    assert [row["v"] for row in db.sql("SELECT v FROM n ORDER BY v")] == [None, 1, 2]


def test_capture_reports_deltas_without_reset(db):
    before = METRICS.counter("queries.executed")
    with METRICS.capture(("queries.executed",)) as captured:
        db.sql("SELECT a FROM t WHERE a < 10")
    assert captured.deltas == {"queries.executed": 1}
    # capture never resets the registry.
    assert METRICS.counter("queries.executed") == before + 1


def test_capture_defaults_to_every_moved_counter(db):
    with METRICS.capture() as captured:
        METRICS.inc("capture.example", 3)
    assert captured.deltas["capture.example"] == 3
    # untouched counters report a delta of zero, not absence.
    assert all(delta == 0 or name == "capture.example"
               for name, delta in captured.deltas.items()
               if name.startswith("capture."))


def test_capture_nests_safely(db):
    with METRICS.capture(("nest.outer", "nest.inner")) as outer:
        METRICS.inc("nest.outer")
        with METRICS.capture(("nest.inner",)) as inner:
            METRICS.inc("nest.inner", 2)
        METRICS.inc("nest.outer")
    assert inner.deltas == {"nest.inner": 2}
    assert outer.deltas == {"nest.outer": 2, "nest.inner": 2}


def test_log_write_amplification_is_one_select(db):
    """Written beside framed bytes, per log client: how much of what
    the journal and the Data Collector hand the device is rewriting."""
    for i in range(50, 90):
        db.sql(f"INSERT INTO t VALUES ({i})")
    db.cluster.dc.flush()
    rows = db.sql(
        "SELECT name, value FROM v_monitor.metrics WHERE name IN "
        "('journal.bytes_written', 'journal.bytes_framed', "
        "'dc.bytes_written', 'dc.bytes_framed')"
    )
    value = {row["name"]: row["value"] for row in rows}
    for client in ("journal", "dc"):
        assert 0 < value[f"{client}.bytes_framed"] <= value[f"{client}.bytes_written"]
    # "sealed" needs no column: it is every segment but the active one
    active = db.sql("SELECT bytes FROM v_monitor.journal WHERE is_active")
    assert len(active) == 1
