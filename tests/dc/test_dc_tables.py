"""The ``v_monitor.dc_*`` SQL surface and the emission wiring.

Every subsystem that emits into the Data Collector is driven here
through its public API and the result is read back *through SQL* — the
same surface the console and any operator tooling uses.
"""

import threading
import time

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.errors import UnknownObjectError
from repro.monitor import reset_all
from repro.service import PoolConfig, SqlService

pytestmark = pytest.mark.dc


@pytest.fixture
def db(tmp_path):
    reset_all()
    db = Database(str(tmp_path / "db"), node_count=3, durable=False)
    db.create_table(
        TableDefinition(
            "t", [ColumnDef("k", types.INTEGER), ColumnDef("v", types.INTEGER)]
        ),
        sort_order=["k"],
    )
    db.load("t", [{"k": i, "v": 0} for i in range(10)])
    return db


class TestRequests:
    def test_statements_recorded_with_attribution(self, db):
        db.sql("SELECT k, v FROM t")
        db.sql("INSERT INTO t VALUES (100, 7)")
        rows = db.sql(
            "SELECT statement, success, rows_returned "
            "FROM v_monitor.dc_requests_completed"
        )
        kinds = [r["statement"] for r in rows]
        assert kinds[-2:] == ["select", "insert"]
        select = rows[-2]
        assert select["success"] is True
        assert select["rows_returned"] == 10

    def test_failed_statement_recorded_and_error_logged(self, db):
        with pytest.raises(UnknownObjectError):
            db.sql("SELECT x FROM nope")
        (row,) = db.sql(
            "SELECT * FROM v_monitor.dc_requests_completed "
            "WHERE success = FALSE"
        )
        assert row["error"] == "UnknownObjectError"
        errors = db.sql("SELECT kind, source FROM v_monitor.dc_errors")
        assert {"kind": "UnknownObjectError", "source": "sql"} in errors

    def test_monitor_selects_not_recorded(self, db):
        db.sql("SELECT k FROM t")
        before = len(db.sql("SELECT * FROM v_monitor.dc_requests_completed"))
        counts = db.cluster.dc.counts()
        for _ in range(5):
            db.sql("SELECT * FROM v_monitor.dc_requests_completed")
            db.sql("SELECT * FROM v_monitor.alerts")
            # grouped, joined and profiled reads run through the engine
            # and are recorded no more than a bare one
            db.sql(
                "SELECT statement, count(*) AS n FROM v_monitor.dc_requests_completed "
                "GROUP BY statement"
            )
            db.sql(
                "SELECT p.query_id, r.duration_ms FROM v_monitor.query_profiles p "
                "JOIN v_monitor.dc_requests_completed r ON p.sql = r.sql"
            )
            db.sql("EXPLAIN ANALYZE SELECT count(*) AS n FROM v_monitor.query_profiles")
        after = len(db.sql("SELECT * FROM v_monitor.dc_requests_completed"))
        assert after == before  # polling leaves no trace of itself
        now = db.cluster.dc.counts()
        assert (now["requests"], now["profiles"]) == (counts["requests"], counts["profiles"])

    def test_service_sessions_attributed(self, db):
        service = SqlService(
            db, pools=[PoolConfig("reports", max_concurrency=2)]
        )
        try:
            session = service.connect(pool="reports")
            session.execute("SELECT k FROM t")
        finally:
            service.shutdown()
        (row,) = db.sql(
            "SELECT session_id, pool_name "
            "FROM v_monitor.dc_requests_completed WHERE statement = 'select'"
        )
        assert row["session_id"] == session.session_id
        assert row["pool_name"] == "reports"


class TestResourceAcquisitions:
    def test_grants_recorded(self, db):
        service = SqlService(db)
        try:
            session = service.connect()
            session.execute("SELECT k FROM t")
        finally:
            service.shutdown()
        rows = db.sql(
            "SELECT outcome, pool_name FROM v_monitor.dc_resource_acquisitions"
        )
        assert {"outcome": "granted", "pool_name": "general"} in rows


class TestLockWaits:
    def test_conflicting_writers_record_a_wait(self, db):
        service = SqlService(
            db, autocommit=False, lock_timeout_seconds=30.0
        )
        try:
            holder = service.connect()
            holder.execute("UPDATE t SET v = 1 WHERE k = 0")  # X on t
            blocked = service.connect()

            def run():
                try:
                    blocked.execute("UPDATE t SET v = 2 WHERE k = 1")
                except Exception:  # noqa: BLE001 - cancelled below
                    pass

            worker = threading.Thread(target=run)
            worker.start()
            locks = db.cluster.locks
            deadline = time.monotonic() + 5.0
            while not locks.waiting():
                assert time.monotonic() < deadline, "never parked"
                time.sleep(0.001)
            # the wait record is written at park time; unwind and go.
            blocked.cancel("test over")
            worker.join(timeout=10.0)
            holder.commit()
        finally:
            service.shutdown()
        rows = db.sql(
            "SELECT outcome, object_name, mode FROM v_monitor.dc_lock_waits"
        )
        assert any(
            r["outcome"] == "wait" and r["object_name"] == "t" for r in rows
        )


class TestTupleMover:
    def test_moveout_and_mergeout_recorded(self, db):
        for cycle in range(4):
            db.load("t", [{"k": 1000 + cycle * 10 + i, "v": 1} for i in range(10)])
            db.run_tuple_movers()
        kinds = {
            r["kind"]
            for r in db.sql("SELECT kind FROM v_monitor.dc_tuple_mover")
        }
        assert "moveout" in kinds and "mergeout" in kinds
        (sample,) = db.sql(
            "SELECT * FROM v_monitor.dc_tuple_mover "
            "WHERE kind = 'mergeout' LIMIT 1"
        )
        assert sample["containers_in"] >= 2
        assert sample["containers_out"] == 1
        assert sample["rows_out"] > 0


class TestSlowQueries:
    def test_threshold_filters(self, db):
        db.sql("SELECT k FROM t")
        db.health.config.slow_query_ms = 1e9
        assert db.sql("SELECT * FROM v_monitor.slow_queries") == []
        db.health.config.slow_query_ms = 0.0
        rows = db.sql("SELECT * FROM v_monitor.slow_queries")
        assert rows and all(r["threshold_ms"] == 0.0 for r in rows)
