"""Service-session behaviour: governed execution, timeouts, cancel,
deadlock victims, read-only degradation, and the serial oracle.

Threaded scenarios follow the repo's determinism discipline: threads
are sequenced by observable state (``locks.waiting()``, session
states), timeouts live on the simulated clock, and every scenario ends
with a no-leak audit (governor idle, no lock waiters, sessions idle).
"""

import threading
import time

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.errors import (
    AdmissionTimeoutError,
    DeadlockError,
    QueryCancelledError,
    ReadOnlyModeError,
    StatementTimeoutError,
    TransactionError,
)
from repro.service import PoolConfig, SqlService
from repro.txn import IsolationLevel


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=3)
    db.create_table(
        TableDefinition(
            "t", [ColumnDef("k", types.INTEGER), ColumnDef("v", types.INTEGER)]
        ),
        sort_order=["k"],
    )
    db.load("t", [{"k": i, "v": 0} for i in range(10)])
    return db


@pytest.fixture
def service(db):
    service = SqlService(db, pools=[PoolConfig("general", max_concurrency=4)])
    yield service
    service.shutdown()


def wait_until(predicate, what, timeout=5.0):
    """Spin until ``predicate()`` holds; wall timeout only guards hangs."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"never observed: {what}")
        time.sleep(0.001)


class TestBasicLifecycle:
    def test_select_insert_autocommit(self, db, service):
        session = service.connect()
        session.execute("INSERT INTO t VALUES (100, 7)")
        rows = session.execute("SELECT v FROM t WHERE k = 100")
        assert rows == [{"v": 7}]
        assert session.statements_run == 2
        assert session.txn_id is None  # autocommitted, nothing open
        # a second session sees the committed row immediately.
        other = service.connect()
        assert other.execute("SELECT count(*) AS n FROM t") == [{"n": 11}]

    def test_explicit_transaction_commit(self, db, tmp_path):
        service = SqlService(db, autocommit=False)
        try:
            writer = service.connect()
            writer.execute("INSERT INTO t VALUES (200, 1)")
            assert writer.txn_id is not None
            reader = service.connect()
            assert reader.execute("SELECT count(*) AS n FROM t") == [{"n": 10}]
            writer.commit()
            assert reader.execute("SELECT count(*) AS n FROM t") == [{"n": 11}]
        finally:
            service.shutdown()

    def test_rollback_discards(self, db, tmp_path):
        service = SqlService(db, autocommit=False)
        try:
            session = service.connect()
            session.execute("INSERT INTO t VALUES (300, 1)")
            session.rollback()
            assert session.execute("SELECT count(*) AS n FROM t") == [{"n": 10}]
        finally:
            service.shutdown()

    def test_closed_session_rejects_statements(self, service):
        session = service.connect()
        session.close()
        with pytest.raises(TransactionError, match="closed"):
            session.execute("SELECT 1 AS x")

    def test_close_rolls_back_open_transaction(self, db):
        service = SqlService(db, autocommit=False)
        try:
            session = service.connect()
            session.execute("INSERT INTO t VALUES (400, 1)")
            session.close()
            check = service.connect()
            assert check.execute("SELECT count(*) AS n FROM t") == [{"n": 10}]
        finally:
            service.shutdown()

    def test_failed_statement_keeps_session_usable(self, service):
        session = service.connect()
        with pytest.raises(Exception):
            session.execute("SELECT nope FROM missing_table")
        assert session.statements_failed == 1
        assert session.last_error is not None
        assert session.execute("SELECT count(*) AS n FROM t") == [{"n": 10}]


    def test_one_parse_per_statement_and_before_admission(
        self, service, monkeypatch
    ):
        import repro.sql.interface as interface
        import repro.sql.parser as parser
        from repro.errors import SqlSyntaxError
        from repro.monitor import METRICS

        parsed = []

        def counting(text, original=parser.parse):
            parsed.append(text)
            return original(text)

        monkeypatch.setattr(parser, "parse", counting)
        monkeypatch.setattr(interface, "parse", counting)
        session = service.connect()
        statements = [
            "INSERT INTO t VALUES (100, 7)",
            "SELECT v FROM t WHERE k = 100",
            "DELETE FROM t WHERE k = 100",
        ]
        for text in statements:
            session.execute(text)
        # the session's parse classifies the statement and is the one
        # the front end runs: no second parse inside execute_sql
        assert parsed == statements
        admitted = METRICS.counter("service.admitted")
        with pytest.raises(SqlSyntaxError):
            session.execute("SELEKT v FROM t")
        assert METRICS.counter("service.admitted") == admitted
        # the ungoverned entry still parses for itself
        del parsed[:]
        service.db.sql("SELECT count(*) AS n FROM t")
        assert parsed == ["SELECT count(*) AS n FROM t"]


class TestStatementTimeout:
    def test_expired_deadline_raises_and_releases(self, db, service):
        # a 0-tick budget expires at the statement's first checkpoint —
        # the deterministic stand-in for "the clock passed the deadline
        # mid-statement".
        timed = service.connect(statement_timeout_ticks=0)
        with pytest.raises(StatementTimeoutError):
            timed.execute("SELECT count(*) AS n FROM t")
        assert timed.state == "idle"
        assert timed.statements_failed == 1
        # untimed sibling still works; nothing leaked.
        untimed = service.connect()
        assert untimed.execute("SELECT count(*) AS n FROM t") == [{"n": 10}]
        service.governor.assert_idle()

    def test_generous_deadline_does_not_fire(self, service):
        session = service.connect(statement_timeout_ticks=1_000)
        assert session.execute("SELECT count(*) AS n FROM t") == [{"n": 10}]


class TestCancellation:
    def test_cancel_parked_lock_wait(self, db):
        service = SqlService(db, autocommit=False, lock_timeout_seconds=30.0)
        try:
            holder = service.connect()
            holder.execute("UPDATE t SET v = 1 WHERE k = 0")  # X on t, held
            blocked = service.connect()
            errors = {}

            def run():
                try:
                    blocked.execute("UPDATE t SET v = 2 WHERE k = 1")
                except Exception as exc:  # noqa: BLE001 - checked below
                    errors["blocked"] = exc

            worker = threading.Thread(target=run)
            worker.start()
            locks = db.cluster.locks
            wait_until(lambda: locks.waiting(), "second update parked")
            blocked.cancel("user pressed ^C")
            worker.join(timeout=10.0)
            assert not worker.is_alive()
            assert isinstance(errors["blocked"], QueryCancelledError)
            assert locks.waiting() == {}
            holder.commit()  # unimpeded
            service.governor.assert_idle()
        finally:
            service.shutdown()


class TestDeadlockVictim:
    def test_concurrent_deadlock_one_victim_one_committer(self, db):
        db.create_table(
            TableDefinition("u", [ColumnDef("k", types.INTEGER)]),
            sort_order=["k"],
        )
        db.load("u", [{"k": 0}])
        service = SqlService(db, autocommit=False, lock_timeout_seconds=30.0)
        try:
            s1 = service.connect()
            s2 = service.connect()
            s1.execute("UPDATE t SET v = 1 WHERE k = 0")  # s1: X on t
            s2.execute("UPDATE u SET k = 0 WHERE k = 0")  # s2: X on u
            results = {}

            def park_s1():
                try:
                    s1.execute("UPDATE u SET k = 1 WHERE k = 0")
                    results["s1"] = "ran"
                except Exception as exc:  # noqa: BLE001 - checked below
                    results["s1"] = exc

            worker = threading.Thread(target=park_s1)
            worker.start()
            locks = db.cluster.locks
            wait_until(lambda: locks.waiting(), "s1 parked on u")
            # s2's request closes the cycle -> s2 is the victim, by the
            # lock manager's deterministic victim rule.
            with pytest.raises(DeadlockError):
                s2.execute("UPDATE t SET v = 2 WHERE k = 0")
            worker.join(timeout=10.0)
            assert results["s1"] == "ran"  # survivor finished its update
            s1.commit()
            # exactly one victim, one committer; victim was rolled back.
            assert s2.statements_failed == 1
            assert s2.txn_id is None
            check = service.connect()
            assert check.execute("SELECT v FROM t WHERE k = 0") == [{"v": 1}]
            assert locks.waiting() == {}
            service.governor.assert_idle()
        finally:
            service.shutdown()


class TestReadOnlyDegradation:
    """Quorum loss on a 4-node cluster (quorum = 3): ejecting two
    *non-adjacent* nodes loses quorum while k-safety 1 keeps every
    segment readable — the regime where read-only degradation matters."""

    @pytest.fixture
    def wide_db(self, tmp_path):
        db = Database(str(tmp_path / "wide"), node_count=4)
        db.create_table(
            TableDefinition(
                "t",
                [ColumnDef("k", types.INTEGER), ColumnDef("v", types.INTEGER)],
            ),
            sort_order=["k"],
        )
        db.load("t", [{"k": i, "v": 0} for i in range(10)])
        return db

    def test_quorum_loss_degrades_writes_not_reads(self, wide_db):
        service = SqlService(wide_db)
        try:
            membership = wide_db.cluster.membership
            membership.eject(1, "test")
            membership.eject(3, "test")
            assert not membership.has_quorum()
            session = service.connect()
            with pytest.raises(ReadOnlyModeError, match="read-only"):
                session.execute("INSERT INTO t VALUES (500, 1)")
            assert service.read_only
            # reads keep answering through the degraded service.
            rows = session.execute("SELECT count(*) AS n FROM t")
            assert rows == [{"n": 10}]
        finally:
            service.shutdown()

    def test_step_up_when_quorum_returns(self, wide_db):
        service = SqlService(wide_db)
        try:
            membership = wide_db.cluster.membership
            membership.eject(1, "test")
            membership.eject(3, "test")
            session = service.connect()
            with pytest.raises(ReadOnlyModeError):
                session.execute("INSERT INTO t VALUES (500, 1)")
            membership.rejoin(1)
            membership.rejoin(3)
            session.execute("INSERT INTO t VALUES (500, 1)")  # steps back up
            assert not service.read_only
            rows = session.execute("SELECT count(*) AS n FROM t")
            assert rows == [{"n": 11}]
        finally:
            service.shutdown()


class TestSerialOracle:
    THREADS = 6
    ROWS_PER_THREAD = 8

    def test_concurrent_mixed_workload_matches_serial_oracle(self, tmp_path):
        def build(path):
            db = Database(str(path), node_count=3)
            db.create_table(
                TableDefinition(
                    "t",
                    [
                        ColumnDef("k", types.INTEGER),
                        ColumnDef("v", types.INTEGER),
                    ],
                ),
                sort_order=["k"],
            )
            return db

        statements = [
            f"INSERT INTO t VALUES ({worker * 1000 + i}, {worker})"
            for worker in range(self.THREADS)
            for i in range(self.ROWS_PER_THREAD)
        ]

        # serial oracle: same statements, one session, one thread.
        oracle_db = build(tmp_path / "oracle")
        oracle = SqlService(oracle_db)
        session = oracle.connect()
        for statement in statements:
            session.execute(statement)
        expected = sorted(
            tuple(sorted(row.items()))
            for row in session.execute("SELECT k, v FROM t")
        )
        oracle.shutdown()

        # concurrent run: one session per thread, reads mixed in.
        db = build(tmp_path / "concurrent")
        service = SqlService(
            db,
            pools=[
                PoolConfig(
                    "general",
                    max_concurrency=self.THREADS,
                    queue_depth=self.THREADS,
                )
            ],
            lock_timeout_seconds=30.0,
        )
        errors = []
        barrier = threading.Barrier(self.THREADS)

        def worker(worker_id):
            session = service.connect()
            try:
                barrier.wait(timeout=10)
                for i in range(self.ROWS_PER_THREAD):
                    session.execute(
                        f"INSERT INTO t VALUES ({worker_id * 1000 + i}, "
                        f"{worker_id})"
                    )
                    rows = session.execute("SELECT count(*) AS n FROM t")
                    # snapshot sees at least this thread's own commits.
                    assert rows[0]["n"] >= i + 1
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                session.close()

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        final = service.connect()
        got = sorted(
            tuple(sorted(row.items()))
            for row in final.execute("SELECT k, v FROM t")
        )
        assert got == expected
        assert db.cluster.locks.waiting() == {}
        service.governor.assert_idle()
        service.shutdown()


class TestMonitorTables:
    def test_sessions_and_pools_via_sql(self, db, service):
        session = service.connect()
        session.execute("SELECT count(*) AS n FROM t")
        rows = db.sql(
            "SELECT session_id, state, pool_name FROM v_monitor.sessions"
        )
        assert {"session_id": session.session_id, "state": "idle",
                "pool_name": "general"} in rows
        pools = db.sql(
            "SELECT pool_name, running, admitted_total, max_concurrency "
            "FROM v_monitor.resource_pools"
        )
        assert pools == [
            {
                "pool_name": "general",
                "running": 0,
                "admitted_total": 1,
                "max_concurrency": 4,
            }
        ]

    def test_tables_empty_without_service(self, tmp_path):
        db = Database(str(tmp_path / "plain"), node_count=1)
        assert db.sql("SELECT * FROM v_monitor.sessions") == []
        assert db.sql("SELECT * FROM v_monitor.resource_pools") == []

    def test_admission_counters_surface(self, db, service):
        session = service.connect()
        for _ in range(3):
            session.execute("SELECT count(*) AS n FROM t")
        rows = db.sql(
            "SELECT admitted_total FROM v_monitor.resource_pools"
        )
        assert rows == [{"admitted_total": 3}]


class TestIsolationLevels:
    def test_serializable_session_rides_lock_matrix(self, db, service):
        session = service.connect(isolation=IsolationLevel.SERIALIZABLE)
        assert session.isolation is IsolationLevel.SERIALIZABLE
        assert session.execute("SELECT count(*) AS n FROM t") == [{"n": 10}]
