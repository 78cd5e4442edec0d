"""Thread-stress smoke: concurrent SELECTs under the race detector.

Eight threads hammer the same database with snapshot SELECTs (the
lock-free path of section 5) while the sanitizer and the lockset race
detector watch the shared monitoring state every query bumps (the
process-wide metrics registry, the database's Data Collector rings).  The suite must come back finding-free: no exceptions on any
thread, no lockset-empty writes.  A companion negative harness proves
the detector would have caught an unguarded write pattern — so the
green result above means "checked", not "unplugged".
"""

import threading

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.lint.concur.runtime import RACES, TrackedLock
from repro.monitor import METRICS

pytestmark = pytest.mark.lint

THREADS = 8
QUERIES_PER_THREAD = 10


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=1)
    db.create_table(
        TableDefinition(
            "t", [ColumnDef("k", types.INTEGER), ColumnDef("v", types.VARCHAR)]
        ),
        sort_order=["k"],
    )
    db.load("t", [{"k": i, "v": f"v{i % 7}"} for i in range(500)])
    db.run_tuple_movers()
    return db


class TestThreadStress:
    def test_concurrent_selects_are_race_free(self, db):
        RACES.reset()
        RACES.track("METRICS._counters")
        RACES.track("DataCollector._rings")
        errors = []
        barrier = threading.Barrier(THREADS)

        def worker():
            try:
                barrier.wait(timeout=10)
                for _ in range(QUERIES_PER_THREAD):
                    rows = db.sql("SELECT count(*) AS n FROM t")
                    assert rows == [{"n": 500}]
                    db.sql("SELECT v, count(*) AS n FROM t GROUP BY v")
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            assert errors == []
            reports = RACES.reports()
            assert reports == [], "\n".join(r.render() for r in reports)
            executed = METRICS.counters_with_prefix("queries.executed")
            assert executed["queries.executed"] >= THREADS * QUERIES_PER_THREAD
        finally:
            RACES.reset()

    def test_harness_catches_an_unguarded_write(self):
        # the negative control: the same harness with the guard removed
        # on one path must produce a lockset-empty report.
        RACES.reset()
        RACES.track("victim")
        guard = TrackedLock("victim_guard")
        try:
            with guard:
                RACES.note_write("victim")

            def unguarded():
                RACES.note_write("victim")

            worker = threading.Thread(target=unguarded)
            worker.start()
            worker.join()
            with guard:
                RACES.note_write("victim")
            reports = RACES.reports()
            assert len(reports) == 1
            assert reports[0].name == "victim"
        finally:
            RACES.reset()
