"""Counts, not timings: a cold open rewrites nothing.

Load, drain (a mover cycle), close, reopen: everything is under the
durable floor, so the open must keep every container as it is — zero
container writes.  Then the same with a journal tail past the floor:
exactly the tail's rows are written back, nothing else.
"""

from repro import Database
from repro.monitor import METRICS
from storage_helpers import kv_rows

WRITTEN = "storage.containers_written"
ROWS_WRITTEN = "storage.container_rows_written"
TAIL = 40


def count(db):
    return db.sql("SELECT count(*) AS n FROM t")[0]["n"]


def test_a_drained_open_writes_no_container_and_a_tail_only_its_rows(kv_database):
    path, make = kv_database
    db = make(node_count=3, k_safety=1)
    db.load("t", kv_rows(range(600)), direct_to_ros=True)
    db.load("t", kv_rows(range(600, 700)))
    db.sql("DELETE FROM t WHERE k % 10 = 3")
    db.cluster.run_tuple_movers()
    del db

    written = METRICS.counter(WRITTEN)
    db = Database.open(path)
    report = db.replay_report
    assert METRICS.counter(WRITTEN) == written, "a drained open wrote containers"
    assert (report.containers_rewritten, report.containers_dropped) == (0, 0), report
    assert report.containers_kept > 0 and report.rows_truncated == 0, report
    assert count(db) == 630
    kept = report.containers_kept

    db.load("t", kv_rows(range(700, 700 + TAIL), v=0), direct_to_ros=True)
    del db

    rows_written = METRICS.counter(ROWS_WRITTEN)
    db = Database.open(path)
    report = db.replay_report
    assert (report.containers_kept, report.containers_rewritten) == (kept, 0), report
    # K=1: each tail row lives in two projection copies
    assert report.rows_truncated == 2 * TAIL, report
    assert METRICS.counter(ROWS_WRITTEN) - rows_written == 2 * TAIL, (
        "the open wrote more than the journal tail"
    )
    assert count(db) == 630 + TAIL
