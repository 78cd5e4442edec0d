"""Counts, not timings: a commit writes its own bytes.

A bulk load, then single-row commits: each may rewrite less than one
segment budget beside its own record, however much was loaded before
it.  The next mover cycle's checkpoint frees the sealed segments, so
the journal on disk is its replay window and a reopen reads only that.
"""

import os

from repro import Database
from repro.monitor import METRICS
from repro.storage.segment_log import SEGMENT_BYTES
from storage_helpers import kv_rows

WRITTEN = "journal.bytes_written"
REPLAYED = "journal.replay.records"
LOADED = 20_000


def test_a_single_row_commit_after_a_bulk_load_and_the_journal_left_behind(
    kv_database,
):
    path, make = kv_database
    db = make(node_count=3, k_safety=1)
    db.load("t", kv_rows(range(LOADED)), direct_to_ros=True)
    worst = 0
    for i in range(20):
        before = METRICS.counter(WRITTEN)
        db.sql(f"INSERT INTO t VALUES ({LOADED + i}, 1)")
        worst = max(worst, METRICS.counter(WRITTEN) - before)
    assert worst <= SEGMENT_BYTES + 1024, (
        f"a single-row commit rewrote {worst} journal bytes"
    )

    checkpoints = METRICS.counter("journal.checkpoints")
    pruned = METRICS.counter("journal.segments_pruned")
    db.cluster.run_tuple_movers()
    assert METRICS.counter("journal.checkpoints") > checkpoints, (
        "the mover cycle took no checkpoint although one frees a segment"
    )
    assert METRICS.counter("journal.segments_pruned") > pruned
    journal_dir = os.path.join(path, "journal")
    on_disk = sum(
        os.path.getsize(os.path.join(journal_dir, name))
        for name in os.listdir(journal_dir)
    )
    assert on_disk < 64 * 1024, f"{on_disk} journal bytes left under the floor"
    tail = sum(
        row["records"] for row in db.sql("SELECT records FROM v_monitor.journal")
    )
    del db

    replayed = METRICS.counter(REPLAYED)
    db = Database.open(path)
    replayed = METRICS.counter(REPLAYED) - replayed
    assert replayed == tail <= 21, (replayed, tail)  # the inserts and the floor
    assert db.replay_report.commits_replayed == 0, db.replay_report
    assert db.sql("SELECT count(*) AS n FROM t")[0]["n"] == LOADED + 20
