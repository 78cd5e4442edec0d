"""Cold start truncates to the durable floor without rewriting the
database: containers under the floor stay byte-identical, and deletes
under the floor stay deleted however often the database is reopened."""

import os

import pytest

from repro import types
from repro.cluster import recover_node
from repro.core.database import Database
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import InjectedFaultError
from repro.faults import FaultPlan
from repro.monitor import METRICS
from repro.trace import TRACER
from repro.tuple_mover import MergePolicy
from storage_helpers import read_table

#: Two containers in a stratum already merge, so a mover cycle run while
#: a node is down (the floor cannot advance) merges a container under
#: the floor with one past it — the straddler cold start must rewrite.
EAGER = MergePolicy(min_inputs=2)


def build(path, **kwargs):
    db = Database(str(path), node_count=3, k_safety=1, **kwargs)
    db.create_table(
        TableDefinition(
            "t",
            [ColumnDef("a", types.INTEGER), ColumnDef("b", types.VARCHAR)],
            primary_key=("a",),
        ),
        sort_order=["a"],
    )
    return db


def rows(start, stop):
    return [{"a": a, "b": f"b{a % 5}"} for a in range(start, stop)]


def count(db):
    return db.sql("SELECT count(*) AS n FROM t")[0]["n"]


def visible(db):
    return sorted(
        row["a"] for row in read_table(db.cluster, "t", db.latest_epoch)
    )


def storage_image(path):
    """path -> (bytes, mtime_ns) of every container and delete-vector
    file of every node."""
    image = {}
    for directory, _, files in os.walk(path):
        if not os.path.basename(directory).startswith(("ros_", "dv_")):
            continue
        for name in files:
            file_path = os.path.join(directory, name)
            with open(file_path, "rb") as handle:
                image[file_path] = (handle.read(), os.stat(file_path).st_mtime_ns)
    return image


def drained_with_deletes(path):
    """29 rows, ten of them deleted, everything under the floor; then
    one more INSERT in the journal tail.  21 rows are live."""
    db = build(path)
    db.load("t", rows(1, 30))
    db.sql("DELETE FROM t WHERE a < 10")
    db.run_tuple_movers()
    db.sql("INSERT INTO t VALUES (100, 'late')")
    return db


def straddling_with_deletes(path):
    """The same load and delete, but on two nodes every deleted-from
    container was then merged with one past the floor while node 2 was
    down: it straddles the floor and carries delete markers under it.
    80 rows are live."""
    db = build(path, merge_policy=EAGER)
    db.load("t", rows(1, 30), direct_to_ros=True)
    db.sql("DELETE FROM t WHERE a < 10")
    db.run_tuple_movers()  # floor covers the load and the delete
    db.fail_node(2)
    db.load("t", rows(100, 160), direct_to_ros=True)
    db.run_tuple_movers()  # merges across the floor on nodes 0 and 1
    return db


class TestDeletesSurviveReopening:
    """Known defect 1 of PR 12: open -> 21 rows, open again -> 30."""

    def test_kept_container_keeps_its_delete_vector(self, tmp_path):
        path = str(tmp_path / "db")
        db = drained_with_deletes(path)
        assert count(db) == 21
        expected = visible(db)
        del db
        for _ in range(3):
            db = Database.open(path)
            assert count(db) == 21
            assert visible(db) == expected
            report = db.replay_report
            assert report.containers_rewritten == 0
            assert report.containers_kept > 0
            del db

    def test_rewritten_straddler_keeps_its_delete_markers(self, tmp_path):
        path = str(tmp_path / "db")
        db = straddling_with_deletes(path)
        assert count(db) == 80
        expected = visible(db)
        del db
        rewritten = []
        for _ in range(3):
            db = Database.open(path, merge_policy=EAGER)
            assert count(db) == 80
            assert visible(db) == expected
            rewritten.append(db.replay_report.containers_rewritten)
            del db
        # the first open rewrote the straddlers; after that nothing on
        # disk crosses the floor any more
        assert rewritten[0] > 0 and rewritten[1:] == [0, 0]

    def test_recovery_persists_replayed_delete_markers(self, tmp_path):
        """``load_history`` callers (recovery here) write the delete
        vectors of what they load, so they survive a restart."""
        db = build(tmp_path / "db", durable=False)
        db.load("t", rows(1, 30))
        db.run_tuple_movers()
        db.fail_node(1)
        db.load("t", rows(30, 50), direct_to_ros=True)
        db.sql("DELETE FROM t WHERE a % 3 = 0")
        db.cluster.restart_node(1)
        report = recover_node(db.cluster, 1)
        assert report.containers_kept > 0 and report.historical_rows > 0
        expected = visible(db)
        # node 1 restarts again: what recovery loaded — markers
        # included — must all be on its disk
        db.cluster.run_tuple_movers()
        for survivor in (0, 2):
            db.fail_node(1)
            db.cluster.restart_node(1)
            recover_node(db.cluster, 1)
            db.fail_node(survivor)
            assert visible(db) == expected
            db.cluster.restart_node(survivor)
            recover_node(db.cluster, survivor)


class TestOpenDoesNotRewrite:
    def test_drained_database_is_untouched_by_open(self, tmp_path):
        path = str(tmp_path / "db")
        db = build(path)
        db.load("t", rows(0, 400), direct_to_ros=True)
        db.load("t", rows(400, 500))
        db.sql("DELETE FROM t WHERE a % 7 = 0")
        db.run_tuple_movers()
        expected = visible(db)
        del db
        image = storage_image(path)
        assert image
        written = METRICS.counter("storage.containers_written")

        db = Database.open(path)

        report = db.replay_report
        assert (report.containers_rewritten, report.containers_dropped) == (0, 0)
        assert report.containers_kept == len(
            {os.path.dirname(p) for p in image if "/ros_" in p}
        )
        assert report.rows_truncated == 0
        assert METRICS.counter("storage.containers_written") == written
        assert storage_image(path) == image
        assert visible(db) == expected

    def test_only_the_journal_tail_is_written(self, tmp_path):
        path = str(tmp_path / "db")
        db = build(path)
        db.load("t", rows(0, 400), direct_to_ros=True)
        db.run_tuple_movers()
        db.load("t", rows(400, 420), direct_to_ros=True)  # past the floor
        db.load("t", rows(420, 425))  # WOS: only in the journal
        del db
        image = storage_image(path)
        rows_written = METRICS.counter("storage.container_rows_written")

        db = Database.open(path)

        report = db.replay_report
        assert report.containers_rewritten == 0
        assert report.containers_dropped > 0
        # K=1: two copies of each of the 20 rows past the floor were on
        # disk, and each is written back once per copy from the journal
        assert report.rows_truncated == 20 * 2
        assert report.rows_reinserted == 25
        assert (
            METRICS.counter("storage.container_rows_written") - rows_written
            == 20 * 2
        )
        # what was under the floor is still there, untouched
        after = storage_image(path)
        survivors = {p for p in image if p in after}
        assert all(after[p] == image[p] for p in survivors)
        assert report.containers_kept == len(
            {os.path.dirname(p) for p in survivors}
        )
        assert visible(db) == list(range(425))

    def test_outcomes_are_on_the_truncate_span(self, tmp_path):
        path = str(tmp_path / "db")
        straddling_with_deletes(path)
        TRACER.reset()
        with TRACER.enabled_scope(True):
            db = Database.open(path, merge_policy=EAGER)
        trace = next(t for t in TRACER.finished if t.root.name == "cold_start")
        TRACER.reset()
        (span,) = [s for s in trace.spans if s.name == "cold_start.truncate"]
        report = db.replay_report
        assert report.containers_rewritten > 0
        for outcome in ("kept", "rewritten", "dropped"):
            assert span.attrs[f"containers_{outcome}"] == getattr(
                report, f"containers_{outcome}"
            )


@pytest.mark.chaos
@pytest.mark.parametrize("skip", [0, 1])
@pytest.mark.parametrize("point", ["dv.publish", "ros.publish", "ros.published"])
def test_kill_during_the_straddle_rewrite_reopens_on_the_oracle(
    point, skip, tmp_path
):
    """The rewrite is ordered delete vector -> replacement -> retire
    victim: killing ``Database.open`` at any of its commit points and
    opening again must land on the fault-free state."""
    oracle = straddling_with_deletes(str(tmp_path / "oracle"))
    expected = visible(oracle)
    assert len(expected) == 80

    path = str(tmp_path / "sut")
    straddling_with_deletes(path)
    plan = FaultPlan(seed=skip).arm(point, "crash", skip=skip)
    with plan, pytest.raises(InjectedFaultError):
        Database.open(path, merge_policy=EAGER)
    assert [fired.point for fired in plan.fired] == [point]

    for _ in range(2):
        db = Database.open(path, merge_policy=EAGER)
        assert visible(db) == expected
        assert db.replay_report.containers_quarantined == 0
        del db
