"""Unit tests for the runtime companion: ranked TrackedLock + lockset detector.

The detector implements the Eraser lockset algorithm (Savage et al.):
single-threaded writes are exempt, the first write from a second
thread seeds the candidate lockset, later writes intersect, and an
empty intersection is a race report.  These tests drive each state
transition deterministically by running individual writes on short-
lived helper threads.
"""

import threading

import pytest

from repro.lint.concur.runtime import (
    LOCK_RANKS,
    RaceDetector,
    TrackedLock,
    held_locks,
)

pytestmark = pytest.mark.lint


def on_thread(fn):
    """Run ``fn`` to completion on a separate thread."""
    worker = threading.Thread(target=fn)
    worker.start()
    worker.join()


class TestTrackedLock:
    def test_held_stack_push_pop(self):
        a = TrackedLock("A")
        b = TrackedLock("B")
        assert held_locks() == ()
        with a:
            assert held_locks() == ("A",)
            with b:
                assert held_locks() == ("A", "B")
            assert held_locks() == ("A",)
        assert held_locks() == ()

    def test_out_of_order_release(self):
        a = TrackedLock("A")
        b = TrackedLock("B")
        a.acquire()
        b.acquire()
        a.release()
        assert held_locks() == ("B",)
        b.release()
        assert held_locks() == ()

    def test_is_a_real_mutex(self):
        a = TrackedLock("A")
        a.acquire()
        assert a.locked()
        results = []
        on_thread(lambda: results.append(a.acquire(timeout=0.01)))
        assert results == [False]
        a.release()
        assert not a.locked()

    def test_held_stack_is_per_thread(self):
        a = TrackedLock("A")
        seen = []
        with a:
            on_thread(lambda: seen.append(held_locks()))
        assert seen == [()]


    def test_signature_matches_threading_lock(self):
        a = TrackedLock("A")
        assert a.acquire(True, 1.0)  # positional (blocking, timeout)
        results = []
        on_thread(lambda: results.append(a.acquire(False)))
        on_thread(lambda: results.append(a.acquire(blocking=False)))
        on_thread(lambda: results.append(held_locks()))
        assert results == [False, False, ()]
        # a failed non-blocking acquire of a held lock leaves the stack alone
        assert a.acquire(False) is False
        assert held_locks() == ("A",)
        a.release()
        assert held_locks() == ()

    def test_condition_over_tracked_lock_round_trip(self):
        cond = threading.Condition(TrackedLock("LockManager._cond"))
        box = []

        def consumer():
            with cond:
                while not box:
                    assert cond.wait(timeout=5)
                box.append(held_locks())

        worker = threading.Thread(target=consumer)
        worker.start()
        with cond:
            box.append("ready")
            cond.notify_all()
            assert held_locks() == ("LockManager._cond",)
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert box == ["ready", ("LockManager._cond",)]
        assert held_locks() == ()


class TestProductLocks:
    """The 11 product mutexes are ranked ``TrackedLock`` s, and the real
    commit path nests them the way ``LOCK_RANKS`` says."""

    @pytest.fixture
    def db(self, tmp_path):
        from repro import ColumnDef, Database, TableDefinition, types

        db = Database(str(tmp_path / "db"), node_count=1)
        db.create_table(
            TableDefinition("t", [ColumnDef("k", types.INTEGER)]),
            sort_order=["k"],
        )
        return db

    def test_every_product_mutex_is_ranked(self, db):
        from repro.faults import plan
        from repro.monitor import METRICS
        from repro.service import SqlService
        from repro.trace import TRACER

        service = SqlService(db)
        locks = [
            service._mutex,
            service.governor._cond._lock,
            service.gate._cond._lock,
            db._commit_lock,
            db.cluster.locks._cond._lock,
            db.cluster.journal._lock,
            db.cluster.dc._lock,
            TRACER._lock,
            METRICS._lock,
            db._txn_id_lock,
            plan._PLAN_LOCK,
        ]
        assert all(isinstance(lock, TrackedLock) for lock in locks)
        assert {lock.name: lock.rank for lock in locks} == LOCK_RANKS

    def test_insert_commit_nests_in_rank_order(self, db, monkeypatch):
        stacks = set()
        acquire = TrackedLock.acquire

        def spy(lock, *args):
            got = acquire(lock, *args)
            stacks.add(held_locks())
            return got

        monkeypatch.setattr(TrackedLock, "acquire", spy)
        db.sql("INSERT INTO t VALUES (1)")
        assert ("Database._commit_lock", "Journal._lock") in stacks
        assert (
            "Database._commit_lock", "Journal._lock", "MetricsRegistry._lock"
        ) in stacks
        assert ("DataCollector._lock", "MetricsRegistry._lock") in stacks
        assert held_locks() == ()


class TestRaceDetector:
    def test_untracked_writes_ignored(self):
        detector = RaceDetector()
        detector.note_write("nobody")
        assert detector.reports() == []

    def test_single_thread_needs_no_locks(self):
        detector = RaceDetector()
        detector.track("obj")
        for _ in range(10):
            detector.note_write("obj")
        assert detector.reports() == []

    def test_common_guard_is_clean(self):
        detector = RaceDetector()
        detector.track("obj")
        guard = TrackedLock("G")

        def write():
            with guard:
                detector.note_write("obj")

        write()
        on_thread(write)
        write()
        assert detector.reports() == []

    def test_lockset_empty_write_reported(self):
        detector = RaceDetector()
        detector.track("obj")
        lock_a = TrackedLock("A")
        lock_b = TrackedLock("B")
        with lock_a:
            detector.note_write("obj", "main")

        def second():
            with lock_b:
                detector.note_write("obj", "thread")

        on_thread(second)  # shared now; candidate lockset = {B}
        with lock_a:
            detector.note_write("obj", "main")  # {B} & {A} = {} -> race
        reports = detector.reports()
        assert len(reports) == 1
        assert reports[0].name == "obj"
        assert reports[0].writes == 3
        assert "lockset race" in reports[0].render()

    def test_reported_once_per_object(self):
        detector = RaceDetector()
        detector.track("obj")
        detector.note_write("obj")
        on_thread(lambda: detector.note_write("obj"))
        detector.note_write("obj")
        detector.note_write("obj")
        assert len(detector.reports()) == 1

    def test_disabled_sanitizer_disables_checking(self):
        from repro.lint import sanitizer

        detector = RaceDetector()
        detector.track("obj")
        with sanitizer.override(False):
            detector.note_write("obj")
            on_thread(lambda: detector.note_write("obj"))
            detector.note_write("obj")
        assert detector.reports() == []

    def test_untrack_and_reset(self):
        detector = RaceDetector()
        detector.track("obj")
        assert detector.tracking("obj")
        detector.untrack("obj")
        assert not detector.tracking("obj")
        detector.track("other")
        detector.reset()
        assert not detector.tracking("other")
        assert detector.reports() == []
