"""Unit tests for :class:`repro.dc.DataCollector`.

Covers the ring-buffer retention (count and age bounds), the
CRC-framed segment persistence, cold-start recovery including
torn-tail truncation, and the kill switch.
"""

import os

import pytest

from repro.cluster.clock import SimulatedClock
from repro.dc import COMPONENTS, DataCollector
from repro.errors import InjectedFaultError
from repro.faults import FaultPlan
from repro.monitor.retention import RetentionPolicy
from repro.storage.segment_log import SEGMENT_BYTES

pytestmark = pytest.mark.dc


def collector(tmp_path, **kwargs):
    kwargs.setdefault("clock", SimulatedClock())
    return DataCollector(str(tmp_path / "dc"), **kwargs)


class TestRings:
    def test_record_and_rows_round_trip(self, tmp_path):
        dc = collector(tmp_path)
        dc.record("requests", "select", sql="SELECT 1", duration_ms=1.5)
        (row,) = dc.rows("requests")
        assert row["kind"] == "select"
        assert row["sql"] == "SELECT 1"
        assert row["duration_ms"] == 1.5
        assert row["record_id"] == 1
        assert row["tick"] == 0

    def test_unknown_component_rejected(self, tmp_path):
        dc = collector(tmp_path)
        with pytest.raises(KeyError):
            dc.record("no_such_component", "x")

    def test_count_retention_keeps_newest(self, tmp_path):
        dc = collector(
            tmp_path, retention=RetentionPolicy(max_records=10)
        )
        for i in range(25):
            dc.record("errors", "E", source="t", node_index=-1, detail=str(i))
        rows = dc.rows("errors")
        assert len(rows) == 10
        assert [r["detail"] for r in rows] == [str(i) for i in range(15, 25)]
        assert rows[-1]["record_id"] == 25  # ids keep counting

    def test_age_retention_evicts_on_tick(self, tmp_path):
        clock = SimulatedClock()
        dc = collector(
            tmp_path,
            clock=clock,
            retention=RetentionPolicy(max_records=100, max_age_ticks=5),
        )
        dc.record("node_events", "old")
        clock.advance(10)
        dc.record("node_events", "new")
        dc.on_tick()
        rows = dc.rows("node_events")
        assert [r["kind"] for r in rows] == ["new"]

    def test_negative_age_diff_keeps_records(self, tmp_path):
        """A reopened database starts its clock at 0 while recovered
        records carry high ticks; they must not be evicted."""
        clock = SimulatedClock()
        dc = collector(
            tmp_path,
            clock=clock,
            retention=RetentionPolicy(max_records=100, max_age_ticks=5),
        )
        clock.advance(50)
        dc.record("node_events", "late")
        clock.now = 0  # simulate the fresh clock of a cold start
        dc.on_tick()
        assert len(dc.rows("node_events")) == 1

    def test_counts_and_reset(self, tmp_path):
        dc = collector(tmp_path)
        dc.record("requests", "select")
        dc.record("errors", "E", source="t", node_index=-1, detail="")
        counts = dc.counts()
        assert counts["requests"] == 1 and counts["errors"] == 1
        dc.reset()
        assert all(n == 0 for n in dc.counts().values())

    def test_reset_zeroes_the_flush_counter_with_the_batches(self, tmp_path):
        dc = collector(tmp_path, persist=True, flush_interval=4)
        for i in range(3):
            dc.record("requests", "select", sql=f"q{i}")
        dc.reset()
        # a stale counter would fire the threshold flush one record in
        for i in range(3):
            dc.record("requests", "select", sql=f"r{i}")
        assert not os.path.exists(tmp_path / "dc")
        dc.record("requests", "select", sql="r3")
        assert os.listdir(tmp_path / "dc") == ["requests_000001.log"]

    def test_profiles_ring_is_memory_only(self, tmp_path):
        dc = collector(tmp_path, persist=True, flush_interval=2)
        for i in range(5):
            dc.record("profiles", "select", sql=f"q{i}", operators=[])
        dc.flush()
        assert dc.counts()["profiles"] == 5
        assert not os.path.exists(tmp_path / "dc")
        assert collector(tmp_path, persist=True).rows("profiles") == []

    def test_disabled_collector_records_nothing(self, tmp_path):
        dc = collector(tmp_path, enabled=False)
        dc.record("requests", "select")
        assert dc.rows("requests") == []

    def test_env_kill_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DC_DISABLE", "1")
        dc = collector(tmp_path)
        dc.record("requests", "select")
        assert dc.rows("requests") == []


class TestPersistence:
    def test_flush_writes_segments_and_recovery_reads_them(self, tmp_path):
        dc = collector(tmp_path, persist=True, flush_interval=4)
        for i in range(6):
            dc.record("requests", "select", sql=f"q{i}")
        dc.flush()
        files = os.listdir(tmp_path / "dc")
        assert any(f.startswith("requests_") for f in files)

        reopened = collector(tmp_path, persist=True)
        rows = reopened.rows("requests")
        assert [r["sql"] for r in rows] == [f"q{i}" for i in range(6)]
        # ids continue after the recovered history
        reopened.record("requests", "select", sql="q6")
        assert reopened.rows("requests")[-1]["record_id"] == 7

    def test_fresh_wipes_prior_history(self, tmp_path):
        dc = collector(tmp_path, persist=True)
        dc.record("requests", "select", sql="old")
        dc.flush()
        fresh = collector(tmp_path, persist=True, fresh=True)
        assert fresh.rows("requests") == []

    def test_flush_interval_auto_flushes(self, tmp_path):
        dc = collector(tmp_path, persist=True, flush_interval=3)
        for i in range(3):
            dc.record("errors", "E", source="t", node_index=-1, detail="")
        # the third record crossed the interval: segments exist already
        assert any(
            f.startswith("errors_") for f in os.listdir(tmp_path / "dc")
        )

    def test_segment_rotation_and_pruning(self, tmp_path):
        dc = collector(
            tmp_path,
            persist=True,
            flush_interval=1,
            segment_records=4,
            retention=RetentionPolicy(max_records=8),
        )
        for i in range(40):
            dc.record("requests", "select", sql=f"q{i}")
        dc.flush()
        segments = [
            f
            for f in os.listdir(tmp_path / "dc")
            if f.startswith("requests_")
        ]
        # sealed history is bounded: retention caps on-disk segments too
        assert 1 <= len(segments) <= 4
        reopened = collector(
            tmp_path, persist=True, retention=RetentionPolicy(max_records=8)
        )
        rows = reopened.rows("requests")
        assert len(rows) == 8
        assert rows[-1]["sql"] == "q39"

    def test_pruning_keeps_the_retention_cap_across_byte_sealed_segments(
        self, tmp_path
    ):
        """Segments sealed by size hold unequal record counts; pruning
        must still leave the newest ``max_records`` on disk, or a reopen
        would serve less history than the live ring did."""
        dc = collector(
            tmp_path,
            persist=True,
            flush_interval=1,
            retention=RetentionPolicy(max_records=8),
        )
        bulky = "x" * (SEGMENT_BYTES // 3)
        for i in range(60):  # runs of small records between bulky ones
            dc.record("requests", "select", sql=f"q{i}", text=bulky * (i % 5 == 0))
            on_disk = sum(
                (tmp_path / "dc" / name).read_bytes().count(b"\n")
                for name in os.listdir(tmp_path / "dc")
            )
            assert on_disk >= min(i + 1, 8)
        assert 2 <= len(os.listdir(tmp_path / "dc")) <= 6  # and not all 60
        reopened = collector(
            tmp_path, persist=True, retention=RetentionPolicy(max_records=8)
        )
        assert [r["sql"] for r in reopened.rows("requests")] == [
            f"q{i}" for i in range(52, 60)
        ]

    def test_kill_at_publish_between_byte_sealed_segments(self, tmp_path):
        """A flush that seals a segment by size and opens the next dies
        after publishing the first: recovery serves the record prefix
        that reached disk and collecting goes on."""
        dc = collector(tmp_path, persist=True, flush_interval=100)
        dc.record("requests", "select", sql="q0")
        dc.flush()
        dc.record("requests", "select", sql="q1", text="x" * SEGMENT_BYTES)
        dc.record("requests", "select", sql="q2")
        plan = FaultPlan(seed=3).arm("dc.flush.publish", "crash")
        with plan:
            with pytest.raises(InjectedFaultError):
                dc.flush()  # segment 1 = q0, q1 published; q2 never staged
        assert plan.fired
        assert sorted(os.listdir(tmp_path / "dc")) == ["requests_000001.log"]

        reopened = collector(tmp_path, persist=True, flush_interval=100)
        assert [r["sql"] for r in reopened.rows("requests")] == ["q0", "q1"]
        reopened.record("requests", "select", sql="q3")
        reopened.flush()  # the recovered tail is full: a new segment
        assert sorted(os.listdir(tmp_path / "dc")) == [
            "requests_000001.log", "requests_000002.log",
        ]
        rows = collector(tmp_path, persist=True).rows("requests")
        assert [r["record_id"] for r in rows] == [1, 2, 3]

    def test_flush_straddling_rotation_loses_nothing(self, tmp_path):
        """Regression: a flush batch that fills the active segment
        mid-batch must also rewrite the sealed segment — the records
        that completed it used to be silently dropped on disk."""
        dc = collector(
            tmp_path,
            persist=True,
            flush_interval=100,
            segment_records=10,
        )
        for i in range(8):
            dc.record("requests", "select", sql=f"q{i}")
        dc.flush()  # segment 1 at 8 records
        for i in range(8, 14):
            dc.record("requests", "select", sql=f"q{i}")
        dc.flush()  # q8/q9 seal segment 1, q10..q13 open segment 2
        with open(tmp_path / "dc" / "requests_000001.log", "rb") as fh:
            assert len(fh.read().splitlines()) == 10  # sealed AND full

        reopened = collector(tmp_path, persist=True)
        rows = reopened.rows("requests")
        assert [r["sql"] for r in rows] == [f"q{i}" for i in range(14)]
        assert [r["record_id"] for r in rows] == list(range(1, 15))

    def test_deferred_records_skip_the_inline_flush(self, tmp_path):
        """``defer_flush=True`` batches the record without segment I/O
        even past the flush threshold; the next non-deferred record
        (or explicit flush) persists the whole backlog."""
        dc = collector(tmp_path, persist=True, flush_interval=2)
        dc.record("lock_waits", "wait", defer_flush=True, txn_id=1)
        dc.record("lock_waits", "wait", defer_flush=True, txn_id=2)
        assert not (tmp_path / "dc").exists()  # over threshold, no I/O
        dc.record("requests", "select", sql="q0")  # crosses it for real
        reopened = collector(tmp_path, persist=True)
        assert len(reopened.rows("lock_waits")) == 2
        assert len(reopened.rows("requests")) == 1

    def test_torn_tail_truncated_to_valid_prefix(self, tmp_path):
        dc = collector(tmp_path, persist=True, flush_interval=1)
        for i in range(5):
            dc.record("requests", "select", sql=f"q{i}")
        dc.flush()
        (segment,) = [
            f
            for f in os.listdir(tmp_path / "dc")
            if f.startswith("requests_")
        ]
        path = str(tmp_path / "dc" / segment)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-7])  # tear the last record mid-line

        reopened = collector(tmp_path, persist=True)
        rows = reopened.rows("requests")
        assert [r["sql"] for r in rows] == [f"q{i}" for i in range(4)]

    def test_corrupt_middle_record_drops_rest_of_segment(self, tmp_path):
        dc = collector(tmp_path, persist=True, flush_interval=1)
        for i in range(5):
            dc.record("requests", "select", sql=f"q{i}")
        dc.flush()
        (segment,) = [
            f
            for f in os.listdir(tmp_path / "dc")
            if f.startswith("requests_")
        ]
        path = str(tmp_path / "dc" / segment)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        lines[2] = "deadbeef " + lines[2].split(" ", 1)[1]  # bad crc
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)

        reopened = collector(tmp_path, persist=True)
        rows = reopened.rows("requests")
        assert [r["sql"] for r in rows] == ["q0", "q1"]

    def test_all_components_have_rings(self, tmp_path):
        dc = collector(tmp_path)
        for component in COMPONENTS:
            assert dc.rows(component) == []
