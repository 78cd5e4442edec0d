"""Counts, not timings: a cold open does its work once per segment and
once per sort-order window.

A 3-node database with an intact journal — a load, a mover cycle, a
tail of single-row commits, one DELETE and some history in the Data
Collector — is reopened:

- the journal's segments are checked whole: one bulk check and one JSON
  parse per segment, no line parsed on its own (only the checkpoint
  file's one record is);
- no Data Collector frame is parsed, and the collector flushes once;
- the first ``SELECT * FROM v_monitor.dc_requests_completed`` parses
  each recovered frame of that ring once and serves what an eager load
  of the same segments would;
- the replayed DELETE compares only rows inside its sort-prefix window
  and decodes only blocks that overlap it.
"""

import glob
import os
import shutil

import pytest

from repro import Database
from repro.dc import DataCollector, collector
from repro.lint import sanitizer
from repro.monitor import METRICS
from repro.storage import StorageManager, segment_log
from repro.storage.column_file import ColumnWriter
from repro.storage.ros import ROSContainer
from repro.storage.segment_log import SegmentLog
from storage_helpers import kv_rows

BLOCK = 200
ROWS = 3000
DECODED = "storage.blocks_decoded"


@pytest.fixture(autouse=True)
def product_only(monkeypatch):
    """Blocks of ``BLOCK`` rows, so a container holds several; the
    sanitizer off, because it decodes every block of a container it
    checks at load."""
    defaults = ColumnWriter.__init__.__defaults__
    monkeypatch.setattr(ColumnWriter.__init__, "__defaults__", (defaults[0], BLOCK))
    with sanitizer.override(False):
        yield


@pytest.fixture
def closed_database(kv_database):
    path, make = kv_database
    db = make(node_count=3, k_safety=1)
    db.load("t", kv_rows(range(ROWS)), direct_to_ros=True)
    db.cluster.run_tuple_movers()
    for k in range(ROWS, ROWS + 120):
        db.sql(f"INSERT INTO t VALUES ({k}, 1)")
    db.sql("DELETE FROM t WHERE k >= 1200 AND k < 1230")
    for _ in range(20):
        db.sql("SELECT count(*) AS n FROM t")
    db.cluster.dc.flush()
    del db
    return path


class Spy:
    """Call counts of the open path's parsers, flushes and delete reads."""

    def __init__(self, monkeypatch):
        self.checked = {True: 0, False: 0}  # parse flag -> segments checked
        self.parsed = []  # bodies per parse_bodies call
        self.lines = 0
        self.flushes = 0
        self.windows = {}  # container -> windows answered
        self.compared = []  # (container, window read) inside delete_where
        self.decoded = 0  # blocks decoded inside delete_where
        self._deleting = False
        spy = self

        check, parse = segment_log._check_segment, segment_log.parse_bodies
        line, flush = segment_log._parse_line, DataCollector._flush_locked
        window, read = StorageManager._prefix_window, ROSContainer.read_range
        delete = StorageManager.delete_where

        def checked(raw, parse):
            spy.checked[parse] += 1
            return check(raw, parse)

        def parsed(bodies):
            spy.parsed.append(len(bodies))
            return parse(bodies)

        def parsed_line(raw):
            spy.lines += 1
            return line(raw)

        def flushed(self):
            spy.flushes += 1
            return flush(self)

        def windowed(container, prefix, span):
            found = window(container, prefix, span)
            spy.windows.setdefault(container, []).append(found)
            return found

        def reading(self, name, start, end):
            if spy._deleting:
                spy.compared.append((self, name, start, end))
            return read(self, name, start, end)

        def deleting(self, *args):
            spy._deleting, before = True, METRICS.counter(DECODED)
            try:
                return delete(self, *args)
            finally:
                spy._deleting = False
                spy.decoded += METRICS.counter(DECODED) - before

        monkeypatch.setattr(segment_log, "_check_segment", checked)
        monkeypatch.setattr(segment_log, "parse_bodies", parsed)
        monkeypatch.setattr(collector, "parse_bodies", parsed)
        monkeypatch.setattr(segment_log, "_parse_line", parsed_line)
        monkeypatch.setattr(DataCollector, "_flush_locked", flushed)
        monkeypatch.setattr(StorageManager, "_prefix_window", staticmethod(windowed))
        monkeypatch.setattr(ROSContainer, "read_range", reading)
        monkeypatch.setattr(StorageManager, "delete_where", deleting)


def lines_in(pattern):
    total = 0
    for path in glob.glob(pattern):
        with open(path, "rb") as handle:
            total += handle.read().count(b"\n")
    return total


def test_a_cold_open_parses_each_journal_segment_once_and_no_history(
    closed_database, monkeypatch
):
    path = closed_database
    journal_segments = glob.glob(os.path.join(path, "journal", "seg_*.log"))
    dc_segments = glob.glob(os.path.join(path, "dc", "*.log"))
    assert len(journal_segments) > 1 and dc_segments
    checkpoints = glob.glob(os.path.join(path, "journal", "ckpt_*"))
    spy = Spy(monkeypatch)
    Database.open(path)
    # one bulk check and one JSON parse per journal segment ...
    assert spy.checked[True] == len(journal_segments)
    assert len(spy.parsed) == len(journal_segments)
    # ... of every journal line and of nothing else: no Data Collector frame
    assert sum(spy.parsed) == lines_in(os.path.join(path, "journal", "seg_*.log"))
    assert spy.checked[False] == len(dc_segments)
    # no line parsed on its own but the newest checkpoint's one record
    assert spy.lines == (1 if checkpoints else 0)
    # the rejoin's node events reach disk in one flush
    assert spy.flushes == 1


def eager_requests(directory):
    """The ``requests`` ring an eager open would have loaded."""
    log = SegmentLog(directory, "requests_", segment_records=1,
                     stage_point="-", publish_point="-")
    recovered, _ = log.open(valid=lambda body: "id" in body)
    return [(body["id"], body["payload"].get("sql")) for _, body in recovered][-1024:]


def test_the_first_history_read_parses_each_frame_once(
    closed_database, monkeypatch, tmp_path
):
    path = closed_database
    shutil.copytree(os.path.join(path, "dc"), tmp_path / "eager")
    expected = eager_requests(str(tmp_path / "eager"))
    db = Database.open(path)
    held = db.cluster.dc.counts()["requests"]
    assert held == len(expected) > 0
    spy = Spy(monkeypatch)
    rows = db.sql("SELECT * FROM v_monitor.dc_requests_completed")
    assert spy.parsed == [held]  # every frame once, in one call
    assert [(row["record_id"], row["sql"]) for row in rows] == expected
    db.sql("SELECT * FROM v_monitor.dc_requests_completed")
    assert spy.parsed == [held]  # and never again


def test_a_replayed_delete_reads_only_its_window(closed_database, monkeypatch):
    spy = Spy(monkeypatch)
    Database.open(closed_database)
    assert spy.compared, "the DELETE was not replayed into a container"
    rows = 0
    for container, name, start, end in spy.compared:
        assert any(lo <= start and end <= hi for lo, hi in spy.windows[container]), (
            name, start, end, spy.windows[container]
        )
        rows += (end - start) * (name == "k")
    # the window is the victims' keys, not the block holding them: a
    # few dozen rows compared, where the block alone is BLOCK rows
    assert rows < BLOCK
    windows = [window for found in spy.windows.values() for window in found]
    blocks = sum(-(-(hi - lo) // BLOCK) + 1 for lo, hi in windows if lo < hi)
    # per matched column (k, v), the blocks the windows overlap
    assert 0 < spy.decoded <= 2 * blocks
