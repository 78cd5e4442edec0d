"""Unit tests for the write-ahead journal and its catalog codec."""

import os

import pytest

from repro import types
from repro.core.catalog import Catalog
from repro.core.schema import ColumnDef, TableDefinition
from repro.durability import (
    Journal,
    decode_catalog,
    decode_family,
    decode_table,
    encode_catalog,
    encode_family,
    encode_table,
)
from repro.durability.journal import FORMAT
from repro.storage import segment_log
from repro.storage.segment_log import SEGMENT_BYTES, _frame, _parse_line
from repro.errors import DurabilityError, InjectedFaultError
from repro.execution import Arithmetic, ColumnRef, Literal
from repro.faults import FaultPlan
from repro.monitor import METRICS
from repro.projections.projection import (
    ProjectionFamily,
    make_buddy,
    super_projection,
)


def make_family(table):
    primary = super_projection(table, sort_order=["sale_id"])
    return ProjectionFamily(primary, [make_buddy(primary, 1)])


GENESIS = {
    "node_count": 3,
    "k_safety": 1,
    "segments_per_node": 3,
    "wos_capacity": 65536,
}


def make_journal(tmp_path, **kwargs):
    return Journal.create(str(tmp_path / "journal"), GENESIS, **kwargs)


def read_all(directory):
    found = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            found[name] = handle.read()
    return found


def segment_files(directory):
    return sorted(n for n in os.listdir(directory) if n.startswith("seg_"))


def checkpoint_files(directory):
    return sorted(n for n in os.listdir(directory) if n.startswith("ckpt_"))


def flip_a_bit(path, offset=20):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0x01]))


CATALOG = {"tables": [], "families": []}


def commit(journal, epoch, row_count=1):
    """Journal one commit of ``row_count`` rows; returns how many bytes
    the append wrote and how many of them were its own frame."""
    counters = ("journal.bytes_written", "journal.bytes_framed")
    before = [METRICS.counter(name) for name in counters]
    journal.log_commit(
        epoch=epoch,
        snapshot_epoch=epoch - 1,
        inserts={"t": {"k": list(range(row_count)), "v": ["row"] * row_count}},
        deletes=[],
        direct_to_ros=row_count > 1,
    )
    return tuple(
        METRICS.counter(name) - was for name, was in zip(counters, before)
    )


#: Rows of a commit record several times the size budget of a segment.
BULK = SEGMENT_BYTES // 4


class TestFraming:
    def test_frame_roundtrip(self):
        body = {"kind": "commit", "lsn": 7, "payload": {"epoch": 3}}
        assert _parse_line(_frame(body).encode("utf-8")) == body

    def test_rejects_bad_crc(self):
        line = _frame({"kind": "floor", "lsn": 1, "payload": {}})
        tampered = ("0" * 8) + line[8:]
        assert _parse_line(tampered.encode("utf-8")) is None

    def test_rejects_torn_line(self):
        line = _frame({"kind": "floor", "lsn": 1, "payload": {}})
        assert _parse_line(line[: len(line) // 2].encode("utf-8")) is None

    def test_rejects_flipped_payload_byte(self):
        line = _frame({"kind": "floor", "lsn": 1, "payload": {"epoch": 5}})
        flipped = line.replace('"epoch":5', '"epoch":6')
        assert _parse_line(flipped.encode("utf-8")) is None


class TestAppendReplay:
    def test_roundtrip(self, tmp_path):
        journal = make_journal(tmp_path)
        t = TableDefinition("t", [ColumnDef("k", types.INTEGER)])
        journal.log_ddl("create_table", {"table": encode_table(t)})
        journal.log_commit(
            epoch=1,
            snapshot_epoch=0,
            inserts={"t": {"k": [1]}},
            deletes=[("t", {"k": [0]})],
            direct_to_ros=False,
        )
        journal.log_floor(1)

        reopened = Journal.open(str(tmp_path / "journal"))
        replay = reopened.last_replay
        kinds = [record.kind for record in replay.records]
        assert kinds == ["genesis", "create_table", "commit", "floor"]
        assert [record.lsn for record in replay.records] == [0, 1, 2, 3]
        assert replay.floor == 1
        assert replay.truncated_records == 0
        assert reopened.genesis == {**GENESIS, "format": FORMAT}
        commit = replay.records[2]
        assert commit.payload["inserts"] == {"t": {"k": [1]}}
        assert commit.payload["deletes"] == [{"table": "t", "columns": {"k": [0]}}]

    def test_appends_continue_after_reopen(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.log_floor(2)
        reopened = Journal.open(str(tmp_path / "journal"))
        lsn = reopened.log_ddl("drop_table", {"name": "t"})
        assert lsn == 2  # dense LSNs across restarts
        again = Journal.open(str(tmp_path / "journal"))
        assert [r.lsn for r in again.last_replay.records] == [0, 1, 2]

    def test_create_refuses_existing_journal(self, tmp_path):
        make_journal(tmp_path)
        with pytest.raises(DurabilityError):
            make_journal(tmp_path)

    def test_open_requires_journal(self, tmp_path):
        with pytest.raises(DurabilityError):
            Journal.open(str(tmp_path / "nothing"))

    def test_floor_never_regresses(self, tmp_path):
        journal = make_journal(tmp_path)
        assert journal.log_floor(5) is not None
        assert journal.log_floor(3) is None  # no record written
        assert journal.floor == 5
        reopened = Journal.open(str(tmp_path / "journal"))
        assert reopened.floor == 5


class TestRotationAndCheckpoints:
    def test_rotation_creates_segments(self, tmp_path):
        journal = make_journal(tmp_path, segment_records=4)
        for epoch in range(1, 10):
            journal.log_floor(epoch)
        files = segment_files(str(tmp_path / "journal"))
        assert len(files) >= 2
        replay = Journal.open(
            str(tmp_path / "journal"), segment_records=4
        ).last_replay
        assert [r.lsn for r in replay.records] == list(range(10))

    def test_checkpoint_bounds_replay(self, tmp_path):
        directory = str(tmp_path / "journal")
        journal = make_journal(tmp_path, segment_records=4)
        catalog = {"tables": [], "families": []}
        for epoch in range(1, 9):
            journal.log_commit(
                epoch=epoch,
                snapshot_epoch=epoch - 1,
                inserts={"t": {"k": [epoch]}},
                deletes=[],
                direct_to_ros=False,
            )
        journal.log_floor(8)
        before = len(segment_files(directory))
        journal.write_checkpoint(
            floor=8, current_epoch=9, ahm=0, catalog=catalog
        )
        assert len(segment_files(directory)) < before  # covered ones pruned
        assert checkpoint_files(directory)

        reopened = Journal.open(directory, segment_records=4)
        replay = reopened.last_replay
        assert replay.checkpoint is not None
        assert replay.checkpoint["floor"] == 8
        assert replay.checkpoint["genesis"] == {**GENESIS, "format": FORMAT}
        assert replay.floor == 8
        # every surviving commit record is covered by the checkpoint
        # floor: replay of the tail is bounded, not from genesis.
        assert all(
            r.payload.get("epoch", 0) <= 8
            for r in replay.records
            if r.kind == "commit"
        )

    def test_should_checkpoint_counts_appends(self, tmp_path):
        journal = make_journal(tmp_path, checkpoint_interval=3)
        assert not journal.should_checkpoint()
        journal.log_floor(1)
        journal.log_floor(2)
        assert journal.should_checkpoint()  # genesis + two floors

    def test_should_checkpoint_when_it_frees_a_segment(self, tmp_path):
        directory = str(tmp_path / "journal")
        journal = make_journal(tmp_path, checkpoint_interval=100)
        commit(journal, 1, BULK)
        # over the budget, but in the active segment: nothing to free
        assert segment_files(directory) == ["seg_000001.log"]
        assert not journal.should_checkpoint()
        commit(journal, 2)  # seals segment 1 behind the bulk record
        assert segment_files(directory) == ["seg_000001.log", "seg_000002.log"]
        assert not journal.should_checkpoint()  # epoch 1 is above the floor
        journal.log_floor(1)
        assert journal.should_checkpoint()
        journal.write_checkpoint(floor=1, current_epoch=3, ahm=0, catalog=CATALOG)
        assert segment_files(directory) == ["seg_000002.log"]
        assert not journal.should_checkpoint()  # it freed what there was

        replay = Journal.open(directory).last_replay
        assert [(r.lsn, r.kind) for r in replay.records] == [(2, "commit"), (3, "floor")]
        assert (replay.checkpoint_lsn, replay.truncated_records) == (3, 0)

    def test_newest_segment_stays_when_every_record_is_covered(self, tmp_path):
        """Rotation is lazy so that the newest segment file is never a
        sealed one: ``Journal.exists`` goes by it."""
        directory = str(tmp_path / "journal")
        journal = make_journal(tmp_path, checkpoint_interval=100)
        commit(journal, 1, BULK)
        journal.log_floor(1)  # the full segment seals; the floor opens segment 2
        assert journal.should_checkpoint()
        journal.write_checkpoint(floor=1, current_epoch=2, ahm=0, catalog=CATALOG)
        assert segment_files(directory) == ["seg_000002.log"]
        assert Journal.exists(directory)

        reopened = Journal.open(directory)
        replay = reopened.last_replay
        assert [(r.lsn, r.kind) for r in replay.records] == [(2, "floor")]
        assert (replay.checkpoint_lsn, replay.truncated_records) == (2, 0)
        assert not reopened.should_checkpoint()
        commit(reopened, 2)
        assert Journal.open(directory).last_replay.records[-1].lsn == 3

    def test_old_checkpoints_pruned(self, tmp_path):
        directory = str(tmp_path / "journal")
        journal = make_journal(tmp_path)
        for round_index in range(4):
            journal.log_floor(round_index + 1)
            journal.write_checkpoint(
                floor=round_index + 1,
                current_epoch=round_index + 2,
                ahm=0,
                catalog={"tables": [], "families": []},
            )
        assert len(checkpoint_files(directory)) == 2  # CHECKPOINTS_RETAINED


class TestAppendCost:
    """A record costs its own bytes: counts, not timings."""

    def test_single_row_commit_costs_the_same_whatever_was_loaded(self, tmp_path):
        empty = make_journal(tmp_path / "empty")
        commit(empty, 1)
        written_empty, framed_empty = commit(empty, 2)
        loaded = make_journal(tmp_path / "loaded")
        commit(loaded, 1, 50_000)
        commit(loaded, 2)
        written_loaded, framed_loaded = commit(loaded, 3)
        assert framed_loaded == framed_empty  # the same record
        # each rewrites the single-row commit before it beside its own
        # frame, and in the empty journal the genesis they share a
        # segment with; the 50,000 rows stay where they are
        assert written_loaded == 2 * framed_loaded
        genesis = _frame(
            {"kind": "genesis", "lsn": 0, "payload": {**GENESIS, "format": FORMAT}}
        )
        assert written_empty == written_loaded + len(genesis)

    def test_reopen_mid_segment_continues_it_to_the_budget(self, tmp_path):
        """The byte count of the recovered tail is the one the writer
        had: a journal reopened mid-segment lays out the same files."""
        straight = make_journal(tmp_path / "straight")
        reopened = make_journal(tmp_path / "reopened")
        for epoch in range(1, 3 * SEGMENT_BYTES // 900):  # ~900 bytes each
            commit(straight, epoch, 85)
            commit(reopened, epoch, 85)
            if epoch == 3:
                (active,) = read_all(reopened.directory).values()
                assert len(active) < SEGMENT_BYTES
                reopened = Journal.open(reopened.directory)
        files = read_all(straight.directory)
        assert len(files) > 2
        for name in sorted(files)[:-1]:  # sealed by size, never at 64 records
            assert SEGMENT_BYTES <= len(files[name]) < SEGMENT_BYTES + 1024
            assert files[name].count(b"\n") < 64
        assert read_all(reopened.directory) == files

    def test_recovered_tail_over_the_budget_seals_on_the_first_append(
        self, tmp_path, monkeypatch
    ):
        """A journal written before segments sealed by size opens as it
        is; its over-long tail is simply full."""
        directory = str(tmp_path / "journal")
        with monkeypatch.context() as patch:
            patch.setattr(segment_log, "SEGMENT_BYTES", 1 << 40)
            old = make_journal(tmp_path)
            commit(old, 1, BULK)
            for epoch in range(2, 6):
                commit(old, epoch)
        assert segment_files(directory) == ["seg_000001.log"]
        tail = read_all(directory)["seg_000001.log"]
        assert len(tail) > SEGMENT_BYTES

        journal = Journal.open(directory)
        assert [r.lsn for r in journal.last_replay.records] == list(range(6))
        written, framed = commit(journal, 6)
        assert written == framed
        after = read_all(directory)
        assert sorted(after) == ["seg_000001.log", "seg_000002.log"]
        assert after["seg_000001.log"] == tail
        assert [r.lsn for r in Journal.open(directory).last_replay.records] == list(
            range(7)
        )


class TestDamageRecovery:
    def test_torn_tail_truncated_to_valid_prefix(self, tmp_path):
        directory = str(tmp_path / "journal")
        journal = make_journal(tmp_path)
        for epoch in range(1, 4):
            journal.log_floor(epoch)
        path = os.path.join(directory, segment_files(directory)[-1])
        os.truncate(path, os.path.getsize(path) - 5)

        reopened = Journal.open(directory)
        replay = reopened.last_replay
        assert replay.truncated_records == 1
        assert [r.lsn for r in replay.records] == [0, 1, 2]
        assert replay.floor == 2  # the torn floor record is gone
        # the damaged suffix was cut on disk: reopening again is clean
        again = Journal.open(directory)
        assert again.last_replay.truncated_records == 0

    def test_bitflip_truncates_from_damaged_record(self, tmp_path):
        directory = str(tmp_path / "journal")
        journal = make_journal(tmp_path)
        for epoch in range(1, 5):
            journal.log_floor(epoch)
        path = os.path.join(directory, segment_files(directory)[-1])
        with open(path, "r+b") as handle:
            raw = handle.read()
            lines = raw.splitlines(keepends=True)
            # flip one bit inside the second record's body
            offset = len(lines[0]) + 20
            handle.seek(offset)
            original = raw[offset]
            handle.seek(offset)
            handle.write(bytes([original ^ 0x01]))

        replay = Journal.open(directory).last_replay
        assert [r.lsn for r in replay.records] == [0]
        assert replay.truncated_records == 4

    def test_damage_discards_later_segments(self, tmp_path):
        directory = str(tmp_path / "journal")
        journal = make_journal(tmp_path, segment_records=3)
        for epoch in range(1, 9):
            journal.log_floor(epoch)
        files = segment_files(directory)
        assert len(files) >= 2
        first = os.path.join(directory, files[0])
        os.truncate(first, os.path.getsize(first) - 3)

        replay = Journal.open(directory, segment_records=3).last_replay
        assert [r.lsn for r in replay.records] == [0, 1]
        assert segment_files(directory) == files[:1]

    def test_missing_segment_is_damage_at_the_gap(self, tmp_path):
        """Regression: with a whole segment gone, replay used to return
        LSNs 0, 1, 4, 5 with nothing truncated, and cold start would
        have re-applied epochs 4 and 5 over the hole."""
        directory = str(tmp_path / "journal")
        journal = make_journal(tmp_path, segment_records=2)
        for epoch in range(1, 6):
            journal.log_commit(
                epoch=epoch,
                snapshot_epoch=epoch - 1,
                inserts={"t": {"k": [epoch]}},
                deletes=[],
                direct_to_ros=False,
            )
        os.remove(os.path.join(directory, "seg_000002.log"))

        reopened = Journal.open(directory, segment_records=2)
        replay = reopened.last_replay
        assert [r.lsn for r in replay.records] == [0, 1]
        assert replay.truncated_records == 2
        # the tail extends the valid prefix: LSNs stay dense
        assert reopened.log_floor(1) == 2
        again = Journal.open(directory, segment_records=2).last_replay
        assert [r.lsn for r in again.records] == [0, 1, 2]
        assert again.truncated_records == 0

    def test_pruned_segments_below_the_checkpoint_are_not_damage(self, tmp_path):
        directory = str(tmp_path / "journal")
        journal = make_journal(tmp_path, segment_records=2)
        journal.log_commit(  # segment 1: a commit the floor never covers
            epoch=9, snapshot_epoch=0, inserts={}, deletes=[], direct_to_ros=False
        )
        journal.log_floor(1)
        journal.log_floor(2)  # segment 2: covered, pruned by the checkpoint
        journal.log_floor(3)
        journal.write_checkpoint(
            floor=3, current_epoch=10, ahm=0, catalog={"tables": [], "families": []}
        )
        assert segment_files(directory) == ["seg_000001.log", "seg_000003.log"]

        replay = Journal.open(directory, segment_records=2).last_replay
        assert [r.lsn for r in replay.records] == [0, 1, 4]
        assert replay.truncated_records == 0

    def test_pruning_under_an_unreadable_newest_checkpoint_is_not_damage(
        self, tmp_path
    ):
        """Regression: pruning follows the newest checkpoint, so after a
        fallback to the older retained one the pruned range past *its*
        LSN is a legitimate hole; calling it damage deleted every commit
        since the older checkpoint from disk."""
        directory = str(tmp_path / "journal")
        catalog = {"tables": [], "families": []}
        journal = make_journal(tmp_path, segment_records=2)
        journal.log_floor(1)  # segment 1
        journal.write_checkpoint(floor=1, current_epoch=2, ahm=0, catalog=catalog)
        # segment 2 (pruned below) and 3: commits under the floor, so
        # no record of segment 2 is one a fallback needs
        for epoch in (2, 3, 4, 5):
            commit(journal, epoch)
        journal.write_checkpoint(floor=5, current_epoch=6, ahm=0, catalog=catalog)
        for epoch in (6, 7, 8):  # segments 4 and 5: the tail to keep
            journal.log_commit(
                epoch=epoch,
                snapshot_epoch=epoch - 1,
                inserts={"t": {"k": [epoch]}},
                deletes=[],
                direct_to_ros=False,
            )
        files = segment_files(directory)
        assert files == ["seg_000003.log", "seg_000004.log", "seg_000005.log"]
        flip_a_bit(os.path.join(directory, checkpoint_files(directory)[-1]))

        reopened = Journal.open(directory, segment_records=2)
        replay = reopened.last_replay
        assert replay.checkpoints_skipped == 1
        assert replay.checkpoint_lsn == 1
        assert [r.lsn for r in replay.records] == [4, 5, 6, 7, 8]
        assert replay.truncated_records == 0
        assert segment_files(directory) == files
        assert reopened.log_floor(9) == 9

    def test_the_checkpoint_after_a_fallback_keeps_the_fallback(self, tmp_path):
        """An unreadable checkpoint an open skipped goes with the next
        checkpoint, and the one it fell back to stays retained behind
        it: should the new one be damaged too, the fallback is still
        there to read, not pruned for the unreadable file's sake."""
        directory = str(tmp_path / "journal")
        catalog = {"tables": [], "families": []}
        journal = make_journal(tmp_path, segment_records=2)
        journal.log_floor(1)
        journal.write_checkpoint(floor=1, current_epoch=2, ahm=0, catalog=catalog)
        for epoch in (2, 3):
            commit(journal, epoch)
        journal.write_checkpoint(floor=1, current_epoch=4, ahm=0, catalog=catalog)
        fallback, damaged = checkpoint_files(directory)
        flip_a_bit(os.path.join(directory, damaged))

        reopened = Journal.open(directory, segment_records=2)
        assert reopened.last_replay.checkpoint_lsn == 1
        commit(reopened, 4)
        reopened.write_checkpoint(floor=1, current_epoch=5, ahm=0, catalog=catalog)
        fallback_then, newest = checkpoint_files(directory)
        assert fallback_then == fallback and newest > damaged
        flip_a_bit(os.path.join(directory, newest))

        again = Journal.open(directory, segment_records=2).last_replay
        assert again.checkpoints_skipped == 1
        assert again.checkpoint_lsn == 1
        assert [r.lsn for r in again.records if r.lsn > 1] == [2, 3, 4]
        assert again.truncated_records == 0

    def test_a_segment_cut_to_nothing_still_marks_the_journal(self, tmp_path):
        """Damaged at its first record, the only segment is emptied, not
        removed: with it gone ``exists`` would deny a journal that still
        has its checkpoint, and a fresh database could be made over it."""
        directory = str(tmp_path / "journal")
        journal = make_journal(tmp_path)
        journal.log_floor(1)
        journal.write_checkpoint(
            floor=1, current_epoch=2, ahm=0, catalog={"tables": [], "families": []}
        )
        with open(os.path.join(directory, "seg_000001.log"), "r+b") as handle:
            handle.write(b"X")

        replay = Journal.open(directory).last_replay
        assert (replay.records, replay.truncated_records) == ([], 2)
        assert Journal.exists(directory)
        reopened = Journal.open(directory)
        assert reopened.last_replay.checkpoint_lsn == 1
        assert reopened.log_floor(2) == 2

    def test_append_after_a_failed_append_is_refused(self, tmp_path):
        """A crash at the publish point leaves the record on disk and
        the object not knowing it; appending on would reuse its LSN."""
        directory = str(tmp_path / "journal")
        journal = make_journal(tmp_path)
        with FaultPlan(seed=1).arm("journal.append.publish", "crash"):
            with pytest.raises(InjectedFaultError):
                journal.log_floor(1)
        with pytest.raises(DurabilityError, match="reopen"):
            journal.log_floor(2)

        reopened = Journal.open(directory)
        assert [r.lsn for r in reopened.last_replay.records] == [0, 1]
        assert reopened.log_floor(2) == 2

    @pytest.mark.parametrize(
        "point", ["journal.append.stage", "journal.checkpoint.stage"]
    )
    def test_reopen_removes_the_stage_a_crash_left(self, point, tmp_path):
        directory = str(tmp_path / "journal")
        journal = make_journal(tmp_path)
        journal.log_floor(1)
        with FaultPlan(seed=1).arm(point, "crash"):
            with pytest.raises(InjectedFaultError):
                journal.log_floor(2)
                journal.write_checkpoint(
                    floor=2,
                    current_epoch=3,
                    ahm=0,
                    catalog={"tables": [], "families": []},
                )
        assert [n for n in os.listdir(directory) if n.endswith(".tmp")]

        Journal.open(directory)
        assert not [n for n in os.listdir(directory) if n.endswith(".tmp")]

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "floor", "lsn": 4},  # no payload
            {"kind": "floor", "lsn": -1, "payload": {"epoch": 9}},
            {"kind": "floor", "lsn": True, "payload": {"epoch": 9}},
            {"kind": "floor", "lsn": "4", "payload": {"epoch": 9}},
        ],
    )
    @pytest.mark.parametrize("torn_after", [False, True], ids=["bulk", "per_line"])
    def test_a_record_without_payload_or_lsn_is_damage(
        self, tmp_path, bad, torn_after
    ):
        """Regression: a CRC-valid record lacking its payload made
        ``Journal.open`` raise a bare ``KeyError`` and one with a
        negative LSN was replayed.  Either ends the valid prefix and is
        truncated as a failed CRC is — on an intact segment, checked
        whole, and on a damaged one (a torn frame after it), walked line
        by line."""
        directory = str(tmp_path / "journal")
        journal = make_journal(tmp_path)
        for epoch in range(1, 4):
            journal.log_floor(epoch)
        path = os.path.join(directory, segment_files(directory)[-1])
        valid = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(_frame(bad).encode("utf-8"))
            if torn_after:
                handle.write(_frame({"kind": "floor", "lsn": 5, "payload": {}})[:9].encode())

        replay = Journal.open(directory).last_replay
        assert [r.lsn for r in replay.records] == [0, 1, 2, 3]
        assert replay.floor == 3
        assert replay.truncated_records == 1  # a torn tail counts as one
        assert os.path.getsize(path) == valid
        assert Journal.open(directory).last_replay.truncated_records == 0

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "checkpoint", "lsn": 1},  # no payload
            {"kind": "checkpoint", "lsn": 1, "payload": {"floor": 1}},  # no lsn
            {"kind": "checkpoint", "lsn": 1, "payload": {"lsn": -2, "floor": 1}},
        ],
    )
    def test_a_checkpoint_without_payload_or_lsn_falls_back(self, tmp_path, bad):
        """Regression: such a checkpoint raised ``KeyError`` on open; it
        is skipped as a torn one is."""
        directory = str(tmp_path / "journal")
        journal = make_journal(tmp_path)
        journal.log_floor(3)
        journal.write_checkpoint(
            floor=3, current_epoch=4, ahm=0, catalog={"tables": [], "families": []}
        )
        ckpt = os.path.join(directory, checkpoint_files(directory)[-1])
        with open(ckpt, "wb") as handle:
            handle.write(_frame(bad).encode("utf-8"))

        replay = Journal.open(directory).last_replay
        assert replay.checkpoint is None
        assert replay.checkpoints_skipped == 1
        assert [r.lsn for r in replay.records] == [0, 1]
        assert replay.floor == 3

    def test_torn_checkpoint_falls_back(self, tmp_path):
        directory = str(tmp_path / "journal")
        journal = make_journal(tmp_path)
        journal.log_floor(3)
        journal.write_checkpoint(
            floor=3, current_epoch=4, ahm=0, catalog={"tables": [], "families": []}
        )
        ckpt = os.path.join(directory, checkpoint_files(directory)[-1])
        os.truncate(ckpt, os.path.getsize(ckpt) // 2)

        replay = Journal.open(directory).last_replay
        assert replay.checkpoint is None
        assert replay.checkpoints_skipped == 1
        assert replay.floor == 3  # floor record still on disk


class TestCodec:
    def table(self):
        return TableDefinition(
            "sales",
            [
                ColumnDef("sale_id", types.INTEGER),
                ColumnDef("region", types.VARCHAR),
                ColumnDef("amount", types.FLOAT),
            ],
            partition_by=Arithmetic("%", ColumnRef("sale_id"), Literal(2)),
            primary_key=("sale_id",),
        )

    def test_table_roundtrip(self):
        table = self.table()
        decoded = decode_table(encode_table(table))
        assert decoded.name == table.name
        assert [c.name for c in decoded.columns] == [
            c.name for c in table.columns
        ]
        assert [c.dtype for c in decoded.columns] == [
            c.dtype for c in table.columns
        ]
        assert decoded.primary_key == table.primary_key
        # the expression round-trips: its SQL text, parsed and analyzed
        assert repr(decoded.partition_by) == "(sale_id % 2)"
        assert decoded.partition_columns() == ["sale_id"]

    def test_family_roundtrip(self):
        family = make_family(self.table())
        decoded = decode_family(encode_family(family))
        assert decoded.primary.name == family.primary.name
        assert len(decoded.buddies) == len(family.buddies)
        for mine, theirs in zip(decoded.all_copies, family.all_copies):
            assert mine.name == theirs.name
            assert mine.sort_order == theirs.sort_order
            assert mine.buddy_offset == theirs.buddy_offset
            assert [c.encoding for c in mine.columns] == [
                c.encoding for c in theirs.columns
            ]
            assert type(mine.segmentation) is type(theirs.segmentation)

    def test_catalog_roundtrip(self):
        catalog = Catalog()
        table = self.table()
        catalog.add_table(table)
        catalog.add_family(make_family(table))
        decoded = decode_catalog(encode_catalog(catalog))
        assert sorted(decoded.tables) == sorted(catalog.tables)
        assert sorted(decoded.families) == sorted(catalog.families)
