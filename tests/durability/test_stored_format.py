"""The stored format is a number, and format 2 has no optional field.

A database's genesis records ``format``; one naming another number (no
key at all is format 0; format 1 is the block layouts before floats in
fixed lanes and strings as two streams) refuses to open with a typed
error naming both numbers, and the refusal comes before any file under
the database changes: a staged checkpoint and a torn journal tail
planted beside it are still there, byte for byte.  A backup manifest
records the format too and is refused the same way.  Every field a writer writes is
required, and one missing takes its artifact's damage path: a journal
record cuts the log there, a checkpoint gives way to the older one, a
container is quarantined (and, with K=1, rebuilt from its buddy), and a
manifest is refused with :class:`ClusterError`.
"""

import json
import os

import pytest

from test_cold_start import capture, rows, table

from repro.cluster import create_backup, restore_backup
from repro.core.database import Database
from repro.durability.journal import FORMAT
from repro.errors import ClusterError, DurabilityError
from repro.storage.ros import _meta_crc
from repro.storage.segment_log import SEGMENT_BYTES, _frame


def snapshot(root):
    """Every file under ``root``: relative path -> bytes."""
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = handle.read()
    return found


def rewrite_records(path, change):
    """Re-frame every record of a journal file through ``change``."""
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    bodies = [change(json.loads(line[9:])) for line in lines]
    with open(path, "wb") as handle:
        handle.write("".join(map(_frame, bodies)).encode("utf-8"))


def journal_files(root, prefix):
    directory = os.path.join(root, "journal")
    return [
        os.path.join(directory, name)
        for name in sorted(os.listdir(directory))
        if name.startswith(prefix) and not name.endswith(".tmp")
    ]


def build(root, checkpointed):
    """A database with a journal tail past its floor; ``checkpointed``:
    after mover cycles whose checkpoints pruned the genesis's segment."""
    db = Database(str(root), node_count=3, k_safety=1, journal_checkpoint_interval=4)
    db.create_table(table("t"), sort_order=["k"])
    if checkpointed:  # a load over a segment's budget seals the genesis's
        db.load("t", rows(SEGMENT_BYTES // 10, start=1000), direct_to_ros=True)
    for start in range(0, 30 if checkpointed else 10, 10):
        db.load("t", rows(10, start=start))
        if checkpointed:
            db.run_tuple_movers()
    db.load("t", rows(5, start=100))
    return db


def plant_what_an_open_cleans_up(root):
    """A staged checkpoint and a torn record at the journal's tail: what
    an open removes once it has started.  Returns the stage's path."""
    stage = os.path.join(root, "journal", "ckpt_000099.json.tmp")
    with open(stage, "wb") as handle:
        handle.write(b"staged")
    with open(journal_files(root, "seg_")[-1], "ab") as handle:
        handle.write(b'0badf00d {"kind":"com')
    return stage


def set_format(genesis, found):
    genesis.pop("format")
    if found:
        genesis["format"] = found
    return genesis


@pytest.mark.parametrize("checkpointed", [False, True], ids=["genesis-record", "checkpoint"])
@pytest.mark.parametrize("found", [0, 1])
def test_another_format_is_refused_before_any_file_changes(tmp_path, found, checkpointed):
    root = tmp_path / "db"
    db = build(root, checkpointed)
    del db
    segments = journal_files(root, "seg_")
    assert (os.path.basename(segments[0]) == "seg_000001.log") != checkpointed

    def rewrite(body):
        if body["kind"] == "genesis":
            set_format(body["payload"], found)
        if body["kind"] == "checkpoint":
            set_format(body["payload"]["genesis"], found)
        return body

    for path in journal_files(root, ""):
        rewrite_records(path, rewrite)
    plant_what_an_open_cleans_up(root)
    before = snapshot(root)

    with pytest.raises(
        DurabilityError, match=rf"stored in format {found}; this build reads format {FORMAT} "
    ):
        Database.open(str(root))
    assert snapshot(root) == before


def test_the_format_is_recorded_and_an_open_cleans_up(tmp_path):
    """The control for the refusal above: at format 2 the same planted
    stage and torn tail are gone after the open."""
    root = tmp_path / "db"
    db = build(root, checkpointed=False)
    assert db.cluster.journal.genesis["format"] == FORMAT
    before = capture(db)
    del db
    stage = plant_what_an_open_cleans_up(root)

    reopened = Database.open(str(root))
    assert capture(reopened) == before
    assert reopened.replay_report.truncated_records == 1
    assert not os.path.exists(stage)


@pytest.fixture
def backed_up(tmp_path):
    db = build(tmp_path / "db", checkpointed=True)
    db.run_tuple_movers()
    image = create_backup(db.cluster, str(tmp_path / "bk"))
    manifest = os.path.join(image.path, "manifest.json")
    with open(manifest) as handle:
        assert json.load(handle)["format"] == FORMAT
    return db, image, manifest


def edit_manifest(path, change):
    with open(path) as handle:
        manifest = json.load(handle)
    change(manifest)
    with open(path, "w") as handle:
        json.dump(manifest, handle)


@pytest.mark.parametrize("found", [0, 1])
def test_a_manifest_of_another_format_is_refused(backed_up, tmp_path, found):
    db, image, manifest = backed_up
    edit_manifest(manifest, lambda m: set_format(m, found))
    before = snapshot(tmp_path / "db")
    with pytest.raises(
        DurabilityError, match=rf"stored in format {found}; this build reads format {FORMAT} "
    ):
        restore_backup(db.cluster, image)
    assert snapshot(tmp_path / "db") == before


@pytest.mark.parametrize("field", ["epoch", "base_image", "entries", "tables", "projections"])
def test_a_manifest_missing_a_field_is_refused(backed_up, field):
    db, image, manifest = backed_up
    edit_manifest(manifest, lambda m: m.pop(field))
    with pytest.raises(ClusterError, match=f"lacks {field}"):
        restore_backup(db.cluster, image)


#: The fields every encoded table and projection carries.
TABLE_FIELDS = ["columns", "name", "partition_by_text", "primary_key"]
PROJECTION_FIELDS = [
    "anchor_table", "buddy_offset", "columns", "comment", "name", "prejoin",
    "segmentation", "sort_order",
]


def drop_field(kind, field):
    """A record rewrite removing ``field`` from the catalog object (or,
    for a commit, the first delete) of the ``t2`` record of ``kind``."""

    def change(body):
        payload = body["payload"]
        if body["kind"] == kind == "create_table" and payload["table"]["name"] == "t2":
            del payload["table"][field]
        if body["kind"] == kind == "add_family" and payload["family"]["primary"]["anchor_table"] == "t2":
            del payload["family"]["primary"][field]
        if body["kind"] == kind == "commit" and payload["deletes"]:
            del payload["deletes"][0][field]
        return body

    return change


@pytest.mark.parametrize(
    "kind,field",
    [("create_table", field) for field in TABLE_FIELDS]
    + [("add_family", field) for field in PROJECTION_FIELDS]
    + [("commit", "columns")],
)
def test_a_journal_record_missing_a_field_cuts_the_log_there(tmp_path, kind, field):
    root = tmp_path / "db"
    db = build(root, checkpointed=False)
    before = capture(db)
    db.sql("DELETE FROM t WHERE k = 100")
    db.create_table(table("t2"), sort_order=["k"])
    db.load("t2", rows(3))
    del db
    for path in journal_files(root, "seg_"):
        rewrite_records(path, drop_field(kind, field))

    reopened = Database.open(str(root))
    assert reopened.replay_report.truncated_records >= 1
    if kind != "commit":  # cut after the DELETE, at t2's DDL
        before["t"] = [row for row in before["t"] if dict(row)["k"] != 100]
    assert capture(reopened) == before


@pytest.mark.parametrize("field", ["primary_key", "partition_by_text"])
def test_a_checkpoint_missing_a_field_gives_way_to_the_older_one(tmp_path, field):
    root = tmp_path / "db"
    db = build(root, checkpointed=True)
    before = capture(db)
    del db
    newest = journal_files(root, "ckpt_")[-1]

    def change(body):
        del body["payload"]["catalog"]["tables"][0][field]
        return body

    rewrite_records(newest, change)
    reopened = Database.open(str(root))
    assert reopened.cluster.journal.last_replay.checkpoints_skipped == 1
    assert capture(reopened) == before


@pytest.mark.parametrize("field", ["meta_crc", "checksums", "merged_from"])
def test_a_container_missing_a_field_is_quarantined_and_rebuilt(tmp_path, field):
    root = tmp_path / "db"
    db = build(root, checkpointed=True)
    before = capture(db)
    del db
    copy = os.path.join(root, "node00", "t_super")
    container = sorted(name for name in os.listdir(copy) if name.startswith("ros_"))[0]
    meta_path = os.path.join(copy, container, "meta.json")
    with open(meta_path) as handle:
        meta = json.load(handle)
    del meta[field]
    if field != "meta_crc":  # the field itself is refused, not the CRC
        meta.pop("meta_crc")
        meta["meta_crc"] = _meta_crc(meta)
    with open(meta_path, "w") as handle:
        json.dump(meta, handle)

    reopened = Database.open(str(root))
    assert reopened.replay_report.containers_quarantined == 1
    assert capture(reopened) == before
    assert reopened.cluster.scrub().clean()


@pytest.mark.parametrize("field", ["tick", "payload"])
def test_a_collector_record_missing_a_field_ends_its_history_there(tmp_path, field):
    root = tmp_path / "db"
    db = build(root, checkpointed=False)
    for k in range(3):
        db.sql(f"SELECT * FROM t WHERE k = {k}")
    db.cluster.dc.flush()
    kept = len(db.cluster.dc.rows("requests")) - 1
    del db
    (segment,) = [
        os.path.join(root, "dc", name)
        for name in os.listdir(os.path.join(root, "dc"))
        if name.startswith("requests_")
    ]
    with open(segment, "rb") as handle:
        lines = handle.read().splitlines()
    last = json.loads(lines[-1][9:])
    del last[field]
    with open(segment, "wb") as handle:
        handle.write(b"".join(line + b"\n" for line in lines[:-1]) + _frame(last).encode())

    reopened = Database.open(str(root))
    assert len(reopened.cluster.dc.rows("requests")) >= kept
    assert [r for r in reopened.cluster.dc.rows("requests") if r["record_id"] == last["id"]] == []
