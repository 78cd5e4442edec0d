"""A damaged delete vector is damage to its container, never a lost DELETE.

A DVROS (section 3.7.1) records its files' CRC32s in its ``target.txt``
and is checked at load like a container.  One that fails its check, or
cannot be read, quarantines its target container at scavenge and is
reported in ``dc_errors``: with K=1 the copy is rebuilt from its buddy
at the open, with K=0 a read of that segment raises
:class:`DataUnavailableError`.  Either way the deleted rows never come
back silently.  A damaged column file follows the same rule, whether
scavenge finds it at a restart or scrub finds it on a live node, and a
copy is rebuilt once per damage: the rebuild purges the quarantine it
answers.  Which vector or container, file and byte is flipped is drawn
from the seeds in ``REPRO_CRASH_SEEDS`` (comma-separated; 11 and 23 by
default), as the kill-anywhere sweep draws its offsets.
"""

import os
import random
import shutil
from collections import Counter

import pytest

from repro import types
from repro.cluster import recover_node
from repro.core.database import Database
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import DataUnavailableError
from repro.storage import StorageManager
from storage_helpers import read_table


def crash_seeds(default=(11, 23)):
    raw = os.environ.get("REPRO_CRASH_SEEDS", "")
    picked = [int(part) for part in raw.split(",") if part.strip()]
    return tuple(picked) or tuple(default)


FILES = ("positions.dat", "positions.pidx", "epochs.dat", "epochs.pidx", "target.txt")


def build(root, node_count, k_safety):
    """100 rows loaded straight to ROS, ``k < 10`` deleted, one mover
    cycle: the deletes reach disk as delete vectors."""
    db = Database(str(root), node_count=node_count, k_safety=k_safety)
    db.create_table(
        TableDefinition(
            "t", [ColumnDef("k", types.INTEGER), ColumnDef("v", types.VARCHAR)]
        ),
        sort_order=["k"],
    )
    db.load("t", [{"k": i, "v": f"v{i % 7}"} for i in range(100)], direct_to_ros=True)
    db.sql("DELETE FROM t WHERE k < 10")
    db.run_tuple_movers()
    assert db.sql("SELECT COUNT(*) AS n FROM t") == [{"n": 90}]
    return db


def node_dirs(root, node, prefix):
    """``node``'s directories whose name starts with ``prefix``, sorted."""
    return sorted(
        os.path.join(directory, name)
        for directory, names, _ in os.walk(os.path.join(root, f"node{node:02d}"))
        for name in names
        if name.startswith(prefix)
    )


def flip_one_vector(root, node, seed):
    """Flip one drawn bit of one drawn file of one of ``node``'s delete
    vectors; returns what was flipped."""
    rng = random.Random(seed)
    vectors = node_dirs(root, node, "dv_")
    assert vectors
    return flip_one_bit(root, os.path.join(rng.choice(vectors), rng.choice(FILES)), rng)


def flip_one_column_file(root, node, seed):
    """Flip one drawn bit of the ``k`` column file of one drawn container
    of ``node``; returns what was flipped."""
    rng = random.Random(seed)
    containers = node_dirs(root, node, "ros_")
    assert containers
    return flip_one_bit(root, os.path.join(rng.choice(containers), "k.dat"), rng)


def flip_one_bit(root, path, rng):
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    offset = rng.randrange(len(data))
    data[offset] ^= 1 << rng.randrange(8)
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    return f"{os.path.relpath(path, root)} byte {offset}"


def rows_of(db):
    return sorted(
        tuple(sorted(row.items()))
        for row in read_table(db.cluster, "t", db.latest_epoch)
    )


def quarantine_errors(db):
    return [
        row
        for row in db.sql("SELECT kind, source FROM v_monitor.dc_errors")
        if row["kind"] == "quarantined_container"
    ]


@pytest.fixture
def scavenges(monkeypatch):
    """node index -> how many times its storage was scavenged."""
    calls = Counter()
    scavenge = StorageManager.scavenge

    def counted(self, projection_name=None):
        calls[self.node_index] += 1
        return scavenge(self, projection_name)

    monkeypatch.setattr(StorageManager, "scavenge", counted)
    return calls


def quarantined_entries(db):
    found = []
    for node in db.cluster.nodes:
        for copy in db.cluster.catalog.all_projections():
            quarantine = os.path.join(node.manager.root, copy.name, "quarantine")
            if os.path.isdir(quarantine):
                found += os.listdir(quarantine)
    return found


@pytest.mark.parametrize("seed", crash_seeds())
def test_a_damaged_vector_without_a_buddy_is_loud(tmp_path, seed):
    root = tmp_path / "db"
    db = build(root, node_count=1, k_safety=0)
    del db
    flipped = flip_one_vector(root, 0, seed)

    db = Database.open(str(root))
    assert db.replay_report.containers_quarantined == 1, flipped
    assert quarantine_errors(db) == [{"kind": "quarantined_container", "source": "scavenge"}]
    with pytest.raises(DataUnavailableError):
        db.sql("SELECT COUNT(*) AS n FROM t")


@pytest.mark.parametrize("seed", crash_seeds())
def test_a_damaged_vector_without_a_buddy_stays_loud_on_every_open(tmp_path, seed):
    root = tmp_path / "db"
    build(root, node_count=1, k_safety=0)
    flipped = flip_one_vector(root, 0, seed)
    Database.open(str(root))

    # the container sits in quarantine, its deletes gone: nothing on
    # disk is damaged any more, yet the copy is still missing its rows
    db = Database.open(str(root))
    assert db.replay_report.containers_quarantined == 1, flipped
    with pytest.raises(DataUnavailableError):
        db.sql("SELECT COUNT(*) AS n FROM t")
    assert quarantined_entries(db)


@pytest.mark.parametrize("seed", crash_seeds())
def test_a_damaged_vector_with_a_buddy_reopens_to_the_oracle(tmp_path, seed, scavenges):
    root = tmp_path / "db"
    db = build(root, node_count=3, k_safety=1)
    oracle = rows_of(db)
    del db
    flipped = flip_one_vector(root, 0, seed)

    db = Database.open(str(root))
    assert db.replay_report.containers_quarantined == 1, flipped
    # the nodes that need no buddy rejoin first, so the damaged copy
    # finds its buddy up: no failed attempt, no second scavenge
    assert db.replay_report.rejoin_ticks == 1
    assert scavenges == {0: 1, 1: 1, 2: 1}
    assert quarantine_errors(db)
    assert rows_of(db) == oracle
    assert db.sql("SELECT COUNT(*) AS n FROM t") == [{"n": 90}]
    assert db.cluster.scrub().clean()
    assert not quarantined_entries(db)
    del db

    db = Database.open(str(root))
    assert db.replay_report.containers_quarantined == 0
    assert rows_of(db) == oracle


@pytest.mark.parametrize("seed", crash_seeds())
def test_a_recovered_copy_is_rebuilt_once(tmp_path, seed):
    root = tmp_path / "db"
    db = build(root, node_count=3, k_safety=1)
    oracle = rows_of(db)
    flipped = flip_one_column_file(root, 0, seed)
    db.cluster.fail_node(0)
    assert db.cluster.restart_node(0).quarantined, flipped
    recover_node(db.cluster, 0)

    # the rebuild purged the quarantine it answered
    assert not quarantined_entries(db)
    assert db.cluster.scrub().clean()
    assert rows_of(db) == oracle
    del db

    db = Database.open(str(root))
    assert db.replay_report.containers_quarantined == 0
    assert db.replay_report.rejoin_ticks == 1
    assert rows_of(db) == oracle


@pytest.mark.parametrize("seed", crash_seeds())
def test_a_scrub_without_a_buddy_is_loud(tmp_path, seed):
    root = tmp_path / "db"
    db = build(root, node_count=3, k_safety=0)
    flipped = flip_one_column_file(root, 0, seed)

    report = db.cluster.scrub()
    assert report.corrupt and report.repaired == [], flipped
    assert quarantine_errors(db) == [{"kind": "quarantined_container", "source": "scrub"}]
    # no buddy can rebuild the copy: its node leaves service
    assert not db.cluster.membership.is_up(0)
    with pytest.raises(DataUnavailableError):
        db.sql("SELECT COUNT(*) AS n FROM t")
    del db

    db = Database.open(str(root))
    assert db.replay_report.containers_quarantined == 1
    with pytest.raises(DataUnavailableError):
        db.sql("SELECT COUNT(*) AS n FROM t")


@pytest.mark.parametrize("seed", crash_seeds())
def test_a_scrub_with_a_buddy_rebuilds_to_the_oracle(tmp_path, seed):
    root = tmp_path / "db"
    db = build(root, node_count=3, k_safety=1)
    oracle = rows_of(db)
    flipped = flip_one_column_file(root, 0, seed)

    report = db.cluster.scrub()
    assert len(report.corrupt) == 1, flipped
    assert [node for node, _ in report.repaired] == [0]
    assert quarantine_errors(db) == [{"kind": "quarantined_container", "source": "scrub"}]
    assert not quarantined_entries(db)
    assert rows_of(db) == oracle
    assert db.cluster.scrub().clean()
    del db

    db = Database.open(str(root))
    assert db.replay_report.containers_quarantined == 0
    assert rows_of(db) == oracle


def first_container(root):
    return node_dirs(root, 0, "ros_")[0]


@pytest.mark.parametrize("k_safety", [0, 1])
@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 1(b): nothing on disk lists the containers a copy "
    "should hold, so a container directory deleted outright goes unnoticed",
)
def test_a_deleted_container_directory_is_never_silently_short(tmp_path, k_safety):
    root = tmp_path / "db"
    build(root, node_count=3, k_safety=k_safety)
    shutil.rmtree(first_container(root))

    db = Database.open(str(root))
    try:
        answer = db.sql("SELECT COUNT(*) AS n FROM t")
    except DataUnavailableError:
        return
    assert answer == [{"n": 90}]


def test_a_deleted_column_file_with_a_buddy_reopens_to_the_oracle(tmp_path):
    root = tmp_path / "db"
    db = build(root, node_count=3, k_safety=1)
    oracle = rows_of(db)
    del db
    os.remove(os.path.join(first_container(root), "k.dat"))

    db = Database.open(str(root))
    assert db.replay_report.containers_quarantined == 1
    assert rows_of(db) == oracle
    assert not quarantined_entries(db)


def test_a_deleted_column_file_without_a_buddy_is_loud(tmp_path):
    root = tmp_path / "db"
    build(root, node_count=3, k_safety=0)
    os.remove(os.path.join(first_container(root), "k.dat"))

    db = Database.open(str(root))
    assert db.replay_report.containers_quarantined == 1
    with pytest.raises(DataUnavailableError):
        db.sql("SELECT COUNT(*) AS n FROM t")
