"""A damaged delete vector is damage to its container, never a lost DELETE.

A DVROS (section 3.7.1) records its files' CRC32s in its ``target.txt``
and is checked at load like a container.  One that fails its check, or
cannot be read, quarantines its target container at scavenge and is
reported in ``dc_errors``: with K=1 the copy is rebuilt from its buddy
at the open, with K=0 a read of that segment raises
:class:`DataUnavailableError`.  Either way the deleted rows never come
back silently.  Which vector, file and byte is flipped is drawn from
the seeds in ``REPRO_CRASH_SEEDS`` (comma-separated; 11 and 23 by
default), as the kill-anywhere sweep draws its offsets.
"""

import os
import random

import pytest

from repro import types
from repro.core.database import Database
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import DataUnavailableError
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


def flip_one_vector(root, node, seed):
    """Flip one drawn bit of one drawn file of one of ``node``'s delete
    vectors; returns what was flipped."""
    rng = random.Random(seed)
    node_dir = os.path.join(root, f"node{node:02d}")
    vectors = sorted(
        os.path.join(directory, name)
        for directory, names, _ in os.walk(node_dir)
        for name in names
        if name.startswith("dv_")
    )
    assert vectors
    path = os.path.join(rng.choice(vectors), rng.choice(FILES))
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
def test_a_damaged_vector_with_a_buddy_reopens_to_the_oracle(tmp_path, seed):
    root = tmp_path / "db"
    db = build(root, node_count=3, k_safety=1)
    oracle = rows_of(db)
    del db
    flipped = flip_one_vector(root, 0, seed)

    db = Database.open(str(root))
    assert db.replay_report.containers_quarantined == 1, flipped
    assert quarantine_errors(db)
    assert rows_of(db) == oracle
    assert db.sql("SELECT COUNT(*) AS n FROM t") == [{"n": 90}]
    assert db.cluster.scrub().clean()
    assert not quarantined_entries(db)
    del db

    db = Database.open(str(root))
    assert db.replay_report.containers_quarantined == 0
    assert rows_of(db) == oracle
