"""Counts, not timings: a projection copy is rebuilt one way.

Section 5.2 brings a copy back by one mechanism — truncate it to its
Last Good Epoch, replay the buddy's history lock-free, replay the rest
under a Shared lock — and :func:`repro.cluster.recovery.rebuild_copy`
is that mechanism here.  So:

* ``recover_node`` of a node that missed a DELETE, ``scrub()`` of a
  flipped container and a cold open after a flipped delete vector each
  reach it once per damaged copy, and for nothing else;
* the rebuild is what ends a quarantine: ``purge_quarantine`` has one
  product caller, the rebuild, and ``forget_contents`` one, rebalance.
"""

import os
from collections import Counter

import pytest

from repro import Database
from repro.cluster import recover_node
from repro.cluster import recovery
from test_a_segment_has_one_serving_copy import _callers

ROWS = [{"k": i, "v": i % 7} for i in range(60)]


@pytest.fixture
def rebuilds(monkeypatch):
    """(node, copy) -> how many times the rebuild ran for it."""
    calls = Counter()
    rebuild_copy = recovery.rebuild_copy

    def counted(cluster, node_index, family, copy, boundary, report):
        calls[node_index, copy.name] += 1
        return rebuild_copy(cluster, node_index, family, copy, boundary, report)

    monkeypatch.setattr(recovery, "rebuild_copy", counted)
    return calls


@pytest.fixture
def loaded(kv_database):
    """``(path, db)``: 3 nodes, K=1, ``t`` loaded straight to ROS and
    drained by one mover cycle."""
    path, make = kv_database
    db = make(node_count=3, k_safety=1)
    db.load("t", ROWS, direct_to_ros=True)
    db.run_tuple_movers()
    return path, db


def flip_first_byte(path):
    with open(path, "r+b") as handle:
        first = handle.read(1)[0]
        handle.seek(0)
        handle.write(bytes([first ^ 0xFF]))


def first_dir(path, node, prefix):
    """``node``'s first directory named ``prefix*`` and its projection."""
    node_dir = os.path.join(path, f"node{node:02d}")
    found = sorted(
        (projection, entry)
        for projection in os.listdir(node_dir)
        if os.path.isdir(os.path.join(node_dir, projection))
        for entry in os.listdir(os.path.join(node_dir, projection))
        if entry.startswith(prefix)
    )
    projection, entry = found[0]
    return os.path.join(node_dir, projection, entry), projection


def count(db):
    return db.sql("SELECT COUNT(*) AS n FROM t")[0]["n"]


def test_recovery_rebuilds_each_copy_that_missed_a_delete(loaded, rebuilds):
    _, db = loaded
    db.cluster.fail_node(0)
    db.sql("DELETE FROM t WHERE k < 10")
    recover_node(db.cluster, 0)
    copies = db.cluster.catalog.super_projection_for("t").all_copies
    assert rebuilds == {(0, copy.name): 1 for copy in copies}
    db.cluster.fail_node(1)
    assert count(db) == 50


def test_scrub_rebuilds_the_copy_it_damaged(loaded, rebuilds):
    path, db = loaded
    container, projection = first_dir(path, 0, "ros_")
    flip_first_byte(os.path.join(container, "k.dat"))
    assert len(db.cluster.scrub().corrupt) == 1
    assert rebuilds == {(0, projection): 1}
    assert db.cluster.scrub().clean()
    assert rebuilds == {(0, projection): 1}


def test_a_cold_open_rebuilds_the_copy_a_damaged_vector_quarantined(
    loaded, rebuilds
):
    path, db = loaded
    db.sql("DELETE FROM t WHERE k < 10")
    db.run_tuple_movers()
    del db
    vector, projection = first_dir(path, 0, "dv_")
    flip_first_byte(os.path.join(vector, "positions.dat"))
    db = Database.open(path)
    assert db.replay_report.containers_quarantined == 1
    assert rebuilds == {(0, projection): 1}
    assert count(db) == 50


def test_the_rebuild_alone_ends_a_quarantine():
    assert _callers("purge_quarantine") == {("cluster/recovery.py", "rebuild_copy")}


def test_rebalance_alone_wipes_a_copy():
    assert _callers("forget_contents") == {("cluster/recovery.py", "rebalance")}
