"""Counts, not timings: the container read path decodes what it needs.

One columnar walk serves scans and by-value deletes: a DELETE whose
victims sit in one block of a 5-block, 2-container table decodes — at
the live apply and again at its cold-start replay — at most (matched
columns x pieces overlapping the victims' bounds) blocks and nothing
of the container its bounds reject; and the delete marker it leaves
does not cost its container block pruning: the same point lookup
decodes no more blocks than before the DELETE.
"""

import pytest

from repro import Database
from repro.lint import sanitizer
from repro.monitor import METRICS
from repro.storage import StorageManager
from repro.storage.block import BLOCK_ROWS
from storage_helpers import kv_rows

DECODED = "storage.blocks_decoded"
BIG, FAR = 4 * BLOCK_ROWS, 1_000_000


@pytest.fixture(autouse=True)
def product_decodes_only():
    """The sanitizer checks a container as it loads and leaves its
    blocks decoded; what is counted here is what the read path opens."""
    with sanitizer.override(False):
        yield


@pytest.fixture
def in_delete(monkeypatch):
    """Calls of ``StorageManager.delete_where`` and the blocks decoded
    inside them."""
    seen = {"calls": 0, "decoded": 0}
    original = StorageManager.delete_where

    def counted(self, *args, **kwargs):
        before = METRICS.counter(DECODED)
        try:
            return original(self, *args, **kwargs)
        finally:
            seen["calls"] += 1
            seen["decoded"] += METRICS.counter(DECODED) - before

    monkeypatch.setattr(StorageManager, "delete_where", counted)
    return seen


def lookup(db):
    before = METRICS.counter(DECODED)
    key = 2 * BLOCK_ROWS + 5  # block 2 of the big container
    assert db.sql(f"SELECT v FROM t WHERE k = {key}") == [{"v": key % 9}]
    return METRICS.counter(DECODED) - before


def containers(db):
    return db.cluster.nodes[0].manager.storage("t_super").containers.values()


def test_a_delete_decodes_the_blocks_its_victims_bound(kv_database, in_delete):
    path, make = kv_database
    db = make(node_count=1, k_safety=0, segments_per_node=1)
    db.load("t", kv_rows(range(BIG)), direct_to_ros=True)
    db.load("t", kv_rows(range(FAR, FAR + 500)), direct_to_ros=True)
    db.cluster.run_tuple_movers()
    assert sorted(len(c.column_reader("k").blocks) for c in containers(db)) == [1, 4]
    del db

    db = Database.open(path)
    clean_lookup = lookup(db)
    # victims inside block 1 of the big container: one piece overlaps
    # their (min, max), two columns are matched
    bound = 2 * 1
    db.sql(f"DELETE FROM t WHERE k BETWEEN {BLOCK_ROWS + 10} AND {BLOCK_ROWS + 20}")
    assert in_delete["calls"] == 1 and in_delete["decoded"] <= bound, in_delete
    del db

    in_delete.update(calls=0, decoded=0)
    db = Database.open(path)
    assert db.replay_report.commits_replayed == 1, db.replay_report
    assert in_delete["calls"] == 1 and 0 < in_delete["decoded"] <= bound, in_delete
    small = min(containers(db), key=lambda c: c.row_count)
    assert not any(reader._cache for reader in small._readers.values()), (
        "the replayed DELETE decoded a container its victims' bounds reject"
    )
    assert db.sql("SELECT count(*) AS n FROM t")[0]["n"] == BIG + 500 - 11
    del db

    db = Database.open(path)  # cold caches again; the marker is replayed
    marked_lookup = lookup(db)
    assert marked_lookup <= clean_lookup, (
        f"a delete marker cost its container {marked_lookup - clean_lookup} "
        "more decoded blocks on a point lookup"
    )
