"""A buddy's containers are its primary's bytes.

A direct load builds each container image once per projection family
and publishes it on every copy's node: the buddy shares the primary's
columns, encodings and sort order, and a local segment ignores the
ring offset, so the copies' containers for one (ring range, partition,
local segment) are the same bytes.  On a 3-node K=1 cluster with two
local segments per node, every buddy container's ``.dat`` / ``.pidx``
files must equal its primary's — container for container, in the order
they were written — after

* a direct load;
* a direct load with one node down, then ``recover_node`` (the down
  node's copies of that load are rebuilt from the survivors' history);
* a reopen that replays a direct load from the journal tail;

and ``scrub`` must find nothing to repair each time.
"""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.monitor import METRICS
from repro.projections import HashSegmentation

NODES = 3
DISTINCT = 18


def make_rows(first, count):
    return [
        {"metric": f"metric_{k % DISTINCT:04d}", "k": k, "v": float(k % 97) / 7}
        for k in range(first, first + count)
    ]


def build(path) -> Database:
    db = Database(
        str(path), node_count=NODES, k_safety=1, segments_per_node=2,
        journal_checkpoint_interval=1000,
    )
    db.create_table(
        TableDefinition(
            "t",
            [ColumnDef("metric", types.VARCHAR), ColumnDef("k", types.INTEGER),
             ColumnDef("v", types.FLOAT)],
        ),
        sort_order=["metric", "k"],
        segmentation=HashSegmentation(("k",)),
    )
    return db


def containers(db, node_index, projection_name):
    """(partition key, local segment, {file: bytes}) per container of a
    copy on a node, in container id order; ``meta.json`` (which names
    the copy and its container id) left out."""
    storage = db.cluster.nodes[node_index].manager.storage(projection_name)
    found = []
    for _, container in sorted(storage.containers.items()):
        files = {}
        for name in sorted(container.meta.checksums):
            with open(f"{container.path}/{name}", "rb") as handle:
                files[name] = handle.read()
        meta = container.meta
        found.append((meta.partition_key, meta.local_segment, files))
    return found


def check_buddies_equal_primaries(db, rows):
    (family,) = db.cluster.catalog.families_for_table("t")
    primary, buddy = family.all_copies
    stored = 0
    for ring_range in range(NODES):
        mine = containers(db, (ring_range + primary.segmentation.offset) % NODES, primary.name)
        theirs = containers(db, (ring_range + buddy.segmentation.offset) % NODES, buddy.name)
        assert mine == theirs, f"ring range {ring_range}: buddy bytes differ"
        stored += len(mine)
    assert stored > NODES  # two local segments: more containers than nodes
    assert db.cluster.scrub().clean
    assert db.sql("SELECT count(*) AS n FROM t")[0]["n"] == rows


@pytest.fixture
def db(tmp_path):
    return build(tmp_path / "db")


def test_a_direct_load_publishes_one_image_per_family(db):
    db.load("t", make_rows(0, 9000), direct_to_ros=True)
    check_buddies_equal_primaries(db, 9000)


def test_a_node_down_through_the_load_recovers_the_same_bytes(db):
    db.load("t", make_rows(0, 3000), direct_to_ros=True)
    db.run_tuple_movers()  # every copy's Last Good Epoch passes the load
    db.fail_node(1)
    db.load("t", make_rows(3000, 9000), direct_to_ros=True)
    db.recover_node(1)
    check_buddies_equal_primaries(db, 12000)


def test_a_replayed_direct_load_rebuilds_the_same_bytes(tmp_path):
    path = tmp_path / "db"
    db = build(path)
    db.load("t", make_rows(0, 3000), direct_to_ros=True)
    db.load("t", make_rows(3000, 9000), direct_to_ros=True)
    before = {
        (node, name): containers(db, node, name)
        for node in range(NODES)
        for name in db.cluster.nodes[node].manager.projection_names()
    }
    del db
    replayed = METRICS.counter("journal.replay.commits")
    reopened = Database.open(str(path))
    assert METRICS.counter("journal.replay.commits") > replayed
    check_buddies_equal_primaries(reopened, 12000)
    assert {
        (node, name): containers(reopened, node, name)
        for node in range(NODES)
        for name in reopened.cluster.nodes[node].manager.projection_names()
    } == before
