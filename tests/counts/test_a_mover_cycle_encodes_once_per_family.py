"""Counts, not timings: a mover cycle encodes each container once per
projection family.

On a 3-node K=1 cluster a buddy holds its primary's rows under the same
columns, encodings and sort order.  After a WOS load, one
``run_tuple_movers`` that moves out and merges encodes the primary
copy's new blocks only (``storage.blocks_encoded``): the buddy's drained
run holds the very objects of its primary's, and its merge inputs were
published from the same images, so it publishes the images its primary
built.  Each node used to encode its own, twice the blocks.

A copy whose inputs differ encodes its own: after ``fail_node``, a load
the node misses and ``recover_node``, the recovered copies' containers
were rebuilt from history, so their merges — and their buddies' — build
their own images.  Whatever the inputs, a block is encoded by the first
copy to publish its image and by no other.
"""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.monitor import METRICS
from repro.projections import HashSegmentation
from repro.storage.ros import ROSContainer
from repro.tuple_mover import MergePolicy


def make_rows(first, count):
    return [
        {"metric": f"metric_{k % 18:04d}", "k": k, "v": float(k % 97) / 7}
        for k in range(first, first + count)
    ]


@pytest.fixture
def db(tmp_path):
    db = Database(
        str(tmp_path / "db"), node_count=3, k_safety=1, segments_per_node=2,
        merge_policy=MergePolicy(min_inputs=2),
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


def cycle(db, monkeypatch):
    """Run one mover cycle; ``(blocks encoded, [(node, copy, image
    token, blocks)] per container published, mergeouts)``."""
    published = []
    publish = ROSContainer.publish.__func__

    def spy(cls, path, container_id, projection_name, image, **options):
        container = publish(cls, path, container_id, projection_name, image, **options)
        blocks = sum(
            len(container.column_reader(name).blocks)
            for name in [*container.meta.columns, "_epoch"]
        )
        container.release()
        node = next(
            node.index for node in db.cluster.nodes
            if path.startswith(node.manager.root)
        )
        published.append((node, projection_name, image.token, blocks))
        return container

    encoded = METRICS.counter("storage.blocks_encoded")
    mergeouts = METRICS.counter("tuple_mover.mergeouts")
    with monkeypatch.context() as patch:
        patch.setattr(ROSContainer, "publish", classmethod(spy))
        db.run_tuple_movers()
    return (
        METRICS.counter("storage.blocks_encoded") - encoded,
        published,
        METRICS.counter("tuple_mover.mergeouts") - mergeouts,
    )


def first_publishers(published):
    """image token -> (node, copy, blocks) of the first container
    published from it."""
    first = {}
    for node, name, token, blocks in published:
        first.setdefault(token, (node, name, blocks))
    return first


def test_a_cycle_encodes_the_primary_blocks_only(db, monkeypatch):
    db.load("t", make_rows(0, 3000))
    db.run_tuple_movers()
    db.load("t", make_rows(3000, 3000))
    encoded, published, mergeouts = cycle(db, monkeypatch)
    assert mergeouts and all(
        db.cluster.nodes[node].manager.wos_row_count(name) == 0
        for node in range(3)
        for name in db.cluster.nodes[node].manager.projection_names()
    )
    (family,) = db.cluster.catalog.families_for_table("t")
    primary, buddy = family.all_copies
    per_copy = {
        name: sum(blocks for _, copy, _, blocks in published if copy == name)
        for name in (primary.name, buddy.name)
    }
    assert encoded == per_copy[primary.name] == per_copy[buddy.name] > 0
    assert encoded == sum(blocks for _, _, blocks in first_publishers(published).values())
    assert db.sql("SELECT count(*) AS n FROM t")[0]["n"] == 6000


def test_a_copy_whose_inputs_differ_encodes_its_own(db, monkeypatch):
    db.load("t", make_rows(0, 3000))
    db.run_tuple_movers()
    db.fail_node(1)
    db.load("t", make_rows(3000, 3000))
    db.run_tuple_movers()
    db.recover_node(1)
    db.load("t", make_rows(6000, 3000))
    encoded, published, mergeouts = cycle(db, monkeypatch)
    assert mergeouts
    (family,) = db.cluster.catalog.families_for_table("t")
    primary = family.primary
    first = first_publishers(published)
    assert encoded == sum(blocks for _, _, blocks in first.values())
    assert encoded > sum(blocks for _, copy, _, blocks in published if copy == primary.name)
    # both copies on the recovered node built images of their own
    assert {name for node, name, _ in first.values() if node == 1} == set(
        db.cluster.nodes[1].manager.projection_names()
    )
    assert db.cluster.scrub().clean
    assert db.sql("SELECT count(*) AS n FROM t")[0]["n"] == 9000
