"""Backup image epoch validation: restore refuses images outside the
cluster's epoch window (pre-AHM or from the future)."""

import pytest

from repro import types
from repro.cluster import Cluster, create_backup, restore_backup
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import ClusterError
from storage_helpers import read_table


def table():
    return TableDefinition(
        "t",
        [ColumnDef("k", types.INTEGER), ColumnDef("v", types.VARCHAR)],
        primary_key=("k",),
    )


def rows(n, start=0):
    return [{"k": i, "v": f"v{i % 7}"} for i in range(start, start + n)]


def build(root):
    cluster = Cluster(str(root), node_count=3, k_safety=1)
    cluster.create_table(table(), sort_order=["k"])
    return cluster


def test_restore_refuses_image_from_the_future(tmp_path):
    source = build(tmp_path / "source")
    epoch = 0
    for start in range(0, 50, 10):  # five commits: image epoch is high
        epoch = source.commit_dml({"t": rows(10, start=start)}, [], epoch)
    source.run_tuple_movers()
    image = create_backup(source, str(tmp_path / "bk"))

    target = build(tmp_path / "target")
    target.commit_dml({"t": rows(5)}, [], 0)  # non-pristine, but behind
    assert image.epoch > target.epochs.latest_queryable_epoch
    with pytest.raises(ClusterError, match="from the future"):
        restore_backup(target, image)


def test_restore_refuses_image_behind_the_ahm(tmp_path):
    cluster = build(tmp_path / "c")
    cluster.epochs.policy.lag_epochs = 0  # retain no extra history
    epoch = cluster.commit_dml({"t": rows(10)}, [], 0)
    cluster.run_tuple_movers()
    image = create_backup(cluster, str(tmp_path / "bk"))
    # advance history well past the image, dragging the AHM along
    for start in range(10, 50, 10):
        epoch = cluster.commit_dml({"t": rows(10, start=start)}, [], epoch)
        cluster.run_tuple_movers()  # advance_ahm=True by default
    assert cluster.epochs.ahm > image.epoch
    with pytest.raises(ClusterError, match="Ancient History Mark"):
        restore_backup(cluster, image)


def test_pristine_cluster_adopts_image_timeline(tmp_path):
    source = build(tmp_path / "source")
    epoch = 0
    for start in range(0, 30, 10):
        epoch = source.commit_dml({"t": rows(10, start=start)}, [], epoch)
    source.run_tuple_movers()
    image = create_backup(source, str(tmp_path / "bk"))

    target = build(tmp_path / "target")  # pristine: no commits yet
    restored = restore_backup(target, image)
    assert restored == len(image.entries)
    # the target adopted the image's epoch clock, so its rows are visible
    assert target.epochs.latest_queryable_epoch >= image.epoch
    visible = read_table(target, "t", target.epochs.latest_queryable_epoch)
    assert sorted(row["k"] for row in visible) == list(range(30))


def test_restore_at_current_epoch_accepted(tmp_path):
    cluster = build(tmp_path / "c")
    epoch = cluster.commit_dml({"t": rows(20)}, [], 0)
    cluster.run_tuple_movers(advance_ahm=False)
    image = create_backup(cluster, str(tmp_path / "bk"))
    # wipe, then same-timeline restore (image epoch == latest queryable)
    family = cluster.catalog.super_projection_for("t")
    for node in cluster.nodes:
        for copy in family.all_copies:
            state = node.manager.storage(copy.name)
            node.manager.remove_containers(copy.name, list(state.containers))
    restored = restore_backup(cluster, image)
    assert restored == len(image.entries)
    visible = read_table(cluster, "t", epoch)
    assert sorted(row["k"] for row in visible) == list(range(20))
