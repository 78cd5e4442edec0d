"""Tests for recovery, refresh, rebalance and backup."""

import pytest

from repro import types
from repro.cluster import (
    Cluster,
    create_backup,
    load_manifest,
    rebalance,
    recover_node,
    restore_backup,
)
from repro.columnar import blocks_to_rows
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import ClusterError
from repro.projections import HashSegmentation
from storage_helpers import nodes_of, read_table, rows_where


def table():
    return TableDefinition(
        "t",
        [ColumnDef("k", types.INTEGER), ColumnDef("v", types.VARCHAR)],
        primary_key=("k",),
    )


def rows(n, start=0):
    return [{"k": i, "v": f"v{i % 7}"} for i in range(start, start + n)]


@pytest.fixture
def cluster(tmp_path):
    cluster = Cluster(str(tmp_path / "c"), node_count=3, k_safety=1)
    cluster.create_table(table(), sort_order=["k"])
    return cluster


def table_snapshot(cluster, epoch):
    return sorted(row["k"] for row in read_table(cluster, "t", epoch))


class TestRecovery:
    def test_recover_missed_inserts(self, cluster):
        epoch = cluster.commit_dml({"t": rows(50)}, [], 0)
        cluster.run_tuple_movers()
        cluster.fail_node(1)
        epoch = cluster.commit_dml({"t": rows(50, start=50)}, [], epoch)
        report = recover_node(cluster, 1)
        assert report.historical_rows + report.current_rows > 0
        assert cluster.membership.is_up(1)
        # node 1's primary data matches what it would have had
        family = cluster.catalog.super_projection_for("t")
        own = blocks_to_rows(cluster.nodes[1].manager.scan(family.primary.name, epoch))
        placed = nodes_of(family.primary.segmentation, rows(100), 3)
        expected = {row["k"] for row, at in zip(rows(100), placed) if at == 1}
        assert {row["k"] for row in own} == expected

    def test_recover_missed_deletes(self, cluster):
        epoch = cluster.commit_dml({"t": rows(40)}, [], 0)
        cluster.run_tuple_movers()
        cluster.fail_node(2)
        victims = rows_where(cluster, "t", lambda row: row["k"] < 10, epoch)
        epoch = cluster.commit_dml({}, [("t", victims)], epoch)
        recover_node(cluster, 2)
        assert table_snapshot(cluster, epoch) == list(range(10, 40))
        # every node individually consistent: scan only its primary rows
        family = cluster.catalog.super_projection_for("t")
        total = 0
        for node in cluster.nodes:
            total += len(blocks_to_rows(node.manager.scan(family.primary.name, epoch)))
        assert total == 30

    def test_recover_preserves_historical_snapshots(self, cluster):
        epoch1 = cluster.commit_dml({"t": rows(20)}, [], 0)
        cluster.run_tuple_movers()
        cluster.fail_node(0)
        epoch2 = cluster.commit_dml({"t": rows(20, start=20)}, [], epoch1)
        recover_node(cluster, 0)
        assert table_snapshot(cluster, epoch1) == list(range(20))
        assert table_snapshot(cluster, epoch2) == list(range(40))

    def test_truncates_wos_only_data(self, cluster):
        # data committed but never moved out exists only in the WOS and
        # dies with the node; recovery re-sources it from buddies.
        epoch = cluster.commit_dml({"t": rows(30)}, [], 0)
        cluster.fail_node(1)  # WOS content lost, no moveout ever ran
        recover_node(cluster, 1)
        assert table_snapshot(cluster, epoch) == list(range(30))

    def test_recover_up_node_rejected(self, cluster):
        with pytest.raises(ClusterError):
            recover_node(cluster, 0)

    def test_historical_and_current_phases_split(self, cluster):
        epoch = cluster.commit_dml({"t": rows(10)}, [], 0)
        cluster.run_tuple_movers()
        cluster.fail_node(1)
        for start in range(10, 60, 10):
            epoch = cluster.commit_dml({"t": rows(10, start=start)}, [], epoch)
        report = recover_node(cluster, 1, historical_lag=1)
        assert report.historical_rows > 0
        assert report.current_rows > 0

    def test_queries_run_during_failure_and_after(self, cluster):
        epoch = cluster.commit_dml({"t": rows(60)}, [], 0)
        cluster.run_tuple_movers()
        cluster.fail_node(2)
        assert table_snapshot(cluster, epoch) == list(range(60))
        recover_node(cluster, 2)
        assert table_snapshot(cluster, epoch) == list(range(60))


class TestRefresh:
    def test_new_projection_populated_from_existing_data(self, cluster):
        epoch = cluster.commit_dml({"t": rows(40)}, [], 0)
        from repro.projections import ProjectionColumn, ProjectionDefinition

        narrow = ProjectionDefinition(
            name="t_narrow",
            anchor_table="t",
            columns=[ProjectionColumn("v", types.VARCHAR),
                     ProjectionColumn("k", types.INTEGER)],
            sort_order=["v"],
            segmentation=HashSegmentation(("k",)),
        )
        cluster.add_projection_family(narrow)
        stored = []
        for node in cluster.nodes:
            stored.extend(blocks_to_rows(node.manager.scan("t_narrow", epoch)))
        assert sorted(row["k"] for row in stored) == list(range(40))

    def test_refresh_preserves_delete_history(self, cluster):
        epoch = cluster.commit_dml({"t": rows(20)}, [], 0)
        victims = rows_where(cluster, "t", lambda r: r["k"] >= 15, epoch)
        epoch = cluster.commit_dml({}, [("t", victims)], epoch)
        from repro.projections import ProjectionColumn, ProjectionDefinition

        narrow = ProjectionDefinition(
            name="t_n2",
            anchor_table="t",
            columns=[ProjectionColumn("k", types.INTEGER)],
            sort_order=["k"],
            segmentation=HashSegmentation(("k",)),
        )
        cluster.add_projection_family(narrow)
        visible = []
        for node in cluster.nodes:
            visible.extend(blocks_to_rows(node.manager.scan("t_n2", epoch)))
        assert sorted(row["k"] for row in visible) == list(range(15))


class TestRebalance:
    def test_expand_cluster(self, cluster):
        epoch = cluster.commit_dml({"t": rows(200)}, [], 0)
        cluster.run_tuple_movers()
        report = rebalance(cluster, 5)
        assert report.new_node_count == 5
        assert cluster.node_count == 5
        assert table_snapshot(cluster, epoch) == list(range(200))
        family = cluster.catalog.super_projection_for("t")
        counts = [
            len(blocks_to_rows(node.manager.scan(family.primary.name, epoch)))
            for node in cluster.nodes
        ]
        assert sum(counts) == 200
        assert all(count > 0 for count in counts)

    def test_shrink_cluster(self, cluster):
        epoch = cluster.commit_dml({"t": rows(100)}, [], 0)
        rebalance(cluster, 2)
        assert table_snapshot(cluster, epoch) == list(range(100))

    def test_rebalance_requires_all_up(self, cluster):
        cluster.commit_dml({"t": rows(10)}, [], 0)
        cluster.fail_node(1)
        with pytest.raises(ClusterError):
            rebalance(cluster, 4)


class TestBackup:
    def test_backup_and_restore(self, cluster, tmp_path):
        epoch = cluster.commit_dml({"t": rows(80)}, [], 0)
        cluster.run_tuple_movers()
        image = create_backup(cluster, str(tmp_path / "bk"))
        assert image.entries
        # wipe: drop all containers everywhere
        family = cluster.catalog.super_projection_for("t")
        for node in cluster.nodes:
            for copy in family.all_copies:
                state = node.manager.storage(copy.name)
                node.manager.remove_containers(copy.name, list(state.containers))
        assert table_snapshot(cluster, epoch) == []
        restored = restore_backup(cluster, image)
        assert restored == len(image.entries)
        assert table_snapshot(cluster, epoch) == list(range(80))

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP 1(d): a backup image links the containers but not "
        "their delete vectors, so a restore brings deleted rows back",
    )
    def test_a_restore_keeps_the_deletes_of_its_image(self, cluster, tmp_path):
        epoch = cluster.commit_dml({"t": rows(80)}, [], 0, direct_to_ros=True)
        victims = rows(10)
        epoch = cluster.commit_dml(
            {}, [("t", {"k": [r["k"] for r in victims], "v": [r["v"] for r in victims]})],
            epoch,
        )
        cluster.run_tuple_movers()  # the deletes reach disk as delete vectors
        image = create_backup(cluster, str(tmp_path / "bk"))
        family = cluster.catalog.super_projection_for("t")
        for node in cluster.nodes:
            for copy in family.all_copies:
                state = node.manager.storage(copy.name)
                node.manager.remove_containers(copy.name, list(state.containers))
        restore_backup(cluster, image)
        assert table_snapshot(cluster, epoch) == list(range(10, 80))

    def test_backup_survives_mergeout(self, cluster, tmp_path):
        # hard links keep the image alive even after the tuple mover
        # retires the original containers.
        epoch = cluster.commit_dml({"t": rows(30)}, [], 0)
        cluster.commit_dml({"t": rows(30, start=30)}, [], epoch)
        cluster.run_tuple_movers()
        image = create_backup(cluster, str(tmp_path / "bk"))
        cluster.commit_dml({"t": rows(30, start=60)}, [], 0)
        cluster.run_tuple_movers()  # merges / retires old containers
        manifest = load_manifest(str(tmp_path / "bk"))
        assert manifest["epoch"] == image.epoch
        # all linked files still readable
        import os

        for node_index, projection_name, container_dir in image.entries:
            path = os.path.join(
                str(tmp_path / "bk"), f"node{node_index:02d}",
                projection_name, container_dir,
            )
            assert os.path.isdir(path)
            assert os.listdir(path)

    def test_incremental_backup_links_only_new(self, cluster, tmp_path):
        epoch = cluster.commit_dml({"t": rows(40)}, [], 0)
        cluster.run_tuple_movers()
        full = create_backup(cluster, str(tmp_path / "full"))
        cluster.commit_dml({"t": rows(40, start=40)}, [], epoch)
        cluster.run_tuple_movers()
        incremental = create_backup(
            cluster, str(tmp_path / "incr"), base=full
        )
        import os

        full_dirs = sum(len(files) for _, _, files in os.walk(str(tmp_path / "full")))
        incr_dirs = sum(len(files) for _, _, files in os.walk(str(tmp_path / "incr")))
        assert incr_dirs < full_dirs + len(incremental.entries)
        assert len(incremental.entries) >= len(full.entries)
