"""Cluster-level fault injection: commit-or-eject, restart, scrub.

These tests exercise the distributed half of the robustness story: a
node dying mid-commit is ejected while the cluster commit proceeds on
the survivors; a restarted node scavenges its disk and recovers from
buddies; silent corruption is scrubbed out and repaired online.
"""

import os

import pytest

from repro import types
from repro.cluster import (
    Cluster,
    create_backup,
    recover_node,
    rebalance,
    repair_node_projection,
    restore_backup,
    scrub,
)
from repro.columnar import blocks_to_rows
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import ClusterError
from repro.faults import FaultPlan
from storage_helpers import read_table


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


def snapshot(cluster, epoch):
    return sorted(row["k"] for row in read_table(cluster, "t", epoch))


class TestCommitOrEject:
    def test_dropped_delivery_ejects_but_commit_succeeds(self, cluster):
        with FaultPlan().arm("membership.delivery", "drop", node=1):
            epoch = cluster.commit_dml({"t": rows(30)}, [], 0)
        assert not cluster.membership.is_up(1)
        assert ("missed commit delivery" in reason
                for _, reason in cluster.membership.ejections)
        # buddy failover still answers with the full row set
        assert snapshot(cluster, epoch) == list(range(30))

    def test_delayed_delivery_ejects_and_applies_late(self, cluster):
        with FaultPlan().arm("membership.delivery", "delay", node=2):
            epoch = cluster.commit_dml({"t": rows(30)}, [], 0)
        assert not cluster.membership.is_up(2)
        assert any(
            node == 2 and "delayed" in reason
            for node, reason in cluster.membership.ejections
        )
        # the late message still landed: node 2 holds the rows even
        # though it was ejected (recovery will truncate + replay them,
        # which is why eject-without-retry is safe).
        family = cluster.catalog.super_projection_for("t")
        late_rows = []
        for copy in family.all_copies:
            late_rows.extend(
                blocks_to_rows(cluster.nodes[2].manager.scan(copy.name, epoch))
            )
        assert late_rows
        report = recover_node(cluster, 2)
        assert cluster.membership.is_up(2)
        assert snapshot(cluster, epoch) == list(range(30))

    def test_drop_next_delivery_shim_still_works(self, cluster):
        cluster.membership.drop_next_delivery.add(0)
        epoch = cluster.commit_dml({"t": rows(20)}, [], 0)
        assert not cluster.membership.is_up(0)
        assert snapshot(cluster, epoch) == list(range(20))

    def test_storage_crash_mid_apply_ejects_node_only(self, cluster):
        # node 1's first container publish dies while applying the
        # committed insert; the commit must survive on the other nodes.
        plan = FaultPlan().arm("ros.publish", "crash")
        epoch0 = cluster.commit_dml({"t": rows(10)}, [], 0)
        with plan:
            epoch = cluster.commit_dml(
                {"t": rows(30, start=10)}, [], epoch0, direct_to_ros=True
            )
        assert plan.fired
        assert len(cluster.membership.up_nodes()) == 2
        assert snapshot(cluster, epoch) == list(range(40))

    def test_mover_crash_ejects_node_only(self, cluster):
        epoch = cluster.commit_dml({"t": rows(40)}, [], 0)
        with FaultPlan().arm("mover.moveout.container", "crash"):
            cluster.run_tuple_movers()
        assert len(cluster.membership.up_nodes()) == 2
        assert snapshot(cluster, epoch) == list(range(40))


class TestRestartAndRecover:
    def test_restart_node_scavenges_and_recovers(self, cluster):
        epoch0 = cluster.commit_dml({"t": rows(20)}, [], 0)
        cluster.run_tuple_movers()
        # one node dies mid-publish while applying a later commit
        with FaultPlan().arm("ros.publish", "crash"):
            epoch = cluster.commit_dml(
                {"t": rows(20, start=20)}, [], epoch0, direct_to_ros=True
            )
        (crashed,) = cluster.membership.down_nodes()
        report = cluster.restart_node(crashed)
        # the half-committed container's staging dir was scavenged away
        assert report.removed_tmp
        recover_node(cluster, crashed)
        assert cluster.membership.is_up(crashed)
        assert snapshot(cluster, epoch) == list(range(40))
        # the recovered node's own copies answer correctly
        cluster.fail_node((crashed + 1) % 3)
        assert snapshot(cluster, epoch) == list(range(40))

    def test_restart_preserves_published_state(self, cluster):
        epoch = cluster.commit_dml({"t": rows(25)}, [], 0)
        cluster.run_tuple_movers()
        cluster.fail_node(2)
        report = cluster.restart_node(2)
        assert report.quarantined == []
        assert report.containers_loaded > 0
        recover_node(cluster, 2)
        assert snapshot(cluster, epoch) == list(range(25))


class TestScrub:
    def corrupt_one_container(self, cluster, node_index=0):
        manager = cluster.nodes[node_index].manager
        for projection_name in manager.projection_names():
            state = manager.storage(projection_name)
            for container in state.containers.values():
                target = os.path.join(container.path, "k.dat")
                with open(target, "r+b") as handle:
                    first = handle.read(1)[0]
                    handle.seek(0)
                    handle.write(bytes([first ^ 0xFF]))
                return projection_name, container.container_id
        raise AssertionError("no container to corrupt")

    def test_clean_cluster_scrubs_clean(self, cluster):
        cluster.commit_dml({"t": rows(30)}, [], 0, direct_to_ros=True)
        report = cluster.scrub()
        assert report.clean()
        assert report.corrupt == []
        assert report.repaired == []

    def test_scrub_detects_quarantines_and_repairs(self, cluster):
        epoch = cluster.commit_dml({"t": rows(60)}, [], 0, direct_to_ros=True)
        projection_name, container_id = self.corrupt_one_container(cluster)
        report = cluster.scrub()
        assert (0, projection_name, container_id) in [
            (node, proj, cid) for node, proj, cid, _ in report.corrupt
        ]
        assert (0, projection_name) in report.repaired
        assert report.purged >= 1
        assert cluster.nodes[0].manager.quarantined == []
        # repaired node serves the full row set on its own copies
        assert snapshot(cluster, epoch) == list(range(60))
        cluster.fail_node(1)
        assert snapshot(cluster, epoch) == list(range(60))

    def test_scrub_without_repair_only_quarantines(self, cluster):
        cluster.commit_dml({"t": rows(60)}, [], 0, direct_to_ros=True)
        self.corrupt_one_container(cluster)
        report = scrub(cluster, repair=False)
        assert report.corrupt
        assert report.repaired == []
        assert cluster.nodes[0].manager.quarantined

    def test_repair_after_scavenge_quarantine(self, cluster):
        epoch = cluster.commit_dml({"t": rows(40)}, [], 0, direct_to_ros=True)
        projection_name, _ = self.corrupt_one_container(cluster, node_index=1)
        cluster.fail_node(1)
        cluster.restart_node(1)  # scavenge quarantines the bad container
        assert cluster.nodes[1].manager.quarantined
        recover_node(cluster, 1)
        report = cluster.scrub()
        assert (1, projection_name) in report.repaired
        cluster.fail_node(0)
        assert snapshot(cluster, epoch) == list(range(40))

    def test_recovery_after_scavenge_quarantine_rebuilds_the_copy(self, cluster):
        """A copy that lost a container at restart holds less than its
        Last Good Epoch says: recovery rebuilds it from its buddy, so the
        node serves every row before any scrub runs."""
        epoch = cluster.commit_dml({"t": rows(40)}, [], 0, direct_to_ros=True)
        cluster.run_tuple_movers()  # every copy's LGE reaches the epoch
        self.corrupt_one_container(cluster, node_index=1)
        cluster.fail_node(1)
        assert cluster.restart_node(1).quarantined
        recover_node(cluster, 1)
        cluster.fail_node(0)
        assert snapshot(cluster, epoch) == list(range(40))

    def test_repair_node_projection_rebuilds_copy(self, cluster):
        epoch = cluster.commit_dml({"t": rows(50)}, [], 0, direct_to_ros=True)
        family = cluster.catalog.super_projection_for("t")
        primary = family.primary.name
        manager = cluster.nodes[0].manager
        before = sorted(
            row["k"] for row in blocks_to_rows(manager.scan(primary, epoch))
        )
        # nuke the whole copy, then rebuild it from buddies
        manager.forget_contents(primary)
        assert blocks_to_rows(manager.scan(primary, epoch)) == []
        replayed = repair_node_projection(cluster, 0, primary)
        assert replayed >= len(before)
        after = sorted(
            row["k"] for row in blocks_to_rows(manager.scan(primary, epoch))
        )
        assert after == before


class TestRebalanceDirectories:
    def test_rebalance_up_down_up_uses_fresh_dirs(self, tmp_path):
        root = str(tmp_path / "c")
        cluster = Cluster(root, node_count=3, k_safety=1)
        cluster.create_table(table(), sort_order=["k"])
        epoch = cluster.commit_dml({"t": rows(60)}, [], 0, direct_to_ros=True)
        rebalance(cluster, 5)
        assert snapshot(cluster, epoch) == list(range(60))
        grown_roots_first = [
            cluster.nodes[index].manager.root for index in (3, 4)
        ]
        # node dirs live under the cluster root, not a sibling tree
        for node_root in grown_roots_first:
            assert os.path.dirname(node_root) == root
        rebalance(cluster, 3)
        assert snapshot(cluster, epoch) == list(range(60))
        rebalance(cluster, 5)
        assert snapshot(cluster, epoch) == list(range(60))
        grown_roots_second = [
            cluster.nodes[index].manager.root for index in (3, 4)
        ]
        # the regrown nodes must not resurrect the retired directories
        assert not set(grown_roots_first) & set(grown_roots_second)
        assert len(set(grown_roots_second)) == 2

    def test_rebalance_down_then_query(self, tmp_path):
        cluster = Cluster(str(tmp_path / "c"), node_count=4, k_safety=1)
        cluster.create_table(table(), sort_order=["k"])
        epoch = cluster.commit_dml({"t": rows(40)}, [], 0, direct_to_ros=True)
        rebalance(cluster, 2)
        assert snapshot(cluster, epoch) == list(range(40))


class TestBackupManifestValidation:
    def test_restore_rejects_missing_table(self, cluster, tmp_path):
        cluster.commit_dml({"t": rows(20)}, [], 0)
        cluster.run_tuple_movers()
        image = create_backup(cluster, str(tmp_path / "bk"))
        target = Cluster(str(tmp_path / "c2"), node_count=3, k_safety=1)
        with pytest.raises(ClusterError, match="missing from the catalog"):
            restore_backup(target, image)

    def test_restore_rejects_imageless_manifest(self, cluster, tmp_path):
        cluster.commit_dml({"t": rows(20)}, [], 0)
        cluster.run_tuple_movers()
        image = create_backup(cluster, str(tmp_path / "bk"))
        os.remove(os.path.join(image.path, "manifest.json"))
        with pytest.raises(ClusterError, match="no manifest.json"):
            restore_backup(cluster, image)

    def test_restore_rejects_torn_manifest(self, cluster, tmp_path):
        cluster.commit_dml({"t": rows(20)}, [], 0)
        cluster.run_tuple_movers()
        image = create_backup(cluster, str(tmp_path / "bk"))
        assert "manifest.json.tmp" not in os.listdir(image.path)
        manifest = os.path.join(image.path, "manifest.json")
        os.truncate(manifest, os.path.getsize(manifest) // 2)
        with pytest.raises(ClusterError, match="unreadable"):
            restore_backup(cluster, image)

    def test_restore_adopts_with_fresh_on_disk_ids(self, cluster, tmp_path):
        import json

        epoch = cluster.commit_dml({"t": rows(30)}, [], 0)
        cluster.run_tuple_movers()
        image = create_backup(cluster, str(tmp_path / "bk"))
        family = cluster.catalog.super_projection_for("t")
        for node in cluster.nodes:
            for copy in family.all_copies:
                state = node.manager.storage(copy.name)
                node.manager.remove_containers(copy.name, list(state.containers))
        restored = restore_backup(cluster, image)
        assert restored == len(image.entries)
        assert snapshot(cluster, epoch) == list(range(30))
        # every restored container's on-disk meta matches its directory
        for node in cluster.nodes:
            for copy in family.all_copies:
                state = node.manager.storage(copy.name)
                for container_id, container in state.containers.items():
                    with open(
                        os.path.join(container.path, "meta.json")
                    ) as handle:
                        assert json.load(handle)["container_id"] == container_id
