"""Tests for cluster routing, commit protocol, membership and K-safety."""

import pytest

from repro import types
from repro.cluster import Cluster
from repro.columnar import blocks_to_rows
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import DataUnavailableError, KSafetyError, QuorumLossError
from repro.projections import HashSegmentation, Replicated
from storage_helpers import read_table, rows_where


def sales_table():
    return TableDefinition(
        "sales",
        [
            ColumnDef("sale_id", types.INTEGER),
            ColumnDef("cid", types.INTEGER),
            ColumnDef("cust", types.VARCHAR),
            ColumnDef("price", types.FLOAT),
        ],
        primary_key=("sale_id",),
    )


def sales_rows(n, start=0):
    return [
        {"sale_id": i, "cid": i % 10, "cust": f"c{i % 10}", "price": float(i)}
        for i in range(start, start + n)
    ]


@pytest.fixture
def cluster(tmp_path):
    cluster = Cluster(str(tmp_path / "cluster"), node_count=3, k_safety=1)
    cluster.create_table(sales_table(), sort_order=["sale_id"])
    return cluster


class TestDdl:
    def test_create_table_builds_family_with_buddy(self, cluster):
        family = cluster.catalog.super_projection_for("sales")
        assert len(family.all_copies) == 2
        assert family.k_safety() == 1
        buddy = family.buddies[0]
        assert buddy.segmentation.offset == 1

    def test_projection_storage_on_every_node(self, cluster):
        family = cluster.catalog.super_projection_for("sales")
        for node in cluster.nodes:
            for copy in family.all_copies:
                assert copy.name in node.manager.projection_names()

    def test_single_node_cluster_has_no_buddies(self, tmp_path):
        single = Cluster(str(tmp_path / "one"), node_count=1)
        single.create_table(sales_table())
        family = single.catalog.super_projection_for("sales")
        assert family.buddies == []

    def test_invalid_k_safety_rejected(self, tmp_path):
        with pytest.raises(KSafetyError):
            Cluster(str(tmp_path / "bad"), node_count=2, k_safety=2)

    def test_drop_table(self, cluster):
        cluster.drop_table("sales")
        assert cluster.catalog.table_names() == []
        for node in cluster.nodes:
            assert node.manager.projection_names() == []


class TestRoutingAndCommit:
    def test_insert_visible_after_commit(self, cluster):
        epoch = cluster.commit_dml({"sales": sales_rows(100)}, [], 0)
        assert epoch == 1
        rows = read_table(cluster, "sales", epoch)
        assert len(rows) == 100

    def test_rows_split_across_nodes(self, cluster):
        cluster.commit_dml({"sales": sales_rows(300)}, [], 0)
        family = cluster.catalog.super_projection_for("sales")
        counts = [
            len(blocks_to_rows(node.manager.scan(family.primary.name, 1)))
            for node in cluster.nodes
        ]
        assert sum(counts) == 300
        assert all(count > 0 for count in counts)

    def test_buddy_holds_disjoint_placement(self, cluster):
        cluster.commit_dml({"sales": sales_rows(100)}, [], 0)
        family = cluster.catalog.super_projection_for("sales")
        for node in cluster.nodes:
            primary_ids = {
                row["sale_id"]
                for row in blocks_to_rows(node.manager.scan(family.primary.name, 1))
            }
            buddy_ids = {
                row["sale_id"]
                for row in blocks_to_rows(node.manager.scan(
                    family.buddies[0].name, 1
                ))
            }
            assert primary_ids.isdisjoint(buddy_ids)

    def test_buddy_union_covers_everything(self, cluster):
        cluster.commit_dml({"sales": sales_rows(100)}, [], 0)
        family = cluster.catalog.super_projection_for("sales")
        buddy_rows = []
        for node in cluster.nodes:
            buddy_rows.extend(
                blocks_to_rows(node.manager.scan(family.buddies[0].name, 1))
            )
        assert sorted(row["sale_id"] for row in buddy_rows) == list(range(100))

    def test_replicated_projection_everywhere(self, tmp_path):
        cluster = Cluster(str(tmp_path / "c"), node_count=3)
        cluster.create_table(sales_table(), segmentation=Replicated())
        cluster.commit_dml({"sales": sales_rows(50)}, [], 0)
        family = cluster.catalog.super_projection_for("sales")
        for node in cluster.nodes:
            assert (
                len(blocks_to_rows(node.manager.scan(family.primary.name, 1))) == 50
            )

    def test_delete_applies_everywhere(self, cluster):
        cluster.commit_dml({"sales": sales_rows(100)}, [], 0)
        victims = rows_where(cluster, "sales", lambda row: row["sale_id"] < 30, 1)
        cluster.commit_dml({}, [("sales", victims)], 1)
        rows = read_table(cluster, "sales", 2)
        assert len(rows) == 70
        assert len(read_table(cluster, "sales", 1)) == 100  # history intact

    def test_epoch_advances_per_commit(self, cluster):
        first = cluster.commit_dml({"sales": sales_rows(1)}, [], 0)
        second = cluster.commit_dml({"sales": sales_rows(1, start=1)}, [], first)
        assert second == first + 1


class TestMembership:
    def test_commit_ejects_node_missing_delivery(self, cluster):
        cluster.membership.drop_next_delivery.add(2)
        cluster.commit_dml({"sales": sales_rows(60)}, [], 0)
        assert 2 in cluster.membership.down_nodes()
        assert cluster.membership.ejections[0][0] == 2

    def test_quorum_loss_raises(self, cluster):
        cluster.fail_node(2)
        with pytest.raises(QuorumLossError):
            cluster.fail_node(1)

    def test_reads_survive_single_failure_via_buddy(self, cluster):
        cluster.commit_dml({"sales": sales_rows(100)}, [], 0)
        cluster.run_tuple_movers()
        cluster.fail_node(0)
        rows = read_table(cluster, "sales", 1)
        assert sorted(row["sale_id"] for row in rows) == list(range(100))

    def test_scan_sources_prefer_primary(self, cluster):
        family = cluster.catalog.super_projection_for("sales")
        sources = cluster.scan_sources(family)
        assert [s[0] for s in sources] == [0, 1, 2]
        assert all(s[1] == family.primary.name for s in sources)

    def test_scan_sources_use_buddy_when_down(self, cluster):
        cluster.commit_dml({"sales": sales_rows(10)}, [], 0)
        cluster.run_tuple_movers()
        cluster.fail_node(1)
        family = cluster.catalog.super_projection_for("sales")
        sources = cluster.scan_sources(family)
        buddy_sources = [s for s in sources if s[1] != family.primary.name]
        assert buddy_sources == [(2, family.buddies[0].name)]

    def test_data_unavailable_without_ksafety(self, tmp_path):
        cluster = Cluster(str(tmp_path / "k0"), node_count=3, k_safety=0)
        cluster.create_table(sales_table())
        cluster.commit_dml({"sales": sales_rows(30)}, [], 0)
        cluster.membership.eject(0, "test")
        assert not cluster.check_data_available()
        with pytest.raises(DataUnavailableError):
            read_table(cluster, "sales", 1)

    def test_ahm_holds_while_node_down(self, cluster):
        for start in range(0, 50, 10):
            cluster.commit_dml({"sales": sales_rows(10, start=start)}, [], 0)
        cluster.fail_node(2)
        cluster.epochs.advance_ahm()
        assert cluster.epochs.ahm == 0


class TestTupleMoverIntegration:
    def test_run_tuple_movers_sets_lge(self, cluster):
        cluster.commit_dml({"sales": sales_rows(100)}, [], 0)
        cluster.run_tuple_movers()
        family = cluster.catalog.super_projection_for("sales")
        for node_index in range(3):
            assert cluster.epochs.lge(node_index, family.primary.name) == 1

    def test_moveout_preserves_visibility(self, cluster):
        cluster.commit_dml({"sales": sales_rows(500)}, [], 0)
        before = sorted(
            row["sale_id"] for row in read_table(cluster, "sales", 1)
        )
        cluster.run_tuple_movers()
        after = sorted(row["sale_id"] for row in read_table(cluster, "sales", 1))
        assert before == after


class TestPrejoin:
    def test_prejoin_load_denormalizes(self, tmp_path):
        cluster = Cluster(str(tmp_path / "pj"), node_count=2, k_safety=1)
        customers = TableDefinition(
            "customers",
            [ColumnDef("cid", types.INTEGER), ColumnDef("name", types.VARCHAR)],
            primary_key=("cid",),
        )
        orders = TableDefinition(
            "orders",
            [ColumnDef("oid", types.INTEGER), ColumnDef("cid", types.INTEGER)],
            primary_key=("oid",),
        )
        cluster.create_table(customers, segmentation=Replicated())
        cluster.create_table(orders)
        from repro.projections import (
            PrejoinSpec,
            ProjectionColumn,
            ProjectionDefinition,
        )

        prejoin = ProjectionDefinition(
            name="orders_pj",
            anchor_table="orders",
            columns=[
                ProjectionColumn("oid", types.INTEGER),
                ProjectionColumn("cid", types.INTEGER),
                ProjectionColumn("cust_name", types.VARCHAR),
            ],
            sort_order=["cust_name", "oid"],
            segmentation=HashSegmentation(("oid",)),
            prejoin=PrejoinSpec(
                dimension_table="customers",
                anchor_key="cid",
                dimension_key="cid",
                carried_columns={"name": "cust_name"},
            ),
        )
        cluster.add_projection_family(prejoin)
        epoch = cluster.commit_dml(
            {"customers": [{"cid": 1, "name": "ann"}, {"cid": 2, "name": "bob"}]},
            [], 0,
        )
        epoch = cluster.commit_dml(
            {"orders": [{"oid": 10, "cid": 2}, {"oid": 11, "cid": 1}]}, [], epoch
        )
        prejoin_rows = []
        for node in cluster.nodes:
            prejoin_rows.extend(
                blocks_to_rows(node.manager.scan("orders_pj", epoch))
            )
        names = {row["oid"]: row["cust_name"] for row in prejoin_rows}
        assert names == {10: "bob", 11: "ann"}
