"""Tests for the per-node storage manager."""

import pytest

from repro import types
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import UnknownObjectError
from repro.projections import super_projection
from repro.storage import StorageManager


@pytest.fixture
def table():
    return TableDefinition(
        "events",
        [
            ColumnDef("month", types.INTEGER),
            ColumnDef("cid", types.INTEGER),
            ColumnDef("value", types.FLOAT),
        ],
        partition_by=lambda row: row["month"],
        partition_by_text="month",
    )


@pytest.fixture
def projection(table):
    return super_projection(table, sort_order=["cid"])


@pytest.fixture
def manager(tmp_path, table, projection):
    manager = StorageManager(str(tmp_path / "node0"), wos_capacity=1000)
    manager.register_projection(projection, table)
    return manager


def make_rows(n, month=1):
    return [{"month": month, "cid": i, "value": float(i)} for i in range(n)]


NAME = "events_super"


class TestInsertPaths:
    def test_small_insert_goes_to_wos(self, manager):
        created = manager.insert(NAME, make_rows(10), epoch=1)
        assert created == []
        assert manager.wos_row_count(NAME) == 10
        assert manager.container_count(NAME) == 0

    def test_overflow_goes_direct_to_ros(self, manager):
        created = manager.insert(NAME, make_rows(2000), epoch=1)
        assert created
        assert manager.wos_row_count(NAME) == 0
        assert manager.container_count(NAME) == len(created)

    def test_direct_to_ros_flag(self, manager):
        created = manager.insert(NAME, make_rows(5), epoch=1, direct_to_ros=True)
        assert len(created) == 1

    def test_partition_separation(self, manager):
        rows = make_rows(10, month=3) + make_rows(10, month=4)
        manager.insert(NAME, rows, epoch=1, direct_to_ros=True)
        # one container per partition key
        assert manager.container_count(NAME) == 2
        assert manager.partition_keys(NAME) == [3, 4]

    def test_unknown_projection(self, manager):
        with pytest.raises(UnknownObjectError):
            manager.insert("nope", [], epoch=1)


class TestScan:
    def test_scan_merges_wos_and_ros(self, manager):
        manager.insert(NAME, make_rows(5), epoch=1, direct_to_ros=True)
        manager.insert(NAME, make_rows(3, month=2), epoch=2)
        rows = manager.read_visible_rows(NAME, epoch=2)
        assert len(rows) == 8

    def test_scan_respects_epoch(self, manager):
        manager.insert(NAME, make_rows(5), epoch=1, direct_to_ros=True)
        manager.insert(NAME, make_rows(3, month=2), epoch=5, direct_to_ros=True)
        assert len(manager.read_visible_rows(NAME, epoch=1)) == 5
        assert len(manager.read_visible_rows(NAME, epoch=4)) == 5
        assert len(manager.read_visible_rows(NAME, epoch=5)) == 8

    def test_scan_column_subset(self, manager):
        manager.insert(NAME, make_rows(5), epoch=1, direct_to_ros=True)
        batches = list(manager.scan(NAME, epoch=1, columns=["value"]))
        assert set(batches[0].columns) == {"value"}

    def test_container_pruning(self, manager):
        manager.insert(NAME, make_rows(10, month=1), epoch=1, direct_to_ros=True)
        manager.insert(NAME, make_rows(10, month=9), epoch=1, direct_to_ros=True)
        batches = list(manager.scan(NAME, epoch=1, prune={"month": (9, 9)}))
        assert len(batches) == 1
        assert batches[0].columns["month"][0] == 9

    def test_sorted_within_container(self, manager):
        rows = [{"month": 1, "cid": c, "value": 0.0} for c in (5, 1, 3)]
        manager.insert(NAME, rows, epoch=1, direct_to_ros=True)
        batch = next(manager.scan(NAME, epoch=1))
        assert batch.columns["cid"] == [1, 3, 5]


class TestDeletes:
    def test_delete_from_wos(self, manager):
        manager.insert(NAME, make_rows(5), epoch=1)
        deleted = manager.delete_where(
            NAME, lambda row: row["cid"] < 2, commit_epoch=2, snapshot_epoch=1
        )
        assert deleted == 2
        assert len(manager.read_visible_rows(NAME, epoch=2)) == 3
        # historical snapshot still sees them
        assert len(manager.read_visible_rows(NAME, epoch=1)) == 5

    def test_delete_from_ros(self, manager):
        manager.insert(NAME, make_rows(5), epoch=1, direct_to_ros=True)
        deleted = manager.delete_where(
            NAME, lambda row: row["cid"] == 4, commit_epoch=2, snapshot_epoch=1
        )
        assert deleted == 1
        assert len(manager.read_visible_rows(NAME, epoch=2)) == 4

    def test_delete_is_not_physical(self, manager):
        manager.insert(NAME, make_rows(5), epoch=1, direct_to_ros=True)
        manager.delete_where(NAME, lambda row: True, 2, 1)
        state = manager.storage(NAME)
        container = next(iter(state.containers.values()))
        assert container.row_count == 5  # rows still on disk

    def test_double_delete_not_counted(self, manager):
        manager.insert(NAME, make_rows(5), epoch=1, direct_to_ros=True)
        assert manager.delete_where(NAME, lambda r: r["cid"] == 1, 2, 1) == 1
        # at snapshot 2 the row is already deleted -> no new marker
        assert manager.delete_where(NAME, lambda r: r["cid"] == 1, 3, 2) == 0

    def test_persist_delete_vectors(self, manager):
        manager.insert(NAME, make_rows(5), epoch=1, direct_to_ros=True)
        manager.delete_where(NAME, lambda r: r["cid"] < 3, 2, 1)
        assert manager.persist_delete_vectors(NAME) == 1
        assert len(manager.read_visible_rows(NAME, epoch=2)) == 2
        state = manager.storage(NAME)
        assert not state.pending_ros_deletes

    def test_include_deleted_scan(self, manager):
        manager.insert(NAME, make_rows(5), epoch=1, direct_to_ros=True)
        manager.delete_where(NAME, lambda r: True, 2, 1)
        assert len(manager.read_visible_rows(NAME, 2, include_deleted=True)) == 5


class TestPartitionDrop:
    def test_drop_partition_removes_files(self, manager):
        manager.insert(NAME, make_rows(10, month=3), epoch=1, direct_to_ros=True)
        manager.insert(NAME, make_rows(10, month=4), epoch=1, direct_to_ros=True)
        reclaimed = manager.drop_partition(NAME, 3)
        assert reclaimed == 10
        assert manager.partition_keys(NAME) == [4]
        rows = manager.read_visible_rows(NAME, epoch=1)
        assert all(row["month"] == 4 for row in rows)

    def test_drop_partition_covers_wos(self, manager):
        manager.insert(NAME, make_rows(5, month=3), epoch=1)
        assert manager.drop_partition(NAME, 3) == 5
        assert manager.wos_row_count(NAME) == 0

    def test_drop_partition_keeps_wos_deletes_of_other_partitions(self, manager):
        # partition 3 sits *before* partition 4 in the WOS, so dropping
        # it shifts every surviving position: markers must move with
        # their rows, not be cleared and not stay at the old ordinals.
        manager.insert(NAME, make_rows(5, month=3), epoch=1)
        manager.insert(NAME, make_rows(5, month=4), epoch=1)
        deleted = manager.delete_where(
            NAME, lambda row: row["month"] == 4 and row["cid"] in (0, 2, 4), 2, 1
        )
        assert deleted == 3
        assert len(manager.read_visible_rows(NAME, epoch=2)) == 7

        assert manager.drop_partition(NAME, 3) == 5

        visible = manager.read_visible_rows(NAME, epoch=2)
        assert [(row["month"], row["cid"]) for row in visible] == [(4, 1), (4, 3)]
        assert len(manager.read_visible_rows(NAME, epoch=1)) == 5
        wos = manager.storage(NAME).wos
        assert [
            (row["cid"], delete_epoch)
            for _, row, _, delete_epoch in wos.history()
        ] == [(0, 2), (1, None), (2, 2), (3, None), (4, 2)]


class TestLocalSegments:
    def test_local_segments_split_containers(self, tmp_path, table):
        from repro.projections import HashSegmentation

        projection = super_projection(
            table, sort_order=["cid"], segmentation=HashSegmentation(("cid",))
        )
        manager = StorageManager(
            str(tmp_path / "n"), node_count=1, segments_per_node=3
        )
        manager.register_projection(projection, table)
        manager.insert(NAME, make_rows(300), epoch=1, direct_to_ros=True)
        segments = {
            container.meta.local_segment
            for container in manager.storage(NAME).containers.values()
        }
        assert segments == {0, 1, 2}


class TestSizes:
    def test_byte_accounting(self, manager):
        manager.insert(NAME, make_rows(100), epoch=1, direct_to_ros=True)
        assert 0 < manager.total_data_bytes(NAME) <= manager.total_bytes(NAME)
