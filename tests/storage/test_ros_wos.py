"""Tests for ROS containers, the WOS and delete vectors."""

import os

import pytest

from repro import types
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import StorageError
from repro.projections import super_projection
from repro.storage import (
    DeleteVector,
    ROSContainer,
    WriteOptimizedStore,
    combined_deletes,
)


@pytest.fixture
def table():
    return TableDefinition(
        "t",
        [
            ColumnDef("k", types.INTEGER),
            ColumnDef("v", types.VARCHAR),
        ],
    )


@pytest.fixture
def projection(table):
    return super_projection(table, sort_order=["k"])


def make_rows(n):
    return [{"k": i, "v": f"row{i % 5}"} for i in range(n)]


class TestROSContainer:
    def test_write_load_roundtrip(self, tmp_path, projection):
        rows = make_rows(100)
        path = str(tmp_path / "ros_1")
        ROSContainer.write(path, 1, projection, rows, [7] * 100)
        loaded = ROSContainer.load(path)
        assert loaded.row_count == 100
        assert loaded.read_column("k") == [row["k"] for row in rows]
        assert loaded.read_column("v") == [row["v"] for row in rows]
        assert loaded.read_epochs() == [7] * 100

    def test_two_files_per_column(self, tmp_path, projection):
        path = str(tmp_path / "ros_1")
        container = ROSContainer.write(path, 1, projection, make_rows(10), [1] * 10)
        files = container.file_inventory()
        for column in ("k", "v", "_epoch"):
            assert f"{column}.dat" in files
            assert f"{column}.pidx" in files

    def test_unsorted_rows_rejected(self, tmp_path, projection):
        rows = [{"k": 2, "v": "a"}, {"k": 1, "v": "b"}]
        with pytest.raises(StorageError):
            ROSContainer.write(str(tmp_path / "r"), 1, projection, rows, [1, 1])

    def test_min_max_and_pruning(self, tmp_path, projection):
        rows = [{"k": i, "v": "x"} for i in range(100, 200)]
        container = ROSContainer.write(
            str(tmp_path / "r"), 1, projection, rows, [1] * 100
        )
        assert container.column_min_max("k") == (100, 199)
        assert container.may_contain("k", 150, 160)
        assert not container.may_contain("k", 0, 99)
        assert not container.may_contain("k", 200, None)

    def test_partition_key_roundtrip(self, tmp_path, projection):
        container = ROSContainer.write(
            str(tmp_path / "r"),
            1,
            projection,
            [{"k": 1, "v": "a"}],
            [1],
            partition_key=(2012, 3),
            local_segment=2,
        )
        loaded = ROSContainer.load(container.path)
        assert loaded.meta.partition_key == (2012, 3)
        assert loaded.meta.local_segment == 2

    def test_grouped_columns_mode(self, tmp_path, projection):
        rows = make_rows(50)
        container = ROSContainer.write(
            str(tmp_path / "r"),
            1,
            projection,
            rows,
            [1] * 50,
            column_groups=[["k", "v"]],
        )
        assert container.read_column("k") == [row["k"] for row in rows]
        assert container.read_column("v") == [row["v"] for row in rows]
        assert "_group0.dat" in container.file_inventory()
        with pytest.raises(StorageError):
            container.column_reader("k")

    def test_grouped_mode_compression_penalty(self, tmp_path, projection):
        # The paper: hybrid row-column storage exacts a compression
        # penalty — the ungrouped container must be smaller.
        rows = [{"k": i, "v": "const"} for i in range(2000)]
        grouped = ROSContainer.write(
            str(tmp_path / "g"), 1, projection, rows, [1] * 2000,
            column_groups=[["k", "v"]],
        )
        columnar = ROSContainer.write(
            str(tmp_path / "c"), 2, projection, rows, [1] * 2000
        )
        assert columnar.data_size_bytes() < grouped.data_size_bytes()

    def test_epoch_metadata(self, tmp_path, projection):
        rows = make_rows(4)
        container = ROSContainer.write(
            str(tmp_path / "r"), 1, projection, rows, [3, 3, 5, 9]
        )
        assert container.meta.min_epoch == 3
        assert container.meta.max_epoch == 9


class TestWOS:
    def test_insert_and_drain(self):
        wos = WriteOptimizedStore(capacity=100)
        wos.insert(make_rows(10), epoch=4)
        assert wos.row_count == 10
        rows, epochs, delete_epochs = wos.drain()
        assert len(rows) == 10 and epochs == [4] * 10
        assert delete_epochs == [None] * 10
        assert wos.row_count == 0

    def test_overflow_detection(self):
        wos = WriteOptimizedStore(capacity=10)
        wos.insert(make_rows(8), epoch=1)
        assert wos.would_overflow(5)
        assert not wos.would_overflow(2)

    def test_visibility_by_epoch(self):
        wos = WriteOptimizedStore()
        wos.insert(make_rows(3), epoch=2)
        wos.insert(make_rows(2), epoch=5)
        assert len(list(wos.visible(epoch=2))) == 3
        assert len(list(wos.visible(epoch=5))) == 5
        assert len(list(wos.visible(epoch=1))) == 0

    def test_visibility_with_deletes(self):
        wos = WriteOptimizedStore()
        wos.insert(make_rows(3), epoch=1)
        wos.delete_epochs[1] = 3
        assert len(list(wos.visible(2))) == 3  # delete not yet visible
        assert len(list(wos.visible(3))) == 2
        # the deleted row stays in the history, marker attached
        assert [deleted for *_, deleted in wos.history()] == [None, 3, None]

    def test_truncate_after_epoch(self):
        wos = WriteOptimizedStore()
        wos.insert(make_rows(3), epoch=2)
        wos.insert(make_rows(2), epoch=7)
        assert wos.truncate_after_epoch(2) == 2
        assert wos.row_count == 3


class TestDeleteVector:
    def test_add_and_dict(self):
        vector = DeleteVector(target_container=3)
        vector.add(10, 5)
        vector.add(2, 6)
        assert vector.as_dict() == {10: 5, 2: 6}
        vector.sort()
        assert vector.positions == [2, 10]

    def test_persistence_roundtrip(self, tmp_path):
        vector = DeleteVector(7, [5, 1, 9], [4, 4, 6])
        vector.write(str(tmp_path / "dv"))
        loaded = DeleteVector.load(str(tmp_path / "dv"))
        assert loaded.target_container == 7
        assert loaded.as_dict() == {1: 4, 5: 4, 9: 6}

    def test_wos_target_roundtrip(self, tmp_path):
        vector = DeleteVector(None, [0], [2])
        vector.write(str(tmp_path / "dv"))
        assert DeleteVector.load(str(tmp_path / "dv")).target_container is None

    def test_merge(self):
        a = DeleteVector(1, [1, 3], [2, 2])
        b = DeleteVector(1, [2], [5])
        merged = a.merged_with(b)
        assert merged.positions == [1, 2, 3]

    def test_combined_earliest_epoch_wins(self):
        a = DeleteVector(1, [7], [9])
        b = DeleteVector(1, [7], [4])
        assert combined_deletes([a, b]) == {7: 4}

    def test_compressed_on_disk(self, tmp_path):
        vector = DeleteVector(1, list(range(10000)), [3] * 10000)
        vector.write(str(tmp_path / "dv"))
        size = sum(
            os.path.getsize(os.path.join(str(tmp_path / "dv"), f))
            for f in os.listdir(str(tmp_path / "dv"))
        )
        assert size < 2000  # 10k consecutive positions collapse
