"""Tests for ROS containers, the WOS and delete vectors."""

import os

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import types
from repro.columnar import PlainVector
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import StorageError
from repro.projections import super_projection
from repro.storage import (
    EPOCH_COLUMN,
    DeleteVector,
    HistoryRun,
    ROSContainer,
    StorageManager,
    WriteOptimizedStore,
    combined_deletes,
)
from repro.storage.wos import SortedView, visible_mask
from storage_helpers import run_of


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
        ROSContainer.write(path, 1, projection, run_of(projection, rows, [7] * 100))
        loaded = ROSContainer.load(path)
        assert loaded.row_count == 100
        assert loaded.read_column("k") == [row["k"] for row in rows]
        assert loaded.read_column("v") == [row["v"] for row in rows]
        assert loaded.read_epochs() == [7] * 100

    def test_two_files_per_column(self, tmp_path, projection):
        path = str(tmp_path / "ros_1")
        container = ROSContainer.write(
            path, 1, projection, run_of(projection, make_rows(10), [1] * 10)
        )
        files = container.file_inventory()
        for column in ("k", "v", "_epoch"):
            assert f"{column}.dat" in files
            assert f"{column}.pidx" in files

    def test_unsorted_rows_rejected(self, tmp_path, projection):
        rows = [{"k": 2, "v": "a"}, {"k": 1, "v": "b"}]
        with pytest.raises(StorageError):
            ROSContainer.write(
                str(tmp_path / "r"), 1, projection, run_of(projection, rows, [1, 1])
            )

    def test_min_max_and_pruning(self, tmp_path, projection):
        rows = [{"k": i, "v": "x"} for i in range(100, 200)]
        container = ROSContainer.write(
            str(tmp_path / "r"), 1, projection, run_of(projection, rows, [1] * 100)
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
            run_of(projection, [{"k": 1, "v": "a"}], [1]),
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
            run_of(projection, rows, [1] * 50),
            column_groups=[["k", "v"]],
        )
        assert container.read_column("k") == [row["k"] for row in rows]
        assert container.read_column("v") == [row["v"] for row in rows]
        assert "_group0.dat" in container.file_inventory()
        # a grouped column is read like any other: cut at the
        # container's own blocks, PLAIN vectors, bounds from its values
        reader = container.column_reader("k")
        epochs = container.column_reader(EPOCH_COLUMN)
        assert [(b.start_position, b.row_count) for b in reader.blocks] == [
            (b.start_position, b.row_count) for b in epochs.blocks
        ]
        assert isinstance(reader.block_vector(0), PlainVector)
        assert container.column_min_max("k") == (
            min(row["k"] for row in rows), max(row["k"] for row in rows)
        )

    def test_grouped_mode_compression_penalty(self, tmp_path, projection):
        # The paper: hybrid row-column storage exacts a compression
        # penalty — the ungrouped container must be smaller.
        rows = [{"k": i, "v": "const"} for i in range(2000)]
        grouped = ROSContainer.write(
            str(tmp_path / "g"), 1, projection, run_of(projection, rows, [1] * 2000),
            column_groups=[["k", "v"]],
        )
        columnar = ROSContainer.write(
            str(tmp_path / "c"), 2, projection, run_of(projection, rows, [1] * 2000)
        )
        assert columnar.data_size_bytes() < grouped.data_size_bytes()

    @pytest.mark.parametrize("groups", [None, [["k", "v"]]], ids=["columns", "grouped"])
    def test_a_published_container_knows_its_size(self, tmp_path, projection, groups):
        """Publishing seeds ``size_bytes`` from the bytes it wrote: no
        directory walk for mergeout planning; a loaded container walks
        its directory, to the same figure."""
        container = ROSContainer.write(
            str(tmp_path / "r"), 1, projection, run_of(projection, make_rows(300), [1] * 300),
            column_groups=groups,
        )
        with mock.patch("repro.storage.ros.os.listdir", side_effect=AssertionError):
            seeded = container.size_bytes()
        assert seeded == ROSContainer.load(container.path).size_bytes() > 0

    def test_epoch_metadata(self, tmp_path, projection):
        rows = make_rows(4)
        container = ROSContainer.write(
            str(tmp_path / "r"), 1, projection, run_of(projection, rows, [3, 3, 5, 9])
        )
        assert container.meta.min_epoch == 3
        assert container.meta.max_epoch == 9


def wos_run(rows, epoch):
    """The run a commit would hand the WOS for ``rows`` at ``epoch``."""
    return HistoryRun.from_rows(["k", "v"], rows, [epoch] * len(rows))


def wos_visible(wos, epoch):
    """The buffered rows visible at ``epoch``, in buffer order."""
    mask = visible_mask(wos.run.epochs, wos.run.delete_epochs, epoch)
    return [row for row, seen in zip(wos.run.rows(), mask) if seen]


class TestWOS:
    def test_insert_and_drain(self):
        wos = WriteOptimizedStore(capacity=100)
        wos.insert(wos_run(make_rows(10), 4))
        assert wos.row_count == 10
        run = wos.drain()
        assert list(run.rows()) == make_rows(10) and run.epochs == [4] * 10
        assert run.delete_epochs == [None] * 10
        assert wos.row_count == 0 and list(wos.run.rows()) == []

    def test_the_wos_copies_what_it_is_handed(self):
        """A run's lists are shared (every copy of a family, every node
        of a replicated projection gets the same ones); the WOS appends
        to its own."""
        first, second = wos_run(make_rows(3), 1), wos_run(make_rows(2), 2)
        one, other = WriteOptimizedStore(), WriteOptimizedStore()
        for wos in (one, other):
            wos.insert(first)
            wos.insert(second)
            wos.mark_deleted(0, 3)
        assert len(first) == 3 and first.columns["k"] == [0, 1, 2]
        assert first.delete_epochs is None
        for wos in (one, other):
            assert wos.run.columns["k"] == [0, 1, 2, 0, 1]
            assert wos.run.epochs == [1, 1, 1, 2, 2]
        # and a drained run is the caller's: the WOS starts new lists
        drained = one.drain()
        one.insert(second)
        assert drained.columns["k"] == [0, 1, 2, 0, 1]
        assert one.run.columns["k"] == [0, 1]

    def test_overflow_detection(self):
        wos = WriteOptimizedStore(capacity=10)
        wos.insert(wos_run(make_rows(8), 1))
        assert wos.would_overflow(5)
        assert not wos.would_overflow(2)

    def test_visibility_by_epoch(self):
        wos = WriteOptimizedStore()
        wos.insert(wos_run(make_rows(3), 2))
        wos.insert(wos_run(make_rows(2), 5))
        assert len(wos_visible(wos, epoch=2)) == 3
        assert len(wos_visible(wos, epoch=5)) == 5
        assert len(wos_visible(wos, epoch=1)) == 0

    def test_visibility_with_deletes(self):
        wos = WriteOptimizedStore()
        wos.insert(wos_run(make_rows(3), 1))
        wos.mark_deleted(1, 3)
        assert len(wos_visible(wos, 2)) == 3  # delete not yet visible
        assert [row["k"] for row in wos_visible(wos, 3)] == [0, 2]
        # the deleted row stays in the history, marker attached
        assert [deleted for *_, deleted in wos.run.records()] == [None, 3, None]

    def test_keep_moves_each_row_with_its_marker(self):
        wos = WriteOptimizedStore()
        wos.insert(wos_run(make_rows(5), 1))
        wos.mark_deleted(3, 2)
        assert wos.keep([1, 3, 4]) == 2
        assert [(row["k"], deleted) for row, _, deleted in wos.run.records()] == [
            (1, None), (3, 2), (4, None)
        ]

    def test_truncate_after_epoch(self):
        wos = WriteOptimizedStore()
        wos.insert(wos_run(make_rows(3), 2))
        wos.insert(wos_run(make_rows(2), 7))
        assert wos.truncate_after_epoch(2) == 2
        assert wos.row_count == 3


#: One step of a WOS history: (operation, small integers it reads).
WOS_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("insert", "insert", "mark", "mark", "scan", "scan", "scan",
             "drain", "keep", "truncate")
        ),
        st.integers(0, 40),
        st.integers(0, 40),
    ),
    max_size=25,
)


VIEW_TABLE = TableDefinition(
    "t",
    [
        ColumnDef("k", types.INTEGER),
        ColumnDef("g", types.INTEGER),
        ColumnDef("s", types.VARCHAR),
        ColumnDef("v", types.FLOAT),
    ],
)


def view_manager(root):
    """A manager holding ``t_super`` sorted (g, s) — both collide often,
    so only a *stable* sort reproduces the definition's order."""
    manager = StorageManager(str(root))
    projection = super_projection(VIEW_TABLE, sort_order=["g", "s"])
    manager.register_projection(projection, VIEW_TABLE)
    return manager, projection.name, manager.storage(projection.name)


def view_rows(first, count, x=0, y=0):
    return [
        {"k": first + i, "g": (x + i) % 3, "s": "abc"[(y + i) % 3],
         "v": None if (x + i) % 5 == 0 else float(i)}
        for i in range(count)
    ]


class TestSortedView:
    """Scans read the WOS through a sorted columnar view built once per
    mutation.  Whatever the history, a scan hands out what the
    definition does — visible at the epoch, stably sorted by the
    projection's key, pivoted, cut into batches — and a scan that
    follows a scan sorts nothing."""

    BATCH_ROWS = 7

    @staticmethod
    def expected(state, epoch, names, batch_rows):
        rows = state.projection.sorted_rows(wos_visible(state.wos, epoch))
        return [
            {name: [row[name] for row in rows[start : start + batch_rows]] for name in names}
            for start in range(0, len(rows), batch_rows)
        ]

    @settings(max_examples=120, deadline=None)
    @given(WOS_STEPS)
    def test_every_scan_equals_the_definition(self, tmp_path_factory, steps):
        manager, name, state = view_manager(tmp_path_factory.mktemp("view"))
        wos, epoch, serial = state.wos, 0, 0
        with mock.patch("repro.storage.manager.BLOCK_ROWS", self.BATCH_ROWS):
            for step, x, y in steps:
                if step == "insert":
                    epoch += 1
                    rows = view_rows(serial, x % 12, x, y)
                    serial += len(rows)
                    manager.insert(name, rows, epoch)
                elif step == "mark" and wos.row_count:
                    position = x % wos.row_count
                    if wos.run.delete_epochs[position] is None:
                        epoch += 1
                        wos.mark_deleted(position, epoch)
                elif step == "drain" and x % 4 == 0:
                    wos.drain()
                elif step == "keep":
                    wos.keep(
                        [i for i, k in enumerate(wos.run.columns.get("k", ())) if k % 7 != x % 7]
                    )
                elif step == "truncate":
                    wos.truncate_after_epoch(max(epoch - x % 3, 0))
                elif step == "scan":
                    at = max(epoch + 1 - x % 5, 0)  # mostly recent snapshots
                    names = ["k", "g", "s", "v"][: 1 + y % 4]
                    batches = list(manager._scan_wos(state, at, names, ("g", "s")))
                    assert [
                        {n: list(batch.columns[n]) for n in names}
                        for batch in batches
                    ] == self.expected(state, at, names, self.BATCH_ROWS)
                    for batch in batches:
                        assert batch.row_count == len(batch.columns[names[0]])
                        assert batch.sorted_by == ("g", "s")
                        for column in batch.columns.values():
                            assert isinstance(column, PlainVector)
                            assert column.null_count == list(column).count(None)

    def test_a_second_scan_of_an_unmutated_wos_rekeys_nothing(self, tmp_path):
        manager, name, state = view_manager(tmp_path)
        manager.insert(name, view_rows(0, 50), 1)
        built = []
        original = SortedView.__init__

        def counting(self, run, sort_order):
            built.append(len(run))
            original(self, run, sort_order)

        with mock.patch.object(SortedView, "__init__", counting):
            first = list(manager.scan(name, 1))
            assert built == [50]
            second = list(manager.scan(name, 1, columns=["k"]))
            third = list(manager.scan(name, 0))
            assert built == [50]  # one sort per mutation, not per scan
            assert [b.row_count for b in first + second + third] == [50, 50]
            # every mutation drops the view; the next scan sorts again
            for mutate in (
                lambda wos: wos.insert(run_of(state.projection, view_rows(50, 1), [2])),
                lambda wos: wos.mark_deleted(0, 3),
                lambda wos: wos.keep([i for i in range(wos.row_count) if i != 7]),
                lambda wos: wos.truncate_after_epoch(2),
                lambda wos: wos.drain(),
            ):
                mutate(state.wos)
                rows = state.wos.row_count
                del built[:]
                list(manager.scan(name, 5))
                list(manager.scan(name, 5))
                assert built == ([rows] if rows else [])


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
