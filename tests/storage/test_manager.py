"""Tests for the per-node storage manager."""

from collections import Counter

import pytest

from repro import types
from repro.columnar import blocks_to_rows
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import UnknownObjectError
from repro.execution import ColumnRef
from repro.projections import super_projection
from repro.storage import StorageManager
from storage_helpers import columns_of, delete_matching


@pytest.fixture
def table():
    return TableDefinition(
        "events",
        [
            ColumnDef("month", types.INTEGER),
            ColumnDef("cid", types.INTEGER),
            ColumnDef("value", types.FLOAT),
        ],
        partition_by=ColumnRef("month"),
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
        rows = blocks_to_rows(manager.scan(NAME, epoch=2))
        assert len(rows) == 8

    def test_scan_respects_epoch(self, manager):
        manager.insert(NAME, make_rows(5), epoch=1, direct_to_ros=True)
        manager.insert(NAME, make_rows(3, month=2), epoch=5, direct_to_ros=True)
        assert len(blocks_to_rows(manager.scan(NAME, epoch=1))) == 5
        assert len(blocks_to_rows(manager.scan(NAME, epoch=4))) == 5
        assert len(blocks_to_rows(manager.scan(NAME, epoch=5))) == 8

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
        assert list(batch.columns["cid"]) == [1, 3, 5]


class TestDeletes:
    def test_delete_from_wos(self, manager):
        manager.insert(NAME, make_rows(5), epoch=1)
        deleted = delete_matching(
            manager, NAME, lambda row: row["cid"] < 2, commit_epoch=2, snapshot_epoch=1
        )
        assert deleted == 2
        assert len(blocks_to_rows(manager.scan(NAME, epoch=2))) == 3
        # historical snapshot still sees them
        assert len(blocks_to_rows(manager.scan(NAME, epoch=1))) == 5

    def test_delete_from_ros(self, manager):
        manager.insert(NAME, make_rows(5), epoch=1, direct_to_ros=True)
        deleted = delete_matching(
            manager, NAME, lambda row: row["cid"] == 4, commit_epoch=2, snapshot_epoch=1
        )
        assert deleted == 1
        assert len(blocks_to_rows(manager.scan(NAME, epoch=2))) == 4

    def test_delete_is_not_physical(self, manager):
        manager.insert(NAME, make_rows(5), epoch=1, direct_to_ros=True)
        delete_matching(manager, NAME, lambda row: True, 2, 1)
        state = manager.storage(NAME)
        container = next(iter(state.containers.values()))
        assert container.row_count == 5  # rows still on disk

    def test_double_delete_not_counted(self, manager):
        manager.insert(NAME, make_rows(5), epoch=1, direct_to_ros=True)
        assert delete_matching(manager, NAME, lambda r: r["cid"] == 1, 2, 1) == 1
        # at snapshot 2 the row is already deleted -> no new marker
        assert delete_matching(manager, NAME, lambda r: r["cid"] == 1, 3, 2) == 0

    def test_persist_delete_vectors(self, manager):
        manager.insert(NAME, make_rows(5), epoch=1, direct_to_ros=True)
        delete_matching(manager, NAME, lambda r: r["cid"] < 3, 2, 1)
        assert manager.persist_delete_vectors(NAME) == 1
        assert len(blocks_to_rows(manager.scan(NAME, epoch=2))) == 2
        state = manager.storage(NAME)
        assert not state.pending_ros_deletes

    def test_deleted_rows_stay_in_the_history(self, manager):
        manager.insert(NAME, make_rows(5), epoch=1, direct_to_ros=True)
        delete_matching(manager, NAME, lambda r: True, 2, 1)
        assert blocks_to_rows(manager.scan(NAME, 2)) == []
        # recovery copies deleted-but-unpurged rows (section 5.2)
        assert [
            (insert_epoch, delete_epoch)
            for _, insert_epoch, delete_epoch in manager.history(NAME).records()
        ] == [(1, 2)] * 5


def homes(manager, name):
    """``(home, history records)`` in the order a by-value delete walks
    a copy: the WOS, then its containers by ascending id."""
    state = manager.storage(name)
    return [("wos", state.wos.run.records())] + [
        (container_id, manager.container_run(name, container_id).records())
        for container_id in sorted(state.containers)
    ]


def markers(manager, name=NAME):
    """``(home, position) -> delete epoch`` of every delete marker the
    copy carries; ``home`` is "wos" or a container id."""
    return {
        (home, position): delete_epoch
        for home, records in homes(manager, name)
        for position, (_, _, delete_epoch) in enumerate(records)
        if delete_epoch is not None
    }


def repr_multiset_marks(manager, victims, snapshot_epoch, name=NAME):
    """The reference by-value matcher (the ``multiset_predicate`` this
    replaced): rows keyed by ``repr`` of the copy's columns the victims
    carry, one budget, WOS first, then containers by ascending id,
    positions ascending, over *every* row — no pruning, no pre-filter."""
    columns = manager.storage(name).projection.column_names
    names = [n for n in columns if n in victims[0]]
    budget = Counter(tuple(repr(v[n]) for n in names) for v in victims)
    marks = []
    for home, records in homes(manager, name):
        for position, (row, insert_epoch, delete_epoch) in enumerate(records):
            if insert_epoch > snapshot_epoch:
                continue
            if delete_epoch is not None and delete_epoch <= snapshot_epoch:
                continue
            key = tuple(repr(row[n]) for n in names)
            if budget[key] > 0:
                budget[key] -= 1
                marks.append((home, position))
    return marks


def delete_like_the_reference(manager, victims, commit_epoch, name=NAME):
    """Run ``delete_where`` and hold it to the reference matcher: same
    rows marked, count returned, nothing else touched.  Returns the
    marked ``(home, position)`` list."""
    before = markers(manager, name)
    expected = repr_multiset_marks(manager, victims, commit_epoch - 1, name)
    count = manager.delete_where(
        name, columns_of(victims), commit_epoch, commit_epoch - 1
    )
    after = markers(manager, name)
    assert {key: after[key] for key in after.keys() - before.keys()} == dict.fromkeys(
        expected, commit_epoch
    )
    assert all(after[key] == before[key] for key in before)
    assert count == len(expected)
    return expected


NAN = float("nan")


class TestByValueDeleteIsTheReprMultiset:
    def row(self, cid, value, month=1):
        return {"month": month, "cid": cid, "value": value}

    def load(self, manager, ros_rows, wos_rows=()):
        """One container (sorted by the caller's order of ``cid``) and
        then the WOS, both at epoch 1."""
        if ros_rows:
            manager.insert(NAME, list(ros_rows), epoch=1, direct_to_ros=True)
        if wos_rows:
            manager.insert(NAME, list(wos_rows), epoch=1)

    def test_nan_victim_finds_its_nan_row_and_prunes_nothing_by_it(self, manager):
        row = self.row
        # the first container's own (min, max) is (100.0, 100.0): a
        # bound taken through the 2.5 victim alone would skip it
        self.load(manager, [row(10, 100.0), row(11, NAN)])
        self.load(
            manager,
            [row(0, 0.5), row(1, NAN), row(2, 2.5), row(3, NAN)],
            [row(4, NAN), row(5, 5.5)],
        )
        # a NaN that is not the stored object: no identity, no equality
        other = float("nan")
        victims = [row(2, 2.5), row(1, other), row(4, other), row(11, other)]
        marked = delete_like_the_reference(manager, victims, 2)
        assert len(marked) == 4
        assert [r["cid"] for r in blocks_to_rows(manager.scan(NAME, 2))] == [10, 0, 3, 5]
        # NaN matches NaN only: a 3.0 victim does not take row 3
        assert delete_like_the_reference(manager, [row(3, 3.0)], 3) == []

    def test_negative_zero_is_not_zero(self, manager):
        row = self.row
        self.load(manager, [row(1, -0.0), row(2, 7.0)], [row(1, 0.0), row(1, -0.0)])
        (container_id,) = manager.storage(NAME).containers
        # -0.0 == 0.0 and both sit inside the victims' (min, max)
        assert delete_like_the_reference(manager, [row(1, 0.0)] * 2, 2) == [("wos", 0)]
        assert delete_like_the_reference(manager, [row(1, -0.0)] * 2, 3) == [
            ("wos", 1), (container_id, 0),
        ]

    def test_one_is_not_one_point_zero_is_not_true(self, manager):
        row = self.row
        # the WOS keeps Python values as given; the container's FLOAT
        # column holds 1.0
        self.load(manager, [row(7, 1.0)], [row(7, 1), row(7, 1.0), row(7, True)])
        (container_id,) = manager.storage(NAME).containers
        assert delete_like_the_reference(manager, [row(7, True)], 2) == [("wos", 2)]
        assert delete_like_the_reference(manager, [row(7, 1)], 3) == [("wos", 0)]
        # equal to everything left by ==, and inside every (min, max)
        # bound, but not by repr: nothing to take
        assert delete_like_the_reference(manager, [row(7, 1), row(7, True)], 4) == []
        assert delete_like_the_reference(manager, [row(7, 1.0)] * 2, 5) == [
            ("wos", 1), (container_id, 0),
        ]

    def test_null_in_the_leading_sort_column(self, manager):
        row = self.row
        self.load(
            manager,
            [row(None, 1.0), row(None, 2.0), row(3, 3.0)],
            [row(None, 1.0), row(4, None)],
        )
        (container_id,) = manager.storage(NAME).containers
        victims = [row(None, 2.0), row(None, 1.0), row(4, None)]
        assert delete_like_the_reference(manager, victims, 2) == [
            ("wos", 0), ("wos", 1), (container_id, 1),
        ]
        assert delete_like_the_reference(manager, [row(None, 1.0)], 3) == [
            (container_id, 0)
        ]

    def test_two_of_three_identical_rows(self, manager):
        row = self.row
        self.load(manager, [row(5, 1.5)] * 3 + [row(6, 1.5)])
        (container_id,) = manager.storage(NAME).containers
        assert delete_like_the_reference(manager, [row(5, 1.5)] * 2, 2) == [
            (container_id, 0), (container_id, 1),
        ]
        # the budget is per call: one more call, one more row, then none
        assert delete_like_the_reference(manager, [row(5, 1.5)] * 2, 3) == [
            (container_id, 2)
        ]
        assert manager.delete_where(NAME, columns_of([row(5, 1.5)]), 4, 3) == 0

    def test_victim_deleted_at_the_snapshot_is_not_marked_again(self, manager):
        row = self.row
        self.load(manager, [row(1, 1.0), row(2, 2.0)], [row(3, 3.0)])
        victims = [row(1, 1.0), row(3, 3.0)]
        assert manager.delete_where(NAME, columns_of(victims), 2, 1) == 2
        again = columns_of(victims + [row(2, 2.0)])
        assert manager.delete_where(NAME, again, 3, 2) == 1
        assert sorted(markers(manager).values()) == [2, 2, 3]
        # ... but a snapshot before the first delete still sees them
        assert repr_multiset_marks(manager, victims, 1) != []

    def test_victims_spread_over_the_wos_and_two_containers(self, manager):
        row = self.row
        self.load(manager, [row(c, float(c)) for c in range(0, 40, 2)])
        self.load(
            manager,
            [row(c, float(c)) for c in range(1, 40, 2)],
            [row(c, float(c)) for c in (100, 7, 8)],
        )
        first, second = sorted(manager.storage(NAME).containers)
        victims = [row(c, float(c)) for c in (8, 31, 100, 6, 7, 7, 999)]
        assert delete_like_the_reference(manager, victims, 2) == [
            # the WOS took the only 8 and one of the two 7s
            ("wos", 0), ("wos", 1), ("wos", 2),
            (first, 3), (second, 3), (second, 15),
        ]

    def test_no_victims_marks_nothing(self, manager):
        self.load(manager, [self.row(1, 1.0)])
        assert manager.delete_where(NAME, {}, 2, 1) == 0
        assert markers(manager) == {}

    def test_prejoin_and_narrow_copies_match_on_the_columns_they_share(
        self, tmp_path, table
    ):
        from repro.projections import (
            PrejoinSpec,
            ProjectionColumn,
            ProjectionDefinition,
            Replicated,
        )

        prejoin = ProjectionDefinition(
            "events_by_customer",
            "events",
            [
                ProjectionColumn("cid", types.INTEGER),
                ProjectionColumn("month", types.INTEGER),
                ProjectionColumn("value", types.FLOAT),
                ProjectionColumn("cust_name", types.VARCHAR),
            ],
            sort_order=["cust_name", "cid"],
            segmentation=Replicated(),
            prejoin=PrejoinSpec("customers", "cid", "cid", {"name": "cust_name"}),
        )
        narrow = ProjectionDefinition(
            "events_narrow",
            "events",
            [ProjectionColumn("cid", types.INTEGER)],
            sort_order=["cid"],
            segmentation=Replicated(),
        )
        table = TableDefinition("events", table.columns)  # unpartitioned
        manager = StorageManager(str(tmp_path / "copies"), wos_capacity=1000)
        manager.register_projection(prejoin, table)
        manager.register_projection(narrow, table)
        table_rows = [self.row(c % 4, float(c)) for c in range(12)]
        manager.insert(
            prejoin.name,
            [dict(r, cust_name=f"c{r['cid']}") for r in table_rows],
            epoch=1, direct_to_ros=True,
        )
        manager.insert(
            narrow.name, [{"cid": r["cid"]} for r in table_rows[:8]], 1,
            direct_to_ros=True,
        )
        manager.insert(narrow.name, [{"cid": r["cid"]} for r in table_rows[8:]], 1)
        # victims are rows of the anchor table: no carried column, and
        # columns the narrow copy does not store
        victims = [self.row(2, 6.0), self.row(2, 10.0), self.row(3, 3.0)]

        marked = delete_like_the_reference(manager, victims, 2, prejoin.name)
        assert len(marked) == 3
        assert sorted(
            r["value"] for r in blocks_to_rows(manager.scan(prejoin.name, 2))
        ) == [0.0, 1.0, 2.0, 4.0, 5.0, 7.0, 8.0, 9.0, 11.0]
        # the narrow copy cannot tell its cid=2 rows apart: the first
        # two in walk order take the markers, as at every replay
        marked = delete_like_the_reference(manager, victims, 2, narrow.name)
        (container_id,) = manager.storage(narrow.name).containers
        assert marked == [("wos", 2), ("wos", 3), (container_id, 4)]
        assert sorted(
            r["cid"] for r in blocks_to_rows(manager.scan(narrow.name, 2))
        ) == [0, 0, 0, 1, 1, 1, 2, 3, 3]


class TestPartitionDrop:
    def test_drop_partition_removes_files(self, manager):
        manager.insert(NAME, make_rows(10, month=3), epoch=1, direct_to_ros=True)
        manager.insert(NAME, make_rows(10, month=4), epoch=1, direct_to_ros=True)
        reclaimed = manager.drop_partition(NAME, 3)
        assert reclaimed == 10
        assert manager.partition_keys(NAME) == [4]
        rows = blocks_to_rows(manager.scan(NAME, epoch=1))
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
        deleted = delete_matching(
            manager, NAME, lambda row: row["month"] == 4 and row["cid"] in (0, 2, 4), 2, 1
        )
        assert deleted == 3
        assert len(blocks_to_rows(manager.scan(NAME, epoch=2))) == 7

        assert manager.drop_partition(NAME, 3) == 5

        visible = blocks_to_rows(manager.scan(NAME, epoch=2))
        assert [(row["month"], row["cid"]) for row in visible] == [(4, 1), (4, 3)]
        assert len(blocks_to_rows(manager.scan(NAME, epoch=1))) == 5
        wos = manager.storage(NAME).wos
        assert [
            (row["cid"], delete_epoch)
            for row, _, delete_epoch in wos.run.records()
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
