"""Tests for the tuple mover: moveout, mergeout, strata and purging."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import types
from repro.columnar import blocks_to_rows
from repro.core.schema import ColumnDef, TableDefinition
from repro.execution import ColumnRef
from repro.projections import super_projection
from repro.storage import HistoryRun, StorageManager
from repro.storage.ros import ContainerImage
from repro.tuple_mover import CycleMemo, MergePolicy, TupleMover, plan_merges
from storage_helpers import delete_matching


@pytest.fixture
def table():
    return TableDefinition(
        "t",
        [ColumnDef("k", types.INTEGER), ColumnDef("v", types.VARCHAR)],
        primary_key=("k",),
    )


@pytest.fixture
def setup(tmp_path, table):
    projection = super_projection(table, sort_order=["k"])
    manager = StorageManager(str(tmp_path / "n0"), wos_capacity=100_000)
    manager.register_projection(projection, table)
    mover = TupleMover(manager, MergePolicy(base_size=512, multiplier=4, min_inputs=2))
    return manager, mover


NAME = "t_super"


def rows_of(values):
    return [{"k": value, "v": f"v{value % 3}"} for value in values]


class TestStrata:
    def test_stratum_boundaries(self):
        policy = MergePolicy(base_size=1024, multiplier=4)
        assert policy.stratum_of(0) == 0
        assert policy.stratum_of(1023) == 0
        assert policy.stratum_of(1024) == 1
        assert policy.stratum_of(4096) == 2
        assert policy.stratum_of(4095) == 1

    def test_stratum_count_is_logarithmic(self):
        policy = MergePolicy(base_size=1024, multiplier=4, max_container_bytes=1 << 40)
        assert policy.stratum_count() < 20

    def test_plan_merges_same_stratum_only(self):
        policy = MergePolicy(base_size=1024, multiplier=4, min_inputs=2)
        # two tiny + one huge: only the tiny pair merges
        merges = plan_merges([(1, 10), (2, 20), (3, 10**6)], policy)
        assert merges == [[1, 2]]

    def test_plan_merges_respects_max_inputs(self):
        policy = MergePolicy(base_size=1024, min_inputs=2, max_inputs=3)
        merges = plan_merges([(i, 10) for i in range(7)], policy)
        assert [len(group) for group in merges] == [3, 3]

    def test_no_merge_for_single_container(self):
        policy = MergePolicy()
        assert plan_merges([(1, 10)], policy) == []


class TestMoveout:
    def test_moveout_drains_wos(self, setup):
        manager, mover = setup
        manager.insert(NAME, rows_of(range(50)), epoch=1)
        assert manager.wos_row_count(NAME) == 50
        created = mover.moveout(NAME)
        assert len(created) == 1
        assert manager.wos_row_count(NAME) == 0
        assert len(blocks_to_rows(manager.scan(NAME, epoch=1))) == 50

    def test_moveout_preserves_epochs(self, setup):
        manager, mover = setup
        manager.insert(NAME, rows_of(range(10)), epoch=1)
        manager.insert(NAME, rows_of(range(100, 110)), epoch=2)
        mover.moveout(NAME)
        assert len(blocks_to_rows(manager.scan(NAME, epoch=1))) == 10
        assert len(blocks_to_rows(manager.scan(NAME, epoch=2))) == 20

    def test_moveout_translates_delete_vectors(self, setup):
        manager, mover = setup
        manager.insert(NAME, rows_of(range(10)), epoch=1)
        delete_matching(manager, NAME, lambda r: r["k"] < 3, commit_epoch=2, snapshot_epoch=1)
        mover.moveout(NAME)
        assert len(blocks_to_rows(manager.scan(NAME, epoch=2))) == 7
        assert len(blocks_to_rows(manager.scan(NAME, epoch=1))) == 10

    def test_moveout_empty_wos_noop(self, setup):
        manager, mover = setup
        assert mover.moveout(NAME) == []

    def test_moveout_output_is_sorted(self, setup):
        manager, mover = setup
        manager.insert(NAME, rows_of([5, 1, 9, 3]), epoch=1)
        mover.moveout(NAME)
        rows = blocks_to_rows(manager.scan(NAME, epoch=1))
        assert [row["k"] for row in rows] == [1, 3, 5, 9]


class TestMergeout:
    def test_merge_reduces_containers(self, setup):
        manager, mover = setup
        for batch in range(4):
            manager.insert(
                NAME, rows_of(range(batch * 10, batch * 10 + 10)),
                epoch=1, direct_to_ros=True,
            )
        assert manager.container_count(NAME) == 4
        result = mover.mergeout(NAME)
        assert result.merged_groups >= 1
        assert manager.container_count(NAME) < 4
        rows = blocks_to_rows(manager.scan(NAME, epoch=1))
        assert sorted(row["k"] for row in rows) == list(range(40))

    def test_merge_output_sorted(self, setup):
        manager, mover = setup
        manager.insert(NAME, rows_of([1, 5, 9]), epoch=1, direct_to_ros=True)
        manager.insert(NAME, rows_of([2, 6, 10]), epoch=1, direct_to_ros=True)
        mover.mergeout(NAME)
        state = manager.storage(NAME)
        container = next(iter(state.containers.values()))
        assert container.read_column("k") == [1, 2, 5, 6, 9, 10]

    def test_merge_carries_unpurged_deletes(self, setup):
        manager, mover = setup
        manager.insert(NAME, rows_of(range(10)), epoch=1, direct_to_ros=True)
        manager.insert(NAME, rows_of(range(10, 20)), epoch=1, direct_to_ros=True)
        delete_matching(manager, NAME, lambda r: r["k"] == 5, 2, 1)
        mover.mergeout(NAME, ahm=0)  # AHM before the delete: keep it
        assert len(blocks_to_rows(manager.scan(NAME, epoch=2))) == 19
        assert len(blocks_to_rows(manager.scan(NAME, epoch=1))) == 20

    def test_merge_purges_pre_ahm_deletes(self, setup):
        manager, mover = setup
        manager.insert(NAME, rows_of(range(10)), epoch=1, direct_to_ros=True)
        manager.insert(NAME, rows_of(range(10, 20)), epoch=1, direct_to_ros=True)
        delete_matching(manager, NAME, lambda r: r["k"] < 5, 2, 1)
        result = mover.mergeout(NAME, ahm=2)
        assert result.purged_rows == 5
        state = manager.storage(NAME)
        container = next(iter(state.containers.values()))
        assert container.row_count == 15

    def test_merge_respects_partition_boundaries(self, tmp_path):
        table = TableDefinition(
            "p",
            [ColumnDef("month", types.INTEGER), ColumnDef("k", types.INTEGER)],
            partition_by=ColumnRef("month"),
        )
        projection = super_projection(table, sort_order=["k"])
        manager = StorageManager(str(tmp_path / "n"))
        manager.register_projection(projection, table)
        mover = TupleMover(manager, MergePolicy(base_size=512, min_inputs=2))
        for _ in range(2):
            manager.insert(
                "p_super",
                [{"month": 1, "k": 1}, {"month": 2, "k": 2}],
                epoch=1,
                direct_to_ros=True,
            )
        assert manager.container_count("p_super") == 4
        mover.mergeout("p_super")
        # merged within partitions only -> exactly 2 containers remain
        assert manager.container_count("p_super") == 2
        keys = {
            c.meta.partition_key
            for c in manager.storage("p_super").containers.values()
        }
        assert keys == {1, 2}

    def test_read_once_write_once(self, setup):
        manager, mover = setup
        manager.insert(NAME, rows_of(range(10)), epoch=1, direct_to_ros=True)
        manager.insert(NAME, rows_of(range(10, 20)), epoch=1, direct_to_ros=True)
        mover.mergeout(NAME)
        assert mover.stats.rows_read == 20
        assert mover.stats.rows_written == 20

    def test_run_once_converges(self, setup):
        manager, mover = setup
        for batch in range(8):
            manager.insert(
                NAME, rows_of(range(batch * 5, batch * 5 + 5)),
                epoch=1, direct_to_ros=True,
            )
        mover.run_once()
        assert manager.container_count(NAME) <= 2
        rows = blocks_to_rows(manager.scan(NAME, epoch=1))
        assert sorted(row["k"] for row in rows) == list(range(40))


class TestTupleMoverProperties:
    @given(
        batches=st.lists(
            st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=20),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_no_tuples_lost_or_duplicated(self, tmp_path_factory, batches):
        table = TableDefinition(
            "h", [ColumnDef("k", types.INTEGER), ColumnDef("v", types.VARCHAR)]
        )
        projection = super_projection(table, sort_order=["k"])
        root = str(tmp_path_factory.mktemp("tm"))
        manager = StorageManager(root, wos_capacity=10)
        manager.register_projection(projection, table)
        mover = TupleMover(manager, MergePolicy(base_size=256, min_inputs=2))
        expected = []
        for epoch, batch in enumerate(batches, start=1):
            rows = rows_of(batch)
            expected.extend(batch)
            manager.insert("h_super", rows, epoch=epoch)
            mover.moveout("h_super")
            mover.mergeout("h_super")
        final = blocks_to_rows(manager.scan("h_super", epoch=len(batches)))
        assert sorted(row["k"] for row in final) == sorted(expected)


class TestCycleMemo:
    """Two nodes holding one copy each: the second takes the first's
    images only where its input is provably the same."""

    @pytest.fixture
    def nodes(self, tmp_path, table, monkeypatch):
        projection = super_projection(table, sort_order=["k"])
        movers = []
        for index in range(2):
            manager = StorageManager(str(tmp_path / f"n{index}"), wos_capacity=100_000)
            manager.register_projection(projection, table)
            movers.append(
                TupleMover(manager, MergePolicy(base_size=512, multiplier=4, min_inputs=2))
            )
        self.builds = 0
        build = ContainerImage.build.__func__

        def counted(cls, *args, **kwargs):
            self.builds += 1
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(ContainerImage, "build", classmethod(counted))
        return movers

    @staticmethod
    def run(values, epoch=1):
        return HistoryRun({"k": values, "v": [f"v{v % 3}" for v in values]}, [epoch] * len(values))

    @staticmethod
    def files(mover):
        state = mover.manager.storage(NAME)
        found = []
        for container_id, container in sorted(state.containers.items()):
            for name in sorted(container.meta.checksums):
                with open(f"{container.path}/{name}", "rb") as handle:
                    found.append(handle.read())
            found.append(sorted(state.deletes_for(container_id).items()))
        return found

    def moved_out(self, nodes, first, second, memo):
        nodes[0].manager.insert(NAME, first, 1)
        nodes[1].manager.insert(NAME, second, 1)
        built = []
        for mover in nodes:
            before = self.builds
            mover.moveout(NAME, memo)
            built.append(self.builds - before)
        return built

    def test_the_same_objects_publish_one_image(self, nodes):
        run = self.run(list(range(500, 0, -1)))
        assert self.moved_out(nodes, run, run, CycleMemo(buddies=1, others=1)) == [1, 0]
        assert self.files(nodes[0]) == self.files(nodes[1])

    @pytest.mark.parametrize("change", ["copies", "epochs", "markers"])
    def test_another_input_builds_its_own(self, nodes, change):
        run = self.run(list(range(500, 0, -1)))
        other = self.run(list(range(500, 0, -1)))  # equal values, other objects
        if change != "copies":
            other.columns = run.columns
        if change == "epochs":
            other.epochs = [1] * 499 + [0]
        memo = CycleMemo(buddies=1, others=1)
        nodes[0].manager.insert(NAME, run, 1)
        nodes[1].manager.insert(NAME, other, 1)
        if change == "markers":
            nodes[1].manager.storage(NAME).wos.mark_deleted(3, 1)
        before = self.builds
        for mover in nodes:
            mover.moveout(NAME, memo)
        assert self.builds - before == 2

    def test_a_merge_takes_the_image_of_the_same_inputs(self, nodes):
        for wave in range(2):
            run = self.run(list(range(wave * 300, wave * 300 + 300)))
            assert self.moved_out(nodes, run, run, CycleMemo(buddies=1, others=1)) == [1, 0]
        memo, built = CycleMemo(buddies=1, others=1), []
        for mover in nodes:
            before = self.builds
            assert mover.mergeout(NAME, 0, memo).merged_groups == 1
            built.append(self.builds - before)
        assert built == [1, 0]
        assert self.files(nodes[0]) == self.files(nodes[1])
        assert nodes[0].stats == nodes[1].stats

    @pytest.mark.parametrize("change", ["markers", "ahm", "no_takers"])
    def test_a_merge_of_other_inputs_builds_its_own(self, nodes, change):
        for wave in range(2):
            run = self.run(list(range(wave * 300, wave * 300 + 300)))
            self.moved_out(nodes, run, run, CycleMemo(buddies=1, others=1))
        if change == "markers":
            delete_matching(nodes[1].manager, NAME, lambda row: row["k"] == 7, 2, 1)
        memo = CycleMemo(buddies=int(change != "no_takers"), others=1)
        before = self.builds
        for index, mover in enumerate(nodes):
            mover.mergeout(NAME, index if change == "ahm" else 0, memo)
        assert self.builds - before == 2
