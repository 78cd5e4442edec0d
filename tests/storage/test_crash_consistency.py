"""Crash consistency: fault plans, atomic commit, scavenge, quarantine.

Every test arms a deterministic :class:`repro.faults.FaultPlan` at one
of the registered fault points and asserts the storage layer's
contract: a crash leaves either an ignorable ``.tmp`` orphan or a
complete, checksum-verified container — never a half-committed one
that serves wrong rows.
"""

import json
import os

import pytest

from repro import faults, types
from repro.columnar import blocks_to_rows
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import (
    CorruptContainerError,
    FaultPlanError,
    InjectedFaultError,
    StorageError,
)
from repro.execution import ColumnRef
from repro.faults import FaultPlan
from repro.projections import super_projection
from repro.storage import StorageManager
from repro.tuple_mover import TupleMover
from storage_helpers import delete_matching


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


def make_rows(n, start=0):
    return [
        {"month": 1, "cid": i, "value": float(i)} for i in range(start, start + n)
    ]


def fresh_manager(manager, table, projection):
    """A new StorageManager over the same root — the restarted process."""
    restarted = StorageManager(manager.root, wos_capacity=1000)
    restarted.register_projection(projection, table)
    return restarted


def visible_cids(manager, epoch=10):
    return sorted(
        row["cid"] for row in blocks_to_rows(manager.scan(NAME, epoch))
    )


NAME = "events_super"


class TestFaultPlan:
    def test_unknown_point_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault point"):
            FaultPlan().arm("no.such.point", "crash")

    def test_disallowed_action_rejected(self):
        # delivery points cannot crash, storage points cannot drop
        with pytest.raises(FaultPlanError, match="not supported"):
            FaultPlan().arm("membership.delivery", "crash")
        with pytest.raises(FaultPlanError, match="not supported"):
            FaultPlan().arm("ros.publish", "drop")
        # bitflip only makes sense on published (durable) files
        with pytest.raises(FaultPlanError, match="not supported"):
            FaultPlan().arm("ros.write.column", "bitflip")

    def test_inject_is_noop_without_plan(self):
        assert faults.active() is None
        assert faults.inject("ros.publish") is None

    def test_skip_and_count(self, manager):
        plan = FaultPlan().arm("ros.publish", "crash", skip=1)
        with plan:
            manager.insert(NAME, make_rows(5), epoch=1, direct_to_ros=True)
            with pytest.raises(InjectedFaultError):
                manager.insert(
                    NAME, make_rows(5, start=5), epoch=2, direct_to_ros=True
                )
        assert [f.point for f in plan.fired] == ["ros.publish"]
        # disarmed after count exhausted
        with plan:
            manager.insert(NAME, make_rows(5, start=10), epoch=3, direct_to_ros=True)
        assert len(plan.fired) == 1

    def test_same_seed_same_torn_offset(self, manager, table, projection):
        offsets = []
        for attempt in range(2):
            scratch = StorageManager(
                os.path.join(manager.root, f"scratch{attempt}"),
                wos_capacity=1000,
            )
            scratch.register_projection(projection, table)
            plan = FaultPlan(seed=42).arm("ros.write.meta", "torn")
            with plan:
                with pytest.raises(InjectedFaultError):
                    scratch.insert(
                        NAME, make_rows(20), epoch=1, direct_to_ros=True
                    )
            offsets.append(plan.fired[0].detail)
        assert offsets[0] == offsets[1]


class TestAtomicCommit:
    @pytest.mark.parametrize(
        "point", ["ros.write.column", "ros.write.meta", "ros.publish"]
    )
    def test_crash_before_publish_leaves_no_container(self, manager, point):
        with FaultPlan().arm(point, "crash"):
            with pytest.raises(InjectedFaultError):
                manager.insert(NAME, make_rows(10), epoch=1, direct_to_ros=True)
        directory = os.path.join(manager.root, NAME)
        published = [e for e in os.listdir(directory) if not e.endswith(".tmp")]
        assert published == []

    def test_torn_staged_write_never_published(self, manager):
        with FaultPlan(seed=3).arm("ros.write.meta", "torn"):
            with pytest.raises(InjectedFaultError):
                manager.insert(NAME, make_rows(10), epoch=1, direct_to_ros=True)
        directory = os.path.join(manager.root, NAME)
        assert all(e.endswith(".tmp") for e in os.listdir(directory))

    def test_scavenge_removes_tmp_orphans(self, manager, table, projection):
        with FaultPlan().arm("ros.publish", "crash"):
            with pytest.raises(InjectedFaultError):
                manager.insert(NAME, make_rows(10), epoch=1, direct_to_ros=True)
        restarted = fresh_manager(manager, table, projection)
        report = restarted.scavenge()
        assert len(report.removed_tmp) == 1
        assert report.containers_loaded == 0
        assert not report.clean()
        directory = os.path.join(manager.root, NAME)
        assert os.listdir(directory) == []

    def test_crash_after_publish_is_recovered_by_scavenge(
        self, manager, table, projection
    ):
        with FaultPlan().arm("ros.published", "crash"):
            with pytest.raises(InjectedFaultError):
                manager.insert(NAME, make_rows(10), epoch=1, direct_to_ros=True)
        restarted = fresh_manager(manager, table, projection)
        report = restarted.scavenge()
        assert report.containers_loaded == 1
        assert report.quarantined == []
        assert visible_cids(restarted) == list(range(10))

    def test_scavenge_is_idempotent(self, manager, table, projection):
        manager.insert(NAME, make_rows(10), epoch=1, direct_to_ros=True)
        restarted = fresh_manager(manager, table, projection)
        assert restarted.scavenge().containers_loaded == 1
        again = restarted.scavenge()
        assert again.clean()
        assert again.containers_loaded == 0


class TestCorruptionDetection:
    def corrupt_one_file(self, manager, suffix=".dat"):
        """Flip a byte in one published container file, bypassing CRC."""
        state = manager.storage(NAME)
        container = next(iter(state.containers.values()))
        target = os.path.join(container.path, f"cid{suffix}")
        with open(target, "r+b") as handle:
            original = handle.read(1)[0]
            handle.seek(0)
            handle.write(bytes([original ^ 0xFF]))
        return container

    def test_bitflip_detected_not_served(self, manager):
        from repro.storage import ROSContainer

        with FaultPlan(seed=5).arm("ros.published", "bitflip"):
            manager.insert(NAME, make_rows(50), epoch=1, direct_to_ros=True)
        (container,) = manager.storage(NAME).containers.values()
        # a fresh verified load of the flipped container must refuse it
        # outright (whichever file the seeded flip landed in) — silent
        # corruption is detected, never returned as rows.
        with pytest.raises(CorruptContainerError):
            ROSContainer.load(container.path)

    def test_verify_containers_reports_damage(self, manager):
        manager.insert(NAME, make_rows(20), epoch=1, direct_to_ros=True)
        assert manager.verify_containers(NAME) == []
        container = self.corrupt_one_file(manager)
        damaged = manager.verify_containers(NAME)
        assert len(damaged) == 1
        container_id, bad = damaged[0]
        assert container_id == container.container_id
        assert bad == ["cid.dat (crc mismatch)"]

    def test_scavenge_quarantines_corrupt_container(
        self, manager, table, projection
    ):
        manager.insert(NAME, make_rows(20), epoch=1, direct_to_ros=True)
        self.corrupt_one_file(manager)
        restarted = fresh_manager(manager, table, projection)
        report = restarted.scavenge()
        assert len(report.quarantined) == 1
        assert "crc mismatch" in report.quarantined[0].reason
        # the damaged container is out of service, not crashing reads
        assert visible_cids(restarted) == []
        assert os.path.isdir(
            os.path.join(restarted.root, NAME, "quarantine")
        )

    def test_scavenge_quarantines_missing_file(self, manager, table, projection):
        manager.insert(NAME, make_rows(20), epoch=1, direct_to_ros=True)
        state = manager.storage(NAME)
        container = next(iter(state.containers.values()))
        os.remove(os.path.join(container.path, "value.dat"))
        restarted = fresh_manager(manager, table, projection)
        report = restarted.scavenge()
        assert len(report.quarantined) == 1
        assert "value.dat (missing)" in report.quarantined[0].reason

    def test_tampered_meta_fails_self_checksum(self, manager, table, projection):
        manager.insert(NAME, make_rows(20), epoch=1, direct_to_ros=True)
        state = manager.storage(NAME)
        container = next(iter(state.containers.values()))
        meta_path = os.path.join(container.path, "meta.json")
        with open(meta_path) as handle:
            raw = json.load(handle)
        raw["row_count"] = 19  # lie about the row count
        with open(meta_path, "w") as handle:
            json.dump(raw, handle)
        restarted = fresh_manager(manager, table, projection)
        report = restarted.scavenge()
        assert len(report.quarantined) == 1
        assert "self-checksum" in report.quarantined[0].reason

    def test_quarantine_container_and_purge(self, manager):
        manager.insert(NAME, make_rows(20), epoch=1, direct_to_ros=True)
        state = manager.storage(NAME)
        (container_id,) = state.containers
        record = manager.quarantine_container(NAME, container_id, "test")
        assert state.containers == {}
        assert os.path.isdir(record.path)
        assert manager.purge_quarantine() == 1
        assert not os.path.exists(record.path)
        assert manager.quarantined == []


class TestMergeoutCrashRecovery:
    def test_duplicate_coverage_retired_on_scavenge(
        self, manager, table, projection
    ):
        mover = TupleMover(manager)
        for epoch in range(1, 5):
            manager.insert(
                NAME, make_rows(10, start=epoch * 10), epoch=epoch,
                direct_to_ros=True,
            )
        with FaultPlan().arm("mover.mergeout.retire", "crash"):
            with pytest.raises(InjectedFaultError):
                mover.mergeout(NAME)
        # crash left the merged container AND its inputs on disk
        directory = os.path.join(manager.root, NAME)
        on_disk = [e for e in os.listdir(directory) if e.startswith("ros_")]
        assert len(on_disk) == 5
        restarted = fresh_manager(manager, table, projection)
        report = restarted.scavenge()
        retired = {cid for _, cid in report.duplicates_retired}
        assert len(retired) == 4
        # no duplicate rows: exactly the original multiset survives
        assert visible_cids(restarted) == list(range(10, 50))

    def test_moveout_crash_loses_only_undrained_tail(
        self, manager, table, projection
    ):
        mover = TupleMover(manager)
        rows = [{"month": m, "cid": i, "value": 1.0} for m in (1, 2) for i in range(5)]
        manager.insert(NAME, rows, epoch=1)
        with FaultPlan().arm("mover.moveout.container", "crash"):
            with pytest.raises(InjectedFaultError):
                mover.moveout(NAME)
        restarted = fresh_manager(manager, table, projection)
        report = restarted.scavenge()
        assert report.containers_loaded == 1
        # half the WOS made it out; the lost tail is what the LGE/
        # buddy-replay recovery path re-copies at cluster level.
        assert len(visible_cids(restarted)) == 5


class TestDeleteVectorCrash:
    def seeded(self, manager):
        manager.insert(NAME, make_rows(20), epoch=1, direct_to_ros=True)
        delete_matching(
            manager, NAME, lambda row: row["cid"] < 5, commit_epoch=2, snapshot_epoch=1
        )

    def test_dv_publish_crash_leaves_no_vector(self, manager, table, projection):
        self.seeded(manager)
        with FaultPlan().arm("dv.publish", "crash"):
            with pytest.raises(InjectedFaultError):
                manager.persist_delete_vectors(NAME)
        restarted = fresh_manager(manager, table, projection)
        report = restarted.scavenge()
        assert report.removed_tmp  # the staged dv dir
        assert report.delete_vectors_loaded == 0
        # deletes were lost with the crash; rows are all visible again
        assert visible_cids(restarted) == list(range(20))

    def test_persisted_vectors_reattached_on_scavenge(
        self, manager, table, projection
    ):
        self.seeded(manager)
        manager.persist_delete_vectors(NAME)
        restarted = fresh_manager(manager, table, projection)
        report = restarted.scavenge()
        assert report.delete_vectors_loaded == 1
        assert visible_cids(restarted) == list(range(5, 20))

    def test_stale_vector_for_missing_container_removed(
        self, manager, table, projection
    ):
        self.seeded(manager)
        manager.persist_delete_vectors(NAME)
        state = manager.storage(NAME)
        (container_id,) = state.containers
        container = state.containers[container_id]
        import shutil

        shutil.rmtree(container.path)
        restarted = fresh_manager(manager, table, projection)
        report = restarted.scavenge()
        assert report.stale_delete_vectors == 1
        assert report.delete_vectors_loaded == 0


class TestAdoptContainer:
    def test_adopt_assigns_fresh_identity(self, manager, table, projection):
        manager.insert(NAME, make_rows(10), epoch=1, direct_to_ros=True)
        state = manager.storage(NAME)
        (source_id,) = state.containers
        source = state.containers[source_id]
        other = StorageManager(
            os.path.join(os.path.dirname(manager.root), "node1"),
            wos_capacity=1000,
        )
        other.register_projection(projection, table)
        other.insert(NAME, make_rows(3, start=100), epoch=1, direct_to_ros=True)
        new_id = other.adopt_container(NAME, source.path)
        assert new_id not in (source_id,)
        adopted = other.storage(NAME).containers[new_id]
        assert adopted.meta.container_id == new_id
        # the on-disk meta was rewritten, not just patched in memory
        with open(os.path.join(adopted.path, "meta.json")) as handle:
            assert json.load(handle)["container_id"] == new_id
        assert sorted(
            row["cid"] for row in blocks_to_rows(other.scan(NAME, 10))
        ) == list(range(10)) + [100, 101, 102]

    def test_adopt_rejects_wrong_projection(self, manager, table, tmp_path):
        other_projection = super_projection(
            TableDefinition("other", [ColumnDef("k", types.INTEGER)]),
            sort_order=["k"],
        )
        foreign = StorageManager(str(tmp_path / "foreign"), wos_capacity=1000)
        foreign.register_projection(
            other_projection, TableDefinition("other", [ColumnDef("k", types.INTEGER)])
        )
        foreign.insert("other_super", [{"k": 1}], epoch=1, direct_to_ros=True)
        source = next(
            iter(foreign.storage("other_super").containers.values())
        )
        with pytest.raises(StorageError, match="belongs to projection"):
            manager.adopt_container(NAME, source.path)

    def test_adopt_rejects_corrupt_source(self, manager):
        manager.insert(NAME, make_rows(10), epoch=1, direct_to_ros=True)
        state = manager.storage(NAME)
        (container_id,) = list(state.containers)
        source = state.containers[container_id]
        with open(os.path.join(source.path, "cid.dat"), "r+b") as handle:
            first = handle.read(1)[0]
            handle.seek(0)
            handle.write(bytes([first ^ 0xFF]))
        with pytest.raises(CorruptContainerError):
            manager.adopt_container(NAME, source.path)
