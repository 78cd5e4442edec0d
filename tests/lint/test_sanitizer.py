"""Fault-injection tests for the runtime invariant sanitizer.

Each test breaks one physical invariant on purpose — corrupted
position index, double delete, lossy moveout, regressed epoch marks —
and asserts the sanitizer raises :class:`InvariantViolation` with a
message that names the broken invariant.  The repo-root ``conftest.py``
enables the sanitizer for every test, so these tests also prove the
whole-suite wiring works.
"""

import os

import pytest

from repro import types
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import InvariantViolation
from repro.lint import sanitizer
from repro.projections import super_projection
from repro.storage import DeleteVector, ROSContainer, StorageManager
from repro.storage.column_file import read_position_index
from repro.storage.serde import write_uvarint
from repro.tuple_mover import TupleMover
from repro.txn import EpochManager
from storage_helpers import run_of

pytestmark = pytest.mark.lint


@pytest.fixture
def table():
    return TableDefinition(
        "t",
        [ColumnDef("k", types.INTEGER), ColumnDef("v", types.VARCHAR)],
    )


@pytest.fixture
def projection(table):
    return super_projection(table, sort_order=["k"])


def make_rows(n):
    return [{"k": i, "v": f"row{i % 5}"} for i in range(n)]


def corrupt_pidx(container_path, column, mutate):
    """Rewrite one column's position index after applying ``mutate``.

    The rewritten file gets a *valid* CRC32 stamped back into
    ``meta.json`` — this simulates a writer bug (semantically wrong but
    intact bytes), the case only the sanitizer can catch; bit rot with
    a stale CRC is the checksum layer's job and is tested in
    ``tests/storage/test_crash_consistency.py``.
    """
    import json

    from repro.storage import fsio
    from repro.storage.ros import _meta_crc

    pidx = os.path.join(container_path, f"{column}.pidx")
    with open(pidx, "rb") as handle:
        infos = read_position_index(handle.read())
    mutate(infos)
    out = bytearray()
    write_uvarint(out, len(infos))
    for info in infos:
        info.serialize(out)
    with open(pidx, "wb") as handle:
        handle.write(bytes(out))
    meta_path = os.path.join(container_path, "meta.json")
    with open(meta_path) as handle:
        raw = json.load(handle)
    raw.pop("meta_crc", None)
    raw["checksums"][f"{column}.pidx"] = fsio.crc32(bytes(out))
    raw["meta_crc"] = _meta_crc(raw)
    with open(meta_path, "w") as handle:
        json.dump(raw, handle)


class TestContainerInvariants:
    def test_clean_container_passes(self, tmp_path, projection):
        path = str(tmp_path / "ros_1")
        ROSContainer.write(path, 1, projection, run_of(projection, make_rows(50), [1] * 50))
        assert ROSContainer.load(path).row_count == 50

    def test_corrupted_block_min_max_detected(self, tmp_path, projection):
        path = str(tmp_path / "ros_1")
        ROSContainer.write(path, 1, projection, run_of(projection, make_rows(50), [1] * 50))

        def lie_about_min(infos):
            infos[0].min_value = 999_999

        corrupt_pidx(path, "k", lie_about_min)
        with pytest.raises(InvariantViolation) as excinfo:
            ROSContainer.load(path)
        message = str(excinfo.value)
        assert "min/max metadata" in message
        assert "'k'" in message and "pruning" in message

    def test_non_monotonic_position_index_detected(self, tmp_path, projection):
        path = str(tmp_path / "ros_1")
        ROSContainer.write(path, 1, projection, run_of(projection, make_rows(50), [1] * 50))

        def shift_start(infos):
            infos[0].start_position = 7

        corrupt_pidx(path, "k", shift_start)
        with pytest.raises(InvariantViolation) as excinfo:
            ROSContainer.load(path)
        assert "monotonic" in str(excinfo.value) or "rows" in str(excinfo.value)

    def test_corruption_ignored_when_disabled(self, tmp_path, projection):
        path = str(tmp_path / "ros_1")
        ROSContainer.write(path, 1, projection, run_of(projection, make_rows(50), [1] * 50))
        corrupt_pidx(path, "k", lambda infos: setattr(infos[0], "min_value", 999_999))
        with sanitizer.override(False):
            assert ROSContainer.load(path).row_count == 50


class TestDeleteVectorInvariants:
    def test_double_delete_detected(self):
        vector = DeleteVector(target_container=3)
        vector.add(5, epoch=2)
        with pytest.raises(InvariantViolation) as excinfo:
            vector.add(5, epoch=4)
        message = str(excinfo.value)
        assert "double delete of position 5" in message
        assert "container 3" in message

    def test_wos_vector_named_in_message(self):
        vector = DeleteVector(target_container=None)
        vector.add(1, epoch=2)
        with pytest.raises(InvariantViolation, match="WOS"):
            vector.add(1, epoch=2)

    def test_distinct_positions_allowed(self):
        vector = DeleteVector(target_container=1)
        for position in range(10):
            vector.add(position, epoch=1)
        assert vector.count == 10

    def test_double_delete_allowed_when_disabled(self):
        vector = DeleteVector(target_container=1)
        vector.add(5, epoch=2)
        with sanitizer.override(False):
            vector.add(5, epoch=4)
        assert vector.count == 2


class TestTupleMoverConservation:
    NAME = "t_super"

    @pytest.fixture
    def manager(self, tmp_path, table, projection):
        manager = StorageManager(str(tmp_path / "node0"))
        manager.register_projection(projection, table)
        return manager

    def test_clean_moveout_passes(self, manager):
        manager.insert(self.NAME, make_rows(20), epoch=1)
        created = TupleMover(manager).moveout(self.NAME)
        assert created
        assert manager.wos_row_count(self.NAME) == 0

    def test_lossy_moveout_detected(self, manager, monkeypatch):
        manager.insert(self.NAME, make_rows(20), epoch=1)
        original = StorageManager.add_container_from_rows

        def lossy(self, name, run, **kwargs):
            return original(self, name, run.take(range(len(run) - 1)), **kwargs)

        monkeypatch.setattr(StorageManager, "add_container_from_rows", lossy)
        with pytest.raises(InvariantViolation) as excinfo:
            TupleMover(manager).moveout(self.NAME)
        message = str(excinfo.value)
        assert "moveout" in message
        assert "drained 20" in message and "wrote 19" in message

    def test_mergeout_accounting_check(self):
        sanitizer.check_mergeout_conservation("p", 10, 8, 2)
        with pytest.raises(InvariantViolation, match="mergeout"):
            sanitizer.check_mergeout_conservation("p", 10, 8, 1)


class TestEpochInvariants:
    def test_ahm_past_latest_queryable_detected(self):
        epochs = EpochManager()
        epochs.ahm = 5  # corrupt state: nothing has committed yet
        with pytest.raises(InvariantViolation) as excinfo:
            epochs.advance_ahm()
        assert "latest queryable" in str(excinfo.value)

    def test_epoch_clock_must_advance(self):
        with pytest.raises(InvariantViolation, match="strictly advance"):
            sanitizer.check_epoch_advance(3, 3)

    def test_normal_epoch_flow_passes(self):
        epochs = EpochManager()
        for _ in range(5):
            epochs.advance_for_commit()
        epochs.set_lge(0, "p", 4)
        assert epochs.advance_ahm() >= 0

    def test_ahm_regression_detected_directly(self):
        with pytest.raises(InvariantViolation, match="regressed"):
            sanitizer.check_ahm_advance(5, 4, None, 10)


class TestEnablement:
    def test_env_variable_controls_sanitizer(self, monkeypatch):
        monkeypatch.setattr(sanitizer, "_OVERRIDE", None)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitizer.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitizer.enabled()
        monkeypatch.delenv("REPRO_SANITIZE")
        assert not sanitizer.enabled()

    def test_suite_runs_with_sanitizer_on(self):
        # The repo conftest enables the sanitizer for every test.
        assert sanitizer.enabled()
