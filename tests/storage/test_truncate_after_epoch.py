"""``StorageManager.truncate_after_epoch``: a per-container decision.

A container wholly at or under the epoch is kept byte-identical, one
wholly past it is dropped unread, only a straddler (or one carrying a
persisted delete marker past the epoch) is rewritten — and whatever
survives, delete markers included, is on disk afterwards.  The old
dump-everything-and-rebuild implementation lives on below as the
oracle the new one is compared with on randomised histories.
"""

import os
import random

import pytest

from repro import types
from repro.columnar import blocks_to_rows
from repro.core.schema import ColumnDef, TableDefinition
from repro.monitor import METRICS
from repro.projections import super_projection
from repro.storage import ROSContainer, StorageManager
from repro.storage.manager import truncate_outcome_counts
from repro.tuple_mover import MergePolicy, TupleMover
from storage_helpers import delete_matching, run_of, run_of_records

NAME = "t_super"
TABLE = TableDefinition(
    "t", [ColumnDef("k", types.INTEGER), ColumnDef("v", types.VARCHAR)]
)
PROJECTION = super_projection(TABLE, sort_order=["k"])


def new_manager(root) -> StorageManager:
    manager = StorageManager(str(root), wos_capacity=1000)
    manager.register_projection(PROJECTION, TABLE)
    return manager


@pytest.fixture
def manager(tmp_path):
    return new_manager(tmp_path / "node0")


@pytest.fixture
def decoded(monkeypatch):
    """Ids of the containers whose rows were read, in order."""
    seen = []
    original = ROSContainer.read_columns

    def spy(container, names):
        seen.append(container.container_id)
        return original(container, names)

    monkeypatch.setattr(ROSContainer, "read_columns", spy)
    return seen


def rows(*keys):
    return [{"k": k, "v": f"v{k % 7}"} for k in keys]


def to_ros(manager, keys, epoch) -> int:
    (container_id,) = manager.insert(NAME, rows(*keys), epoch, direct_to_ros=True)
    return container_id


def history(manager, after_epoch=None):
    """The projection's physical history as a sorted multiset."""
    return sorted(
        (row["k"], row["v"], insert_epoch, delete_epoch or 0)
        for row, insert_epoch, delete_epoch in manager.history(NAME, after_epoch).records()
    )


def visible_keys(manager, epoch):
    return sorted(row["k"] for row in blocks_to_rows(manager.scan(NAME, epoch)))


def disk_image(manager):
    """path -> (bytes, mtime_ns) of every file under the projection."""
    image = {}
    for directory, _, files in os.walk(os.path.join(manager.root, NAME)):
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                image[path] = (handle.read(), os.stat(path).st_mtime_ns)
    return image


def reopened(manager) -> StorageManager:
    """What a restarted process finds: a fresh manager over the same
    directory, scavenged."""
    fresh = new_manager(manager.root)
    assert fresh.scavenge().clean()
    return fresh


def outcomes(before):
    return tuple(truncate_outcome_counts(since=before).values())


def oracle_truncate(manager, epoch) -> int:
    """The implementation this PR replaced: decode every row, delete
    every container, rebuild the survivors."""
    survivors = []
    discarded = 0
    for row, insert_epoch, delete_epoch in manager.history(NAME).records():
        if insert_epoch > epoch:
            discarded += 1
            continue
        if delete_epoch is not None and delete_epoch > epoch:
            delete_epoch = None
        survivors.append((row, insert_epoch, delete_epoch))
    manager.forget_contents(NAME)
    manager.load_history(NAME, run_of_records(PROJECTION, survivors))
    return discarded


class TestContainerClasses:
    def test_container_at_or_under_the_epoch_is_kept_untouched(self, manager, decoded):
        to_ros(manager, range(10), epoch=1)
        to_ros(manager, range(10, 20), epoch=5)
        delete_matching(manager, NAME, lambda row: row["k"] < 3, 4, 3)
        manager.persist_delete_vectors(NAME)
        image, expected = disk_image(manager), history(manager)
        written = METRICS.counter("storage.containers_written")
        before = truncate_outcome_counts()
        del decoded[:]

        assert manager.truncate_after_epoch(NAME, 5) == 0

        assert outcomes(before) == (2, 0, 0)  # kept, rewritten, dropped
        assert decoded == []
        assert METRICS.counter("storage.containers_written") == written
        assert disk_image(manager) == image
        assert history(manager) == expected

    def test_container_past_the_epoch_is_dropped_unread(self, manager, decoded):
        old = to_ros(manager, range(10), epoch=2)
        new = to_ros(manager, range(10, 25), epoch=7)
        delete_matching(manager, NAME, lambda row: row["k"] == 12, 8, 7)
        manager.persist_delete_vectors(NAME)
        before = truncate_outcome_counts()
        del decoded[:]

        assert manager.truncate_after_epoch(NAME, 5) == 15

        assert outcomes(before) == (1, 0, 1)
        assert decoded == []
        assert list(manager.storage(NAME).containers) == [old]
        left = os.listdir(os.path.join(manager.root, NAME))
        assert left == [f"ros_{old:06d}"], f"container {new} left debris"

    def test_straddler_is_rewritten_with_provenance(self, manager):
        projection = manager.storage(NAME).projection
        victim = manager.add_container_from_rows(
            NAME, run_of(projection, rows(1, 2, 3, 4, 5, 6), [1, 7, 3, 9, 5, 6])
        )
        # one marker under the epoch, one past it, one on a doomed row
        for key, epoch in ((1, 4), (3, 8), (2, 8)):
            delete_matching(manager, NAME, lambda row, k=key: row["k"] == k, epoch, epoch - 1)
        manager.persist_delete_vectors(NAME)
        before = truncate_outcome_counts()

        assert manager.truncate_after_epoch(NAME, 5) == 3

        assert outcomes(before) == (0, 1, 0)
        (container,) = manager.storage(NAME).containers.values()
        assert container.meta.merged_from == [victim]
        assert (container.meta.min_epoch, container.meta.max_epoch) == (1, 5)
        expected = [(1, "v1", 1, 4), (3, "v3", 3, 0), (5, "v5", 5, 0)]
        assert history(manager) == expected
        # the surviving marker is on disk, not parked in memory
        assert history(reopened(manager)) == expected

    def test_persisted_delete_marker_past_the_epoch_forces_a_rewrite(self, manager):
        to_ros(manager, range(6), epoch=1)
        delete_matching(manager, NAME, lambda row: row["k"] == 0, 3, 2)
        delete_matching(manager, NAME, lambda row: row["k"] == 1, 7, 6)
        manager.persist_delete_vectors(NAME)
        before = truncate_outcome_counts()

        assert manager.truncate_after_epoch(NAME, 5) == 0

        assert outcomes(before) == (0, 1, 0)
        assert blocks_to_rows(manager.scan(NAME, 9)) == rows(1, 2, 3, 4, 5)
        # the marker under the epoch survived, the one past it did not
        assert [
            (row["k"], delete_epoch)
            for row, _, delete_epoch in manager.history(NAME).records()
        ] == [(0, 3), (1, None), (2, None), (3, None), (4, None), (5, None)]
        assert history(reopened(manager)) == history(manager)

    def test_in_memory_marker_past_the_epoch_is_trimmed_without_a_write(self, manager):
        to_ros(manager, range(6), epoch=1)
        delete_matching(manager, NAME, lambda row: row["k"] == 0, 3, 2)
        delete_matching(manager, NAME, lambda row: row["k"] == 1, 7, 6)
        image = disk_image(manager)
        before = truncate_outcome_counts()

        assert manager.truncate_after_epoch(NAME, 5) == 0

        assert outcomes(before) == (1, 0, 0)
        assert disk_image(manager) == image
        assert blocks_to_rows(manager.scan(NAME, 9)) == rows(1, 2, 3, 4, 5)

    def test_mixed_wos_and_ros(self, manager):
        to_ros(manager, (1, 2), epoch=1)
        to_ros(manager, (3, 4), epoch=8)
        manager.insert(NAME, rows(10, 11), 2)
        manager.insert(NAME, rows(12), 9)
        manager.insert(NAME, rows(13), 4)
        # WOS positions: 10->0, 11->1, 12->2, 13->3
        delete_matching(manager, NAME, lambda row: row["k"] == 13, 5, 4)
        delete_matching(manager, NAME, lambda row: row["k"] == 10, 6, 5)

        assert manager.truncate_after_epoch(NAME, 5) == 3

        state = manager.storage(NAME)
        assert state.wos.run.columns["k"] == [10, 11, 13]
        # 13 moved up a position and keeps its marker; 10's was stamped
        # past the epoch and is gone
        assert state.wos.run.delete_epochs == [None, None, 5]
        assert blocks_to_rows(manager.scan(NAME, 9)) == rows(1, 2, 10, 11)

    def test_truncating_everything(self, manager):
        to_ros(manager, range(5), epoch=1)
        manager.insert(NAME, rows(7, 8), 2)
        assert manager.truncate_after_epoch(NAME, 0) == 7
        assert history(manager) == []
        assert os.listdir(os.path.join(manager.root, NAME)) == []


class TestHistoryReads:
    def test_dump_rows_bound_skips_settled_containers(self, manager, decoded):
        to_ros(manager, range(10), epoch=1)
        deleted_from = to_ros(manager, range(10, 20), epoch=2)
        recent = to_ros(manager, range(20, 30), epoch=6)
        delete_matching(manager, NAME, lambda row: row["k"] == 15, 8, 7)
        manager.persist_delete_vectors(NAME)
        everything = history(manager)
        del decoded[:]

        missed = history(manager, after_epoch=5)

        assert [entry[0] for entry in missed] == [15, *range(20, 30)]
        assert missed == [
            entry for entry in everything if entry[2] > 5 or entry[3] > 5
        ]
        # the first container is skipped on its metadata
        assert decoded == [deleted_from, recent]
        assert history(manager) == everything

    def test_dump_rows_bound_sees_the_wos_and_in_memory_deletes(self, manager):
        to_ros(manager, range(10), epoch=1)
        manager.insert(NAME, rows(40), 3)
        manager.insert(NAME, rows(41), 7)
        manager.insert(NAME, rows(42), 4)
        delete_matching(manager, NAME, lambda row: row["k"] in (5, 42), 8, 7)
        assert history(manager, after_epoch=5) == [
            (5, "v5", 1, 8), (41, "v6", 7, 0), (42, "v0", 4, 8),
        ]
        assert history(manager, after_epoch=8) == []

    def test_load_history_persists_its_delete_vectors(self, manager):
        records = [
            (row, 1 + row["k"] % 3, 5 if row["k"] % 4 == 0 else None)
            for row in rows(*range(12))
        ]
        manager.load_history(NAME, run_of_records(PROJECTION, records))
        expected = history(manager)
        assert [entry[0] for entry in expected if entry[3]] == [0, 4, 8]
        assert history(reopened(manager)) == expected

    def test_delete_vector_names_are_not_reused_after_restart(self, manager):
        to_ros(manager, range(6), epoch=1)
        delete_matching(manager, NAME, lambda row: row["k"] == 0, 2, 1)
        manager.persist_delete_vectors(NAME)
        fresh = reopened(manager)
        delete_matching(fresh, NAME, lambda row: row["k"] == 1, 3, 2)
        fresh.persist_delete_vectors(NAME)
        assert blocks_to_rows(reopened(fresh).scan(NAME, 9)) == rows(2, 3, 4, 5)


def random_history(manager, rng):
    """Containers and WOS rows over epochs 1..12 with deletes spread
    over them, part persisted, part pending, plus mover activity."""
    mover = TupleMover(manager, MergePolicy(min_inputs=2))
    next_key = 0
    for epoch in range(1, 13):
        action = rng.choice(["ros", "ros", "wos", "delete", "delete", "move", "merge"])
        if action in ("ros", "wos"):
            count = rng.randrange(1, 12)
            manager.insert(
                NAME, rows(*range(next_key, next_key + count)), epoch,
                direct_to_ros=action == "ros",
            )
            next_key += count
        elif action == "delete":
            modulus, remainder = rng.randrange(2, 6), rng.randrange(2)
            delete_matching(
                manager, NAME, lambda row: row["k"] % modulus == remainder, epoch, epoch - 1
            )
            if rng.random() < 0.5:
                manager.persist_delete_vectors(NAME)
        elif action == "move":
            mover.moveout(NAME)
        else:
            mover.mergeout(NAME)


@pytest.mark.parametrize("seed", range(25))
def test_matches_the_dump_and_rebuild_oracle(seed, tmp_path):
    rng = random.Random(seed)
    epoch = rng.randrange(0, 14)
    sut, oracle = new_manager(tmp_path / "sut"), new_manager(tmp_path / "oracle")
    for manager in (sut, oracle):
        random_history(manager, random.Random(seed))
    assert history(sut) == history(oracle)

    assert sut.truncate_after_epoch(NAME, epoch) == oracle_truncate(oracle, epoch)

    expected = history(oracle)
    assert history(sut) == expected
    for probe in (epoch, 99):
        assert visible_keys(sut, probe) == visible_keys(oracle, probe)
    # everything but the WOS is durable: drain it, then restart
    TupleMover(sut).moveout(NAME)
    sut.persist_delete_vectors(NAME)
    assert history(reopened(sut)) == expected


def test_mergeout_persists_deletes_ahead_of_the_merged_container(manager):
    """A crash right after the merge inputs are retired must not leave
    the merged container without its delete markers."""
    for start in range(0, 40, 10):
        to_ros(manager, range(start, start + 10), epoch=1 + start // 10)
    delete_matching(manager, NAME, lambda row: row["k"] % 10 == 0, 6, 5)
    result = TupleMover(manager, MergePolicy(min_inputs=4)).mergeout(NAME)
    assert result.merged_groups == 1
    state = manager.storage(NAME)
    assert not state.pending_ros_deletes
    expected = history(manager)
    assert len([entry for entry in expected if entry[3] == 6]) == 4
    assert history(reopened(manager)) == expected
