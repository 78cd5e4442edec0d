"""Per-node storage manager.

One :class:`StorageManager` owns the physical storage of a single
(simulated) node: per-projection WOS buffers, ROS containers, delete
vectors, and the bookkeeping the tuple mover and execution engine sit
on top of.  It enforces the physical invariants of sections 3.5-3.7:

* every ROS container holds rows of exactly one partition key and one
  local segment;
* containers are immutable and totally sorted by their projection's
  sort order;
* deletes never touch data files — they only append delete vectors;
* the WOS routes to ROS directly when it would overflow (and loads can
  explicitly request direct-to-ROS, section 7).
"""

from __future__ import annotations

import os
import shutil
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import ge

from ..columnar.row_block import RowBlock, sorted_prefix
from ..columnar.selection import Selection
from ..columnar.vectors import seek
from ..core.schema import TableDefinition
from ..errors import CorruptContainerError, StorageError, UnknownObjectError
from ..monitor import METRICS
from ..projections import HashSegmentation, ProjectionDefinition
from . import fsio
from .block import BLOCK_ROWS
from .delete_vector import DeleteVector, combined_deletes
from .ros import EPOCH_COLUMN, ContainerImage, HistoryRun, ROSContainer
from .wos import DEFAULT_WOS_CAPACITY, WriteOptimizedStore, visible_mask

#: Subdirectory of a projection's storage where corrupt containers are
#: moved (never deleted: the bytes are evidence and a repair source of
#: last resort).
QUARANTINE_DIR = "quarantine"


#: What ``truncate_after_epoch`` can do to one container; each outcome
#: is counted in ``storage.truncate.containers_<outcome>``.
TRUNCATE_OUTCOMES = ("kept", "rewritten", "dropped")


def truncate_outcome_counts(since: dict[str, int] | None = None) -> dict[str, int]:
    """``containers_<outcome>`` -> the ``storage.truncate.*`` counter of
    that name, less its value in ``since`` (an earlier reading): cold
    start and recovery report what their own truncate step did."""
    counts = {}
    for outcome in TRUNCATE_OUTCOMES:
        key = f"containers_{outcome}"
        counts[key] = METRICS.counter(f"storage.truncate.{key}")
        if since is not None:
            counts[key] -= since[key]
    return counts


@dataclass
class QuarantinedContainer:
    """Record of one container pulled from service by the scavenger."""

    projection: str
    #: Original directory basename, e.g. ``ros_000004``.
    name: str
    #: Where the damaged directory now lives.
    path: str
    reason: str


@dataclass
class ScavengeReport:
    """What one crash-recovery scavenge pass found and fixed."""

    #: Orphaned ``.tmp`` staging directories deleted.
    removed_tmp: list[str] = field(default_factory=list)
    #: Containers quarantined (missing files, checksum mismatches...).
    quarantined: list[QuarantinedContainer] = field(default_factory=list)
    #: (projection, container id) mergeout inputs retired because the
    #: merged output had already been published before a crash.
    duplicates_retired: list[tuple[str, int]] = field(default_factory=list)
    #: Healthy containers loaded from disk into the manager.
    containers_loaded: int = 0
    #: Persisted delete vectors re-attached to their containers.
    delete_vectors_loaded: int = 0
    #: Stale delete-vector directories removed (target container gone).
    stale_delete_vectors: int = 0

    def clean(self) -> bool:
        """Whether the pass found nothing to repair."""
        return not (
            self.removed_tmp or self.quarantined or self.duplicates_retired
            or self.stale_delete_vectors
        )


@dataclass
class ProjectionStorage:
    """All physical state for one projection on one node."""

    projection: ProjectionDefinition
    table: TableDefinition
    wos: WriteOptimizedStore
    containers: dict[int, ROSContainer] = field(default_factory=dict)
    #: In-memory (DVWOS-resident) delete vectors, per ROS container id.
    pending_ros_deletes: dict[int, DeleteVector] = field(default_factory=dict)
    #: Persisted (DVROS) delete vectors, per ROS container id.
    persisted_ros_deletes: dict[int, list[DeleteVector]] = field(default_factory=dict)
    #: Basenames of DVROS directories already reflected in
    #: ``persisted_ros_deletes`` (so scavenge never double-attaches).
    loaded_dv_dirs: set[str] = field(default_factory=set)

    def vectors_for(
        self, container_id: int, on_disk_only: bool = False
    ) -> list[DeleteVector]:
        """One container's delete vectors: the persisted ones, then
        (unless ``on_disk_only``) the in-memory one."""
        vectors = list(self.persisted_ros_deletes.get(container_id, ()))
        pending = self.pending_ros_deletes.get(container_id)
        if pending is not None and not on_disk_only:
            vectors.append(pending)
        return vectors

    def deletes_for(self, container_id: int) -> dict[int, int]:
        """position -> delete-epoch map for one container."""
        return combined_deletes(self.vectors_for(container_id))

    def delete_count(self) -> int:
        """Total delete markers across WOS and all containers."""
        total = self.wos.row_count - self.wos.run.delete_epochs.count(None)
        for container_id in self.containers:
            total += len(self.deletes_for(container_id))
        return total


def _sort_prefix(sort_order, prune) -> list:
    """The bounds in ``prune`` a container's sort order can answer by
    binary search: the leading sort column's, then the next column's
    only inside an equality on the one before (only there is it
    sorted).  One ``(name, (low end, high end))`` per column, each end
    None or ``(value, inclusive)`` as :func:`seek` takes it; empty when
    only a one-sided bound on the leading column would be left — its
    min/max check already proves a row there — or a bound is NaN, which
    orders against nothing."""
    prefix = []
    for name in sort_order if prune else ():
        if name not in prune:
            break
        low, high = prune[name]
        if low != low or high != high:
            break
        ends = (None if low is None else (low, True),
                None if high is None else (high, True))
        prefix.append((name, ends))
        if None in ends or low != high:
            break
    if len(prefix) == 1 and None in prefix[0][1]:
        return []
    return prefix


class StorageManager:
    """Physical storage for one node, rooted at a directory."""

    def __init__(
        self,
        root: str,
        node_count: int = 1,
        node_index: int = 0,
        segments_per_node: int = 1,
        wos_capacity: int = DEFAULT_WOS_CAPACITY,
    ):
        self.root = root
        self.node_count = node_count
        self.node_index = node_index
        self.segments_per_node = segments_per_node
        self.wos_capacity = wos_capacity
        self._projections: dict[str, ProjectionStorage] = {}
        self._next_container_id = 1
        self._dv_seq = 0
        #: Every container this manager has pulled from service.
        self.quarantined: list[QuarantinedContainer] = []
        os.makedirs(root, exist_ok=True)

    # -- registration ---------------------------------------------------

    def register_projection(
        self, projection: ProjectionDefinition, table: TableDefinition
    ) -> None:
        """Start managing storage for ``projection`` of ``table``."""
        if projection.name in self._projections:
            raise StorageError(f"projection {projection.name!r} already registered")
        self._projections[projection.name] = ProjectionStorage(
            projection=projection,
            table=table,
            wos=WriteOptimizedStore(capacity=self.wos_capacity),
        )
        os.makedirs(self._projection_dir(projection.name), exist_ok=True)

    def drop_projection(self, name: str) -> None:
        """Remove a projection's storage (files included)."""
        self._state(name)
        del self._projections[name]
        shutil.rmtree(self._projection_dir(name), ignore_errors=True)

    def projection_names(self) -> list[str]:
        """Names of projections stored on this node."""
        return sorted(self._projections)

    def _state(self, name: str) -> ProjectionStorage:
        try:
            return self._projections[name]
        except KeyError:
            raise UnknownObjectError(f"no storage for projection {name!r}") from None

    def _projection_dir(self, name: str) -> str:
        return os.path.join(self.root, name)

    def storage(self, name: str) -> ProjectionStorage:
        """Expose a projection's physical state (tuple mover, tests)."""
        return self._state(name)

    # -- writes -----------------------------------------------------------

    def insert(
        self,
        projection_name: str,
        rows: list[dict] | HistoryRun,
        epoch: int,
        direct_to_ros: bool = False,
    ) -> list[int]:
        """Store committed ``rows`` at ``epoch`` — the run a commit
        pivoted them into, or row dicts (direct callers) pivoted here,
        at the door: nothing below it sees a row.

        Returns ids of any ROS containers created (empty if the rows
        went to the WOS).  Rows go directly to ROS when requested or
        when the WOS would overflow (section 4).
        """
        state = self._state(projection_name)
        if not len(rows):
            return []
        if not isinstance(rows, HistoryRun):
            rows = HistoryRun.from_rows(
                state.projection.column_names, rows, [epoch] * len(rows)
            )
        if direct_to_ros or state.wos.would_overflow(len(rows)):
            if not direct_to_ros:
                # WOS overflow: the load was headed for memory but spills
                # straight to ROS instead (section 4).
                METRICS.inc("storage.wos_spills")
                METRICS.inc("storage.wos_spill_rows", len(rows))
            return list(self.write_run(projection_name, rows))
        state.wos.insert(rows)
        return []

    def _group_keys(self, state: ProjectionStorage, run: HistoryRun) -> list | None:
        """The (partition key, local segment) of every row of ``run``,
        or None when the whole run is one group: an unpartitioned table
        on a node with one local segment."""
        partitions = segments = None
        if state.table.partition_by is not None:
            partitions = state.table.partition_keys(run.columns, len(run))
        scheme = state.projection.segmentation
        if self.segments_per_node > 1 and isinstance(scheme, HashSegmentation):
            positions = run.positions or scheme.ring_positions(run.columns)
            segment_of = {
                position: scheme.local_segment_for_position(
                    position, self.node_count, self.segments_per_node
                )
                for position in set(positions)
            }
            segments = map(segment_of.__getitem__, positions)
        if partitions is None and segments is None:
            return None
        return list(zip(partitions or repeat(None), segments or repeat(0)))

    def write_run(self, projection_name: str, run: HistoryRun):
        """Write a run of history records to ROS: split by (partition
        key, local segment), sort each group, build one container per
        group.  The one place unsorted rows become containers: direct
        loads, WOS overflow, moveout, recovery, refresh and rebalance
        write through it.  Groups are index lists and the sort is a
        permutation over the sort-key columns: no row is built and no key
        tuple per comparison; a partition expression is evaluated once
        over the run's columns.

        Of a run handed to every copy of a family
        (:meth:`HistoryRun.shared`: a commit's, a recovery's) the sorted
        groups and each group's container image are derived once: every
        copy's containers are the same bytes — copies share columns,
        encodings and sort order, and local segments ignore the buddy
        offset — so the next copy publishes what the first one built.
        A mover cycle hands a buddy's drained run its primary's
        derivations when both hold the same input (``CycleMemo``).

        A generator: each container id is yielded once that container
        is published (moveout injects its fault between containers);
        nothing is written until it is iterated.
        """
        state = self._state(projection_name)
        if not len(run):
            return
        projection = state.projection
        # what the groups, and then the images, are a function of
        grouping = (
            state.table.partition_by,
            getattr(projection.segmentation, "columns", None),
            self.node_count,
            self.segments_per_node,
            tuple(projection.sort_order),
        )
        groups = run.derive(
            ("groups", *grouping, tuple(projection.columns)),
            lambda: self._sorted_groups(state, run),
        )
        shared = run.derived is not None
        for entry in groups:
            (partition_key, local_segment), indexes, image = entry
            if image is not None:
                yield self.publish_image(
                    projection_name, image, partition_key, local_segment
                )
                continue
            # one group's rows at a time
            group = run.take(indexes)
            if shared:
                group.shared()
            container_id = self.add_container_from_rows(
                projection_name,
                group,
                partition_key=partition_key,
                local_segment=local_segment,
            )
            if shared:
                # the image add_container_from_rows derived on the group
                # is what the next copy publishes; the rows' order is no
                # longer needed
                entry[1:] = None, self.image_of(projection_name, group)
            yield container_id

    def _sorted_groups(self, state: ProjectionStorage, run: HistoryRun) -> list:
        """``[(partition key, local segment), indexes, None]`` per group
        of ``run`` — the indexes in sort order, the last item the
        group's container image once one is built — in the order the
        groups' containers are written."""
        groups: dict[tuple, list[int]] = {}
        group_keys = self._group_keys(state, run)
        if group_keys is None:
            groups[None, 0] = list(range(len(run)))
        for index, key in enumerate(group_keys or ()):
            groups.setdefault(key, []).append(index)
        # the ordering rule's keys (types.ordering_keys), built once for
        # every group: each group is one stable pass over them
        sort_keys = run.sort_keys(state.projection.sort_order)
        return [
            [key, sorted(indexes, key=sort_keys.__getitem__), None]
            for key, indexes in sorted(groups.items(), key=lambda item: repr(item[0]))
        ]

    @staticmethod
    def image_key(projection: ProjectionDefinition) -> tuple:
        """What a sorted run's container image depends on besides the run."""
        return ("image", tuple(projection.columns), tuple(projection.sort_order))

    def image_of(self, projection_name: str, run: HistoryRun) -> ContainerImage:
        """The container image of a sorted run, derived from it: built
        once per :meth:`HistoryRun.shared` run, whoever asks."""
        projection = self._state(projection_name).projection
        return run.derive(
            self.image_key(projection), lambda: ContainerImage.build(projection, run)
        )

    def _write_delete_vector(
        self, state: ProjectionStorage, vector: DeleteVector
    ) -> str:
        """Publish ``vector`` as the next DVROS directory of its target
        container; returns the directory's basename."""
        name = f"dv_{vector.target_container:06d}_{self._dv_seq:06d}"
        self._dv_seq += 1
        vector.write(
            os.path.join(self._projection_dir(state.projection.name), name)
        )
        return name

    def add_container_from_rows(
        self,
        projection_name: str,
        run: HistoryRun,
        partition_key=None,
        local_segment: int = 0,
        merged_from: list[int] | None = None,
    ) -> int:
        """Create one container from a pre-sorted run — where every
        container image is built: :meth:`write_run` builds its groups here;
        mergeout and the truncate rewrite, whose one run is already
        sorted, call it directly.  ``merged_from`` stamps mergeout
        provenance into the container's metadata so a crash before
        input retirement is self-healing.  The container's image is
        derived from ``run`` (:meth:`image_of`).

        The markers reach disk as a DVROS *before* the container
        publishes: a crash in between leaves a vector without a target,
        which scavenge deletes, never a container without its deletes.
        """
        return self.publish_image(
            projection_name, self.image_of(projection_name, run),
            partition_key, local_segment, merged_from,
        )

    def publish_image(
        self,
        projection_name: str,
        image: ContainerImage,
        partition_key=None,
        local_segment: int = 0,
        merged_from: list[int] | None = None,
    ) -> int:
        """Publish ``image`` as this copy's next container (its delete
        markers first, as a DVROS), whichever copy built it."""
        state = self._state(projection_name)
        container_id = self._next_container_id
        self._next_container_id += 1
        vector = dv_name = None
        delete_epochs = image.delete_epochs
        if delete_epochs and delete_epochs.count(None) < len(delete_epochs):
            deleted = [
                position
                for position, delete_epoch in enumerate(delete_epochs)
                if delete_epoch is not None
            ]
            vector = DeleteVector(
                container_id, deleted, [delete_epochs[p] for p in deleted]
            )
            dv_name = self._write_delete_vector(state, vector)
        path = os.path.join(
            self._projection_dir(projection_name), f"ros_{container_id:06d}"
        )
        container = ROSContainer.publish(
            path,
            container_id,
            projection_name,
            image,
            partition_key=partition_key,
            local_segment=local_segment,
            merged_from=merged_from,
        )
        state.containers[container_id] = container
        if vector is not None:
            state.persisted_ros_deletes[container_id] = [vector]
            state.loaded_dv_dirs.add(dv_name)
        return container_id

    def adopt_container(self, projection_name: str, source_dir: str) -> int:
        """Copy an externally produced container directory (backup
        image, shipped from another node) into this projection under a
        freshly assigned container id.  The copy commits atomically and
        is checksum-verified before registration; returns the new id.
        """
        state = self._state(projection_name)
        container_id = self._next_container_id
        self._next_container_id += 1
        target = os.path.join(
            self._projection_dir(projection_name), f"ros_{container_id:06d}"
        )
        container = ROSContainer.adopt(source_dir, target, container_id)
        if container.meta.projection != projection_name:
            shutil.rmtree(target, ignore_errors=True)
            raise StorageError(
                f"container from {source_dir} belongs to projection "
                f"{container.meta.projection!r}, not {projection_name!r}"
            )
        state.containers[container_id] = container
        return container_id

    def _drop_dv_dirs(self, state: ProjectionStorage, container_id: int) -> None:
        """Delete persisted delete-vector directories of one container."""
        directory = self._projection_dir(state.projection.name)
        prefix = f"dv_{container_id:06d}_"
        try:
            entries = os.listdir(directory)
        except FileNotFoundError:
            return
        for entry in entries:
            if entry.startswith(prefix):
                shutil.rmtree(os.path.join(directory, entry), ignore_errors=True)
                state.loaded_dv_dirs.discard(entry)

    def remove_containers(self, projection_name: str, container_ids) -> None:
        """Drop containers (mergeout inputs, dropped partitions) along
        with their persisted delete vectors."""
        state = self._state(projection_name)
        for container_id in container_ids:
            container = state.containers.pop(container_id, None)
            if container is None:
                raise StorageError(f"unknown container {container_id}")
            state.pending_ros_deletes.pop(container_id, None)
            state.persisted_ros_deletes.pop(container_id, None)
            shutil.rmtree(container.path, ignore_errors=True)
            self._drop_dv_dirs(state, container_id)

    # -- deletes ----------------------------------------------------------

    def delete_where(
        self,
        projection_name: str,
        victims: dict[str, list],
        commit_epoch: int,
        snapshot_epoch: int,
    ) -> int:
        """Mark the row multiset ``victims`` (columns: name -> values)
        deleted at ``commit_epoch``, by value, among the rows visible at
        ``snapshot_epoch`` (delete never modifies storage; it appends
        delete vectors).  Returns the number of rows marked.

        Rows match on the copy's columns the victims carry (a prejoin
        copy on its own columns, a narrow copy on its subset), keyed by ``repr``
        of each value, one budget per call: a stored row is marked while
        its key has budget left — WOS first, then containers by
        ascending id, positions ascending, so a live commit and its
        replay mark the same rows.  The victims' per-column (min, max)
        skip containers and blocks before anything is decoded, and their
        sort prefix narrows a container to its window
        (:meth:`_prefix_window`): a row outside it cannot equal a victim,
        so only the blocks the window overlaps are decoded and only its
        rows compared.  In the WOS and a container alike a column is
        compared, by one map over its values, only at the rows the
        columns before it left.
        """
        state = self._state(projection_name)
        names = [n for n in state.projection.column_names if n in victims]
        if not names or not victims[names[0]]:
            return 0
        count = len(victims[names[0]])
        budget = Counter(zip(*(map(repr, victims[name]) for name in names)))
        wanted = list(map(set, zip(*budget)))  # per column: the victims' reprs
        deleted = 0

        def matches(positions, column):
            """(position, key) of each of ``positions`` whose values are
            a victim's, narrowed one column at a time."""
            keys: list[list[str]] = []
            for name, reprs in zip(names, wanted):
                if not positions:
                    return ()
                values = column(name)
                picked = list(map(repr, map(values.__getitem__, positions)))
                keep = list(map(reprs.__contains__, picked))
                positions = list(compress(positions, keep))
                keys = [list(compress(key, keep)) for key in keys]
                keys.append(list(compress(picked, keep)))
            return zip(positions, zip(*keys))

        def take(key: tuple) -> bool:
            if budget[key] > 0:
                budget[key] -= 1
                return True
            return False

        wos = state.wos.run
        visible = visible_mask(wos.epochs, wos.delete_epochs, snapshot_epoch)
        for position, key in matches(
            list(compress(range(len(wos.epochs)), visible)), wos.columns.__getitem__
        ):
            if take(key):
                state.wos.mark_deleted(position, commit_epoch)
                deleted += 1
        if deleted == count:
            return deleted
        bounds = {}
        for name in names:
            values = victims[name]
            # NULL and NaN order against nothing: no bound through them
            if not any(value is None or value != value for value in values):
                bounds[name] = min(values), max(values)
        counts: Counter = Counter()
        for container, _, window in self._walk(state, snapshot_epoch, bounds, counts):
            container_id = container.container_id
            for _, start, end, visible in self._visible_pieces(
                state, container, snapshot_epoch, names, window
            ):
                positions = (
                    range(end - start) if visible is None else visible.positions()
                )
                for offset, key in matches(
                    positions, lambda name: container.read_range(name, start, end)
                ):
                    if take(key):
                        state.pending_ros_deletes.setdefault(
                            container_id, DeleteVector(container_id)
                        ).add(start + offset, commit_epoch)
                        deleted += 1
            if deleted == count:
                break
        # the containers the walk passed over are a scan's count, not a delete's
        METRICS.fold({"storage.blocks_pruned": counts["storage.blocks_pruned"]})
        return deleted

    def persist_delete_vectors(self, projection_name: str) -> int:
        """Move pending (DVWOS) ROS delete vectors to disk (DVROS).

        Returns how many vectors were persisted.  This is the tuple
        mover's delete-vector moveout (section 3.7.1).
        """
        state = self._state(projection_name)
        persisted = 0
        for container_id, vector in sorted(state.pending_ros_deletes.items()):
            name = self._write_delete_vector(state, vector)
            state.persisted_ros_deletes.setdefault(container_id, []).append(vector)
            state.loaded_dv_dirs.add(name)
            persisted += 1
        state.pending_ros_deletes.clear()
        return persisted

    # -- crash recovery: scavenge, quarantine, verify ---------------------

    def scavenge(self, projection_name: str | None = None) -> ScavengeReport:
        """Bring on-disk storage back to a consistent, loaded state.

        Run at node startup after a crash (and harmlessly at any other
        time).  Four passes per projection, in order:

        1. delete orphaned ``.tmp`` staging directories — commits that
           never reached their rename;
        2. load every published container not already in memory,
           quarantining any that fails metadata or checksum
           verification instead of crashing, and report again what an
           earlier pass quarantined and no repair has purged;
        3. retire mergeout inputs whose merged output was published
           before a crash (``merged_from`` bookkeeping) — duplicate
           row coverage is resolved idempotently;
        4. re-attach persisted delete vectors, dropping stale ones
           whose target container no longer exists.
        """
        report = ScavengeReport()
        names = (
            [projection_name] if projection_name else self.projection_names()
        )
        for name in names:
            self._scavenge_projection(self._state(name), report)
        return report

    def _scavenge_projection(
        self, state: ProjectionStorage, report: ScavengeReport
    ) -> None:
        name = state.projection.name
        directory = self._projection_dir(name)
        try:
            entries = sorted(os.listdir(directory))
        except FileNotFoundError:
            return
        for entry in entries:
            if fsio.is_staging_dir(entry):
                shutil.rmtree(os.path.join(directory, entry), ignore_errors=True)
                report.removed_tmp.append(f"{name}/{entry}")
        if QUARANTINE_DIR in entries:
            self._scavenge_quarantine(state, report)
        for entry in entries:
            if not entry.startswith("ros_") or fsio.is_staging_dir(entry):
                continue
            path = os.path.join(directory, entry)
            if not os.path.isdir(path):
                continue
            self._scavenge_container(state, entry, path, report)
        self._retire_merge_duplicates(state, report)
        for entry in sorted(os.listdir(directory)):
            if not entry.startswith("dv_") or fsio.is_staging_dir(entry):
                continue
            self._scavenge_delete_vector(state, entry, report)
            # surviving vectors keep their names, so new ones must be
            # numbered past them (a reused name would replace one).
            sequence = entry.rpartition("_")[2]
            if sequence.isdigit():
                self._dv_seq = max(self._dv_seq, int(sequence) + 1)
        highest = max(state.containers, default=0)
        if highest >= self._next_container_id:
            self._next_container_id = highest + 1

    def _scavenge_container(
        self, state: ProjectionStorage, entry: str, path: str,
        report: ScavengeReport,
    ) -> None:
        try:
            dir_id = int(entry[len("ros_"):])
        except ValueError:
            dir_id = None
        if dir_id is not None and dir_id in state.containers:
            return  # already live in memory
        try:
            container = ROSContainer.load(path)
        except StorageError as exc:
            report.quarantined.append(
                self._quarantine_path(state, entry, path, str(exc))
            )
            return
        meta = container.meta
        if meta.container_id != dir_id or meta.projection != state.projection.name:
            report.quarantined.append(
                self._quarantine_path(
                    state, entry, path,
                    f"identity mismatch: directory {entry} holds container "
                    f"{meta.container_id} of projection {meta.projection!r}",
                )
            )
            return
        state.containers[meta.container_id] = container
        report.containers_loaded += 1

    def _scavenge_quarantine(
        self, state: ProjectionStorage, report: ScavengeReport
    ) -> None:
        """Report what an earlier pass quarantined and no repair purged
        yet: until one does, the copy is still missing those rows."""
        root = os.path.join(self._projection_dir(state.projection.name), QUARANTINE_DIR)
        recorded = {record.path for record in self.quarantined}
        for entry in sorted(os.listdir(root)):
            path = os.path.join(root, entry)
            if path not in recorded:
                record = QuarantinedContainer(
                    state.projection.name, entry.partition(".")[0], path,
                    "quarantined earlier, not yet repaired",
                )
                self.quarantined.append(record)
                report.quarantined.append(record)

    def _retire_merge_duplicates(
        self, state: ProjectionStorage, report: ScavengeReport
    ) -> None:
        """Resolve crash-between-publish-and-retire mergeouts: if a
        merged container and any of its inputs coexist, the inputs are
        duplicates (the merge output covers their rows and epoch range)
        and are retired now, exactly as the mover would have."""
        for container_id in sorted(state.containers):
            container = state.containers.get(container_id)
            if container is None:
                continue
            stale = [
                old_id
                for old_id in container.meta.merged_from
                if old_id in state.containers
            ]
            self.remove_containers(state.projection.name, stale)
            report.duplicates_retired.extend(
                (state.projection.name, old_id) for old_id in stale
            )

    def _scavenge_delete_vector(
        self, state: ProjectionStorage, entry: str, report: ScavengeReport
    ) -> None:
        path = os.path.join(self._projection_dir(state.projection.name), entry)
        if entry in state.loaded_dv_dirs or not os.path.isdir(path):
            return  # attached already, or dropped with its quarantined target
        digits = entry.split("_")[1]
        target = int(digits) if digits.isdigit() else None
        if target not in state.containers:
            # a DVROS whose container is gone (retired or quarantined)
            # is dead weight
            shutil.rmtree(path, ignore_errors=True)
            report.stale_delete_vectors += 1
            return
        try:
            vector = DeleteVector.load(path)
            if vector.target_container != target:
                raise CorruptContainerError(
                    f"delete vector {path} names container {vector.target_container}"
                )
        except StorageError as exc:
            # its deletes are lost, so its container's rows cannot be
            # trusted: quarantined, the copy is rebuilt from a buddy
            report.quarantined.append(
                self.quarantine_container(state.projection.name, target, str(exc))
            )
            return
        state.persisted_ros_deletes.setdefault(target, []).append(vector)
        state.loaded_dv_dirs.add(entry)
        report.delete_vectors_loaded += 1

    def _quarantine_path(
        self, state: ProjectionStorage, entry: str, path: str, reason: str
    ) -> QuarantinedContainer:
        """Move a damaged container directory into quarantine."""
        quarantine_root = os.path.join(
            self._projection_dir(state.projection.name), QUARANTINE_DIR
        )
        os.makedirs(quarantine_root, exist_ok=True)
        target = os.path.join(quarantine_root, entry)
        suffix = 0
        while os.path.exists(target):
            suffix += 1
            target = os.path.join(quarantine_root, f"{entry}.{suffix}")
        os.replace(path, target)
        record = QuarantinedContainer(
            projection=state.projection.name,
            name=entry,
            path=target,
            reason=reason,
        )
        self.quarantined.append(record)
        return record

    def quarantine_container(
        self, projection_name: str, container_id: int, reason: str
    ) -> QuarantinedContainer:
        """Pull a live container from service (scrub found it corrupt).

        Its rows become unavailable on this node until a repair
        rebuilds them from a buddy; its delete vectors are dropped with
        it (repair re-creates them from replayed history)."""
        state = self._state(projection_name)
        container = state.containers.pop(container_id, None)
        if container is None:
            raise StorageError(f"unknown container {container_id}")
        state.pending_ros_deletes.pop(container_id, None)
        state.persisted_ros_deletes.pop(container_id, None)
        self._drop_dv_dirs(state, container_id)
        return self._quarantine_path(
            state, os.path.basename(container.path), container.path, reason
        )

    def verify_containers(
        self, projection_name: str
    ) -> list[tuple[int, list[str]]]:
        """Deep-verify every live container's files against their
        committed CRC32s.  Returns (container id, bad files) pairs for
        the damaged ones — the per-node half of ``Cluster.scrub()``."""
        state = self._state(projection_name)
        damaged = []
        for container_id in sorted(state.containers):
            bad = state.containers[container_id].verify()
            if bad:
                damaged.append((container_id, bad))
        return damaged

    def purge_quarantine(self, projection_name: str | None = None) -> int:
        """Delete quarantined container directories (post-repair
        cleanup).  Returns how many were purged."""
        names = (
            [projection_name] if projection_name else self.projection_names()
        )
        purged = 0
        keep = []
        for record in self.quarantined:
            if record.projection in names:
                shutil.rmtree(record.path, ignore_errors=True)
                purged += 1
            else:
                keep.append(record)
        self.quarantined = keep
        return purged

    # -- reads ------------------------------------------------------------

    def scan(
        self,
        projection_name: str,
        epoch: int,
        columns: list[str] | None = None,
        prune: dict[str, tuple] | None = None,
        counts: Counter | None = None,
    ):
        """Yield the rows visible at ``epoch`` as :class:`RowBlock` s of
        encoded vectors, each a sorted run (``sorted_by``: the sort
        order's prefix among ``columns``).

        ``prune`` maps column name -> (low, high) and eliminates whole
        containers and blocks before a container is opened
        (:meth:`_walk`).  A block never crosses a storage block, so
        block-local dictionaries stay valid, and rows deleted at
        ``epoch`` are selected out of it, not decoded around.

        The walk's counters (containers scanned and pruned, blocks
        pruned) go to ``counts`` when the caller folds them itself — the
        Scan operator, once per query — and otherwise to ``METRICS``
        once, when the walk reaches the WOS.
        """
        state = self._state(projection_name)
        names = columns or [c.name for c in state.projection.columns]
        sorted_by = sorted_prefix(tuple(state.projection.sort_order) or None, set(names))
        own = counts is None
        if own:
            counts = Counter()
        for container, span, _ in self._walk(state, epoch, prune, counts):
            counts["storage.containers_scanned"] += 1
            yield from self._scan_container(
                state, container, epoch, names, span, sorted_by
            )
        if own:
            METRICS.fold(counts)
        yield from self._scan_wos(state, epoch, names, sorted_by)

    def _walk(self, state, epoch, prune, counts):
        """The one container walk of a scan and a by-value delete: yield
        ``(container, span, window)`` for each container, by ascending
        id, that may hold a row inside every (low, high) of ``prune``.

        ``span`` is the positions the position index leaves
        (:meth:`_pruned_position_range`, blocks pruned counted in
        ``counts``), ``window`` the part of it the sort prefix can hold
        (:meth:`_prefix_window`, searched only in a container with a row
        at or before ``epoch``).  A container whose min/max or window
        rules it out is counted in ``storage.containers_pruned`` and not
        yielded."""
        prefix = _sort_prefix(state.projection.sort_order, prune)
        for container_id in sorted(state.containers):
            container = state.containers[container_id]
            if prune and not all(
                container.may_contain(column, low, high)
                for column, (low, high) in prune.items()
                if column in container.meta.columns
            ):
                counts["storage.containers_pruned"] += 1
                continue
            span = window = self._pruned_position_range(container, prune, counts)
            if prefix and container.meta.min_epoch <= epoch:
                window = self._prefix_window(container, prefix, span)
            if window[0] >= window[1]:
                counts["storage.containers_pruned"] += 1
                continue
            yield container, span, window

    @staticmethod
    def _prefix_window(container, prefix, span) -> tuple[int, int]:
        """The positions of ``span`` — the blocks the position index
        leaves — that may hold a row inside the sort prefix's window
        (:func:`_sort_prefix`); empty when none can.  Each prefix column
        narrows it by one ``seek`` over the cached block holding it:
        runs and dictionary codes are searched, never decoded to values.
        Where the search cannot judge, the window narrowed so far (at
        first ``span`` itself) is the answer: one spread over two blocks,
        a block with a NULL or a NaN, a literal that does not order
        against the column."""
        lo, hi = span
        index = None
        for name, bounds in prefix:
            if lo >= hi:
                break
            reader = container.column_reader(name)
            if index is None:
                index = reader.block_index(lo)
            info = reader.blocks[index]
            if hi > info.end_position:
                break
            vector = reader.block_vector(index)
            if not vector.is_ordered():
                break
            first = info.start_position
            window = seek(vector, *bounds, lo - first, hi - first)
            if window is None:
                break
            lo, hi = window[0] + first, window[1] + first
        return lo, hi

    def _pruned_position_range(self, container, prune, counts) -> tuple[int, int]:
        """Intersect the pruned position ranges of the restricted
        columns — the first step of the columnar walk."""
        start, end = 0, container.row_count
        if prune:
            for column, (low, high) in prune.items():
                if column not in container.meta.columns:
                    continue
                lo, hi, pruned = container.column_reader(column).position_range_for(
                    low, high
                )
                counts["storage.blocks_pruned"] += pruned
                start = max(start, lo)
                end = min(end, hi)
        return start, end

    def _visible_pieces(self, state, container, epoch, names, span):
        """The one columnar walk of a container: yield ``(block_index,
        start, end, visible)`` for every piece of ``span`` holding a row
        visible at ``epoch``.

        Pieces are cut at the storage blocks of the first of ``names``
        (every column, row-grouped ones too, shares the container's
        block boundaries).  ``visible`` is None when every row of the
        piece is visible — the container carries no delete marker at or
        before ``epoch`` and no row past it — and otherwise the
        :class:`Selection` of the rows that are (:meth:`_visible_rows`);
        a piece with nothing visible is skipped before any data column
        is decoded.  Scans and by-value deletes both read through here,
        so MVCC visibility has one implementation.
        """
        start, end = span
        if start >= end or container.meta.min_epoch > epoch:
            return
        deletes = state.deletes_for(container.container_id)
        dead = sorted(p for p, e in deletes.items() if e <= epoch) if deletes else []
        for block_index, info in enumerate(container.column_reader(names[0]).blocks):
            piece_start = max(start, info.start_position)
            piece_end = min(end, info.end_position)
            if piece_start >= piece_end:
                continue
            visible = None
            if dead or container.meta.max_epoch > epoch:
                visible = self._visible_rows(
                    container, dead, epoch, piece_start, piece_end
                )
                if visible.is_empty:
                    continue
            yield block_index, piece_start, piece_end, visible

    @staticmethod
    def _visible_rows(container, dead, epoch, start, end):
        """The :class:`Selection` of the rows at positions [start, end)
        visible at ``epoch``: not among ``dead`` (the sorted positions
        deleted at or before it) and — read only from a container
        straddling ``epoch`` — not inserted after it."""
        gone = dead[bisect_left(dead, start) : bisect_left(dead, end)]
        visible = Selection.from_ranges(
            [(p - start, p - start + 1) for p in gone], end - start
        ).invert()
        if container.meta.max_epoch > epoch:
            epochs = container.column_reader(EPOCH_COLUMN).read_range(start, end)
            visible = visible.intersect(
                Selection.from_mask(list(map(ge, repeat(epoch), epochs)))
            )
        return visible

    def _scan_container(self, state, container, epoch, names, span, sorted_by):
        for block_index, start, end, visible in self._visible_pieces(
            state, container, epoch, names, span
        ):
            columns = {}
            for name in names:
                values = container.column_reader(name).vector_for_range(
                    block_index, start, end
                )
                columns[name] = values if visible is None else visible.apply(values)
            yield RowBlock(
                columns,
                end - start if visible is None else visible.count,
                sorted_by,
            )

    def _scan_wos(self, state, epoch, names, sorted_by):
        """The WOS half of a scan: the blocks of its sorted columnar
        view (:class:`SortedView` — built once per mutation, not per
        scan) visible at ``epoch``."""
        if not state.wos.row_count:
            return
        view = state.wos.sorted_view(state.projection.sort_order)
        blocks = view.batches(epoch, names, BLOCK_ROWS, sorted_by)
        if blocks:
            METRICS.inc("storage.wos_scans")
            METRICS.inc("storage.wos_rows_scanned", sum(b.row_count for b in blocks))
        yield from blocks

    def container_run(self, projection_name: str, container_id: int) -> HistoryRun:
        """Every row of one ROS container, deleted or not, in sort order
        — the one decode of columns + epoch column + combined delete
        vectors (the WOS half: ``WriteOptimizedStore.run``).
        Row ``i`` of the run sits at position ``i``, which is what a
        delete vector stores."""
        state = self._state(projection_name)
        container = state.containers[container_id]
        deletes = state.deletes_for(container_id)
        run = HistoryRun(
            container.read_columns(container.meta.columns),
            container.read_epochs(),
            list(map(deletes.get, range(container.row_count))) if deletes else None,
        )
        # the run is on its way elsewhere (a merge, a rewrite, another
        # node): what reading it cached is not kept twice
        container.release()
        return run

    def history(
        self, projection_name: str, after_epoch: int | None = None
    ) -> HistoryRun:
        """Every stored row, deleted or not, as one run of fresh lists:
        the containers by ascending id, each in sort order, then the WOS.

        The full physical history of the projection on this node — what
        recovery, refresh and rebalance replay from (section 5.2: "the
        data+epoch itself serves as a log of past system activity"),
        under the one word its movers use (:class:`HistoryRun`,
        :meth:`load_history`, ``collect_history``).  With ``after_epoch``
        only rows inserted or deleted past that epoch are returned, and
        containers holding no such row are skipped on their metadata
        without being read: incremental recovery reads what the node
        missed, not the buddy's whole projection.
        """
        state = self._state(projection_name)
        runs = [HistoryRun({name: [] for name in state.projection.column_names}, [])]
        runs += (
            self.container_run(projection_name, container_id)
            for container_id, container in sorted(state.containers.items())
            if after_epoch is None
            or not self._settled_at(state, container, after_epoch)
        )
        if state.wos.row_count:
            runs.append(state.wos.run)
        run = HistoryRun.concat(runs)
        if after_epoch is None:
            return run
        deleted = (epoch or 0 for epoch in run.delete_epochs or repeat(0))
        changed = map(max, run.epochs, deleted)
        return run.take([i for i, epoch in enumerate(changed) if epoch > after_epoch])

    @staticmethod
    def _settled_at(
        state: ProjectionStorage,
        container: ROSContainer,
        epoch: int,
        on_disk_only: bool = False,
    ) -> bool:
        """Whether nothing in ``container`` happened after ``epoch``: no
        row inserted and no delete marker stamped past it
        (``on_disk_only`` ignores the in-memory DVWOS markers).
        Decided from ``meta.json`` and the delete vectors already in
        memory — the container's files are not opened."""
        return container.meta.max_epoch <= epoch and all(
            delete_epoch <= epoch
            for vector in state.vectors_for(container.container_id, on_disk_only)
            for delete_epoch in vector.epochs
        )

    def truncate_after_epoch(self, projection_name: str, epoch: int) -> int:
        """Discard rows committed after ``epoch`` (and delete markers
        stamped after it).  Returns rows discarded.

        Recovery's first step: "the node truncates all tuples that were
        inserted after its LGE, ensuring that it starts at a consistent
        state" (section 5.2).  Storage is immutable, so the decision is
        taken per container from its metadata:

        * **kept** — every row at or under ``epoch`` and no persisted
          delete marker past it: files, position indexes and delete
          vector directories are left byte-identical (no decode, no
          write);
        * **dropped** — every row past ``epoch``: retired whole, counted
          from ``row_count`` without being read;
        * **rewritten** — the container straddles ``epoch`` or carries a
          delete marker past it: the survivors are written to a
          replacement stamped ``merged_from=[victim]``, in the order
          delete vector -> replacement -> retire victim, so a crash at
          any point leaves either the victim or a complete replacement
          (scavenge retires the duplicate victim).

        Each outcome is counted in ``storage.truncate.containers_*``.
        The WOS is truncated in memory.
        """
        state = self._state(projection_name)
        discarded = 0
        for container_id in sorted(state.containers):
            container = state.containers[container_id]
            if container.meta.min_epoch > epoch:
                discarded += container.row_count
                self.remove_containers(projection_name, [container_id])
                METRICS.inc("storage.truncate.containers_dropped")
            elif self._settled_at(state, container, epoch, on_disk_only=True):
                self._trim_pending_deletes(state, container_id, epoch)
                METRICS.inc("storage.truncate.containers_kept")
            else:
                discarded += self._rewrite_truncated(state, container, epoch)
                METRICS.inc("storage.truncate.containers_rewritten")
        return discarded + state.wos.truncate_after_epoch(epoch)

    @staticmethod
    def _trim_pending_deletes(
        state: ProjectionStorage, container_id: int, epoch: int
    ) -> None:
        """Drop in-memory (DVWOS) markers stamped after ``epoch``."""
        pending = state.pending_ros_deletes.get(container_id)
        if pending is None:
            return
        kept = [
            (position, delete_epoch)
            for position, delete_epoch in zip(pending.positions, pending.epochs)
            if delete_epoch <= epoch
        ]
        if not kept:
            del state.pending_ros_deletes[container_id]
        elif len(kept) < pending.count:
            state.pending_ros_deletes[container_id] = DeleteVector(
                container_id, [p for p, _ in kept], [e for _, e in kept]
            )

    def _rewrite_truncated(
        self, state: ProjectionStorage, container: ROSContainer, epoch: int
    ) -> int:
        """Replace ``container`` by its rows and delete markers at or
        under ``epoch``; returns rows discarded."""
        victim = container.container_id
        name = state.projection.name
        # never empty: a victim with no row at or under ``epoch`` was
        # dropped whole instead of being rewritten
        survivors = self.container_run(name, victim).truncated(epoch)
        self.add_container_from_rows(
            name,
            survivors,
            partition_key=container.meta.partition_key,
            local_segment=container.meta.local_segment,
            merged_from=[victim],
        )
        self.remove_containers(name, [victim])
        return container.row_count - len(survivors)

    def load_history(self, projection_name: str, run: HistoryRun) -> list[int]:
        """Write a run of history straight to ROS containers, preserving
        epochs and delete markers (persisted as delete vectors, each
        ahead of its container): :meth:`write_run`, run to its end.
        Used by recovery, refresh and rebalance."""
        return list(self.write_run(projection_name, run))

    def forget_contents(self, projection_name: str) -> None:
        """Drop everything this copy holds — containers, their delete
        vectors in memory and on disk, the WOS — and keep it registered:
        repair and rebalance wipe a copy with this before reloading it
        through :meth:`load_history`."""
        state = self._state(projection_name)
        self.remove_containers(projection_name, list(state.containers))
        state.wos.drain()
        state.pending_ros_deletes.clear()
        state.persisted_ros_deletes.clear()
        state.loaded_dv_dirs.clear()

    # -- partitions --------------------------------------------------------

    def drop_partition(self, projection_name: str, partition_key) -> int:
        """Fast bulk delete: remove every container of one partition key
        (section 3.5).  Returns the number of rows reclaimed."""
        state = self._state(projection_name)
        victims = [
            container_id
            for container_id, container in state.containers.items()
            if container.meta.partition_key == partition_key
        ]
        reclaimed = sum(
            state.containers[container_id].row_count for container_id in victims
        )
        self.remove_containers(projection_name, victims)
        # WOS rows of that partition are dropped too (rare path: data
        # normally reaches ROS before partition drops happen).
        run = state.wos.run
        keys = state.table.partition_keys(run.columns, len(run))
        return reclaimed + state.wos.keep(
            [index for index, key in enumerate(keys) if key != partition_key]
        )

    def partition_keys(self, projection_name: str) -> list:
        """Distinct partition keys present in the projection's ROS."""
        state = self._state(projection_name)
        keys = {
            container.meta.partition_key for container in state.containers.values()
        }
        return sorted(keys, key=repr)

    # -- introspection -------------------------------------------------------

    def container_count(self, projection_name: str) -> int:
        """Number of live ROS containers for a projection."""
        return len(self._state(projection_name).containers)

    def total_data_bytes(self, projection_name: str | None = None) -> int:
        """Encoded user-data bytes on disk (Table 3/4 measurements)."""
        names = [projection_name] if projection_name else self.projection_names()
        total = 0
        for name in names:
            for container in self._state(name).containers.values():
                total += container.data_size_bytes()
        return total

    def total_bytes(self, projection_name: str | None = None) -> int:
        """All storage bytes including position indexes and epochs."""
        names = [projection_name] if projection_name else self.projection_names()
        total = 0
        for name in names:
            for container in self._state(name).containers.values():
                total += container.size_bytes()
        return total

    def wos_row_count(self, projection_name: str) -> int:
        """Rows currently buffered in the projection's WOS."""
        return self._state(projection_name).wos.row_count
