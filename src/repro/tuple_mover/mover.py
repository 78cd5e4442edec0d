"""The tuple mover: moveout and mergeout (section 4).

The tuple mover is the background machinery that keeps the physical
storage healthy: *moveout* drains the in-memory WOS into sorted ROS
containers, *mergeout* folds many small containers into fewer larger
ones (stratified so a tuple is merged O(log n) times) and purges rows
deleted before the Ancient History Mark.

Two properties from the paper are enforced and tested here:

* moveout and mergeout never intermix WOS and ROS data in one
  operation — "when a tuple is part of a mergeout operation, it is
  read from disk once and written to disk once";
* merges never cross partition or local-segment boundaries.

Operations are node-local by design ("not centrally coordinated across
the cluster"); each node's tuple mover runs independently, which is why
two nodes holding the same tuples can have different container
layouts; a buddy only publishes what its primary built from the same
input (:class:`CycleMemo`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from time import perf_counter

from .. import faults
from ..lint import sanitizer
from ..monitor import METRICS
from ..storage.manager import StorageManager
from ..storage.ros import HistoryRun
from ..trace import TRACER
from .strata import MergePolicy, plan_merges


@dataclass
class TupleMoverStats:
    """Counters for observing tuple mover work (ablation benches)."""

    moveouts: int = 0
    rows_moved_out: int = 0
    mergeouts: int = 0
    rows_read: int = 0
    rows_written: int = 0
    rows_purged: int = 0
    containers_created: int = 0
    containers_retired: int = 0


@dataclass
class MergeResult:
    """Outcome of one mergeout pass over one projection."""

    merged_groups: int = 0
    new_containers: list[int] = field(default_factory=list)
    purged_rows: int = 0


class CycleMemo:
    """The container images one mover cycle built, kept for the buddies
    whose input is provably the same, so a family encodes each once:

    * a drained WOS run holding the very objects of an earlier copy's
      (``is``, element by element), with equal epochs and markers,
      takes that run's derivations (:meth:`HistoryRun.derive`);
    * a merge of inputs published from the same images
      (``ROSContainer.image_token``) in the same order, with equal
      markers, AHM and image key, takes the merged image and counts.

    An entry goes once every other copy of its rows took it: a segmented
    copy's ``buddies``, a replicated projection's ``others`` (up nodes).
    """

    def __init__(self, buddies: int, others: int):
        self.buddies, self.others = buddies, others
        self._entries: dict[tuple, list] = {}

    def takers(self, projection) -> int:
        """How many other copies hold ``projection``'s rows."""
        return self.others if projection.segmentation.replicated else self.buddies

    def take(self, key: tuple, matches=bool):
        """The first value kept under ``key`` that ``matches``, or None."""
        entries = self._entries.get(key, ())
        for entry in entries:
            if matches(entry[0]):
                entry[1] -= 1
                if not entry[1]:
                    entries.remove(entry)
                return entry[0]
        return None

    def keep(self, key: tuple, projection, value) -> None:
        self._entries.setdefault(key, []).append([value, self.takers(projection)])

    def moveout(self, projection, run: HistoryRun) -> None:
        """Give a drained ``run`` an earlier copy's derivations of the
        same input, else keep it for the copies still to come."""
        if not self.takers(projection):
            return
        key = (StorageManager.image_key(projection), len(run))
        other = self.take(key, lambda other: (
            (other.epochs, other.delete_epochs) == (run.epochs, run.delete_epochs)
            and other.columns.keys() == run.columns.keys()
            and all(all(map(is_, run.columns[name], other.columns[name]))
                    for name in run.columns)
        ))
        if other is None:
            self.keep(key, projection, run.shared())
        else:
            run.derived = other.derived

    def merge_key(self, state, merge_ids: list[int], ahm: int) -> tuple | None:
        """What merging ``merge_ids`` is a function of, if it can be shared."""
        tokens = tuple(state.containers[cid].image_token for cid in merge_ids)
        if None in tokens or not self.takers(state.projection):
            return None
        deletes = tuple(tuple(sorted(state.deletes_for(cid).items())) for cid in merge_ids)
        return tokens, deletes, ahm, StorageManager.image_key(state.projection)


class TupleMover:
    """Moveout/mergeout engine bound to one node's storage manager."""

    def __init__(self, manager: StorageManager, policy: MergePolicy | None = None):
        self.manager = manager
        self.policy = policy or MergePolicy()
        self.stats = TupleMoverStats()
        #: Optional Data Collector (duck-typed; the cluster points this
        #: at its collector).  Completed moveouts/mergeouts land in its
        #: ``tuple_mover`` ring, the one record of each run.
        self.collector = None

    def _dc_record(
        self, kind: str, projection_name: str, containers_in: int,
        containers_out: int, rows_in: int, rows_out: int,
        rows_purged: int, stratum: int, duration: float,
    ) -> None:
        if self.collector is None:
            return
        self.collector.record(
            "tuple_mover",
            kind,
            node_index=self.manager.node_index,
            projection_name=projection_name,
            containers_in=containers_in,
            containers_out=containers_out,
            rows_in=rows_in,
            rows_out=rows_out,
            rows_purged=rows_purged,
            stratum=stratum,
            duration_ms=duration * 1000.0,
        )

    # -- moveout -----------------------------------------------------------

    def moveout(self, projection_name: str, memo: CycleMemo | None = None) -> list[int]:
        """Drain the projection's WOS into new ROS containers.

        The drained run goes to the writer as it is.  Deleted-but-
        unpurged WOS rows move too: the run carries each row's delete
        marker, and the storage manager's one writer
        persists them as DVROS ahead of each new container (a buddy's
        from its primary's images, by the cycle's ``memo``).  Returns
        new container ids.
        """
        with TRACER.span(
            "tuple_mover.moveout",
            category="tuple_mover",
            node_index=self.manager.node_index,
            projection=projection_name,
        ) as span:
            created = self._moveout(projection_name, memo)
            if span is not None:
                span.attrs["containers_created"] = len(created)
            return created

    def _moveout(self, projection_name: str, memo: CycleMemo | None) -> list[int]:
        started = perf_counter()
        state = self.manager.storage(projection_name)
        run = state.wos.drain()
        if not len(run):
            return []
        faults.inject("mover.wos.drain", node=self.manager.node_index)
        if memo is not None:
            memo.moveout(state.projection, run)
        created = []
        for container_id in self.manager.write_run(projection_name, run):
            created.append(container_id)
            # a crash here loses the rest of the drained WOS — exactly
            # the window the LGE protects: it only advances after the
            # whole moveout, so recovery replays from the buddy.
            faults.inject("mover.moveout.container")
        rows_out = sum(state.containers[cid].row_count for cid in created)
        sanitizer.check_moveout_conservation(projection_name, len(run), rows_out)
        self.stats.moveouts += 1
        self.stats.rows_moved_out += len(run)
        self.stats.containers_created += len(created)
        duration = perf_counter() - started
        METRICS.inc("tuple_mover.moveouts")
        METRICS.inc("tuple_mover.rows_moved_out", len(run))
        METRICS.observe("tuple_mover.moveout_seconds", duration)
        self._dc_record(
            "moveout", projection_name, 0, len(created), len(run),
            rows_out, 0, -1, duration,
        )
        return created

    # -- mergeout ----------------------------------------------------------

    def mergeout(
        self, projection_name: str, ahm: int = 0, memo: CycleMemo | None = None
    ) -> MergeResult:
        """One mergeout pass: merge per-stratum groups, purge pre-AHM
        deletes.  ``ahm`` is the Ancient History Mark — rows deleted at
        or before it are elided from merge output (section 5.1); a
        buddy takes its primary's merged image by the cycle's ``memo``."""
        state = self.manager.storage(projection_name)
        result = MergeResult()
        groups: dict[tuple, list[tuple[int, int]]] = {}
        for container_id, container in state.containers.items():
            key = (
                repr(container.meta.partition_key),
                container.meta.local_segment,
            )
            groups.setdefault(key, []).append((container_id, container.size_bytes()))
        for key in sorted(groups):
            for merge_ids in plan_merges(groups[key], self.policy):
                new_id = self._merge_containers(
                    state, projection_name, merge_ids, ahm, result, memo
                )
                result.merged_groups += 1
                result.new_containers.append(new_id)
        return result

    def _merge_containers(
        self, state, projection_name: str, merge_ids: list[int], ahm: int, result,
        memo: CycleMemo | None = None,
    ) -> int:
        """Merge the input containers into one new container."""
        with TRACER.span(
            "tuple_mover.mergeout",
            category="tuple_mover",
            node_index=self.manager.node_index,
            projection=projection_name,
            containers_in=len(merge_ids),
        ):
            return self._merge(state, projection_name, merge_ids, ahm, result, memo)

    def _merge(
        self, state, projection_name: str, merge_ids: list[int], ahm: int, result,
        memo: CycleMemo | None,
    ) -> int:
        started = perf_counter()
        # stratum of the largest input, before the inputs are retired.
        stratum = max(
            self.policy.stratum_of(state.containers[cid].size_bytes())
            for cid in merge_ids
        )
        meta = state.containers[merge_ids[0]].meta
        place = meta.partition_key, meta.local_segment, merge_ids
        key = memo.merge_key(state, merge_ids, ahm) if memo else None
        taken = memo.take(key) if key else None
        if taken:
            image, read, purged = taken
            written = image.row_count
            new_id = self.manager.publish_image(projection_name, image, *place)
        else:
            # the inputs' columns end to end, then one stable sort of a
            # permutation by the key columns: the inputs are sorted runs,
            # so the sort merges them, ties staying in input order
            inputs = HistoryRun.concat(
                [self.manager.container_run(projection_name, cid) for cid in merge_ids]
            )
            read = len(inputs)
            deletes = inputs.delete_epochs or [None] * read
            merged = inputs.take(
                [
                    index
                    for index in inputs.sort_permutation(state.projection.sort_order)
                    if deletes[index] is None or deletes[index] > ahm
                ]
            )
            written, purged = len(merged), read - len(merged)
            # surviving delete markers are persisted ahead of the merged
            # container, so no crash leaves it published without them.
            new_id = self.manager.add_container_from_rows(
                projection_name, merged.shared() if key else merged, *place
            )
            if key:
                image = self.manager.image_of(projection_name, merged)
                memo.keep(key, state.projection, (image, read, purged))
        sanitizer.check_mergeout_conservation(projection_name, read, written, purged)
        # crash window: the merged container is published but its
        # inputs are not yet retired.  The scavenger detects the
        # duplicate coverage via merged_from and retires them then.
        faults.inject("mover.mergeout.retire")
        self.manager.remove_containers(projection_name, merge_ids)
        self.stats.mergeouts += 1
        self.stats.rows_read += read
        self.stats.rows_written += written
        self.stats.rows_purged += purged
        self.stats.containers_created += 1
        self.stats.containers_retired += len(merge_ids)
        result.purged_rows += purged
        duration = perf_counter() - started
        METRICS.inc("tuple_mover.mergeouts")
        METRICS.inc("tuple_mover.rows_purged", purged)
        METRICS.observe("tuple_mover.mergeout_seconds", duration)
        self._dc_record(
            "mergeout", projection_name, len(merge_ids), 1, read,
            written, purged, stratum, duration,
        )
        return new_id

    # -- convenience --------------------------------------------------------

    def run_once(self, ahm: int = 0) -> None:
        """One full maintenance cycle over every projection on the node:
        moveout everything, then mergeout until no plan remains."""
        for name in self.manager.projection_names():
            self.moveout(name)
            while True:
                outcome = self.mergeout(name, ahm)
                if not outcome.merged_groups:
                    break
