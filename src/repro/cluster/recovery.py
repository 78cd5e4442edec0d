"""Recovery, refresh and rebalance (section 5.2).

Recovery replays the DML a down node missed, sourced from buddy
projections, in a truncate step and two replay phases:

* **truncate** — the node first drops what it holds past its Last
  Good Epoch.  Storage is immutable: containers wholly at or under the
  LGE are kept untouched, containers wholly past it are dropped
  unread, and only one straddling it is rewritten (delete vector ->
  replacement -> retire victim, see
  :meth:`~repro.storage.manager.StorageManager.truncate_after_epoch`);
  the buddy is then asked only for what was inserted or deleted past
  the LGE (``history(after_epoch=lge)`` skips settled containers);
* **historical phase** — no locks; copies committed history from the
  node's Last Good Epoch up to a recent epoch ``E_h``;
* **current phase** — takes a Shared lock on the table (blocking
  writers but not snapshot readers) and copies the small remainder up
  to the current epoch.

*Refresh* populates a newly created projection from existing table
data, and *rebalance* redistributes rows after the node count changes;
both reuse the same history-replay machinery (the paper notes all
three share structure): history moves as one columnar
:class:`~repro.storage.HistoryRun` — ``take`` / ``project``,
:meth:`Cluster.route_rows`, ``load_history`` — and a row is built only
for a by-value delete's victims and a prejoin expansion.  All of them
are **online**: queries keep running against the surviving copies.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..errors import ClusterError
from ..projections import ProjectionFamily
from ..storage import HistoryRun
from ..storage.manager import truncate_outcome_counts
from ..trace import TRACER
from ..txn import LockMode
from .cluster import Cluster

#: Transaction id the recovery subsystem locks under.
RECOVERY_TXN_ID = -1


@dataclass
class RecoveryReport:
    """What one node recovery did, per projection copy."""

    node: int
    truncated_rows: int = 0
    historical_rows: int = 0
    current_rows: int = 0
    #: What truncate-to-LGE did per container: left byte-identical,
    #: rewritten (straddled the LGE), retired whole (past the LGE).
    containers_kept: int = 0
    containers_rewritten: int = 0
    containers_dropped: int = 0
    #: projection -> (historical, current) row counts.
    per_projection: dict[str, tuple[int, int]] = field(default_factory=dict)


def _buddy_history(
    cluster: Cluster,
    family: ProjectionFamily,
    node_index: int,
    copy,
    after_epoch: int | None = None,
) -> HistoryRun:
    """The history the recovering node's ``copy`` should hold, read from
    the copy serving the same ring segment on another up node (the
    buddy's storage there holds exactly that segment's rows; offset
    rings line up one-to-one).  With ``after_epoch`` only what was
    inserted or deleted past that epoch is read: buddy containers
    settled by then are skipped unopened (the paper's incremental
    recovery).  No live buddy raises :class:`DataUnavailableError`, so
    the supervisor's retry loop can tell it from a protocol fault."""
    segment = copy.segmentation.range_for_node(node_index, cluster.node_count)
    host, name = cluster.serving_copy(family, segment, excluding=node_index)
    return cluster.nodes[host].manager.history(name, after_epoch)


def recover_node(
    cluster: Cluster, node_index: int, historical_lag: int = 0
) -> RecoveryReport:
    """Bring a failed node back into the cluster.

    ``historical_lag`` picks ``E_h = current - lag`` as the boundary
    between the lock-free historical phase and the S-locked current
    phase (0 means everything is copied historically and the current
    phase only covers data committed *during* recovery — at simulation
    granularity, nothing).
    """
    if cluster.membership.is_up(node_index):
        raise ClusterError(f"node {node_index} is not down")
    trace = TRACER.start_trace(
        "recovery", attrs={"node": node_index, "historical_lag": historical_lag}
    )
    try:
        return _recover_node(cluster, node_index, historical_lag)
    finally:
        TRACER.end_trace(trace)


def _recover_node(
    cluster: Cluster, node_index: int, historical_lag: int
) -> RecoveryReport:
    report = RecoveryReport(node=node_index)
    manager = cluster.nodes[node_index].manager
    current = cluster.epochs.latest_queryable_epoch
    boundary = max(current - historical_lag, 0)
    for _, family in sorted(cluster.catalog.families.items()):
        for copy in family.all_copies:
            table = cluster.catalog.table(copy.anchor_table)
            lge = cluster.epochs.lge(node_index, copy.name)
            if lge >= current:
                # Nothing was committed after this copy's ROS was
                # certified complete, so the scavenged disk already
                # holds everything and no buddy needs to be reachable.
                # This is what lets a cluster that lost BOTH buddies of
                # a segment (no data lost, no quorum, so no new
                # commits either) heal itself: each node rejoins from
                # its own disk instead of deadlocking on the other.
                report.per_projection[copy.name] = (0, 0)
                continue
            # only what the node missed: buddy containers settled at the
            # LGE are skipped without being read.  Read before anything
            # is truncated, so a copy with no live buddy keeps its disk.
            history = _buddy_history(
                cluster, family, node_index, copy, after_epoch=lge
            )
            # 1. truncate to the LGE: WOS contents died with the node
            #    and post-LGE ROS state may be incomplete.  Containers
            #    wholly at or under the LGE stay untouched, those wholly
            #    past it are dropped, and only one straddling it is
            #    rewritten (delete vector -> replacement -> retire).
            #    The LGE is still invalidated *first*: from here until
            #    the replay completes the node holds less than the LGE
            #    certifies, so if this attempt crashes the retry must
            #    re-replay everything instead of trusting it.
            outcomes_before = truncate_outcome_counts()
            with TRACER.span(
                "recovery.truncate",
                category="recovery",
                node_index=node_index,
                projection=copy.name,
                lge=lge,
            ) as truncate_span:
                cluster.epochs.invalidate_lge(node_index, copy.name)
                report.truncated_rows += manager.truncate_after_epoch(
                    copy.name, lge
                )
                outcomes = truncate_outcome_counts(since=outcomes_before)
                report.containers_kept += outcomes["containers_kept"]
                report.containers_rewritten += outcomes["containers_rewritten"]
                report.containers_dropped += outcomes["containers_dropped"]
                if truncate_span is not None:
                    truncate_span.attrs.update(outcomes)
            # 2. historical phase (no locks): (LGE, boundary]
            with TRACER.span(
                "recovery.historical",
                category="recovery",
                node_index=node_index,
                projection=copy.name,
            ) as hist_span:
                historical = _replay_window(
                    manager, copy.name, history, lge, boundary
                )
                if hist_span is not None:
                    hist_span.attrs["rows"] = historical
            # 3. current phase (Shared lock): (boundary, current]
            with TRACER.span(
                "recovery.current",
                category="recovery",
                node_index=node_index,
                projection=copy.name,
            ) as cur_span:
                cluster.locks.acquire(
                    RECOVERY_TXN_ID, table.name, LockMode.S
                )
                try:
                    current_rows = _replay_window(
                        manager, copy.name, history, boundary, current
                    )
                finally:
                    cluster.locks.release(RECOVERY_TXN_ID, table.name)
                if cur_span is not None:
                    cur_span.attrs["rows"] = current_rows
            cluster.epochs.set_lge(node_index, copy.name, current)
            report.historical_rows += historical
            report.current_rows += current_rows
            report.per_projection[copy.name] = (historical, current_rows)
    with TRACER.span(
        "recovery.rejoin", category="recovery", node_index=node_index
    ):
        cluster.membership.rejoin(node_index)
        cluster.epochs.node_up(node_index)
    return report


def _replay_window(manager, projection_name, history, from_epoch, to_epoch):
    """Replay one phase of recovery: load the rows of ``history``
    inserted in (from_epoch, to_epoch], then re-apply the delete markers
    stamped in that window to rows the node already holds (inserted
    before its LGE but deleted while it was down).  Returns the rows
    loaded."""

    def in_window(epoch):
        return epoch is not None and from_epoch < epoch <= to_epoch

    inserted = list(map(in_window, history.epochs))
    loaded = history.take([index for index, new in enumerate(inserted) if new])
    manager.load_history(projection_name, loaded)
    # apply per delete epoch group for exact epoch stamping; the rows
    # just loaded carry their delete markers already
    by_epoch: dict[int, list[int]] = {}
    for index, delete_epoch in enumerate(history.delete_epochs or ()):
        if in_window(delete_epoch) and not inserted[index]:
            by_epoch.setdefault(delete_epoch, []).append(index)
    for delete_epoch, indexes in sorted(by_epoch.items()):
        manager.delete_where(
            projection_name, history.take(indexes).columns,
            commit_epoch=delete_epoch, snapshot_epoch=delete_epoch - 1,
        )
    return len(loaded)


def refresh_projection(cluster: Cluster, family: ProjectionFamily) -> int:
    """Populate a newly created projection family from the anchor
    table's existing data (historical + current phase, like recovery).
    Returns the number of history records replayed per copy."""
    table_name = family.primary.anchor_table
    table = cluster.catalog.table(table_name)
    source_family = None
    for candidate in cluster.catalog.families_for_table(table_name):
        if candidate.primary.name == family.primary.name:
            continue
        if candidate.primary.is_super_for(table) and candidate.primary.prejoin is None:
            source_family = candidate
            break
    if source_family is None:
        return 0  # the table's first projection starts empty
    history = cluster.collect_history(source_family)
    count = 0
    cluster.locks.acquire(RECOVERY_TXN_ID, table_name, LockMode.S)
    try:
        # a prejoin carries the dimension as each row's insert epoch saw it
        shaped = cluster.shape_run(family.primary, history, history.epochs)
        for copy in family.all_copies:
            for node_index, run in cluster.route_rows(copy, shaped).items():
                if cluster.membership.is_up(node_index):
                    cluster.nodes[node_index].manager.load_history(copy.name, run)
                    count += len(run)
    finally:
        cluster.locks.release(RECOVERY_TXN_ID, table_name)
    return count


def _family_copy(cluster: Cluster, projection_name: str):
    """(family, copy) for a projection name, searching every family."""
    for _, family in sorted(cluster.catalog.families.items()):
        for copy in family.all_copies:
            if copy.name == projection_name:
                return family, copy
    raise ClusterError(f"no projection named {projection_name}")


def repair_node_projection(
    cluster: Cluster, node_index: int, projection_name: str
) -> int:
    """Rebuild one projection copy on one (up) node from its buddies.

    Used when scavenge or scrub quarantined containers: the surviving
    local state cannot be trusted to be complete, so the copy is wiped
    and reloaded wholesale from a live buddy under a Shared lock (the
    same online discipline as recovery's current phase).  Returns the
    number of history records replayed.
    """
    family, copy = _family_copy(cluster, projection_name)
    table = cluster.catalog.table(copy.anchor_table)
    manager = cluster.nodes[node_index].manager
    history = _buddy_history(cluster, family, node_index, copy)
    cluster.locks.acquire(RECOVERY_TXN_ID, table.name, LockMode.S)
    try:
        manager.forget_contents(projection_name)
        manager.load_history(projection_name, history)
    finally:
        cluster.locks.release(RECOVERY_TXN_ID, table.name)
    current = cluster.epochs.latest_queryable_epoch
    if current > cluster.epochs.lge(node_index, projection_name):
        cluster.epochs.set_lge(node_index, projection_name, current)
    return len(history)


@dataclass
class ScrubReport:
    """Outcome of one cluster-wide scrub pass."""

    #: (node, projection, container id, bad file names) with checksum
    #: failures or missing files found by deep verification.
    corrupt: list[tuple[int, str, int, list[str]]] = field(default_factory=list)
    #: (node, projection) copies rebuilt from buddy copies.
    repaired: list[tuple[int, str]] = field(default_factory=list)
    #: Quarantined container directories deleted after repair.
    purged: int = 0

    def clean(self) -> bool:
        """Whether the scrub found no damage at all."""
        return not (self.corrupt or self.repaired)


def scrub(cluster: Cluster, repair: bool = True) -> ScrubReport:
    """Deep-verify every ROS container on every up node against its
    stored CRC32s; quarantine failures and (with ``repair``) rebuild
    the damaged projection copies from buddies.

    This is the background data-integrity pass a production system runs
    to catch *silent* corruption — bit rot the crash-recovery scavenge
    cannot see because the files still parse.
    """
    report = ScrubReport()
    for node_index in cluster.membership.up_nodes():
        manager = cluster.nodes[node_index].manager
        damaged: set[str] = set()
        for projection_name in manager.projection_names():
            for container_id, bad_files in manager.verify_containers(
                projection_name
            ):
                report.corrupt.append(
                    (node_index, projection_name, container_id, bad_files)
                )
                manager.quarantine_container(
                    projection_name,
                    container_id,
                    "scrub: " + ", ".join(bad_files),
                )
                damaged.add(projection_name)
        # projections already holding quarantined containers from an
        # earlier scavenge pass need their copies rebuilt too.
        for record in manager.quarantined:
            damaged.add(record.projection)
        if repair and damaged:
            for projection_name in sorted(damaged):
                repair_node_projection(cluster, node_index, projection_name)
                report.repaired.append((node_index, projection_name))
            report.purged += manager.purge_quarantine()
    return report


@dataclass
class RebalanceReport:
    """Outcome of a cluster rebalance."""

    old_node_count: int
    new_node_count: int
    rows_moved: int = 0


def _fresh_node_dirname(root: str, index: int) -> str:
    """A node directory name under the cluster root that no existing
    (live or retired) node directory occupies.  Rebalancing down and
    back up re-creates node N with a fresh directory instead of
    resurrecting the retired node's stale files."""
    base = f"node{index:02d}"
    name = base
    attempt = 0
    while os.path.exists(os.path.join(root, name)):
        attempt += 1
        name = f"{base}_r{attempt}"
    return name


def rebalance(cluster: Cluster, new_node_count: int) -> RebalanceReport:
    """Re-segment every projection for a new node count.

    Models cluster expansion/contraction (section 3.6's local segments
    exist to make this cheap; the simulation moves rows and reports the
    volume).  All nodes must be up.
    """
    if cluster.membership.down_nodes():
        raise ClusterError("rebalance requires all nodes up")
    report = RebalanceReport(cluster.node_count, new_node_count)
    # gather full history per family, then rebuild placement
    histories = {
        name: cluster.collect_history(family)
        for name, family in sorted(cluster.catalog.families.items())
    }
    old_nodes = cluster.nodes
    cluster.node_count = new_node_count
    cluster.membership = type(cluster.membership)(new_node_count)
    from .node import ClusterNode

    cluster.nodes = [
        ClusterNode.create(
            cluster.root,
            index,
            new_node_count,
            dirname=_fresh_node_dirname(cluster.root, index),
        )
        if index >= len(old_nodes)
        else old_nodes[index]
        for index in range(new_node_count)
    ]
    for node in cluster.nodes:
        node.manager.node_count = new_node_count
    for name, family in sorted(cluster.catalog.families.items()):
        for copy in family.all_copies:
            for node in cluster.nodes:
                manager = node.manager
                if copy.name in manager.projection_names():
                    manager.forget_contents(copy.name)
                else:
                    manager.register_projection(
                        copy, cluster.catalog.table(copy.anchor_table)
                    )
            # hashed once: route_rows leaves the ring positions on the run
            for node_index, run in cluster.route_rows(copy, histories[name]).items():
                cluster.nodes[node_index].manager.load_history(copy.name, run)
                report.rows_moved += len(run)
    return report
