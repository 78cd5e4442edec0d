"""Cold start: rebuild a cluster from its journal and on-disk ROS.

Replay order (each step idempotent over what the previous recovered):

1. **Catalog** — the newest valid checkpoint's catalog, then the DDL
   records past its LSN (all decoded by the journal's open), yield the
   final catalog; register every projection on every node's storage
   manager.
2. **Scavenge** — per node, the PR 3 machinery: delete ``.tmp``
   orphans, load every published container (quarantining corruption,
   a damaged delete vector's target included), resolve crash-interrupted
   mergeouts, re-attach delete vectors.
3. **Truncate to the floor** — the journal's durable floor is the
   epoch every node had fully drained to ROS at the last all-up mover
   cycle; anything newer on disk may be incomplete on *some* node, so
   every projection is truncated back to it (the cold-start analogue of
   recovery's truncate-to-LGE).  Storage is immutable and an open must
   not rewrite it: the decision is taken per container from its
   metadata.  A container wholly at or under the floor with no delete
   marker past it is **kept** byte-identical (the whole database, after
   a clean shutdown); one wholly past the floor is **dropped** unread;
   only one that *straddles* the floor is rewritten, in the order
   delete vector -> replacement (stamped ``merged_from=[victim]``) ->
   retire victim, so a kill at any point reopens onto either the
   victim or the complete replacement.  ``ColdStartReport`` counts the
   three outcomes: ``containers_rewritten`` is why an open was slow.
4. **Replay the tail** — commit records with epochs past the floor go
   to :meth:`Cluster.apply_commit`, the method that applied them when
   they were first committed; replay adds only the clock, the floor
   skip and the dropped-table filter.  The journal
   itself was already cut to its last valid prefix when opened: a torn
   or bit-flipped record defines the recovery point, and every record
   after it is discarded.
5. **Rejoin** — every node is marked down and handed to the
   :class:`~repro.cluster.supervisor.ClusterSupervisor` in the
   SCAVENGED state; the PR 5 recovery state machine replays each node
   back to currency (trivially, from its own disk — the replay above
   restored LGE = latest queryable) and rejoins it.  A copy that lost
   a container to quarantine is the exception: its LGE stays 0, so
   rejoining rebuilds it from its buddy (and the rebuild purges the
   quarantine), and with no buddy (K=0) its node stays down and a read
   of its segments raises :class:`~repro.errors.DataUnavailableError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import DurabilityError
from ..monitor import METRICS
from ..storage.manager import truncate_outcome_counts
from ..trace import TRACER
from ..txn.epochs import INITIAL_EPOCH
from .journal import Journal, JournalRecord

if TYPE_CHECKING:
    from ..cluster.cluster import Cluster


@dataclass
class ColdStartReport:
    """What :func:`replay_journal` did to bring the cluster back."""

    floor: int = 0
    checkpoint_used: bool = False
    #: Journal records dropped by torn-tail/corruption truncation.
    truncated_records: int = 0
    ddl_replayed: int = 0
    commits_replayed: int = 0
    rows_reinserted: int = 0
    rows_redeleted: int = 0
    #: Rows discarded from on-disk containers past the durable floor.
    rows_truncated: int = 0
    #: What truncate-to-floor did per container: left byte-identical,
    #: rewritten (straddled the floor), retired whole (past the floor).
    containers_kept: int = 0
    containers_rewritten: int = 0
    containers_dropped: int = 0
    containers_quarantined: int = 0
    rejoin_ticks: int = 0
    #: projection copies restored, for quick report introspection.
    projections: list[str] = field(default_factory=list)


def replay_journal(cluster: "Cluster", journal: Journal) -> ColdStartReport:
    """Replay ``journal`` into a freshly built (empty) ``cluster``.

    The cluster must have been constructed with the journal's genesis
    topology and with ``cluster.journal`` unset — replayed commits must
    not be re-journaled.  The caller attaches the journal afterwards.
    """
    if cluster.journal is not None:
        raise DurabilityError(
            "replay_journal needs the cluster journal detached; attach it "
            "after replay so replayed commits are not re-journaled"
        )
    replay = journal.last_replay
    if replay is None:
        raise DurabilityError("journal was not opened from disk (no replay state)")
    report = ColdStartReport(
        floor=replay.floor,
        checkpoint_used=replay.checkpoint is not None,
        truncated_records=replay.truncated_records,
    )
    trace = TRACER.start_trace(
        "cold_start",
        attrs={
            "records": len(replay.records),
            "floor": replay.floor,
            "checkpoint": replay.checkpoint_lsn,
        },
    )
    try:
        with TRACER.span("cold_start.catalog", category="recovery"):
            drop_lsn = _rebuild_catalog(cluster, replay, report)
        with TRACER.span("cold_start.scavenge", category="recovery"):
            for node in cluster.nodes:
                scavenge = cluster.scavenge_node(node.index, node.manager)
                report.containers_quarantined += len(scavenge.quarantined)
        if replay.checkpoint is not None:
            cluster.epochs.current_epoch = max(
                INITIAL_EPOCH, replay.checkpoint["current_epoch"]
            )
        outcomes_before = truncate_outcome_counts()
        with TRACER.span(
            "cold_start.truncate", category="recovery", floor=replay.floor
        ) as span:
            for node in cluster.nodes:
                for copy in cluster.catalog.all_projections():
                    report.rows_truncated += node.manager.truncate_after_epoch(
                        copy.name, replay.floor
                    )
            outcomes = truncate_outcome_counts(since=outcomes_before)
            report.containers_kept = outcomes["containers_kept"]
            report.containers_rewritten = outcomes["containers_rewritten"]
            report.containers_dropped = outcomes["containers_dropped"]
            if span is not None:
                span.attrs.update(outcomes)
        with TRACER.span("cold_start.replay", category="recovery"):
            _replay_tail(cluster, replay, drop_lsn, report)
        _restore_epoch_marks(cluster, replay)
        with TRACER.span("cold_start.rejoin", category="recovery"):
            report.rejoin_ticks = _rejoin_all_nodes(cluster)
        report.projections = [
            copy.name for copy in cluster.catalog.all_projections()
        ]
        METRICS.inc("journal.replay.commits", report.commits_replayed)
        METRICS.inc("journal.replay.rows", report.rows_reinserted)
        return report
    finally:
        TRACER.end_trace(trace)


def _rebuild_catalog(cluster, replay, report) -> dict[str, int]:
    """Install the final catalog (checkpoint + DDL tail) and register
    every projection on every node.  Returns table -> LSN of its last
    ``drop_table`` record, so commit replay can skip epochs belonging
    to a dropped (possibly recreated) table."""
    catalog = cluster.catalog
    if replay.checkpoint is not None:
        decoded = replay.checkpoint["catalog"]
        for name in sorted(decoded.tables):
            catalog.add_table(decoded.tables[name])
        for name in sorted(decoded.families):
            catalog.add_family(decoded.families[name])
    drop_lsn: dict[str, int] = {}
    for record in replay.records:
        if record.kind == "drop_table":
            drop_lsn[record.payload["name"]] = record.lsn
        if record.lsn <= replay.checkpoint_lsn:
            continue  # the checkpoint catalog already reflects it
        if record.kind == "create_table":
            catalog.add_table(record.payload["table"])
            report.ddl_replayed += 1
        elif record.kind == "add_family":
            catalog.add_family(record.payload["family"])
            report.ddl_replayed += 1
        elif record.kind == "drop_table":
            catalog.drop_table(record.payload["name"])
            report.ddl_replayed += 1
    for name in sorted(catalog.tables):
        if not catalog.families_for_table(name):
            # Torn DDL: the journal's valid prefix ends between a
            # table's create record and its projection family.  The
            # table has no storage anywhere; treat the whole CREATE as
            # never having happened.
            catalog.drop_table(name)
    for node in cluster.nodes:
        for name in sorted(catalog.families):
            family = catalog.families[name]
            table = catalog.table(family.primary.anchor_table)
            for copy in family.all_copies:
                node.manager.register_projection(copy, table)
    return drop_lsn


def _replay_tail(cluster, replay, drop_lsn, report) -> None:
    """Re-apply committed epochs past the durable floor, in LSN order."""
    for record in replay.records:
        if record.kind == "commit":
            _replay_commit(cluster, record, replay.floor, drop_lsn, report)
        elif record.kind == "restore":
            cluster.epochs.current_epoch = max(
                cluster.epochs.current_epoch, record.payload["current_epoch"]
            )


def _replay_commit(
    cluster, record: JournalRecord, floor: int, drop_lsn, report
) -> None:
    """Replay's own part of a commit — the clock, the floor, tables
    dropped since, the report; the storage changes are
    :meth:`Cluster.apply_commit`'s, exactly as when it first ran."""
    payload = record.payload
    epoch = payload["epoch"]
    # Advance the epoch clock past every journaled commit, replayed or
    # not — rows recovered from disk at ``epoch`` are only visible once
    # latest_queryable reaches it.
    cluster.epochs.current_epoch = max(cluster.epochs.current_epoch, epoch + 1)
    if epoch <= floor:
        # Fully in ROS on every node at the last all-up mover cycle;
        # scavenge already recovered it from disk.
        return
    inserts = {
        name: inserted
        for name, inserted in payload["inserts"].items()
        if not _skip_table(cluster, name, record.lsn, drop_lsn)
    }
    deletes = [
        delete
        for delete in payload["deletes"]
        if not _skip_table(cluster, delete["table"], record.lsn, drop_lsn)
    ]
    cluster.apply_commit({**payload, "inserts": inserts, "deletes": deletes})
    report.rows_reinserted += sum(map(_row_count, inserts.values()))
    report.rows_redeleted += sum(_row_count(delete["columns"]) for delete in deletes)
    report.commits_replayed += 1


def _row_count(columns: dict[str, list]) -> int:
    return len(next(iter(columns.values()), ()))


def _skip_table(cluster, table_name, lsn, drop_lsn) -> bool:
    if table_name not in cluster.catalog.tables:
        return True
    return lsn < drop_lsn.get(table_name, -1)


def _restore_epoch_marks(cluster, replay) -> None:
    """Re-establish AHM and per-(node, projection) Last Good Epochs.

    Every copy's LGE is set to the latest queryable epoch: the replay
    above restored each node's full state (floor from disk, tail from
    the journal), so each node can rejoin from its own disk through
    recovery's LGE-current shortcut.  The claim is provisional until
    the next all-up mover cycle — which is exactly why the journal's
    floor (and checkpoints built on it) only advance at such a cycle.
    """
    if replay.floor > 0:
        # The floor is an epoch that fully committed (and drained);
        # even if its commit records were pruned, the clock must sit
        # past it for the disk-recovered rows to be queryable.
        cluster.epochs.current_epoch = max(
            cluster.epochs.current_epoch, replay.floor + 1
        )
    current = cluster.epochs.latest_queryable_epoch
    ahm = 0
    if replay.checkpoint is not None:
        ahm = min(replay.checkpoint["ahm"], current)
    cluster.epochs.ahm = max(ahm, 0)
    for node in cluster.nodes:
        # a copy that lost a container to quarantine holds less than any
        # epoch certifies: at LGE 0 its rejoin rebuilds it from its buddy
        damaged = {record.projection for record in node.manager.quarantined}
        for copy in cluster.catalog.all_projections():
            if copy.name not in damaged:
                cluster.epochs.set_lge(node.index, copy.name, current)


def _rejoin_all_nodes(cluster) -> int:
    """Hand every node to the supervisor in SCAVENGED state and run
    the recovery state machine until the cluster converges.  Its node
    events reach disk in one Data Collector flush, after convergence,
    not one per state transition."""
    from ..cluster.supervisor import SCAVENGED

    now = cluster.clock.now
    cluster.defer_event_flush = True
    try:
        for node_index in range(cluster.node_count):
            cluster.membership.eject(node_index, "cold start")
            cluster.epochs.node_down(node_index)
            cluster.supervisor._transition(node_index, SCAVENGED, now)
        ticks = cluster.supervisor.run_until_converged()
    finally:
        cluster.defer_event_flush = False
    cluster.dc.flush()
    return ticks
