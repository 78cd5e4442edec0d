"""The simulated shared-nothing cluster.

Owns the catalog, the epoch clock, the lock manager, group membership
and the per-node storage.  This is the layer where the paper's
distributed behaviours live:

* projection routing — replicated vs ring-segmented placement, buddy
  copies at offset rings (sections 3.6, 5.2);
* the commit protocol — broadcast, commit-or-eject, quorum
  (section 5);
* prejoin projection maintenance during load (section 3.3);
* buddy failover for reads and the K-safety / availability rules
  (sections 5.2-5.3);
* per-node autonomous tuple movers and LGE bookkeeping (section 4).
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from typing import TYPE_CHECKING

from .. import faults
from ..columnar.vectors import as_list
from ..dc import DataCollector
from ..core.catalog import Catalog
from ..core.schema import TableDefinition
from ..errors import (
    CatalogError,
    DataUnavailableError,
    InjectedFaultError,
    KSafetyError,
    SqlAnalysisError,
    UnknownObjectError,
)
from ..monitor import METRICS
from ..storage import HistoryRun, ScavengeReport, StorageManager
from ..projections import (
    HashSegmentation,
    PrejoinSpec,
    ProjectionDefinition,
    ProjectionFamily,
    Replicated,
    make_buddy,
    super_projection,
)
from ..projections.segmentation import split_by_range
from ..trace import TRACER
from ..tuple_mover import CycleMemo, MergePolicy
from ..txn import EpochManager, LockManager
from .clock import SimulatedClock
from .membership import Membership
from .node import ClusterNode

if TYPE_CHECKING:
    from ..durability import Journal


class Cluster:
    """A K-safe, shared-nothing analytic database cluster (simulated)."""

    def __init__(
        self,
        root: str,
        node_count: int = 3,
        k_safety: int = 1,
        segments_per_node: int = 3,
        wos_capacity: int = 65536,
        merge_policy: MergePolicy | None = None,
        journal: "Journal | None" = None,
        dc_persist: bool = False,
        dc_fresh: bool = False,
        dc_retention=None,
    ):
        if k_safety >= node_count and node_count > 1:
            raise KSafetyError(
                f"k_safety={k_safety} requires more than {node_count} nodes"
            )
        if node_count == 1:
            k_safety = 0
        self.root = root
        self.node_count = node_count
        self.k_safety = k_safety
        self.catalog = Catalog()
        #: Optional write-ahead journal.  When set, catalog DDL and
        #: committed DML are journaled *before* the in-memory apply so
        #: :meth:`repro.core.database.Database.open` can replay them
        #: after a crash.  ``None`` for throwaway/test clusters.
        self.journal = journal
        #: The :class:`repro.core.Database` serving this cluster, which
        #: a ``v_monitor`` scan reads (set by it; None for a bare cluster).
        self.database = None
        self.epochs = EpochManager()
        self.locks = LockManager()
        self.membership = Membership(node_count)
        self.nodes = [
            ClusterNode.create(
                root,
                index,
                node_count,
                segments_per_node=segments_per_node,
                wos_capacity=wos_capacity,
                merge_policy=merge_policy,
            )
            for index in range(node_count)
        ]
        #: Simulated monotonic time every cluster timing runs off
        #: (heartbeats, recovery backoff) — never the wall clock, so
        #: chaos runs stay seed-reproducible (replint R8 enforces it).
        self.clock = SimulatedClock()
        #: The Data Collector: every operationally interesting event
        #: (requests, query profiles, admissions, lock waits, node and
        #: failover events, tuple-mover cycles, errors) lands in its
        #: retention-bounded rings and nowhere else; the ``v_monitor``
        #: history tables are column maps over them.  Persistence is on
        #: for durable databases so history survives ``Database.open()``.
        self.dc = DataCollector(
            os.path.join(root, "dc"),
            clock=self.clock,
            persist=dc_persist,
            fresh=dc_fresh,
            retention=dc_retention,
        )
        #: Set while a cold start rejoins the nodes: failover events
        #: then wait for the one flush after the cluster converges.
        self.defer_event_flush = False
        # the lower layers emit through duck-typed ``collector``
        # attributes so txn/tuple_mover never import repro.dc.
        self.locks.collector = self.dc
        self.membership.collector = self.dc
        for node in self.nodes:
            node.mover.collector = self.dc
        from .supervisor import ClusterSupervisor

        #: The auto-recovery supervisor; :meth:`ClusterSupervisor.tick`
        #: detects failures and drives down nodes back to currency.
        self.supervisor = ClusterSupervisor(self)

    def record_failover_event(
        self, kind: str, node_index: int, detail: str, attempt: int = 0
    ) -> None:
        """Record one availability incident (``ejection``,
        ``query_retry``, ``recovery_transition``, ``quarantine``,
        ``degraded_mode``; ``node_index`` -1 = cluster-wide) in the
        collector's ``node_events`` ring — served as
        ``v_monitor.dc_node_events`` — and flush:
        node deaths and recovery transitions are rare and precious, so
        they go durable immediately, except inside a cold start's rejoin
        (:attr:`defer_event_flush`), which flushes once when it is done."""
        name = f"node{node_index:02d}" if node_index >= 0 else "-"
        self.dc.record(
            "node_events",
            kind,
            defer_flush=self.defer_event_flush,
            node_index=node_index,
            node_name=name,
            attempt=attempt,
            detail=detail,
        )
        if not self.defer_event_flush:
            self.dc.flush()

    # -- DDL ---------------------------------------------------------------

    def create_table(
        self,
        table: TableDefinition,
        sort_order: list[str] | None = None,
        segmentation=None,
        encodings: dict[str, str] | None = None,
    ) -> ProjectionFamily:
        """Register a table and build its super projection family
        (primary + K buddies), with storage on every node."""
        from ..durability import encode_table

        record = {"table": encode_table(table)}  # (refuses what a reopen could not read)
        self.catalog.add_table(table)
        if self.journal is not None:
            self.journal.log_ddl("create_table", record)
        primary = super_projection(
            table,
            sort_order=sort_order,
            segmentation=segmentation,
            encodings=encodings,
        )
        return self.add_projection_family(primary, populate=False)

    def add_projection_family(
        self, primary: ProjectionDefinition, populate: bool = True
    ) -> ProjectionFamily:
        """Register a projection (creating buddies per K-safety) and,
        when ``populate`` is set, refresh it from existing table data."""
        table = self.catalog.table(primary.anchor_table)
        missing = set(table.partition_columns()) - set(primary.column_names)
        if missing:
            # each node keys a row's partition from its own copy of it;
            # refused before the journal: apply_commit cannot reject
            raise CatalogError(
                f"projection {primary.name!r} omits {sorted(missing)}, which the "
                f"partition expression of table {table.name!r} reads"
            )
        buddies = []
        if not primary.segmentation.replicated and self.k_safety > 0:
            buddies = [
                make_buddy(primary, offset)
                for offset in range(1, self.k_safety + 1)
            ]
        family = ProjectionFamily(primary, buddies)
        self.catalog.add_family(family)
        if self.journal is not None:
            from ..durability import encode_family

            self.journal.log_ddl("add_family", {"family": encode_family(family)})
        for node in self.nodes:
            for copy in family.all_copies:
                node.manager.register_projection(copy, table)
        if populate:
            from .recovery import refresh_projection

            refresh_projection(self, family)
        return family

    def drop_table(self, name: str) -> None:
        """Drop a table and all of its projections' storage."""
        removed = self.catalog.drop_table(name)
        if self.journal is not None:
            self.journal.log_ddl("drop_table", {"name": name})
        for node in self.nodes:
            for projection in removed:
                node.manager.drop_projection(projection.name)

    # -- routing --------------------------------------------------------

    def shape_run(
        self,
        projection: ProjectionDefinition,
        table_run: HistoryRun,
        dimension_epochs: list[int],
        own_inserts: dict[str, HistoryRun] | None = None,
    ) -> HistoryRun:
        """A run of table rows shaped for ``projection`` and its buddies:
        the column subset, aliasing the run's lists, or a prejoin
        expansion — row ``i`` joined to the dimension as it stood at
        ``dimension_epochs[i]`` (read once per distinct epoch) plus, for
        a commit, the rows the same commit inserts into the dimension,
        ``own_inserts``.  The join is a gather: each epoch's dimension
        key column is indexed once, the anchor key column probes it, and
        a carried column is the dimension column picked at the positions
        found.  Raises :class:`SqlAnalysisError` for an anchor key no
        dimension row holds."""
        if projection.prejoin is None:
            return table_run.project(projection.column_names)
        spec: PrejoinSpec = projection.prejoin
        own = (own_inserts or {}).get(spec.dimension_table)
        names = list(dict.fromkeys([spec.dimension_key, *spec.carried_columns]))
        dimension: dict[str, list] = {name: [] for name in names}
        index_of: dict[int, dict] = {}
        for epoch in set(dimension_epochs):
            columns = self.read_columns(spec.dimension_table, epoch, names)
            start = len(dimension[spec.dimension_key])
            for name in names:
                dimension[name] += columns[name]
                if own is not None:
                    dimension[name] += own.columns[name]
            keys = dimension[spec.dimension_key]
            # a key held twice answers with its last row
            index_of[epoch] = dict(zip(keys[start:], range(start, len(keys))))
        anchor_keys = table_run.columns[spec.anchor_key]
        positions = [
            index_of[epoch].get(key) for epoch, key in zip(dimension_epochs, anchor_keys)
        ]
        if None in positions:
            raise SqlAnalysisError(
                f"prejoin load: no {spec.dimension_table} row with "
                f"{spec.dimension_key}={anchor_keys[positions.index(None)]!r}"
            )
        columns = {name: table_run.columns[name] for name in projection.own_column_names}
        for source, target in spec.carried_columns.items():
            columns[target] = list(map(dimension[source].__getitem__, positions))
        return HistoryRun(
            {name: columns[name] for name in projection.column_names},
            table_run.epochs,
            table_run.delete_epochs,
        )

    def route_rows(
        self, projection: ProjectionDefinition, run: HistoryRun
    ) -> dict[int, HistoryRun]:
        """node index -> the rows of ``run`` that belong on it under the
        projection's segmentation, by their ring positions.  The split
        by ring range is derived from ``run`` once (positions hashed
        here unless the run carries them): every copy of the family
        hands the same run of a range to its node — a buddy rotates the
        node, not the range — so what a node builds from it, the next
        copy's node can take.  Replicated projections map every row to
        every node (down nodes included; they catch up via recovery)."""
        scheme = projection.segmentation
        if scheme.replicated:
            return dict.fromkeys(range(self.node_count), run.shared())
        by_range = run.shared().derive(
            ("ranges", scheme.columns, self.node_count),
            lambda: self._split_by_range(scheme, run),
        )
        return {
            scheme.node_for_range(ring_range, self.node_count): part
            for ring_range, part in by_range.items()
        }

    def _split_by_range(
        self, scheme: HashSegmentation, run: HistoryRun
    ) -> dict[int, HistoryRun]:
        """ring range -> the rows of ``run`` in it (the run itself when
        it is all one range)."""
        if run.positions is None:
            run.positions = scheme.ring_positions(run.columns)
        routed = split_by_range(run.positions, self.node_count)
        if len(routed) == 1:
            return dict.fromkeys(routed, run)
        return {
            ring_range: run.take(indexes).shared()
            for ring_range, indexes in routed.items()
        }

    # -- DML application ------------------------------------------------

    def apply_commit(self, record: dict, only_nodes: set[int] | None = None) -> None:
        """Turn one commit record — the payload
        :meth:`repro.durability.Journal.log_commit` stores — into
        storage changes on the given (up) nodes.  The only code that
        does: :meth:`commit_dml` calls it right after journalling the
        record and cold start calls it for every record past the floor,
        so a replayed commit is the live commit run again.

        The record was checked when it was built, so nothing here can
        reject it.  Inserts go table by table in name order (a function
        of the record alone: the transaction's statement order is not
        journalled), each a run built straight from the record's
        columns, into every projection copy; deletes mark the
        record's row multiset (columns too) by value
        (:meth:`StorageManager.delete_where`) in every copy, covered or
        narrow.
        """
        epoch = record["epoch"]
        targets = set(self.membership.up) if only_nodes is None else set(only_nodes)

        def copies(table_name):
            for family in self.catalog.families_for_table(table_name):
                yield from family.all_copies

        def on_node(node_index, change):
            if not self._deliverable(node_index, targets):
                return
            try:
                change(self.nodes[node_index].manager)
            except InjectedFaultError:
                # one node dying mid-apply does not abort the cluster
                # commit: it is ejected and the commit proceeds on the
                # survivors (section 5).
                self._node_crashed(node_index, "crashed applying a commit")

        # the record holds each table's columns: every copy below shares
        # its lists, which alias the record's values
        inserted = {
            table_name: HistoryRun.stamped(columns, epoch)
            for table_name, columns in record["inserts"].items()
        }
        for table_name, table_run in sorted(inserted.items()):
            for family in self.catalog.families_for_table(table_name):
                # once per family: a prejoin sees the dimension as it stood
                # before this epoch plus the record's own rows (what
                # commit_dml checked); route_rows hashes and splits it once,
                # and every copy's node is handed the same run of a ring
                # range, so each container is sorted and encoded once
                shaped = self.shape_run(
                    family.primary, table_run, [epoch - 1] * len(table_run), inserted
                )
                for copy in family.all_copies:
                    for node_index, node_run in self.route_rows(copy, shaped).items():
                        on_node(
                            node_index,
                            lambda manager: manager.insert(
                                copy.name, node_run, epoch, record["direct_to_ros"]
                            ),
                        )
        for delete in record["deletes"]:
            for copy in copies(delete["table"]):
                for node_index in sorted(targets):
                    on_node(
                        node_index,
                        lambda manager: manager.delete_where(
                            copy.name, delete["columns"], epoch, record["snapshot_epoch"]
                        ),
                    )

    # -- reads -----------------------------------------------------------

    def serving_copy(
        self, family: ProjectionFamily, segment: int, excluding: int | None = None
    ) -> tuple[int, str]:
        """The (node, projection copy) ring segment ``segment`` of
        ``family`` is read from: the one answer scans, the availability
        check, failover and recovery all take (section 5.2).

        A segmented family's segment comes from the first copy in
        ``family.all_copies`` whose host for it is up and is not
        ``excluding`` — the primary, else the buddy at the next offset.
        A replicated family's comes from node ``segment`` itself under
        the same test, else from the lowest node that passes it.  With
        no such copy it raises :class:`DataUnavailableError` naming the
        segment, the family and the table — the condition that shuts a
        real cluster down (section 5.3)."""
        primary = family.primary
        is_up = self.membership.is_up
        if primary.segmentation.replicated:
            for host in (segment, *self.membership.up_nodes()):
                if host != excluding and is_up(host):
                    return host, primary.name
        else:
            for copy in family.all_copies:
                host = copy.segmentation.node_for_range(segment, self.node_count)
                if host != excluding and is_up(host):
                    return host, copy.name
        besides = "" if excluding is None else f" besides node {excluding}"
        raise DataUnavailableError(
            f"segment {segment} of projection family {primary.name} "
            f"(table {primary.anchor_table}) has no reachable copy{besides}"
        )

    def scan_sources(
        self, family: ProjectionFamily
    ) -> list[tuple[int, str]]:
        """(node, projection copy) pairs that together cover the family's
        full row set from up nodes: each ring segment's serving copy (a
        replicated family is one segment — any copy holds every row)."""
        segments = 1 if family.primary.segmentation.replicated else self.node_count
        return [self.serving_copy(family, segment) for segment in range(segments)]

    def resolve_sources(
        self, first: Iterable[str] = ()
    ) -> dict[str, list[tuple[int, str]]]:
        """One pass over the catalog's families: family name -> the
        serving copy of ring segments ``0 .. N-1``, the families named
        in ``first`` resolved first so an error names one of them.

        This is the paper's safety-shutdown check (section 5.3): a
        cluster with *any* segment that has no reachable copy refuses
        reads, it does not keep serving the tables that happen to
        survive.  The pass is the one writer of the
        ``cluster.data_available`` gauge."""
        families = self.catalog.families
        try:
            resolved = {
                name: [
                    self.serving_copy(families[name], segment)
                    for segment in range(self.node_count)
                ]
                for name in dict.fromkeys([*first, *sorted(families)])
            }
        except DataUnavailableError:
            METRICS.set_gauge("cluster.data_available", 0)
            raise
        METRICS.set_gauge("cluster.data_available", 1)
        return resolved

    def read_columns(
        self, table_name: str, epoch: int, names: list[str] | None = None
    ) -> dict[str, list]:
        """The rows of a table visible at ``epoch``, column-wise: a fresh
        list per column of ``names`` (default: every table column), read
        by the storage scan from the up copies of its super projection.
        The coordinator's one whole-table read — prejoin expansion,
        statistics, the Designer's sample — and it builds no row."""
        family = self.catalog.super_projection_for(table_name)
        names = list(names or self.catalog.table(table_name).column_names)
        columns: dict[str, list] = {name: [] for name in names}
        for node_index, projection_name in self.scan_sources(family):
            manager = self.nodes[node_index].manager
            for batch in manager.scan(projection_name, epoch, columns=names):
                for name, values in columns.items():
                    values += as_list(batch.columns[name])
        return columns

    def collect_history(self, family: ProjectionFamily) -> HistoryRun:
        """The history of the whole family, one run, from up nodes —
        the replay log for refresh and rebalance."""
        return HistoryRun.concat(
            [
                self.nodes[node_index].manager.history(projection_name)
                for node_index, projection_name in self.scan_sources(family)
            ]
        )

    # -- commit protocol ----------------------------------------------------

    def table_run(self, table_name: str, rows: list[dict]) -> HistoryRun:
        """Row dicts holding exactly the table's columns, pivoted once
        into the run a transaction buffers (epochs 0: unstamped)."""
        names = self.catalog.table(table_name).column_names
        try:
            if set(map(len, rows)) <= {len(names)}:
                return HistoryRun.from_rows(names, rows, [0] * len(rows))
        except KeyError:  # a row lacks a column
            pass
        wrong = next(row for row in rows if set(row) != set(names))
        raise SqlAnalysisError(
            f"row columns {sorted(wrong)} do not match table "
            f"{table_name!r} columns {sorted(names)}"
        )

    def commit_dml(
        self,
        inserts: dict[str, HistoryRun | list[dict]],
        deletes: list[tuple[str, dict[str, list] | list[dict]]],
        snapshot_epoch: int,
        direct_to_ros: bool = False,
    ) -> int:
        """Run the cluster commit: build the commit record, broadcast,
        eject nodes that missed the message, advance the epoch, journal
        the record, apply it.

        Returns the commit epoch.  ``inserts`` maps a table to the run a
        transaction buffered for it (row dicts from a direct caller are
        pivoted at the door, :meth:`table_run`); the record holds its
        columns.  ``deletes`` is a list of (table, victim columns) pairs,
        one per table: the row multiset the transaction's DELETEs
        selected at ``snapshot_epoch``
        (:meth:`repro.core.database.Session.commit` finds it with a
        Scan; a direct caller's victim rows are pivoted at the same
        door).  The record carries those columns, never a predicate.
        """
        # Build: everything that can reject the commit runs here, with
        # the epoch clock, the membership and the journal untouched —
        # columns are type-checked and normalised, every prejoin anchor
        # is shown to resolve.
        runs = {}
        for table_name, run in inserts.items():
            if not isinstance(run, HistoryRun):
                run = self.table_run(table_name, run)
            table = self.catalog.table(table_name)
            runs[table_name] = HistoryRun(table.validate_columns(run.columns), run.epochs)
        for table_name, run in runs.items():
            for family in self.catalog.families_for_table(table_name):
                if family.primary.prejoin is not None:
                    self.shape_run(
                        family.primary, run,
                        [self.epochs.latest_queryable_epoch] * len(run), runs,
                    )
        inserts = {table_name: run.columns for table_name, run in runs.items()}
        deletes = [
            (name, rows if isinstance(rows, dict) else self.table_run(name, rows).columns)
            for name, rows in deletes
        ]
        receivers = set(self.membership.broadcast_commit())
        # a *delayed* delivery ejects the node (no 2PC retry) but the
        # late message still lands there; recovery truncates it back to
        # the LGE, which is why eject-don't-retry stays consistent.
        appliers = receivers | set(self.membership.late_receivers)
        for node in self.membership.down_nodes():
            self.epochs.node_down(node)
        commit_epoch = self.epochs.advance_for_commit()
        if self.journal is not None:
            # Write-ahead: the commit record is durable before any
            # in-memory apply, so a crash anywhere past this line is
            # recovered by replaying the journal at cold start.
            self.journal.log_commit(
                epoch=commit_epoch,
                snapshot_epoch=snapshot_epoch,
                inserts=inserts,
                deletes=deletes,
                direct_to_ros=direct_to_ros,
            )
            faults.inject("journal.commit.apply")
        self.apply_commit(
            {
                "epoch": commit_epoch,
                "snapshot_epoch": snapshot_epoch,
                "direct_to_ros": direct_to_ros,
                "inserts": inserts,
                "deletes": [{"table": name, "columns": columns} for name, columns in deletes],
            },
            only_nodes=appliers,
        )
        self.membership.late_receivers = []
        METRICS.inc("cluster.commits")
        METRICS.inc("cluster.committed_rows", sum(map(len, runs.values())))
        METRICS.set_gauge("cluster.current_epoch", commit_epoch)
        return commit_epoch

    # -- failures ------------------------------------------------------------

    def _deliverable(self, node_index: int, targets: set[int]) -> bool:
        """Whether committed DML should be applied on ``node_index``.

        Normally the node must be a target and up; a node on the
        ``late_receivers`` list was ejected for a *delayed* delivery but
        the late message still reaches it, so the DML lands there too —
        recovery truncates it back to the LGE later.
        """
        if node_index not in targets:
            return False
        return (
            self.membership.is_up(node_index)
            or node_index in self.membership.late_receivers
        )

    def _eject_and_freeze(self, node_index: int, reason: str) -> None:
        """Bookkeeping shared by every node-death path: eject the node,
        freeze its epoch accounting (AHM holds) and drop its volatile
        WOS state.  Never checks quorum — callers on the *write* path
        add :meth:`Membership.require_quorum`; read paths keep
        answering below quorum as long as data is available."""
        self.membership.eject(node_index, reason)
        self.epochs.node_down(node_index)
        manager = self.nodes[node_index].manager
        for projection_name in manager.projection_names():
            manager.storage(projection_name).wos.drain()
        if node_index in self.membership.late_receivers:
            self.membership.late_receivers.remove(node_index)

    def _node_crashed(self, node_index: int, reason: str) -> None:
        """Handle a node dying mid-*write* (injected or simulated):
        eject it and raise :class:`QuorumLossError` if the survivors
        cannot form a quorum.  Commit-or-eject means the cluster keeps
        going as long as quorum holds."""
        self._eject_and_freeze(node_index, reason)
        self.membership.require_quorum()

    def note_node_failure(self, node_index: int, reason: str) -> None:
        """Mark a node down from the *read* path (a query hit it dead
        mid-scan).  Unlike :meth:`_node_crashed` this never raises on
        quorum loss: below quorum the cluster rejects writes but keeps
        answering reads from surviving copies (section 5.3), so the
        failover loop that calls this must be able to continue."""
        if not self.membership.is_up(node_index):
            return
        self._eject_and_freeze(node_index, reason)
        METRICS.inc("cluster.nodes_failed")
        self.record_failover_event("ejection", node_index, reason)
        if not self.membership.has_quorum():
            METRICS.set_gauge("cluster.has_quorum", 0)
            self.record_failover_event(
                "degraded_mode",
                -1,
                "quorum lost: writes rejected, reads continue while "
                "data is available",
            )

    def fail_node(self, node_index: int) -> None:
        """Take a node down (crash simulation).  Its WOS contents are
        lost — exactly why the Last Good Epoch exists."""
        self._node_crashed(node_index, "simulated failure")

    def restart_node(self, node_index: int) -> ScavengeReport:
        """Bring a crashed node's process back up from its on-disk
        state: rebuild the storage manager over the surviving files,
        scavenge away half-committed debris and quarantine anything
        corrupt.  The node stays *down* in the membership until
        :func:`repro.cluster.recovery.recover_node` replays it back to
        currency and rejoins it.
        """
        old = self.nodes[node_index]
        manager = StorageManager(
            old.manager.root,
            node_count=self.node_count,
            node_index=node_index,
            segments_per_node=old.manager.segments_per_node,
            wos_capacity=old.manager.wos_capacity,
        )
        # known already: not reported again, and a repair still purges it
        manager.quarantined = old.manager.quarantined
        for _, family in sorted(self.catalog.families.items()):
            table = self.catalog.table(family.primary.anchor_table)
            for copy in family.all_copies:
                manager.register_projection(copy, table)
        report = self.scavenge_node(node_index, manager)
        self.nodes[node_index] = ClusterNode(
            index=node_index, manager=manager, merge_policy=old.merge_policy
        )
        self.nodes[node_index].mover.collector = self.dc
        return report

    def scavenge_node(
        self, node_index: int, manager: StorageManager
    ) -> ScavengeReport:
        """Scavenge ``manager``, node ``node_index``'s storage, recording
        every container it quarantines in ``dc_errors``.  A copy that
        lost one holds less than its Last Good Epoch says: the LGE drops
        to 0, so recovery rebuilds the copy from its buddy."""
        report = manager.scavenge()
        for quarantined in report.quarantined:
            self.epochs.invalidate_lge(node_index, quarantined.projection)
            self.dc.record(
                "errors",
                "quarantined_container",
                source="scavenge",
                node_index=node_index,
                detail=f"{quarantined.projection}: {quarantined.reason}",
            )
        return report

    def scrub(self, repair: bool = True):
        """Verify every container on every up node against its stored
        checksums; quarantine failures and (by default) rebuild them
        from buddy copies.  See :func:`repro.cluster.recovery.scrub`."""
        from .recovery import scrub

        return scrub(self, repair=repair)

    def check_data_available(self) -> bool:
        """Whether every projection family still has every segment
        reachable (the paper's shutdown criterion)."""
        try:
            self.resolve_sources()
        except DataUnavailableError:
            return False
        return True

    # -- maintenance -----------------------------------------------------------

    def run_tuple_movers(self, advance_ahm: bool = True) -> None:
        """One tuple mover cycle on every up node: moveout (advancing
        each projection's LGE), then mergeout at the current AHM.

        Each cycle is its own trace (not a child of whatever statement
        happened to trigger the commit): tuple mover work is background
        maintenance, "not centrally coordinated", and reads as such in
        the exported timeline."""
        trace = TRACER.start_trace(
            "tuple_mover.cycle", attrs={"advance_ahm": advance_ahm}
        )
        try:
            if advance_ahm:
                self.epochs.advance_ahm()
            durable_epoch = self.epochs.latest_queryable_epoch
            memo = CycleMemo(self.k_safety, len(self.membership.up) - 1)
            for node_index in self.membership.up_nodes():
                node = self.nodes[node_index]
                try:
                    for projection_name in node.manager.projection_names():
                        node.mover.moveout(projection_name, memo)
                        node.manager.persist_delete_vectors(projection_name)
                        if durable_epoch > self.epochs.lge(node_index, projection_name):
                            self.epochs.set_lge(
                                node_index, projection_name, durable_epoch
                            )
                        node.mover.mergeout(projection_name, self.epochs.ahm, memo)
                except InjectedFaultError:
                    # the tuple mover is node-local: one node dying mid
                    # moveout/mergeout never blocks the others.  Its LGE
                    # stays behind, so recovery replays the lost tail.
                    self._node_crashed(node_index, "crashed in tuple mover")
            self._advance_durable_floor()
            # mover cycles are the natural batching boundary for the
            # collector's own durability.
            self.dc.flush()
        finally:
            TRACER.end_trace(trace)

    def _advance_durable_floor(self) -> None:
        """Advance the journal's durable floor after a mover cycle.

        Only when every node is up *right after* a full moveout pass is
        ``cluster_lge()`` genuinely durable (each copy just drained its
        WOS into ROS), so only then may the floor — and a checkpoint
        built on it — advance.  Commits at or below the floor are never
        replayed, which is what makes pruning their segments safe.
        """
        if self.journal is None or self.membership.down_nodes():
            return
        floor = self.epochs.cluster_lge()
        self.journal.log_floor(floor)
        if self.journal.should_checkpoint():
            from ..durability import encode_catalog

            self.journal.write_checkpoint(
                floor=floor,
                current_epoch=self.epochs.current_epoch,
                ahm=self.epochs.ahm,
                catalog=encode_catalog(self.catalog),
            )
            self.dc.record(
                "node_events",
                "journal_checkpoint",
                node_index=-1,
                node_name="-",
                attempt=0,
                detail=f"floor={floor} epoch={self.epochs.current_epoch}",
            )

    # -- introspection -----------------------------------------------------------

    def total_data_bytes(self) -> int:
        """Encoded user data bytes across the whole cluster."""
        return sum(node.manager.total_data_bytes() for node in self.nodes)

    def node(self, index: int) -> ClusterNode:
        """Access a node by index."""
        try:
            return self.nodes[index]
        except IndexError:
            raise UnknownObjectError(f"no node {index}") from None
