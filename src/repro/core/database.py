"""The public database facade.

:class:`Database` assembles the whole system — simulated cluster,
epoch-based transactions, locking, statistics, the planner and the
distributed executor — behind the API an
application would use.  :class:`Session` provides transactions with the
paper's semantics: snapshot reads that take no locks (section 5),
Insert/Exclusive table locks for writers (Table 1), UPDATE as
delete-plus-insert (section 3.7.1), and commit through the cluster
agreement protocol.
"""

from __future__ import annotations

import os
from time import perf_counter

from ..cluster import Cluster, recover_node
from ..columnar.row_block import RowBlock
from ..durability.journal import DEFAULT_CHECKPOINT_INTERVAL
from ..errors import DurabilityError
from ..execution.executor import DistributedExecutor, ExecutorStats
from ..lint.concur.runtime import TrackedLock
from ..monitor import METRICS, QueryProfile, build_query_profile
from ..monitor.tables import is_monitor_table, reads_monitor
from ..execution.expressions import ColumnRef, Expr, Literal, Or
from ..execution.kernels.predicates import compile_kernel_predicate
from ..execution.resource import ResourcePool, WorkloadPolicy
from ..optimizer import PlannerBase, StatsCatalog
from ..optimizer.logical import LogicalNode, ProjectNode, ScanNode
from ..optimizer.planner import _copy_nodes
from ..storage import HistoryRun
from ..tuple_mover import MergePolicy
from ..txn import IsolationLevel, LockMode, PendingDelete, Transaction, TxnStatus
from .schema import TableDefinition

class Database:
    """A single-process simulation of a Vertica-style cluster."""

    def __init__(
        self,
        path: str,
        node_count: int = 3,
        k_safety: int = 1,
        segments_per_node: int = 3,
        wos_capacity: int = 65536,
        merge_policy: MergePolicy | None = None,
        workload_policy: WorkloadPolicy | None = None,
        durable: bool = True,
        journal_checkpoint_interval: int | None = None,
    ):
        from ..durability import Journal

        journal_dir = os.path.join(path, "journal")
        if durable and Journal.exists(journal_dir):
            raise DurabilityError(
                f"a journal already exists at {journal_dir!r}; use "
                "Database.open() to restart from it (or pass "
                "durable=False for a throwaway database)"
            )
        self._setup(
            path,
            node_count=node_count,
            k_safety=k_safety,
            segments_per_node=segments_per_node,
            wos_capacity=wos_capacity,
            merge_policy=merge_policy,
            workload_policy=workload_policy,
            # operational history persists with the data; a fresh
            # database wipes any stale collector segments at its path.
            dc_persist=durable,
            dc_fresh=True,
        )
        if durable:
            self.cluster.journal = Journal.create(
                journal_dir,
                genesis={
                    "node_count": node_count,
                    "k_safety": k_safety,
                    "segments_per_node": segments_per_node,
                    "wos_capacity": wos_capacity,
                },
                checkpoint_interval=(
                    journal_checkpoint_interval
                    if journal_checkpoint_interval is not None
                    else DEFAULT_CHECKPOINT_INTERVAL
                ),
            )

    @classmethod
    def open(
        cls,
        path: str,
        merge_policy: MergePolicy | None = None,
        workload_policy: WorkloadPolicy | None = None,
        journal_checkpoint_interval: int | None = None,
    ) -> "Database":
        """Cold-start a database from its on-disk state.

        Reopens the write-ahead journal at ``<path>/journal``, rebuilds
        a cluster with the journaled topology, replays checkpoint +
        journal tail against the scavenged ROS containers, truncates
        anything past the durable floor, and rejoins every node through
        the supervisor's recovery state machine.  The replay summary is
        left on ``db.replay_report``.
        """
        from ..durability import Journal, replay_journal

        journal = Journal.open(
            os.path.join(path, "journal"),
            checkpoint_interval=(
                journal_checkpoint_interval
                if journal_checkpoint_interval is not None
                else DEFAULT_CHECKPOINT_INTERVAL
            ),
        )
        genesis = journal.genesis
        db = cls.__new__(cls)
        db._setup(
            path,
            node_count=genesis["node_count"],
            k_safety=genesis["k_safety"],
            segments_per_node=genesis["segments_per_node"],
            wos_capacity=genesis["wos_capacity"],
            merge_policy=merge_policy,
            workload_policy=workload_policy,
            # cold start: recover the Data Collector's segments so
            # dc_* history spans the pre-restart incarnation.
            dc_persist=True,
            dc_fresh=False,
        )
        db.replay_report = replay_journal(db.cluster, journal)
        db.cluster.journal = journal
        return db

    def _setup(
        self,
        path: str,
        *,
        node_count: int,
        k_safety: int,
        segments_per_node: int,
        wos_capacity: int,
        merge_policy: MergePolicy | None,
        workload_policy: WorkloadPolicy | None,
        dc_persist: bool = False,
        dc_fresh: bool = False,
    ) -> None:
        #: Resource-management policy applied to every query (section 7
        #: "Resource Management"); operators spill to disk rather than
        #: exceed it.
        self.workload_policy = workload_policy or WorkloadPolicy()
        self.cluster = Cluster(
            path,
            node_count=node_count,
            k_safety=k_safety,
            segments_per_node=segments_per_node,
            wos_capacity=wos_capacity,
            merge_policy=merge_policy,
            dc_persist=dc_persist,
            dc_fresh=dc_fresh,
        )
        #: Cold-start summary (:class:`repro.durability.ColdStartReport`)
        #: when this database came up through :meth:`open`; else None.
        self.replay_report = None
        self.stats = StatsCatalog()
        self._txn_id_lock = TrackedLock("Database._txn_id_lock")
        self._next_txn_id = 1  # concurrency: guarded-by(self._txn_id_lock)
        #: Serializes commit application across sessions: the storage
        #: substrate (WOS lists, delete vectors, epoch advance) is
        #: written by exactly one committer at a time, mirroring
        #: Vertica's global catalog lock held for the commit's critical
        #: section.  Readers take no lock — snapshot isolation below
        #: the committed epoch keeps them consistent.
        self._commit_lock = TrackedLock("Database._commit_lock")
        #: Back-reference set by :class:`repro.service.SqlService` when
        #: a service wraps this database; the ``v_monitor.sessions`` /
        #: ``resource_pools`` producers read it (None = no service).
        self.service = None
        self.cluster.database = self
        #: The health/alert engine behind ``v_monitor.alerts`` and the
        #: ``v_monitor.slow_queries`` threshold (lazy import: repro.dc
        #: sits above the cluster in the import graph).
        from ..dc import HealthMonitor

        self.health = HealthMonitor(self)
        # traces stamp spans with this cluster's simulated clock; the
        # last-constructed Database wins, matching METRICS' process-wide
        # registry semantics.
        from ..trace import TRACER

        TRACER.bind_clock(self.cluster.clock)

    # -- DDL ------------------------------------------------------------

    def create_table(
        self,
        table: TableDefinition,
        sort_order: list[str] | None = None,
        segmentation=None,
        encodings: dict[str, str] | None = None,
    ):
        """Create a table with an auto-designed super projection."""
        return self.cluster.create_table(
            table, sort_order=sort_order, segmentation=segmentation,
            encodings=encodings,
        )

    def add_projection(self, projection, populate: bool = True):
        """Add a projection family (populated from existing data)."""
        return self.cluster.add_projection_family(projection, populate=populate)

    def drop_table(self, name: str) -> None:
        """Drop a table and its storage everywhere."""
        self.cluster.drop_table(name)

    # -- sessions -----------------------------------------------------------

    def session(
        self, isolation: IsolationLevel = IsolationLevel.READ_COMMITTED
    ) -> "Session":
        """Open a client session."""
        return Session(self, isolation)

    def _allocate_txn_id(self) -> int:
        with self._txn_id_lock:
            txn_id = self._next_txn_id
            self._next_txn_id += 1
            return txn_id

    # -- conveniences (autocommit) ---------------------------------------------

    def load(self, table: str, rows: list[dict], direct_to_ros: bool = False) -> int:
        """Bulk load rows in one autocommit transaction; returns the
        commit epoch."""
        session = self.session()
        session.insert(table, rows, direct_to_ros=direct_to_ros)
        return session.commit()

    def query(self, logical: LogicalNode) -> list[dict]:
        """Run a query in a fresh READ COMMITTED session."""
        return self.session().query(logical)

    def explain(self, logical: LogicalNode) -> str:
        """Physical plan text for a query."""
        return self.planner().plan(logical).explain()

    def planner(self) -> PlannerBase:
        """The planner, bound to the current statistics."""
        return PlannerBase(self.cluster, self.stats)

    def analyze_statistics(self) -> None:
        """Collect optimizer statistics from live data."""
        self.stats.refresh(
            self.cluster, self.cluster.epochs.latest_queryable_epoch
        )

    # -- SQL ----------------------------------------------------------------------

    def sql(self, text: str, copy_rows=None):
        """Execute one SQL statement in an autocommitting session.

        SELECTs return row dicts; EXPLAIN returns the plan text; COPY
        takes its input via ``copy_rows`` (an iterable of dicts, field
        lists or '|'-delimited lines) and returns a
        :class:`repro.sql.CopyResult`.
        """
        from ..sql import execute_sql

        session = self.session()
        result = execute_sql(session, text, copy_rows=copy_rows)
        if session.txn is not None and session.txn.has_dml:
            session.commit()
        return result

    # -- maintenance ---------------------------------------------------------------

    def run_tuple_movers(self) -> None:
        """One moveout+mergeout cycle on every node."""
        self.cluster.run_tuple_movers()

    def fail_node(self, node_index: int) -> None:
        """Crash a node."""
        self.cluster.fail_node(node_index)

    def recover_node(self, node_index: int, historical_lag: int = 0):
        """Recover a failed node from its buddies."""
        return recover_node(self.cluster, node_index, historical_lag)

    @property
    def current_epoch(self) -> int:
        """The cluster's current (uncommitted) epoch."""
        return self.cluster.epochs.current_epoch

    @property
    def latest_epoch(self) -> int:
        """The newest queryable epoch."""
        return self.cluster.epochs.latest_queryable_epoch


class Session:
    """A client connection with transaction state."""

    def __init__(self, db: Database, isolation: IsolationLevel):
        self.db = db
        self.isolation = isolation
        self.txn: Transaction | None = None
        self.last_stats: ExecutorStats | None = None
        #: Resource pool of the most recent query (spill observability).
        self.last_pool: ResourcePool | None = None
        #: Operator profile of the most recent query (EXPLAIN ANALYZE).
        self.last_profile: QueryProfile | None = None
        #: Cooperative cancel flag for the running statement
        #: (:class:`repro.service.CancelToken`); installed by the
        #: service layer per statement, checked by operators between
        #: blocks and by lock waits between wakeups.
        self.cancel_token = None
        #: Per-session workload policy override; when set (by the
        #: resource governor, sized to the statement's pool grant) it
        #: replaces the database-wide default for this session's pools.
        self.workload_policy: WorkloadPolicy | None = None
        #: Lock acquisition discipline.  Standalone sessions keep the
        #: historical fail-fast behaviour (``block=False`` keeps the
        #: single-threaded protocol tests exact); service sessions set
        #: ``lock_block=True`` so concurrent writers park on the lock
        #: manager's condition variable instead of erroring.
        self.lock_block = False
        self.lock_timeout = 1.0

    # -- transaction control ------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction (implicit on first statement)."""
        if self.txn is not None and self.txn.status is TxnStatus.ACTIVE:
            return self.txn
        self.txn = Transaction(
            txn_id=self.db._allocate_txn_id(),
            isolation=self.isolation,
            snapshot_epoch=self.db.latest_epoch,
        )
        return self.txn

    def _active(self) -> Transaction:
        txn = self.begin()
        txn.check_active()
        if txn.isolation is IsolationLevel.READ_COMMITTED:
            txn.snapshot_epoch = self.db.latest_epoch
        return txn

    def _acquire_lock(self, txn: Transaction, table: str, mode: LockMode):
        """One lock acquisition under this session's discipline:
        fail-fast for standalone sessions, blocking (with the session's
        timeout and cancel flag) for service sessions."""
        return self.db.cluster.locks.acquire(
            txn.txn_id,
            table,
            mode,
            block=self.lock_block,
            timeout=self.lock_timeout,
            cancel=self.cancel_token.check if self.cancel_token else None,
        )

    def commit(self) -> int:
        """Commit; returns the commit epoch (or the current snapshot
        epoch when the transaction had no DML)."""
        txn = self.begin()
        txn.check_active()
        try:
            if txn.has_dml:
                # outside the commit lock: each table's X lock already
                # fences the rows its DELETEs select
                victims = self._delete_victims(txn)
                with self.db._commit_lock:
                    epoch = self.db.cluster.commit_dml(
                        txn.pending_inserts,
                        victims,
                        snapshot_epoch=txn.snapshot_epoch,
                        direct_to_ros=txn.direct_to_ros,
                    )
            else:
                epoch = txn.snapshot_epoch
            txn.status = TxnStatus.COMMITTED
            return epoch
        finally:
            self.db.cluster.locks.release_all(txn.txn_id)
            self.txn = None

    def rollback(self) -> None:
        """Abort: discard buffered changes, release locks."""
        txn = self.begin()
        txn.status = TxnStatus.ABORTED
        self.db.cluster.locks.release_all(txn.txn_id)
        self.txn = None

    # -- DML -----------------------------------------------------------------

    def insert(
        self,
        table: str,
        rows: list[dict] | HistoryRun,
        direct_to_ros: bool = False,
    ) -> None:
        """Buffer rows for insert (Insert lock; multiple loaders can
        hold it concurrently).  Row dicts (``db.load``'s) must hold
        exactly the table's columns and are pivoted here, once
        (:meth:`Cluster.table_run`); a run of every table column (what
        COPY and ``INSERT ... VALUES`` build) is buffered as it is."""
        txn = self._active()
        if isinstance(rows, HistoryRun):
            self.db.cluster.catalog.table(table)  # must exist
        else:
            rows = self.db.cluster.table_run(table, rows)
        self._acquire_lock(txn, table, LockMode.I)
        txn.buffer_insert(table, rows)
        if direct_to_ros:
            txn.direct_to_ros = True

    def delete(self, table: str, predicate: Expr, sql_text: str | None = None) -> None:
        """Buffer a delete (Exclusive lock).  ``predicate`` is an
        :class:`Expr`; its victims are found at commit
        (:meth:`_delete_victims`).  ``sql_text`` labels that scan's
        profile in ``v_monitor.query_profiles``."""
        _require_expr(predicate)
        txn = self._active()
        self._acquire_lock(txn, table, LockMode.X)
        self._drop_own_inserts(txn, table, predicate)
        txn.buffer_delete(table, predicate, sql_text)

    def update(
        self,
        table: str,
        assignments: dict[str, object],
        predicate: Expr,
        sql_text: str | None = None,
    ) -> int:
        """SQL UPDATE: delete matching rows and insert updated copies
        (section 3.7.1).  Returns the number of rows updated.

        The new rows come from a plan: a Scan of the table under the
        predicate (an :class:`Expr`), and an ExprEval computing the SET
        list (expressions or constants) over its blocks.  The Scan reads
        the transaction's own view (:meth:`_own_view`); the pending rows
        it updated leave the transaction's buffer, replaced by their
        updated copies."""
        _require_expr(predicate)
        txn = self._active()
        self._acquire_lock(txn, table, LockMode.X)
        columns = self.db.cluster.catalog.table(table).column_names
        outputs: dict[str, Expr] = {name: ColumnRef(name) for name in columns}
        for column, value in assignments.items():
            outputs[column] = value if isinstance(value, Expr) else Literal(value)
        updated = self._execute(
            self._own_view(txn, ProjectNode(ScanNode(table, columns, predicate), outputs)),
            txn.snapshot_epoch,
            pending_inserts=txn.pending_inserts,
            sql_text=sql_text or f"<update:{table}>",
        )
        if updated.row_count:
            self._drop_own_inserts(txn, table, predicate)
            txn.buffer_delete(table, predicate, sql_text)
            txn.buffer_insert(table, HistoryRun.stamped(updated.columns, 0))
        return updated.row_count

    @staticmethod
    def _own_view(txn: Transaction, logical: LogicalNode) -> LogicalNode:
        """``logical`` as the transaction sees it: a copy whose Scans of
        a table it deleted from hide the stored rows its DELETEs select
        (``ScanNode.deleted``).  Its pending inserts reach the Scans
        through the executor."""
        deleted: dict[str, list[Expr]] = {}
        for delete in txn.pending_deletes:
            deleted.setdefault(delete.table, []).append(delete.predicate)
        if not deleted:
            return logical
        logical = _copy_nodes(logical)
        for node in logical.walk():
            if isinstance(node, ScanNode) and node.table in deleted:
                node.deleted = _any_of(deleted[node.table])
        return logical

    @staticmethod
    def _drop_own_inserts(txn: Transaction, table: str, predicate: Expr) -> None:
        """Drop the rows ``predicate`` selects from the run ``txn``
        buffered for ``table``: a DELETE or UPDATE acts on its own
        transaction's inserts there, while the victims its commit marks
        are stored rows only."""
        own = txn.pending_inserts.get(table)
        if own:
            selection = compile_kernel_predicate(predicate)(own.columns, len(own), (), [])
            if not selection.is_empty:
                txn.pending_inserts[table] = own.take(selection.invert().positions())

    def _delete_victims(self, txn: Transaction) -> list[tuple[str, dict]]:
        """Per table, the row multiset the transaction's DELETEs select
        at its snapshot, as columns — one multiset per table, so a row
        two DELETEs select is one victim.  The transaction's own pending
        inserts are not candidates.

        Each table is read by one Scan of the OR of its predicates, which
        prunes containers, seeks the sort prefix and runs the kernel
        predicate as any SELECT's Scan does."""
        pending: dict[str, list[PendingDelete]] = {}
        for delete in txn.pending_deletes:
            pending.setdefault(delete.table, []).append(delete)
        victims = []
        for table, deletes in pending.items():
            predicates = [delete.predicate for delete in deletes]
            scan = ScanNode(
                table,
                self.db.cluster.catalog.table(table).column_names,
                _any_of(predicates),
            )
            found = self._execute(
                scan,
                txn.snapshot_epoch,
                pending_inserts={},
                sql_text="; ".join(
                    delete.sql_text or f"<delete:{table}>" for delete in deletes
                ),
            )
            victims.append((table, found.columns))
        return victims

    # -- queries -----------------------------------------------------------------

    def query(
        self,
        logical: LogicalNode,
        at_epoch: int | None = None,
        sql_text: str | None = None,
    ) -> list[dict]:
        """Plan and execute a query at the session's snapshot.

        Historical queries pass ``at_epoch`` ("a query executing in the
        recent past needs no locks and is assured of a consistent
        snapshot").  ``sql_text`` labels the query's profile in
        ``v_monitor.query_profiles``.  The result is pivoted to row
        dicts here, once, for the caller.
        """
        txn = self._active()
        if txn.isolation is IsolationLevel.SERIALIZABLE:
            for table in {
                scan.table
                for scan in logical.walk()
                if isinstance(scan, ScanNode) and not is_monitor_table(scan.table)
            }:
                self._acquire_lock(txn, table, LockMode.S)
        if at_epoch is not None:  # the past holds none of the transaction's writes
            view, epoch, pending = logical, at_epoch, {}
        else:
            view, epoch, pending = (
                self._own_view(txn, logical), txn.snapshot_epoch, txn.pending_inserts
            )
        sql_text = sql_text or f"<plan:{type(logical).__name__}>"
        return self._execute(view, epoch, pending, sql_text).to_rows()

    def _execute(
        self,
        logical: LogicalNode,
        epoch: int,
        pending_inserts: dict[str, HistoryRun],
        sql_text: str,
    ) -> RowBlock:
        """Plan and run ``logical`` at ``epoch`` and record its profile —
        a SELECT, and the reads of DELETE and UPDATE; the result is
        columns (:meth:`DistributedExecutor.run`)."""
        plan = self.db.planner().plan(logical)
        pool = ResourcePool(self.workload_policy or self.db.workload_policy)
        executor = DistributedExecutor(
            self.db.cluster,
            epoch,
            pool=pool,
            pending_inserts=pending_inserts,
            cancel_token=self.cancel_token,
        )
        started = perf_counter()
        result = executor.run(plan)
        wall = perf_counter() - started
        self.last_stats = executor.stats
        self.last_pool = pool
        METRICS.inc("queries.executed")
        self.last_profile = build_query_profile(
            None if reads_monitor(logical) else self.db.cluster.dc,
            executor.root_operator,
            sql=sql_text,
            epoch=epoch,
            rows_returned=result.row_count,
            wall_seconds=wall,
        )
        return result

    def explain(self, logical: LogicalNode) -> str:
        """Physical plan for a query under this session's database."""
        return self.db.explain(logical)

    def sql(self, text: str, copy_rows=None):
        """Execute one SQL statement inside this session's transaction."""
        from ..sql import execute_sql

        return execute_sql(self, text, copy_rows=copy_rows)


def _any_of(predicates: list[Expr]) -> Expr:
    return predicates[0] if len(predicates) == 1 else Or(*predicates)


def _require_expr(predicate) -> None:
    """A DML predicate is an :class:`Expr` — what a Scan can prune,
    seek and run as a kernel; a Python callable over rows is refused."""
    if not isinstance(predicate, Expr):
        raise TypeError(
            f"a DELETE / UPDATE predicate is an Expr, not {type(predicate).__name__}"
        )
