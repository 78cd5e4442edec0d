"""The distributed executor: physical plan -> operators on a cluster.

Interprets a :class:`repro.optimizer.physical.PhysicalNode` tree against
the simulated cluster.  Per-node plan fragments run against each node's
storage manager (choosing buddy copies for down nodes), joined/merged
per the plan's distribution strategy:

* **co-located** joins and **local-complete** group-bys run entirely
  inside each node's fragment (the segmentation payoff of section 3.6);
* **broadcast inner** materializes the build side once, and the probe
  fragments hash it once (as they do a replicated inner co-located);
* **resegment** pushes both sides through Send/Recv exchanges hashed on
  the join keys (V2Opt's on-the-fly data transfer, section 6.2);
* everything after the last distributed operator runs at the
  coordinator, fed by a fragment union.

SIP filters are wired here: a hash join with ``sip`` set installs its
filter into the probe-side scan of every fragment (section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .. import faults
from ..columnar.row_block import RowBlock
from ..errors import (
    DataUnavailableError,
    InjectedFaultError,
    NodeDownError,
    PlanningError,
)
from ..monitor import METRICS
from ..monitor.tables import is_monitor_table, table_rows
from ..trace import TRACER, record_plan_spans
from .aggregates import AggregateSpec
from .expressions import ColumnRef, substitute_columns
from .operators import (
    AnalyticOperator,
    DistinctOperator,
    Exchange,
    ExprEvalOperator,
    FilterOperator,
    GroupByHashOperator,
    GroupByPipelinedOperator,
    HashJoinOperator,
    LimitOperator,
    MergeJoinOperator,
    Operator,
    PrepassGroupByOperator,
    RecvOperator,
    ScanOperator,
    SendOperator,
    SortKey,
    SortOperator,
    SourceBlocks,
    UnionAllOperator,
)
from .resource import ResourcePool

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..storage import HistoryRun


@dataclass
class ExecutorStats:
    """Observability counters for one query execution."""

    rows_scanned: int = 0
    rows_broadcast: int = 0
    sip_filters: int = 0
    _scans: list[ScanOperator] = field(default_factory=list)
    _exchanges: list[Exchange] = field(default_factory=list)
    _sips: list = field(default_factory=list)
    #: The operator trees the attempt ran: its root and each broadcast
    #: inner side, which is materialized while the plan is built.
    _roots: list[Operator] = field(default_factory=list)

    @property
    def rows_resegmented(self) -> int:
        return sum(ex.rows_sent for ex in self._exchanges)

    @property
    def network_bytes(self) -> int:
        return sum(ex.bytes_sent for ex in self._exchanges)

    @property
    def rows_sip_filtered(self) -> int:
        return sum(sip.rows_filtered for sip in self._sips)

    def finalize(self) -> None:
        """Fold the attempt's per-operator counters into METRICS in one
        bump: the blocks its kernels ran over, what its scans' storage
        walks counted, and their seeks."""
        scans = self._scans
        self.rows_scanned = sum(scan.rows_scanned for scan in scans)
        seen: set[int] = set()
        counts = {
            "executor.kernel_blocks": sum(
                op.kernel_blocks for root in self._roots for op in root.walk(seen)
            ),
            "executor.seek_blocks": sum(scan.seek_blocks for scan in scans),
            "executor.seek_window_rows": sum(scan.seek_window_rows for scan in scans),
        }
        for scan in scans:
            for name, amount in scan.storage_counts.items():
                counts[name] = counts.get(name, 0) + amount
        METRICS.fold(counts)


class _Fragments:
    """Per-ring-segment operators, or a factory for replicated data."""

    def __init__(self, by_base: dict[int, Operator] | None, factory=None):
        self.by_base = by_base
        self.factory = factory  # base -> Operator (replicated sources)

    @property
    def replicated(self) -> bool:
        return self.factory is not None

    def bases(self) -> list[int]:
        return sorted(self.by_base) if self.by_base is not None else []

    def op_for(self, base: int) -> Operator:
        if self.by_base is not None:
            return self.by_base[base]
        return self.factory(base)

    def map(self, transform) -> "_Fragments":
        if self.by_base is not None:
            return _Fragments(
                {base: transform(op) for base, op in self.by_base.items()}
            )
        factory = self.factory
        return _Fragments(None, factory=lambda base: transform(factory(base)))


class DistributedExecutor:
    """Runs physical plans against a cluster at a snapshot epoch."""

    def __init__(
        self,
        cluster,
        epoch: int,
        pool: ResourcePool | None = None,
        pending_inserts: dict[str, HistoryRun] | None = None,
        cancel_token=None,
    ):
        self.cluster = cluster
        self.epoch = epoch
        self.pool = pool
        #: Cooperative cancel flag installed on every built operator
        #: (service-layer statement timeouts and ``Session.cancel()``).
        self.cancel_token = cancel_token
        #: table -> uncommitted rows of the running transaction (the
        #: run it buffered), which must be visible to its own queries.
        self.pending_inserts = pending_inserts or {}
        self.stats = ExecutorStats()
        #: Coordinator-side root of the most recent :meth:`run`, kept so
        #: the profiler can walk the finished plan afterwards.
        self.root_operator: Operator | None = None
        #: The running attempt's pass (:meth:`Cluster.resolve_sources`):
        #: family -> the serving copy of each ring segment.
        self._sources: dict | None = None

    # -- public API -----------------------------------------------------

    def operator(self, plan) -> Operator:
        """Build the coordinator-side operator for a plan."""
        built = self._build(plan)
        root = self._collect(built)
        if self.cancel_token is not None:
            for op in root.walk():
                op.cancel_token = self.cancel_token
        return root

    def run(self, plan) -> RowBlock:
        """Execute and materialize the result as one block of plain
        column lists (no columns when it is empty), failing over to
        buddy copies when a node dies mid-query.

        A scan or exchange that hits a dead/ejected node (or an armed
        ``executor.scan`` / ``executor.exchange`` fault) raises
        :class:`NodeDownError`; the executor marks the node down,
        resolves every segment again against the surviving buddies (the
        retry's pass is the one the next attempt builds from) at the
        *same* snapshot epoch and retries the whole query (section
        5.2's "queries keep answering through node deaths").  The
        attempt budget is bounded by the node count — every retry
        removes one node — and a query only surfaces
        :class:`DataUnavailableError` when no copy of some segment is
        reachable.
        """
        from ..optimizer import physical as P

        attempts = 0
        budget = max(self.cluster.node_count, 1)
        scanned = [
            node.family_name
            for node in plan.walk()
            if isinstance(node, P.PhysScan) and not is_monitor_table(node.table)
        ]
        self._sources = None
        while True:
            if self.cancel_token is not None:
                # a cancelled statement must not burn a failover retry.
                self.cancel_token.check()
            if self._sources is None:
                self._sources = self._resolve(scanned)
            attempt_cm = TRACER.span(
                "executor.attempt",
                category="executor",
                attempt=attempts + 1,
                epoch=self.epoch,
            )
            stats = self.stats
            try:
                with attempt_cm as attempt_span:
                    # broadcast joins materialize their inner side
                    # during the build, so the build runs inside the
                    # failover net (and inside the attempt span).
                    operator = self.operator(plan)
                    self.root_operator = operator
                    stats._roots.append(operator)
                    blocks = list(operator.blocks())
                    if attempt_span is not None:
                        record_plan_spans(
                            TRACER.active, operator, attempt_span
                        )
            except NodeDownError as exc:
                attempts += 1
                self.cluster.note_node_failure(
                    exc.node_index, f"died mid-query: {exc}"
                )
                if attempts >= budget:
                    raise DataUnavailableError(
                        f"query failed over {attempts} times without "
                        f"finding a stable set of copies: {exc}"
                    ) from exc
                METRICS.inc("executor.query_retries")
                self.cluster.record_failover_event(
                    "query_retry",
                    exc.node_index,
                    f"retrying at epoch {self.epoch} on surviving "
                    f"buddies: {exc}",
                    attempt=attempts,
                )
                with TRACER.span(
                    "failover.retry",
                    category="failover",
                    dead_node=exc.node_index,
                    attempt=attempts,
                    epoch=self.epoch,
                ) as retry_span:
                    # the next attempt builds from this pass: who took
                    # over the dead node's segments, named on the span.
                    self._sources = self._resolve(scanned)
                    if retry_span is not None:
                        retry_span.attrs["resolved_sources"] = {
                            name: [list(source) for source in self._sources[name]]
                            for name in dict.fromkeys(scanned)
                        }
                # fresh counters: the aborted attempt's partial scans
                # must not inflate the profile of the retry that wins.
                self.stats = ExecutorStats()
                continue
            finally:
                # an aborted attempt's work is counted too
                stats.finalize()
            return RowBlock.concat(blocks) if blocks else RowBlock.empty([])

    # -- helpers ----------------------------------------------------------

    def _collect(self, built) -> Operator:
        if isinstance(built, Operator):
            return built
        if built.replicated:
            return built.op_for(0)
        ops = [built.op_for(base) for base in built.bases()]
        if len(ops) == 1:
            return ops[0]
        return UnionAllOperator(ops)

    def _build(self, node):
        from ..optimizer import physical as P

        if isinstance(node, P.PhysScan):
            return self._build_scan(node)
        if isinstance(node, P.PhysFilter):
            return self._map_or_single(
                node.child, lambda op: FilterOperator(op, node.predicate)
            )
        if isinstance(node, P.PhysProject):
            return self._map_or_single(
                node.child, lambda op: ExprEvalOperator(op, node.outputs)
            )
        if isinstance(node, P.PhysJoin):
            return self._build_join(node)
        if isinstance(node, P.PhysGroupBy):
            return self._build_groupby(node)
        if isinstance(node, P.PhysSort):
            child = self._collect(self._build(node.child))
            return SortOperator(
                child,
                [SortKey(expr, asc) for expr, asc in node.keys],
                pool=self.pool,
                limit_hint=node.limit_hint,
            )
        if isinstance(node, P.PhysLimit):
            child = self._collect(self._build(node.child))
            return LimitOperator(child, node.limit, node.offset)
        if isinstance(node, P.PhysDistinct):
            child = self._collect(self._build(node.child))
            return DistinctOperator(child)
        if isinstance(node, P.PhysAnalytic):
            child = self._collect(self._build(node.child))
            for spec in node.specs:
                child = AnalyticOperator(child, spec)
            return child
        raise PlanningError(f"executor cannot build {type(node).__name__}")

    def _map_or_single(self, child_plan, transform):
        built = self._build(child_plan)
        if isinstance(built, Operator):
            return transform(built)
        return built.map(transform)

    def _resolve(self, scanned: list[str]) -> dict:
        """The attempt's one pass over the catalog (scanned families
        first): the availability check and every scan's source.  It
        runs before any operator is built, so a query over unavailable
        data raises :class:`DataUnavailableError` naming the missing
        segment and family, never returns the partial set the reachable
        copies could produce.  A plan that scans only ``v_monitor``
        tables reads no stored data and answers through a shutdown."""
        return self.cluster.resolve_sources(scanned) if scanned else {}

    # -- node-death probes ------------------------------------------------

    def _check_node(self, host: int, point: str, where: str) -> None:
        """Raise :class:`NodeDownError` when ``host`` is no longer a
        cluster member or an armed fault kills it at ``point``."""
        if not self.cluster.membership.is_up(host):
            raise NodeDownError(f"node {host} went down {where}", host)
        try:
            faults.inject(point, node=host)
        except InjectedFaultError as exc:
            raise NodeDownError(
                f"node {host} crashed {where}: {exc}", host
            ) from exc

    def _scan_probe(self, host: int):
        def probe():
            self._check_node(host, "executor.scan", "mid-scan")

        return probe

    def _attach_exchange_probe(self, sender: SendOperator) -> None:
        """Give a Send operator a probe bound to the node hosting its
        fragment's scan, so a death mid-exchange is attributed to the
        right node (the same host becomes the sender's trace node).  A
        broadcast inner replayed below it ran earlier and is passed by."""
        for op in sender.children[0].walk({id(root) for root in self.stats._roots}):
            if isinstance(op, ScanOperator) and op.node_index is not None:
                host = op.node_index

                def probe(host=host):
                    self._check_node(host, "executor.exchange", "mid-exchange")

                sender.failure_probe = probe
                sender.trace_node = host
                return

    # -- scans -------------------------------------------------------------

    def _build_scan(self, node):
        if is_monitor_table(node.table):
            return self._build_virtual_scan(node)
        family = self.cluster.catalog.family(node.family_name)
        # node.columns are output names; translate back to stored names.
        inverse = {out: raw for raw, out in node.rename.items()}
        raw_columns = [inverse.get(name, name) for name in node.columns]
        # scan predicates are written in stored column names already.
        raw_predicate = node.predicate
        rename = {raw: out for raw, out in node.rename.items() if raw != out}
        pending = self._pending_by_base(family)

        def make_scan(host: int, projection_name: str, base: int | None):
            scan = ScanOperator(
                self.cluster.nodes[host].manager,
                projection_name,
                self.epoch,
                raw_columns,
                predicate=raw_predicate,
                deleted=node.deleted,
                pending=pending.get(base),
                node_index=host,
                failure_probe=self._scan_probe(host),
            )
            self.stats._scans.append(scan)
            out: Operator = scan
            if rename:
                out = ExprEvalOperator(
                    out,
                    {
                        rename.get(raw, raw): ColumnRef(raw)
                        for raw in raw_columns
                    },
                )
            return out

        sources = self._sources[node.family_name]
        if family.primary.segmentation.replicated:
            # fragment ``base`` reads node ``base``'s copy while it is up
            return _Fragments(
                None, factory=lambda base: make_scan(*sources[base], None)
            )
        return _Fragments(
            {
                base: make_scan(host, projection_name, base)
                for base, (host, projection_name) in enumerate(sources)
            }
        )

    def _build_virtual_scan(self, node) -> Operator:
        """A ``v_monitor`` leaf: one coordinator operator over the
        table's rows, made once per attempt and pivoted to one block,
        under the pushed-down predicate and the scan's output names."""
        names, rows = table_rows(self.cluster.database, node.table)
        block = RowBlock({name: [row[name] for row in rows] for name in names}, len(rows))
        out: Operator = SourceBlocks([block] if rows else [])
        if node.predicate is not None:
            out = FilterOperator(out, node.predicate)
        inverse = {output: raw for raw, output in node.rename.items()}
        return ExprEvalOperator(
            out, {name: ColumnRef(inverse.get(name, name)) for name in node.columns}
        )

    def _pending_by_base(self, family) -> dict[int | None, HistoryRun]:
        """The running transaction's own uncommitted rows of the family's
        table — the run it buffered — shaped for the family once and
        split by ring segment (``None``: a replicated family's scan takes
        them all), as a commit would route them."""
        own = self.pending_inserts.get(family.primary.anchor_table)
        if not own:
            return {}
        shaped = self.cluster.shape_run(
            family.primary, own, [self.epoch] * len(own), self.pending_inserts
        )
        scheme = family.primary.segmentation
        if scheme.replicated:
            return {None: shaped}
        return {
            scheme.range_for_node(node, self.cluster.node_count): run
            for node, run in self.cluster.route_rows(family.primary, shaped).items()
        }

    # -- joins --------------------------------------------------------------

    def _find_scan(self, op: Operator) -> ScanOperator | None:
        current = op
        while current is not None:
            if isinstance(current, ScanOperator):
                return current
            if isinstance(current, (RecvOperator, SendOperator)):
                # never push a SIP filter across an exchange: the scan
                # below it feeds *every* destination, not just this join
                return None
            current = current.children[0] if current.children else None
        return None

    def _attach_sip(self, join: HashJoinOperator, probe_op, node):
        if not node.sip:
            return
        scan = self._find_scan(probe_op)
        if scan is None:
            return
        inverse = {}
        plan_scan = self._scan_plan_of(node.left)
        if plan_scan is not None:
            inverse = {out: raw for raw, out in plan_scan.rename.items()}
        keys = [substitute_columns(key, inverse) for key in node.left_keys]
        sip = join.make_sip_filter(keys)
        scan.sip_filters.append(sip)
        self.stats._sips.append(sip)
        self.stats.sip_filters += 1

    @staticmethod
    def _scan_plan_of(plan_node):
        from ..optimizer import physical as P

        current = plan_node
        while current is not None:
            if isinstance(current, P.PhysScan):
                return current
            current = current.children[0] if current.children else None
        return None

    def _make_join_op(self, node, left_op, right_op, shared_build=None):
        if node.algorithm == "merge":
            left_sorted = SortOperator(
                left_op, [SortKey(key) for key in node.left_keys], pool=self.pool
            )
            right_sorted = SortOperator(
                right_op, [SortKey(key) for key in node.right_keys], pool=self.pool
            )
            join: Operator = MergeJoinOperator(
                left_sorted,
                right_sorted,
                node.left_keys,
                node.right_keys,
                node.join_type,
                node.left_columns,
                node.right_columns,
                node.residual,
            )
        else:
            join = HashJoinOperator(
                left_op,
                right_op,
                node.left_keys,
                node.right_keys,
                node.join_type,
                node.left_columns,
                node.right_columns,
                pool=self.pool,
                shared_build=shared_build,
                residual=node.residual,
            )
            self._attach_sip(join, left_op, node)
        return join

    def _build_join(self, node):
        from ..optimizer import physical as P

        left = self._build(node.left)
        right = self._build(node.right)
        if node.strategy == P.COLOCATED:
            return self._join_colocated(node, left, right)
        if node.strategy == P.BROADCAST_INNER:
            return self._join_broadcast(node, left, right)
        return self._join_resegment(node, left, right)

    def _join_colocated(self, node, left, right):
        if isinstance(left, Operator) or isinstance(right, Operator):
            left_op = left if isinstance(left, Operator) else self._collect(left)
            right_op = right if isinstance(right, Operator) else self._collect(right)
            return self._make_join_op(node, left_op, right_op)
        if left.replicated and right.replicated:
            return _Fragments(
                None,
                factory=lambda base: self._make_join_op(
                    node, left.op_for(base), right.op_for(base)
                ),
            )
        bases = left.bases() if not left.replicated else right.bases()
        shared = {} if right.replicated else None  # one build, every node
        return _Fragments(
            {
                base: self._make_join_op(
                    node, left.op_for(base), right.op_for(base), shared
                )
                for base in bases
            }
        )

    def _join_broadcast(self, node, left, right):
        inner = self._collect(right)
        if self.cancel_token is not None:
            # the build side materializes during plan construction,
            # before operator() installs tokens on the finished tree —
            # install here so the build is cancellable too.
            for op in inner.walk():
                op.cancel_token = self.cancel_token
        self.stats._roots.append(inner)
        with TRACER.span(
            "exchange.broadcast", category="exchange"
        ) as bc_span:
            blocks = list(inner.blocks())
            inner_rows = sum(block.row_count for block in blocks)
            if bc_span is not None:
                bc_span.attrs["rows_materialized"] = inner_rows

        def replay() -> SourceBlocks:
            # the inner already ran: every replay is its parent, and
            # under tracing its spans nest in the broadcast's time
            source = SourceBlocks(list(blocks), replays=inner)
            if bc_span is not None:
                source.trace_span_id = bc_span.span_id
            return source

        if isinstance(left, Operator):
            return self._make_join_op(node, left, replay())
        bases = left.bases() if not left.replicated else [0]
        copies = max(len(bases) - 1, 0)
        self.stats.rows_broadcast += inner_rows * copies
        shared: dict = {}  # the first fragment to run builds for all

        def make(base):
            return self._make_join_op(node, left.op_for(base), replay(), shared)

        if left.replicated:
            return _Fragments(None, factory=make)
        return _Fragments({base: make(base) for base in bases})

    def _join_resegment(self, node, left, right):
        destinations = max(len(self.cluster.membership.up_nodes()), 1)
        left_exchange = Exchange(destinations)
        right_exchange = Exchange(destinations)
        self.stats._exchanges.extend([left_exchange, right_exchange])
        left_frag = (
            left if not isinstance(left, Operator) else _Fragments({0: left})
        )
        right_frag = (
            right if not isinstance(right, Operator) else _Fragments({0: right})
        )
        left_senders = [
            SendOperator(
                left_frag.op_for(base), left_exchange, segment_exprs=node.left_keys
            )
            for base in (left_frag.bases() or [0])
        ]
        right_senders = [
            SendOperator(
                right_frag.op_for(base),
                right_exchange,
                segment_exprs=node.right_keys,
            )
            for base in (right_frag.bases() or [0])
        ]
        # cross-node context propagation: every Send/Recv carries the
        # handle of the span that requested this exchange (the current
        # open span at plan-build time), and the node its half runs on.
        handle = TRACER.handle()
        for sender in (*left_senders, *right_senders):
            self._attach_exchange_probe(sender)
            sender.trace_parent = handle
        up = self.cluster.membership.up_nodes()

        def make_recv(exchange, destination, senders):
            recv = RecvOperator(exchange, destination, senders)
            recv.trace_parent = handle
            recv.trace_node = up[destination] if destination < len(up) else None
            return recv

        return _Fragments(
            {
                destination: self._make_join_op(
                    node,
                    make_recv(left_exchange, destination, left_senders),
                    make_recv(right_exchange, destination, right_senders),
                )
                for destination in range(destinations)
            }
        )

    # -- group by --------------------------------------------------------------

    def _build_groupby(self, node):
        built = self._build(node.child)
        key_exprs = [expr for _, expr in node.keys]
        key_names = [name for name, _ in node.keys]

        def local_group(op):
            # "pipelined" is a fact about the input, not another
            # algorithm: the keys are a sort prefix, so every block folds
            # over its runs; containers still meet in the hash table.
            operator = (
                GroupByPipelinedOperator
                if node.algorithm == "pipelined"
                else GroupByHashOperator
            )
            return operator(
                op, key_exprs, key_names, node.aggregates, pool=self.pool
            )

        if isinstance(built, Operator):
            result: Operator = local_group(built)
        elif node.local_complete:
            result_frags = built.map(local_group)
            result = self._collect(result_frags)
        else:
            mergeable = all(spec.mergeable for spec in node.aggregates)
            if not mergeable:
                result = local_group(self._collect(built))
            else:
                def partial(op):
                    if node.prepass:
                        return PrepassGroupByOperator(
                            op, key_exprs, key_names, node.aggregates
                        )
                    return GroupByHashOperator(
                        op, key_exprs, key_names, node.aggregates, pool=self.pool
                    )

                partials = built.map(partial)
                result = GroupByHashOperator(
                    self._collect(partials),
                    key_exprs,
                    key_names,
                    node.aggregates,
                    merge_partials=True,
                    pool=self.pool,
                )
        if node.having is not None:
            result = FilterOperator(result, node.having)
        return result
