"""The physical planner: V2Opt's policy (section 6.2).

Projection choice, predicate-derived scan costing, greedy cost-based
join ordering, distribution-aware join placement (co-located,
broadcast or resegmented, chosen by cost), group-by phasing, prepass
placement and SIP wiring.  It is the only planner in the product; the
generations V2Opt replaced, StarOpt and StarifiedOpt, are re-expressed
as subclasses in the test suite, where they serve as oracles and as
the section 6.2 ablation.
"""

from __future__ import annotations

from ..columnar.row_block import sorted_prefix
from ..errors import PlanningError
from ..execution.expressions import ColumnRef, Comparison, Expr
from ..execution.operators.join import JoinType
from ..monitor.tables import is_monitor_table
from ..projections import HashSegmentation, ProjectionDefinition
from ..trace import TRACER
from . import physical as P
from .cost import (
    CostBreakdown,
    estimate_selectivity,
    groupby_cost,
    join_cost,
    network_cost,
    scan_cost,
    sort_cost,
)
from .logical import (
    AnalyticNode,
    DistinctNode,
    FilterNode,
    GroupByNode,
    JoinNode,
    LimitNode,
    LogicalNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from .rewrite import _reads, conjoin, rewrite, split_conjuncts
from .stats import StatsCatalog

#: The row estimate of a ``v_monitor`` table, which has no statistics.
VIRTUAL_TABLE_ROWS = 100.0


def output_columns(node: P.PhysicalNode) -> list[str]:
    """Output column names of a physical node."""
    if isinstance(node, P.PhysScan):
        return list(node.columns)
    if isinstance(node, P.PhysProject):
        return list(node.outputs)
    if isinstance(node, P.PhysJoin):
        if node.join_type in (JoinType.SEMI, JoinType.ANTI):
            return list(node.left_columns)
        return list(node.left_columns) + list(node.right_columns)
    if isinstance(node, P.PhysGroupBy):
        return [name for name, _ in node.keys] + [
            spec.output_name for spec in node.aggregates
        ]
    return output_columns(node.children[0])


def _key_names(keys: list[Expr]) -> list[str] | None:
    """Column names when every key is a bare column reference."""
    names = []
    for key in keys:
        if not isinstance(key, ColumnRef):
            return None
        names.append(key.name)
    return names


def split_condition(
    conjuncts: list[Expr], left_columns: set[str], right_columns: set[str]
) -> tuple[list[Expr], list[Expr], Expr | None]:
    """A join's conjuncts as ``(left_keys, right_keys, residual)``: the
    one place a join condition becomes keys.  ``l = r`` is a key pair
    when each side reads only one input (a constant reads none, so
    ``3 IN (SELECT y ...)`` keys on ``3``); every other conjunct is the
    residual the join evaluates on the pairs the keys find."""
    left_keys: list[Expr] = []
    right_keys: list[Expr] = []
    residual: list[Expr] = []
    for conjunct in conjuncts:
        if isinstance(conjunct, Comparison) and conjunct.op == "=":
            a, b = conjunct.left, conjunct.right
            a_cols, b_cols = a.referenced_columns(), b.referenced_columns()
            if a_cols or b_cols:
                if a_cols <= left_columns and b_cols <= right_columns:
                    left_keys.append(a)
                    right_keys.append(b)
                    continue
                if b_cols <= left_columns and a_cols <= right_columns:
                    left_keys.append(b)
                    right_keys.append(a)
                    continue
        residual.append(conjunct)
    return left_keys, right_keys, conjoin(residual)


def _copy_nodes(node: LogicalNode) -> LogicalNode:
    """A copy of the logical tree's nodes — the part ``rewrite``
    mutates — sharing every expression and every column/key list.  A
    node's fields are its ``__dict__``, so copying that dict is the
    whole copy (no ``copy`` protocol, no ``__init__``)."""
    clone = object.__new__(type(node))
    clone.__dict__.update(node.__dict__)
    return clone.map_children(_copy_nodes)


class PlannerBase:
    """Turns a logical tree into a physical plan over the cluster's
    projections and the current statistics."""

    def __init__(self, cluster, stats: StatsCatalog):
        self.cluster = cluster
        self.stats = stats

    # -- entry point ------------------------------------------------------

    def plan(self, logical: LogicalNode) -> P.PhysicalNode:
        """Produce a physical plan for a logical query tree.

        The tree's nodes are copied first: rewrites rebind node fields
        (children, scan predicates, join types) in place, and callers
        (tests, the Database Designer) plan the same logical tree
        repeatedly.  Expressions are shared, not copied — no rewrite
        and no planner step mutates an ``Expr``; they build new ones —
        so a re-planned tree also keeps its compiled predicates.
        """
        with TRACER.span("optimizer.plan", category="optimizer"):
            logical = rewrite(_copy_nodes(logical))
            return self._plan_node(logical)

    # -- dispatch ------------------------------------------------------------

    def _plan_node(self, node: LogicalNode) -> P.PhysicalNode:
        if isinstance(node, ScanNode):
            return self.plan_scan(node)
        if isinstance(node, FilterNode):
            child = self._plan_node(node.child)
            phys = P.PhysFilter(child, node.predicate, child.distribution)
            phys.est_rows = child.est_rows * 0.5
            phys.est_cost = child.est_cost
            return phys
        if isinstance(node, JoinNode):
            return self.plan_join_tree(node)
        if isinstance(node, GroupByNode):
            return self.plan_groupby(node)
        if isinstance(node, ProjectNode):
            child = self._plan_node(node.child)
            phys = P.PhysProject(child, node.outputs, child.distribution)
            phys.est_rows = child.est_rows
            phys.est_cost = child.est_cost
            return phys
        if isinstance(node, SortNode):
            child = self._plan_node(node.child)
            limit_hint = None
            phys = P.PhysSort(
                child,
                node.keys,
                P.Distribution(P.COORDINATOR),
                limit_hint=limit_hint,
            )
            phys.est_rows = child.est_rows
            phys.est_cost = child.est_cost + sort_cost(child.est_rows)
            return phys
        if isinstance(node, LimitNode):
            child = self._plan_node(node.child)
            if isinstance(child, P.PhysSort):
                child.limit_hint = node.limit + node.offset
            phys = P.PhysLimit(
                child, node.limit, node.offset, P.Distribution(P.COORDINATOR)
            )
            phys.est_rows = min(child.est_rows, node.limit)
            phys.est_cost = child.est_cost
            return phys
        if isinstance(node, DistinctNode):
            child = self._plan_node(node.child)
            phys = P.PhysDistinct(child, P.Distribution(P.COORDINATOR))
            phys.est_rows = child.est_rows * 0.5
            phys.est_cost = child.est_cost + groupby_cost(
                child.est_rows, phys.est_rows
            )
            return phys
        if isinstance(node, AnalyticNode):
            child = self._plan_node(node.child)
            phys = P.PhysAnalytic(child, node.specs, P.Distribution(P.COORDINATOR))
            phys.est_rows = child.est_rows
            phys.est_cost = child.est_cost + sort_cost(child.est_rows)
            return phys
        raise PlanningError(f"cannot plan {type(node).__name__}")

    # -- scans -------------------------------------------------------------------

    def plan_scan(self, node: ScanNode) -> P.PhysScan:
        """Choose the cheapest covering projection for a scan.

        The choice is cost-based over *measured* encoded sizes, and
        prefers projections whose leading sort column carries a
        predicate (container pruning + faster restriction), exactly the
        properties the Database Designer optimizes for.
        """
        # Convention: node.columns and node.predicate use the table's
        # stored (raw) column names; node.rename maps raw -> output.
        out_names = [node.rename.get(raw, raw) for raw in node.columns]
        if is_monitor_table(node.table):
            # no family and no statistics: the executor makes the rows
            # once, at the coordinator, so every node may have them —
            # a join treats the table as a replicated dimension
            phys = P.PhysScan(
                node.table, node.table, out_names, dict(node.rename),
                node.predicate, P.Distribution(P.REPLICATED),
            )
            phys.est_rows = VIRTUAL_TABLE_ROWS
            return phys
        table_stats = self.stats.get(node.table)
        predicate_raw_columns = (
            node.predicate.referenced_columns()
            if node.predicate is not None
            else set()
        )
        needed_raw = set(node.columns) | predicate_raw_columns
        if node.deleted is not None:
            needed_raw |= node.deleted.referenced_columns()
        selectivity = estimate_selectivity(node.predicate, table_stats)
        candidates = [
            family
            for family in self.cluster.catalog.families_for_table(node.table)
            # prejoins are picked by join planning, not scans
            if family.primary.prejoin is None and family.primary.covers(needed_raw)
        ]
        if not candidates:
            raise PlanningError(
                f"no projection of {node.table!r} covers {sorted(needed_raw)}"
            )

        def cost(family) -> float:
            projection = family.primary
            io_bytes = sum(
                self.stats.bytes_for(projection.name, raw)
                or table_stats.column(raw).avg_encoded_bytes
                for raw in needed_raw
            )
            cost = table_stats.row_count * io_bytes
            # sorted-on-predicate bonus: leading sort column restricted
            # -> container pruning shrinks the read dramatically.
            if projection.sort_order and projection.sort_order[0] in predicate_raw_columns:
                cost *= max(selectivity, 0.05)
            return cost

        # the first of the cheapest; one candidate needs no costing
        best = min(candidates, key=cost) if len(candidates) > 1 else candidates[0]
        projection = best.primary
        # predicate-only columns are read, tested and dropped in the scan
        distribution = self._scan_distribution(projection, node.rename, out_names)
        # the output is sorted by the leading sort columns it carries: a
        # column after a dropped one is sorted only within its runs
        sort_order = sorted_prefix(
            tuple(node.rename.get(name, name) for name in projection.sort_order),
            set(out_names),
        ) or ()
        phys = P.PhysScan(
            table=node.table,
            family_name=best.primary.name,
            columns=out_names,
            rename=dict(node.rename),
            predicate=node.predicate,
            distribution=distribution,
            sort_order=sort_order,
            deleted=node.deleted,
        )
        phys.est_rows = max(table_stats.row_count * selectivity, 1.0)
        phys.est_cost = scan_cost(
            table_stats, sorted(needed_raw), selectivity
        )
        return phys

    def _scan_distribution(
        self,
        projection: ProjectionDefinition,
        rename: dict[str, str],
        out_columns: list[str],
    ) -> P.Distribution:
        if projection.segmentation.replicated:
            return P.Distribution(P.REPLICATED)
        if isinstance(projection.segmentation, HashSegmentation):
            keys = tuple(
                rename.get(name, name) for name in projection.segmentation.columns
            )
            if set(keys) <= set(out_columns):
                return P.Distribution(P.SEGMENTED, keys)
        return P.Distribution(P.SEGMENTED, ())

    # -- joins --------------------------------------------------------------------

    def plan_join_tree(self, node: JoinNode) -> P.PhysicalNode:
        """Plan a join subtree, reordering inner-join chains."""
        relations, conjuncts, reorderable = self._flatten_inner_joins(node)
        if reorderable and len(relations) > 1:
            return self.order_joins(relations, conjuncts, node.needed)
        left = self._plan_node(node.left)
        right = self._plan_node(node.right)
        return self.make_join(
            left, right, node.join_type,
            *split_condition(split_conjuncts(node.condition),
                             set(output_columns(left)), set(output_columns(right))),
            node.needed,
        )

    def _flatten_inner_joins(self, node: JoinNode):
        """The leaves of a pure inner-join tree and the pool of its
        conditions' conjuncts; returns (leaf logical nodes, conjuncts,
        flattenable)."""
        relations: list[LogicalNode] = []
        conjuncts: list[Expr] = []
        flattenable = True

        def visit(current: LogicalNode):
            nonlocal flattenable
            if isinstance(current, JoinNode) and current.join_type is JoinType.INNER:
                visit(current.left)
                visit(current.right)
                conjuncts.extend(split_conjuncts(current.condition))
            else:
                relations.append(current)
                if isinstance(current, JoinNode):
                    flattenable = False

        visit(node)
        return relations, conjuncts, flattenable

    def order_joins(self, relations, conjuncts, needed=None) -> P.PhysicalNode:
        """A left-deep join of an inner-join chain's leaves in
        :meth:`join_order`.  Each step takes the pooled conjuncts whose
        columns it is the first to cover and splits them into its keys
        and residual, so every conjunct runs in exactly one join.
        ``needed`` is what the plan above reads (None: everything)."""
        planned = [self._plan_node(relation) for relation in relations]
        equis = [
            (conjunct.left, conjunct.right)
            for conjunct in conjuncts
            if isinstance(conjunct, Comparison) and conjunct.op == "="
        ]
        order = self.join_order(planned, equis)
        current = planned[order[0]]
        columns = set(output_columns(current))
        reads = [conjunct.referenced_columns() for conjunct in conjuncts]
        pending = list(range(len(conjuncts)))  # positions, never ``==``
        for index in order[1:]:
            right = planned[index]
            right_columns = set(output_columns(right))
            covered = columns | right_columns
            mine = [i for i in pending if reads[i] <= covered]
            pending = [i for i in pending if not reads[i] <= covered]
            # an intermediate join also carries what the conjuncts still
            # to come read
            keep = needed
            if needed is not None:
                keep = needed.union(*(reads[i] for i in pending))
            current = self.make_join(
                current, right, JoinType.INNER,
                *split_condition([conjuncts[i] for i in mine], columns, right_columns),
                keep,
            )
            columns = set(output_columns(current))
        if pending:
            raise PlanningError(f"no join covers {conjuncts[pending[0]]!r}")
        return current

    def join_order(self, planned: list[P.PhysicalNode], equis) -> list[int]:
        """Greedy: start from the smallest filtered input, then
        repeatedly add the smallest relation an equi-condition connects
        to what is joined so far (the smallest of the rest when none
        does)."""
        remaining = set(range(len(planned)))
        start = min(remaining, key=lambda i: planned[i].est_rows)
        order = [start]
        remaining.discard(start)
        current_columns = set(output_columns(planned[start]))

        def connects(index: int) -> bool:
            columns = set(output_columns(planned[index]))
            for a, b in equis:
                a_cols = a.referenced_columns()
                b_cols = b.referenced_columns()
                if (a_cols <= current_columns and b_cols <= columns) or (
                    b_cols <= current_columns and a_cols <= columns
                ):
                    return True
            return False

        while remaining:
            connected = [index for index in remaining if connects(index)]
            pool = connected or sorted(remaining)
            best = min(pool, key=lambda i: planned[i].est_rows)
            order.append(best)
            remaining.discard(best)
            current_columns |= set(output_columns(planned[best]))
        return order

    # -- join construction ----------------------------------------------------------

    def colocated_possible(
        self, left: P.PhysicalNode, right: P.PhysicalNode,
        left_keys: list[Expr], right_keys: list[Expr],
    ) -> bool:
        """Whether the two sides can join without moving data."""
        ld, rd = left.distribution, right.distribution
        if rd.kind == P.REPLICATED:
            return ld.kind in (P.SEGMENTED, P.REPLICATED)
        if ld.kind == P.REPLICATED:
            return False  # outer replicated, inner segmented: wrong shape
        left_names = _key_names(left_keys)
        right_names = _key_names(right_keys)
        if left_names is None or right_names is None:
            return False
        if not ld.keys or not rd.keys:
            return False
        if len(ld.keys) != len(rd.keys):
            return False
        # the i-th segmentation column must be joined to its peer
        pairing = dict(zip(left_names, right_names))
        try:
            mapped = tuple(pairing[name] for name in ld.keys)
        except KeyError:
            return False
        return mapped == rd.keys

    def strategy_cost(
        self, strategy: str, left_rows: float, right_rows: float,
        left_bytes: float, right_bytes: float,
    ) -> CostBreakdown:
        """Network cost of a join distribution strategy."""
        nodes = max(self.cluster.node_count, 1)
        if strategy == P.COLOCATED:
            return CostBreakdown()
        if strategy == P.BROADCAST_INNER:
            return network_cost(right_rows, right_bytes, copies=max(nodes - 1, 1))
        return network_cost(left_rows, left_bytes) + network_cost(
            right_rows, right_bytes
        )

    def choose_strategy(
        self, left: P.PhysicalNode, right: P.PhysicalNode,
        left_keys, right_keys,
    ) -> tuple[str, CostBreakdown]:
        """Cheapest distribution strategy for a join: co-located when
        the layouts allow it, else broadcast or resegment by cost."""
        left_bytes = 16.0
        right_bytes = 16.0
        options: list[tuple[float, str, CostBreakdown]] = []
        if self.colocated_possible(left, right, left_keys, right_keys):
            options.append((0.0, P.COLOCATED, CostBreakdown()))
        for strategy in (P.BROADCAST_INNER, P.RESEGMENT):
            cost = self.strategy_cost(
                strategy, left.est_rows, right.est_rows, left_bytes, right_bytes
            )
            options.append((cost.total, strategy, cost))
        options.sort(key=lambda item: item[0])
        _, strategy, cost = options[0]
        return strategy, cost

    def choose_algorithm(
        self, left: P.PhysicalNode, right: P.PhysicalNode,
        left_keys, right_keys, strategy: str,
    ) -> str:
        """Hash join unless both inputs arrive sorted on the join keys
        (then merge join wins, sorted projections paying off)."""
        left_names = _key_names(left_keys)
        right_names = _key_names(right_keys)
        if (
            strategy == P.COLOCATED
            and left_names is not None
            and right_names is not None
            and isinstance(left, P.PhysScan)
            and isinstance(right, P.PhysScan)
            and tuple(left_names) == left.sort_order[: len(left_names)]
            and tuple(right_names) == right.sort_order[: len(right_names)]
        ):
            return "merge"
        return "hash"

    def join_output_rows(
        self, left: P.PhysicalNode, right: P.PhysicalNode,
        left_keys, right_keys, join_type: JoinType,
    ) -> float:
        """Classic |L||R|/max(ndv) estimate."""
        if join_type in (JoinType.SEMI, JoinType.ANTI):
            return max(left.est_rows * 0.5, 1.0)
        ndv = 1.0
        left_names = _key_names(left_keys) or []
        for scan in [n for n in left.walk() if isinstance(n, P.PhysScan)]:
            table_stats = self.stats.get(scan.table)
            for name in left_names:
                raw = {out: raw for raw, out in scan.rename.items()}.get(name, name)
                column = table_stats.column(raw)
                if column.ndv > ndv:
                    ndv = column.ndv
        result = left.est_rows * right.est_rows / max(ndv, 1.0)
        if join_type in (JoinType.LEFT, JoinType.FULL):
            result = max(result, left.est_rows)
        if join_type in (JoinType.RIGHT, JoinType.FULL):
            result = max(result, right.est_rows)
        return max(result, 1.0)

    def make_join(
        self, left: P.PhysicalNode, right: P.PhysicalNode,
        join_type: JoinType, left_keys, right_keys, residual=None,
        needed: set[str] | None = None,
    ) -> P.PhysJoin:
        """Assemble a physical join with strategy, algorithm, SIP and
        output distribution.  It emits the columns in ``needed`` (what
        the plan above reads; None: every column) and what the residual
        reads."""
        if needed is not None and residual is not None:
            needed = needed | residual.referenced_columns()
        # hash joins build from the right (inner) side: for INNER joins
        # put the smaller estimated input there.
        if join_type is JoinType.INNER and left.est_rows < right.est_rows:
            left, right = right, left
            left_keys, right_keys = right_keys, left_keys
        strategy, move_cost = self.choose_strategy(
            left, right, left_keys, right_keys
        )
        if (
            join_type in (JoinType.RIGHT, JoinType.FULL)
            and left.distribution.kind == P.SEGMENTED
            and (
                strategy == P.BROADCAST_INNER
                or (strategy == P.COLOCATED and right.distribution.kind == P.REPLICATED)
            )
        ):
            # every probe fragment would hold the whole preserved inner
            # and return the rows *its* slice did not match, once per
            # node: only a resegmented inner is split as the probe is.
            strategy = P.RESEGMENT
            move_cost = self.strategy_cost(
                strategy, left.est_rows, right.est_rows, 16.0, 16.0
            )
        algorithm = self.choose_algorithm(
            left, right, left_keys, right_keys, strategy
        )
        if strategy == P.RESEGMENT:
            names = _key_names(left_keys) or ()
            distribution = P.Distribution(P.SEGMENTED, tuple(names))
        elif left.distribution.kind == P.REPLICATED and strategy == P.COLOCATED:
            distribution = right.distribution
        else:
            distribution = left.distribution
        # SIP needs the probe scan to see the *complete* build key set;
        # under RESEGMENT each destination join holds only a slice of
        # the build side, so the filter cannot be pushed to the scan
        # (the paper: "we are not always able to push the SIP filter to
        # the Scan").
        sip = (
            algorithm == "hash"
            and strategy != P.RESEGMENT
            and join_type in (JoinType.INNER, JoinType.SEMI)
            and self._sip_target(left, left_keys)
        )
        left_columns, right_columns = output_columns(left), output_columns(right)
        if needed is not None:
            kept = [c for c in left_columns if c in needed]
            right_columns = [c for c in right_columns if c in needed]
            filtering = join_type in (JoinType.SEMI, JoinType.ANTI)
            emitted = kept if filtering else kept + right_columns
            # count(*) over a join reads rows, not values: one column
            # carries them
            left_columns = kept if emitted else left_columns[:1]
        join = P.PhysJoin(
            left=left,
            right=right,
            join_type=join_type,
            algorithm=algorithm,
            left_keys=left_keys,
            right_keys=right_keys,
            strategy=strategy,
            left_columns=left_columns,
            right_columns=right_columns,
            distribution=distribution,
            residual=residual,
            sip=sip,
        )
        join.est_rows = self.join_output_rows(
            left, right, left_keys, right_keys, join_type
        )
        join.est_cost = (
            left.est_cost
            + right.est_cost
            + move_cost
            + join_cost(left.est_rows, right.est_rows, algorithm)
        )
        if sip:
            scan_plan = self._scan_plan_of(left)
            if scan_plan is not None:
                scan_plan.sip_requests.append(list(left_keys))
        return join

    @staticmethod
    def _scan_plan_of(node: P.PhysicalNode):
        current = node
        while current is not None:
            if isinstance(current, P.PhysScan):
                return current
            current = current.children[0] if current.children else None
        return None

    def _sip_target(self, node: P.PhysicalNode, keys: list[Expr]) -> bool:
        # the probe's first scan takes the filter if it emits the keys'
        # columns (under a join it may not) and is no v_monitor leaf
        scan = self._scan_plan_of(node)
        return scan is not None and not is_monitor_table(scan.table) and (
            _reads(keys) <= set(scan.columns)
        )

    # -- group by ----------------------------------------------------------------------

    def plan_groupby(self, node: GroupByNode) -> P.PhysGroupBy:
        child = self._plan_node(node.child)
        key_names = [name for name, _ in node.keys]
        local_complete = bool(node.keys) and child.distribution.is_segmented_on(
            key_names
        )
        mergeable = all(spec.mergeable for spec in node.aggregates)
        prepass = (
            not local_complete
            and mergeable
            and bool(node.keys)
        )
        algorithm = self._groupby_algorithm(child, node)
        distribution = (
            child.distribution if local_complete else P.Distribution(P.COORDINATOR)
        )
        phys = P.PhysGroupBy(
            child=child,
            keys=node.keys,
            aggregates=node.aggregates,
            algorithm=algorithm,
            local_complete=local_complete,
            prepass=prepass,
            distribution=distribution,
            having=node.having,
        )
        groups = self._estimate_groups(node, child)
        phys.est_rows = groups
        phys.est_cost = child.est_cost + groupby_cost(child.est_rows, groups)
        return phys

    def _groupby_algorithm(self, child: P.PhysicalNode, node: GroupByNode) -> str:
        """Pipelined (one-pass) aggregation when the input is sorted on
        a prefix matching the group keys; hash otherwise."""
        key_names = _key_names([expr for _, expr in node.keys])
        if (
            key_names
            and isinstance(child, P.PhysScan)
            and tuple(key_names) == child.sort_order[: len(key_names)]
        ):
            return "pipelined"
        return "hash"

    def _estimate_groups(self, node: GroupByNode, child: P.PhysicalNode) -> float:
        if not node.keys:
            return 1.0
        ndv = 1.0
        for _, expr in node.keys:
            if isinstance(expr, ColumnRef):
                for scan in [
                    n for n in child.walk() if isinstance(n, P.PhysScan)
                ]:
                    raw = {o: r for r, o in scan.rename.items()}.get(
                        expr.name, expr.name
                    )
                    column_ndv = self.stats.get(scan.table).column(raw).ndv
                    if column_ndv:
                        ndv *= max(column_ndv, 1.0)
                        break
                else:
                    ndv *= 10.0
            else:
                ndv *= 10.0
        return min(max(ndv, 1.0), max(child.est_rows, 1.0))
