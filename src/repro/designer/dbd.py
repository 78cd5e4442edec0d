"""The Database Designer (section 6.3).

Two sequential phases, exactly as the paper describes:

1. **Query optimization phase** — candidate projections are enumerated
   from workload heuristics (predicate columns, group-by columns,
   order-by columns, join keys); the *real optimizer* is then invoked
   for each workload query against a hypothetical catalog containing
   the candidates, and the projections the optimizer actually picks
   (weighted by estimated cost savings) survive.  "The DBD's direct
   use of the optimizer and cost model guarantees that it remains
   synchronized as the optimizer evolves."
2. **Storage optimization phase** — encodings for the surviving
   projections are chosen by *empirical encoding experiments* on
   sample data sorted by the proposed sort order (the same mechanism
   as the AUTO encoding; the paper credits this for users essentially
   never overriding the DBD's encoding choices).

Three policies trade query speed against load/storage cost:
``load-optimized`` proposes nothing beyond the super projections,
``balanced`` allows one extra projection per table, and
``query-optimized`` allows several.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.catalog import Catalog
from ..errors import DesignError
from ..execution.expressions import ColumnRef
from ..optimizer import PhysScan, PlannerBase, ScanNode
from ..optimizer.logical import GroupByNode, JoinNode, LogicalNode, SortNode
from ..optimizer.planner import _copy_nodes, split_condition
from ..optimizer.rewrite import _output_columns_of, push_down_filters, split_conjuncts
from ..projections import (
    HashSegmentation,
    ProjectionColumn,
    ProjectionDefinition,
    ProjectionFamily,
    Replicated,
)
from ..storage import HistoryRun
from ..storage.encodings import choose_encoding

#: Rows of per-table sample data used for encoding experiments.
ENCODING_SAMPLE_ROWS = 4096
#: Dimension tables at or below this row count are replicated.
REPLICATE_THRESHOLD = 10_000


@dataclass(frozen=True)
class DesignPolicy:
    """How aggressively to trade storage/load for query speed."""

    name: str
    extra_projections_per_table: int


LOAD_OPTIMIZED = DesignPolicy("load-optimized", 0)
BALANCED = DesignPolicy("balanced", 1)
QUERY_OPTIMIZED = DesignPolicy("query-optimized", 3)

POLICIES = {
    policy.name: policy
    for policy in (LOAD_OPTIMIZED, BALANCED, QUERY_OPTIMIZED)
}


@dataclass
class CandidateProjection:
    """A projection the DBD is considering."""

    definition: ProjectionDefinition
    source_hint: str
    #: Total estimated cost saved across the workload when available.
    benefit: float = 0.0
    times_chosen: int = 0


@dataclass
class DesignProposal:
    """The DBD's output: projections to create, with rationale."""

    policy: DesignPolicy
    projections: list[ProjectionDefinition] = field(default_factory=list)
    #: per-projection human-readable rationale
    rationale: dict[str, str] = field(default_factory=dict)
    #: chosen encodings per projection: {projection: {column: encoding}}
    encodings: dict[str, dict[str, str]] = field(default_factory=dict)
    #: workload cost with only existing projections vs with the design.
    baseline_cost: float = 0.0
    designed_cost: float = 0.0

    def summary(self) -> str:
        lines = [f"Design ({self.policy.name}):"]
        for projection in self.projections:
            lines.append(f"  {projection.describe()}")
            hint = self.rationale.get(projection.name)
            if hint:
                lines.append(f"    rationale: {hint}")
        if self.baseline_cost:
            lines.append(
                f"  workload cost {self.baseline_cost:.0f} -> "
                f"{self.designed_cost:.0f}"
            )
        return "\n".join(lines)


class _HypotheticalCluster:
    """The minimal cluster surface the planner needs, over a scratch
    catalog extended with candidate projections."""

    def __init__(self, real_cluster, catalog: Catalog):
        self.catalog = catalog
        self.node_count = real_cluster.node_count
        self.membership = real_cluster.membership
        self.nodes = real_cluster.nodes


class DatabaseDesigner:
    """Proposes projection designs for a workload of logical queries."""

    def __init__(self, db):
        self.db = db

    # -- phase 1: candidate enumeration -------------------------------------

    def enumerate_candidates(
        self, workload: list[LogicalNode]
    ) -> list[CandidateProjection]:
        """Heuristic candidate projections per table touched by the
        workload: sorted on predicate columns, group-by columns and
        order-by columns; segmented on join keys (for co-located
        joins) or replicated when small."""
        interesting: dict[str, dict[str, set[tuple[str, ...]]]] = {}
        for query in workload:
            self._collect_interesting(query, interesting)
        candidates: list[CandidateProjection] = []
        for table_name, buckets in sorted(interesting.items()):
            table = self.db.cluster.catalog.table(table_name)
            stats = self.db.stats.get(table_name)
            small = stats.row_count and stats.row_count <= REPLICATE_THRESHOLD
            join_keys = buckets.get("join", set())
            seen_orders: set[tuple[str, ...]] = set()
            for hint in ("predicate", "group", "order"):
                for columns in sorted(buckets.get(hint, set())):
                    rest = [
                        c for c in table.column_names if c not in columns
                    ]
                    sort_order = tuple(columns) + tuple(rest)
                    if sort_order in seen_orders:
                        continue
                    seen_orders.add(sort_order)
                    if small:
                        segmentation = Replicated()
                    elif join_keys:
                        segmentation = HashSegmentation(
                            tuple(sorted(join_keys)[0])
                        )
                    else:
                        segmentation = HashSegmentation(
                            tuple(table.primary_key)
                            or (table.column_names[0],)
                        )
                    name = f"{table_name}_dbd_{hint}_{'_'.join(columns)}"
                    definition = ProjectionDefinition(
                        name=name,
                        anchor_table=table_name,
                        columns=[
                            ProjectionColumn(c.name, c.dtype)
                            for c in table.columns
                        ],
                        sort_order=list(sort_order),
                        segmentation=segmentation,
                        comment=f"DBD candidate ({hint} columns {columns})",
                    )
                    candidates.append(
                        CandidateProjection(definition, hint)
                    )
        return candidates

    def _collect_interesting(self, node: LogicalNode, interesting) -> None:
        alias_to_table: dict[str, str] = {}
        for scan in (n for n in node.walk() if isinstance(n, ScanNode)):
            alias_to_table[scan.alias or scan.table] = scan.table
            buckets = interesting.setdefault(
                scan.table, {"predicate": set(), "group": set(),
                             "order": set(), "join": set()}
            )
            for conjunct in split_conjuncts(scan.predicate):
                columns = tuple(sorted(conjunct.referenced_columns()))
                if columns:
                    buckets["predicate"].add(columns)
        for group in (n for n in node.walk() if isinstance(n, GroupByNode)):
            columns = []
            for _, expr in group.keys:
                if isinstance(expr, ColumnRef):
                    columns.append(expr.name)
            self._attribute_columns(node, tuple(columns), "group", interesting)
        for sort in (n for n in node.walk() if isinstance(n, SortNode)):
            columns = [
                expr.name
                for expr, _ in sort.keys
                if isinstance(expr, ColumnRef)
            ]
            self._attribute_columns(node, tuple(columns), "order", interesting)
        # the join keys the planner would use: WHERE pooled into the
        # conditions, each split as the planner splits it
        for join in (n for n in push_down_filters(_copy_nodes(node)).walk()
                     if isinstance(n, JoinNode)):
            left_keys, right_keys, _ = split_condition(
                split_conjuncts(join.condition),
                _output_columns_of(join.left), _output_columns_of(join.right),
            )
            for keys, side in ((left_keys, join.left), (right_keys, join.right)):
                columns = tuple(
                    key.name for key in keys if isinstance(key, ColumnRef)
                )
                self._attribute_columns(side, columns, "join", interesting)

    def _attribute_columns(self, node, columns, bucket, interesting) -> None:
        """Attach output-name columns to the scans that produce them,
        translated back to stored names."""
        if not columns:
            return
        for scan in (n for n in node.walk() if isinstance(n, ScanNode)):
            inverse = {out: raw for raw, out in scan.rename.items()}
            outputs = {scan.rename.get(c, c) for c in scan.columns}
            mine = tuple(
                inverse.get(c, c) for c in columns if c in outputs
            )
            if mine:
                interesting.setdefault(
                    scan.table, {"predicate": set(), "group": set(),
                                 "order": set(), "join": set()}
                )[bucket].add(mine)

    # -- phase 1: optimizer-in-the-loop evaluation ---------------------------------

    def evaluate_candidates(
        self,
        workload: list[LogicalNode],
        candidates: list[CandidateProjection],
    ) -> float:
        """Plan every workload query against a hypothetical catalog
        holding the candidates; accumulate per-candidate benefit.
        Returns the baseline workload cost."""
        baseline_total, _ = self._workload_cost(workload, [])
        for candidate in candidates:
            total, chosen = self._workload_cost(workload, [candidate.definition])
            candidate.benefit = max(baseline_total - total, 0.0)
            candidate.times_chosen = chosen.get(candidate.definition.name, 0)
        return baseline_total

    def _workload_cost(self, workload, extra_projections):
        scratch = Catalog()
        scratch.tables = dict(self.db.cluster.catalog.tables)
        scratch.families = dict(self.db.cluster.catalog.families)
        for definition in extra_projections:
            scratch.families[definition.name] = ProjectionFamily(definition, [])
        shim = _HypotheticalCluster(self.db.cluster, scratch)
        planner = PlannerBase(shim, self.db.stats)
        total = 0.0
        chosen: dict[str, int] = {}
        for query in workload:
            plan = planner.plan(query)
            total += plan.est_cost.total
            for scan in (n for n in plan.walk() if isinstance(n, PhysScan)):
                chosen[scan.family_name] = chosen.get(scan.family_name, 0) + 1
        return total, chosen

    # -- phase 2: storage optimization ------------------------------------------------

    def choose_encodings(
        self, definition: ProjectionDefinition
    ) -> dict[str, str]:
        """Empirical encoding experiments on sample data sorted by the
        proposed sort order: the table's first rows, read a column at a
        time and ordered by one permutation over the sort columns."""
        columns = self.db.cluster.read_columns(
            definition.anchor_table, self.db.latest_epoch, definition.column_names
        )
        sample = HistoryRun.stamped(
            {name: values[:ENCODING_SAMPLE_ROWS] for name, values in columns.items()}, 0
        )
        order = sample.sort_permutation(definition.sort_order)
        encodings: dict[str, str] = {}
        for column in definition.columns:
            values = map(sample.columns[column.name].__getitem__, order)
            encodings[column.name] = choose_encoding(
                column.dtype, [value for value in values if value is not None]
            ).name
        return encodings

    # -- entry point ------------------------------------------------------------------------

    def design(
        self, workload: list[LogicalNode], policy: DesignPolicy | str = BALANCED
    ) -> DesignProposal:
        """Run both phases and return a deployable proposal."""
        if isinstance(policy, str):
            try:
                policy = POLICIES[policy]
            except KeyError:
                raise DesignError(f"unknown design policy {policy!r}") from None
        if not workload:
            raise DesignError("design requires a non-empty workload")
        candidates = self.enumerate_candidates(workload)
        baseline = self.evaluate_candidates(workload, candidates)
        proposal = DesignProposal(policy=policy, baseline_cost=baseline)
        per_table: dict[str, int] = {}
        accepted: list[ProjectionDefinition] = []
        for candidate in sorted(
            candidates, key=lambda c: (-c.benefit, c.definition.name)
        ):
            table = candidate.definition.anchor_table
            if candidate.benefit <= 0 or candidate.times_chosen == 0:
                continue
            if per_table.get(table, 0) >= policy.extra_projections_per_table:
                continue
            per_table[table] = per_table.get(table, 0) + 1
            accepted.append(candidate.definition)
            proposal.rationale[candidate.definition.name] = (
                f"{candidate.source_hint} columns; chosen by the optimizer "
                f"for {candidate.times_chosen} scan(s); estimated benefit "
                f"{candidate.benefit:.0f}"
            )
        for definition in accepted:
            encodings = self.choose_encodings(definition)
            proposal.encodings[definition.name] = encodings
            definition.columns = [
                ProjectionColumn(
                    column.name, column.dtype,
                    encodings.get(column.name, "AUTO"),
                )
                for column in definition.columns
            ]
            proposal.projections.append(definition)
        proposal.designed_cost = self._workload_cost(workload, accepted)[0]
        return proposal

    def design_sql(self, queries: list[str], policy="balanced") -> DesignProposal:
        """Design from SQL query texts."""
        from ..sql.analyzer import Analyzer
        from ..sql.parser import parse

        analyzer = Analyzer(self.db.cluster.catalog)
        workload = []
        for text in queries:
            statement = parse(text)
            workload.append(analyzer.analyze_select(statement))
        return self.design(workload, policy)

    def deploy(self, proposal: DesignProposal) -> int:
        """Create the proposal's projections (populated from data)."""
        created = 0
        for definition in proposal.projections:
            if definition.name in self.db.cluster.catalog.families:
                continue
            self.db.add_projection(definition)
            created += 1
        return created
