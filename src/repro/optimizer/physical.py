"""Physical query plans.

A physical plan fixes everything the logical plan left open: which
projection each scan reads, join algorithms and join order, the
distribution strategy of every join (co-located / broadcast inner /
resegment both), group-by algorithm and phasing, SIP filter placement,
and prepass aggregation.  The distributed executor
(:mod:`repro.execution.executor`) interprets these trees against a
cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..execution.aggregates import AggregateSpec
from ..execution.expressions import Expr
from ..execution.operators.analytic import WindowSpec
from ..execution.operators.join import JoinType
from .cost import CostBreakdown


@dataclass(frozen=True)
class Distribution:
    """Where a physical node's output lives.

    * ``segmented`` — split across nodes, hash of ``keys`` (output
      column names);
    * ``replicated`` — complete copy per node;
    * ``coordinator`` — single stream at the initiator.
    """

    kind: str
    keys: tuple[str, ...] = ()

    def is_segmented_on(self, columns) -> bool:
        """Whether data is segmented on a subset of ``columns`` (so any
        group keyed by those columns is node-local)."""
        return (
            self.kind == "segmented"
            and bool(self.keys)
            and set(self.keys) <= set(columns)
        )


SEGMENTED = "segmented"
REPLICATED = "replicated"
COORDINATOR = "coordinator"


class PhysicalNode:
    """Base class for physical plan nodes."""

    children: list["PhysicalNode"]
    distribution: Distribution
    #: Optimizer-estimated output rows and cumulative cost.
    est_rows: float = 0.0
    est_cost: CostBreakdown = CostBreakdown()

    def describe(self) -> str:
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        lines = [
            " " * indent
            + self.describe()
            + f"  [{self.distribution.kind}"
            + (
                f" on ({', '.join(self.distribution.keys)})"
                if self.distribution.keys
                else ""
            )
            + f", ~{self.est_rows:.0f} rows]"
        ]
        for child in self.children:
            lines.append(child.explain(indent + 2))
        return "\n".join(lines)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class PhysScan(PhysicalNode):
    """Scan one projection family (executor picks live copies)."""

    table: str
    family_name: str
    #: output names emitted; predicate-only columns are read, not emitted.
    columns: list[str]
    #: stored column name -> output name (aliasing).
    rename: dict[str, str]
    predicate: Expr | None
    distribution: Distribution
    #: The output's sort order: the leading columns of the chosen
    #: projection's sort order that the scan emits (a merge join or a
    #: pipelined group-by consumes it directly).
    sort_order: tuple[str, ...] = ()
    #: filled by join planning: SIP filter key exprs, one entry per
    #: participating hash join (executor wires the actual filters).
    sip_requests: list[list[Expr]] = field(default_factory=list)
    #: The transaction's own DELETEs on the table (``ScanNode.deleted``).
    deleted: Expr | None = None

    def __post_init__(self):
        self.children = []

    def describe(self) -> str:
        predicate = f" WHERE {self.predicate!r}" if self.predicate is not None else ""
        sip = f" +{len(self.sip_requests)} SIP" if self.sip_requests else ""
        return f"Scan {self.family_name} [{', '.join(self.columns)}]{predicate}{sip}"


@dataclass
class PhysFilter(PhysicalNode):
    child: PhysicalNode
    predicate: Expr
    distribution: Distribution

    def __post_init__(self):
        self.children = [self.child]

    def describe(self) -> str:
        return f"Filter {self.predicate!r}"


@dataclass
class PhysProject(PhysicalNode):
    child: PhysicalNode
    outputs: dict[str, Expr]
    distribution: Distribution

    def __post_init__(self):
        self.children = [self.child]

    def describe(self) -> str:
        body = ", ".join(f"{name}={expr!r}" for name, expr in self.outputs.items())
        return f"Project {body}"


#: join distribution strategies
COLOCATED = "colocated"
BROADCAST_INNER = "broadcast_inner"
RESEGMENT = "resegment"


@dataclass
class PhysJoin(PhysicalNode):
    left: PhysicalNode
    right: PhysicalNode
    join_type: JoinType
    algorithm: str  # 'hash' | 'merge'
    left_keys: list[Expr]
    right_keys: list[Expr]
    strategy: str  # COLOCATED | BROADCAST_INNER | RESEGMENT
    left_columns: list[str]
    right_columns: list[str]
    distribution: Distribution
    #: what the join evaluates on the pairs its keys find
    residual: Expr | None = None
    #: whether a SIP filter was pushed into the probe-side scan.
    sip: bool = False

    def __post_init__(self):
        self.children = [self.left, self.right]

    def describe(self) -> str:
        keys = ", ".join(
            f"{l!r}={r!r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        sip = " SIP" if self.sip else ""
        residual = f" residual {self.residual!r}" if self.residual is not None else ""
        return (
            f"{self.algorithm.title()}Join[{self.join_type.value}] "
            f"({keys}) {self.strategy}{sip}{residual}"
        )


@dataclass
class PhysGroupBy(PhysicalNode):
    child: PhysicalNode
    keys: list[tuple[str, Expr]]
    aggregates: list[AggregateSpec]
    #: 'pipelined' when the keys are the scan's sort prefix (blocks fold
    #: over their runs), else 'hash'; both aggregate into a hash table.
    algorithm: str
    #: True when the child's segmentation makes groups node-local, so
    #: no merge phase is needed (section 3.6's "fully local distributed
    #: aggregations").
    local_complete: bool
    #: place an L1-sized prepass below the (distributed) aggregation.
    prepass: bool
    distribution: Distribution
    having: Expr | None = None

    def __post_init__(self):
        self.children = [self.child]

    def describe(self) -> str:
        keys = ", ".join(name for name, _ in self.keys) or "<global>"
        aggs = ", ".join(spec.describe() for spec in self.aggregates)
        mode = "local" if self.local_complete else "two-phase"
        prepass = "+prepass" if self.prepass else ""
        having = f" HAVING {self.having!r}" if self.having is not None else ""
        return f"GroupBy[{self.algorithm} {mode}{prepass}] [{keys}] [{aggs}]{having}"


@dataclass
class PhysSort(PhysicalNode):
    child: PhysicalNode
    keys: list[tuple[Expr, bool]]
    distribution: Distribution
    limit_hint: int | None = None

    def __post_init__(self):
        self.children = [self.child]

    def describe(self) -> str:
        keys = ", ".join(
            f"{expr!r} {'ASC' if asc else 'DESC'}" for expr, asc in self.keys
        )
        hint = f" top-{self.limit_hint}" if self.limit_hint else ""
        return f"Sort {keys}{hint}"


@dataclass
class PhysLimit(PhysicalNode):
    child: PhysicalNode
    limit: int
    offset: int
    distribution: Distribution

    def __post_init__(self):
        self.children = [self.child]

    def describe(self) -> str:
        return f"Limit {self.limit} OFFSET {self.offset}"


@dataclass
class PhysDistinct(PhysicalNode):
    child: PhysicalNode
    distribution: Distribution

    def __post_init__(self):
        self.children = [self.child]

    def describe(self) -> str:
        return "Distinct"


@dataclass
class PhysAnalytic(PhysicalNode):
    child: PhysicalNode
    specs: list[WindowSpec]
    distribution: Distribution

    def __post_init__(self):
        self.children = [self.child]

    def describe(self) -> str:
        return "Analytic " + "; ".join(spec.describe() for spec in self.specs)
