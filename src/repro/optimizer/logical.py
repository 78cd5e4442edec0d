"""Logical query plans.

The SQL analyzer (or the programmatic query builder) produces a tree of
these nodes; the planner (section 6.2's V2Opt policy) turns them into
physical plans.  Logical nodes carry no algorithm or distribution
choices — only *what* to compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..execution.aggregates import AggregateSpec
from ..execution.expressions import Expr
from ..execution.operators.analytic import WindowSpec
from ..execution.operators.join import JoinType


class LogicalNode:
    """Base class for logical plan nodes.  A node's inputs are its
    fields named in ``_edges``; ``children`` reads them, so there is no
    second copy of the tree's edges to keep in step."""

    _edges: tuple[str, ...] = ("child",)

    @property
    def children(self) -> list["LogicalNode"]:
        return [getattr(self, edge) for edge in self._edges]

    def map_children(self, fn) -> "LogicalNode":
        """Replace each input by ``fn(input)`` in place; returns the node."""
        for edge in self._edges:
            setattr(self, edge, fn(getattr(self, edge)))
        return self

    def describe(self) -> str:
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """Readable tree rendering."""
        lines = [" " * indent + self.describe()]
        for child in self.children:
            lines.append(child.explain(indent + 2))
        return "\n".join(lines)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class ScanNode(LogicalNode):
    """Read a table (projection choice is the optimizer's job).

    ``columns`` are the stored names this scan must produce (the
    analyzer lists every table column; ``rewrite.prune_columns`` keeps
    those the query reads); when an alias is in play ``rename`` maps
    stored column name -> output name.  ``deleted`` is what the
    running transaction's own DELETEs on the table select (the OR of
    their predicates): stored rows it selects are hidden from the scan,
    the transaction's pending rows are not.
    """

    table: str
    columns: list[str]
    predicate: Expr | None = None
    rename: dict[str, str] = field(default_factory=dict)
    alias: str = ""
    deleted: Expr | None = None

    _edges = ()

    def describe(self) -> str:
        alias = f" AS {self.alias}" if self.alias else ""
        predicate = f" WHERE {self.predicate!r}" if self.predicate is not None else ""
        return f"Scan {self.table}{alias}{predicate}"


@dataclass
class JoinNode(LogicalNode):
    """Join of two subtrees on a ``condition`` (None: every pair).  The
    planner splits it into hash / merge keys and a residual the join
    evaluates on the pairs the keys find (``planner.split_condition``)."""

    left: LogicalNode
    right: LogicalNode
    join_type: JoinType
    condition: Expr | None = None
    #: Output names the plan above reads; None: every column of both
    #: sides.  Set by ``rewrite.prune_columns``.
    needed: set[str] | None = None

    _edges = ("left", "right")

    def describe(self) -> str:
        condition = f" ON {self.condition!r}" if self.condition is not None else ""
        return f"Join {self.join_type.value}{condition}"


@dataclass
class FilterNode(LogicalNode):
    """Row filter."""

    child: LogicalNode
    predicate: Expr

    def describe(self) -> str:
        return f"Filter {self.predicate!r}"


@dataclass
class ProjectNode(LogicalNode):
    """Compute/select output columns (ordered)."""

    child: LogicalNode
    outputs: dict[str, Expr]

    def describe(self) -> str:
        body = ", ".join(f"{name}={expr!r}" for name, expr in self.outputs.items())
        return f"Project {body}"


@dataclass
class GroupByNode(LogicalNode):
    """Grouped (or global) aggregation, with optional HAVING."""

    child: LogicalNode
    keys: list[tuple[str, Expr]]
    aggregates: list[AggregateSpec]
    having: Expr | None = None

    def describe(self) -> str:
        keys = ", ".join(name for name, _ in self.keys) or "<global>"
        aggs = ", ".join(spec.describe() for spec in self.aggregates)
        having = f" HAVING {self.having!r}" if self.having is not None else ""
        return f"GroupBy [{keys}] [{aggs}]{having}"


@dataclass
class DistinctNode(LogicalNode):
    """Duplicate elimination."""

    child: LogicalNode

    def describe(self) -> str:
        return "Distinct"


@dataclass
class SortNode(LogicalNode):
    """ORDER BY."""

    child: LogicalNode
    keys: list[tuple[Expr, bool]]  # (expr, ascending)

    def describe(self) -> str:
        keys = ", ".join(
            f"{expr!r} {'ASC' if asc else 'DESC'}" for expr, asc in self.keys
        )
        return f"Sort {keys}"


@dataclass
class LimitNode(LogicalNode):
    """LIMIT / OFFSET."""

    child: LogicalNode
    limit: int
    offset: int = 0

    def describe(self) -> str:
        return f"Limit {self.limit} OFFSET {self.offset}"


@dataclass
class AnalyticNode(LogicalNode):
    """Window function computation."""

    child: LogicalNode
    specs: list[WindowSpec]

    def describe(self) -> str:
        return "Analytic " + "; ".join(spec.describe() for spec in self.specs)
