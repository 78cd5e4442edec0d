"""Abstract syntax tree for the supported SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass, field


# -- expressions --------------------------------------------------------------


class SqlExpr:
    """Base class for parsed (unresolved) expressions."""


@dataclass
class Identifier(SqlExpr):
    """Column reference, possibly qualified (``alias.column``)."""

    name: str
    qualifier: str | None = None

    @property
    def display(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass
class Constant(SqlExpr):
    """Literal value (already converted to its Python representation)."""

    value: object


@dataclass
class Star(SqlExpr):
    """``*`` or ``alias.*`` in a select list."""

    qualifier: str | None = None


@dataclass
class BinaryOp(SqlExpr):
    op: str
    left: SqlExpr
    right: SqlExpr


@dataclass
class UnaryOp(SqlExpr):
    op: str  # 'NOT' | '-'
    operand: SqlExpr


@dataclass
class BetweenExpr(SqlExpr):
    value: SqlExpr
    low: SqlExpr
    high: SqlExpr
    negated: bool = False


@dataclass
class InExpr(SqlExpr):
    value: SqlExpr
    options: list[SqlExpr] = field(default_factory=list)
    negated: bool = False


@dataclass
class InSubquery(SqlExpr):
    """``expr [NOT] IN (SELECT ...)`` — flattened to a semi/anti join."""

    value: SqlExpr
    select: "SelectStatement"
    negated: bool = False


@dataclass
class IsNullExpr(SqlExpr):
    value: SqlExpr
    negated: bool = False


@dataclass
class LikeExpr(SqlExpr):
    value: SqlExpr
    pattern: str
    negated: bool = False


@dataclass
class CaseExpr(SqlExpr):
    branches: list[tuple[SqlExpr, SqlExpr]]
    default: SqlExpr | None = None


@dataclass
class FuncCall(SqlExpr):
    """Scalar or aggregate function call."""

    name: str
    args: list[SqlExpr] = field(default_factory=list)
    distinct: bool = False
    star: bool = False  # COUNT(*)


@dataclass
class WindowCall(SqlExpr):
    """``func(...) OVER (PARTITION BY ... ORDER BY ...)``."""

    func: FuncCall
    partition_by: list[SqlExpr] = field(default_factory=list)
    order_by: list[tuple[SqlExpr, bool]] = field(default_factory=list)


def children(node: SqlExpr) -> list[SqlExpr]:
    """The expressions directly under ``node``, in field order.  A field
    holds an expression, a list of them or a list of tuples of them (CASE
    branches, ORDER BY keys); an IN subquery's SELECT is a statement, not
    a child."""
    out: list[SqlExpr] = []
    for value in vars(node).values():
        if isinstance(value, SqlExpr):
            out.append(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, SqlExpr):
                    out.append(item)
                elif isinstance(item, tuple):
                    out.extend(part for part in item if isinstance(part, SqlExpr))
    return out


def conjuncts(node: SqlExpr | None) -> list[SqlExpr]:
    """The top-level AND conjuncts of a predicate (none for None)."""
    if node is None:
        return []
    if isinstance(node, BinaryOp) and node.op == "AND":
        return conjuncts(node.left) + conjuncts(node.right)
    return [node]


def contains(node: SqlExpr, test) -> bool:
    """Whether ``test`` holds at ``node`` or anywhere below it.  A window
    call's insides are its own scope: the search does not enter them."""
    pending = [node]
    while pending:
        node = pending.pop()
        if test(node):
            return True
        if not isinstance(node, WindowCall):
            pending.extend(children(node))
    return False


# -- statements ---------------------------------------------------------------


@dataclass
class SelectItem:
    expr: SqlExpr
    alias: str | None = None


@dataclass
class TableRef:
    table: str
    alias: str | None = None

    @property
    def name(self) -> str:
        return self.alias or self.table


@dataclass
class JoinClause:
    join_type: str  # INNER/LEFT/RIGHT/FULL/SEMI/ANTI
    table: TableRef
    condition: SqlExpr | None


@dataclass
class SelectStatement:
    items: list[SelectItem]
    from_tables: list[TableRef] = field(default_factory=list)
    joins: list[JoinClause] = field(default_factory=list)
    where: SqlExpr | None = None
    group_by: list[SqlExpr] = field(default_factory=list)
    having: SqlExpr | None = None
    order_by: list[tuple[SqlExpr, bool]] = field(default_factory=list)
    limit: int | None = None
    offset: int = 0
    distinct: bool = False
    at_epoch: int | None = None


@dataclass
class InsertStatement:
    table: str
    columns: list[str]
    rows: list[list[SqlExpr]]


@dataclass
class UpdateStatement:
    table: str
    assignments: dict[str, SqlExpr]
    where: SqlExpr | None


@dataclass
class DeleteStatement:
    table: str
    where: SqlExpr | None


@dataclass
class ColumnSpec:
    name: str
    type_name: str
    encoding: str | None = None


@dataclass
class CreateTableStatement:
    name: str
    columns: list[ColumnSpec]
    primary_key: list[str] = field(default_factory=list)
    partition_by: SqlExpr | None = None


@dataclass
class CreateProjectionStatement:
    name: str
    columns: list[ColumnSpec]  # type_name empty; encoding may be set
    table: str
    select_columns: list[str] = field(default_factory=list)
    order_by: list[str] = field(default_factory=list)
    segmented_by: list[str] | None = None  # None = unsegmented (replicated)


@dataclass
class DropTableStatement:
    name: str


@dataclass
class CopyStatement:
    table: str
    columns: list[str]


@dataclass
class ExplainStatement:
    select: SelectStatement
    #: True for EXPLAIN ANALYZE / PROFILE: execute the query and render
    #: the plan annotated with per-operator runtime counters.
    analyze: bool = False
