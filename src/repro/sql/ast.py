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
