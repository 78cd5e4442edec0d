"""Logical schema objects: column definitions and tables.

Vertica models user data as tables of columns, "though the data is not
physically arranged in this manner" (section 3) — physical layout
belongs to projections (:mod:`repro.projections`).  A table owns its
column definitions and, optionally, a table-level partition expression
(section 3.5: partitioning is specified at the table level, not the
projection level, so bulk deletion stays fast on every projection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..columnar.row_block import RowBlock
from ..errors import SqlAnalysisError
from ..types import DataType

if TYPE_CHECKING:
    from ..execution.expressions import Expr


@dataclass(frozen=True)
class ColumnDef:
    """A named, typed table column."""

    name: str
    dtype: DataType

    def __post_init__(self):
        if not self.name:
            raise SqlAnalysisError("column name cannot be empty")


@dataclass
class TableDefinition:
    """A logical table: name, columns and optional partition expression.

    ``partition_by`` is the :class:`Expr` of ``CREATE TABLE ...
    PARTITION BY <expr>``, evaluated over a run's columns to give each
    row its partition key (:meth:`partition_keys`).  Most real partition
    expressions are date-derived (month/year).  The journal keeps its
    SQL text (``repr``) and rebuilds it through the parser and analyzer.
    """

    name: str
    columns: list[ColumnDef]
    partition_by: Expr | None = None
    #: Primary-key column names (used for constraint-aware planning).
    primary_key: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SqlAnalysisError(f"duplicate column names in table {self.name!r}")
        for key in self.primary_key:
            if key not in names:
                raise SqlAnalysisError(f"primary key column {key!r} not in table")
        from ..execution.expressions import Expr

        if not isinstance(self.partition_by, (Expr, type(None))):
            raise TypeError(f"a partition expression is an Expr, not {self.partition_by!r}")
        missing = sorted(set(self.partition_columns()) - set(names))
        if missing:
            raise SqlAnalysisError(f"partition expression reads {missing}, not in {self.name!r}")

    @property
    def column_names(self) -> list[str]:
        """Ordered column names."""
        return [column.name for column in self.columns]

    def column(self, name: str) -> ColumnDef:
        """Look up a column definition by name."""
        for column in self.columns:
            if column.name == name:
                return column
        raise SqlAnalysisError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        """Whether the table defines a column called ``name``."""
        return any(column.name == name for column in self.columns)

    def partition_keys(self, columns: dict[str, list], row_count: int) -> list:
        """The partition key of each of ``row_count`` rows given as
        ``columns`` (name -> values): the expression evaluated once over
        them; None for each when the table is unpartitioned."""
        if self.partition_by is None or not row_count:  # (an empty run has no columns)
            return [None] * row_count
        names = self.partition_columns()
        return self.partition_by.evaluate(RowBlock({n: columns[n] for n in names}, row_count))

    def partition_columns(self) -> list[str]:
        """The columns the partition expression reads, which every
        projection must store (a node keys a row from its own copy)."""
        if self.partition_by is None:
            return []
        return sorted(self.partition_by.referenced_columns())

    def validate_columns(self, columns: dict[str, list]) -> dict[str, list]:
        """Type-check rows given as columns (name -> values) against the
        schema, a column at a time (:meth:`DataType.validate_column`);
        returns the columns in table order with values normalized (e.g.
        int -> float for FLOAT columns).  A bad value raises the error a
        row-at-a-time check raises first: the earliest row's, and in it
        the first column's."""
        if set(columns) != set(self.column_names):
            raise SqlAnalysisError(
                f"row columns {sorted(columns)} do not match table "
                f"{self.name!r} columns {sorted(self.column_names)}"
            )
        try:
            return {
                column.name: column.dtype.validate_column(columns[column.name])
                for column in self.columns
            }
        except SqlAnalysisError:
            for row in zip(*(columns[column.name] for column in self.columns)):
                for column, value in zip(self.columns, row):
                    column.dtype.validate(value)
            raise
