"""Selectivity estimation and the compression-aware cost model.

V2Opt prunes its search space "using a cost-model based on compression
aware I/O, CPU and Network transfer costs" (section 6.2).  The I/O term
here uses *measured* encoded bytes per column (from the live position
indexes), so a projection whose sort order makes a column RLE-friendly
really is cheaper to scan — the property that makes projection choice
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..execution.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    column_range_from_predicate,
)
from .stats import StatsCatalog, TableStats

#: Relative weight of reading one encoded byte from disk.
IO_BYTE_WEIGHT = 1.0
#: Relative weight of processing one row through an operator.
CPU_ROW_WEIGHT = 2.0
#: Relative weight of moving one byte across the interconnect.
NETWORK_BYTE_WEIGHT = 4.0
#: Default selectivity for predicates we cannot analyze.
DEFAULT_SELECTIVITY = 0.25


def estimate_selectivity(predicate: Expr | None, stats: TableStats) -> float:
    """Estimated fraction of rows passing ``predicate``."""
    if predicate is None:
        return 1.0
    if isinstance(predicate, And):
        # the range conjuncts of one column (``a > 1 AND a < 9``) are one
        # interval, asked of the histogram once: as two independent
        # halves they multiply to many times the rows they keep
        ranges: dict[str, list[Expr]] = {}
        result = 1.0
        for operand in predicate.operands:
            name = _range_column(operand)
            if name is None:
                result *= estimate_selectivity(operand, stats)
            else:
                ranges.setdefault(name, []).append(operand)
        for name, conjuncts in ranges.items():
            low, high = column_range_from_predicate(And(*conjuncts))[name]
            result *= stats.column(name).histogram.selectivity_range(low, high)
        return result
    if isinstance(predicate, Or):
        result = 0.0
        for operand in predicate.operands:
            part = estimate_selectivity(operand, stats)
            result = result + part - result * part
        return result
    if isinstance(predicate, Not):
        return 1.0 - estimate_selectivity(predicate.operand, stats)
    if isinstance(predicate, Comparison):
        return _comparison_selectivity(predicate, stats)
    if isinstance(predicate, Between) and isinstance(predicate.value, ColumnRef):
        if isinstance(predicate.low, Literal) and isinstance(predicate.high, Literal):
            column = stats.column(predicate.value.name)
            return column.histogram.selectivity_range(
                predicate.low.value, predicate.high.value
            )
    if isinstance(predicate, InList) and isinstance(predicate.value, ColumnRef):
        column = stats.column(predicate.value.name)
        if column.ndv > 0:
            return min(len(predicate.options) / column.ndv, 1.0)
    if isinstance(predicate, IsNull):
        column_names = list(predicate.referenced_columns())
        if len(column_names) == 1:
            fraction = stats.column(column_names[0]).histogram.null_fraction
            return 1.0 - fraction if predicate.negated else fraction
    return DEFAULT_SELECTIVITY


def _range_column(conjunct: Expr) -> str | None:
    """The column ``conjunct`` bounds on one side or both — an inequality
    or BETWEEN against literals — else None."""
    if isinstance(conjunct, Between) or (
        isinstance(conjunct, Comparison) and conjunct.op in ("<", "<=", ">", ">=")
    ):
        return next(iter(column_range_from_predicate(conjunct)), None)
    return None


def _comparison_selectivity(predicate: Comparison, stats: TableStats) -> float:
    column_name, op, literal = None, predicate.op, None
    if isinstance(predicate.left, ColumnRef) and isinstance(predicate.right, Literal):
        column_name, literal = predicate.left.name, predicate.right.value
    elif isinstance(predicate.right, ColumnRef) and isinstance(predicate.left, Literal):
        column_name, literal = predicate.right.name, predicate.left.value
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if column_name is None or literal is None:
        return DEFAULT_SELECTIVITY
    column = stats.column(column_name)
    if op == "=":
        return column.histogram.selectivity_equals(column.ndv)
    if op == "<>":
        return 1.0 - column.histogram.selectivity_equals(column.ndv)
    if op in ("<", "<="):
        return column.histogram.selectivity_range(None, literal)
    return column.histogram.selectivity_range(literal, None)


@dataclass
class CostBreakdown:
    """Io/cpu/network components of a plan cost."""

    io: float = 0.0
    cpu: float = 0.0
    network: float = 0.0

    @property
    def total(self) -> float:
        return self.io + self.cpu + self.network

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(
            self.io + other.io,
            self.cpu + other.cpu,
            self.network + other.network,
        )


def scan_cost(
    stats: TableStats, columns: list[str], selectivity: float
) -> CostBreakdown:
    """Cost of scanning the given columns of a table.

    I/O is proportional to *encoded* bytes (compression aware); range
    predicates additionally reduce I/O through container pruning, which
    we approximate by scaling I/O with max(selectivity, 0.05).
    """
    bytes_per_row = sum(
        stats.column(name).avg_encoded_bytes for name in columns
    )
    io = stats.row_count * bytes_per_row * max(selectivity, 0.05) * IO_BYTE_WEIGHT
    cpu = stats.row_count * CPU_ROW_WEIGHT * 0.25  # decode + predicate
    return CostBreakdown(io=io, cpu=cpu)


def join_cost(
    left_rows: float, right_rows: float, algorithm: str
) -> CostBreakdown:
    """CPU cost of joining; merge join is cheaper when inputs arrive
    sorted (the sorted-projection payoff)."""
    if algorithm == "merge":
        cpu = (left_rows + right_rows) * CPU_ROW_WEIGHT * 0.6
    else:
        cpu = (left_rows + right_rows * 1.5) * CPU_ROW_WEIGHT
    return CostBreakdown(cpu=cpu)


def network_cost(rows: float, bytes_per_row: float, copies: int = 1) -> CostBreakdown:
    """Cost of shipping rows across the interconnect."""
    return CostBreakdown(
        network=rows * bytes_per_row * copies * NETWORK_BYTE_WEIGHT
    )


def groupby_cost(input_rows: float, groups: float) -> CostBreakdown:
    """CPU cost of aggregation."""
    return CostBreakdown(cpu=input_rows * CPU_ROW_WEIGHT + groups)


def sort_cost(rows: float) -> CostBreakdown:
    """CPU cost of sorting (n log n-ish)."""
    import math

    if rows <= 1:
        return CostBreakdown(cpu=rows)
    return CostBreakdown(cpu=rows * math.log2(rows) * CPU_ROW_WEIGHT * 0.5)


def average_row_bytes(stats: TableStats, columns: list[str]) -> float:
    """Encoded bytes per row for the given columns."""
    return sum(stats.column(name).avg_encoded_bytes for name in columns) or 8.0


__all__ = [
    "CostBreakdown",
    "estimate_selectivity",
    "scan_cost",
    "join_cost",
    "network_cost",
    "groupby_cost",
    "sort_cost",
    "average_row_bytes",
    "StatsCatalog",
    "DEFAULT_SELECTIVITY",
]
