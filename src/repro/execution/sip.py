"""Sideways Information Passing (section 6.1).

    Special SIP filters are built during optimizer planning and placed
    in the Scan operator.  At run time, the Scan has access to the
    Join's hash table and the SIP filters are used to evaluate whether
    the outer key values exist in the hash table.  Rows that do not
    pass these filters are not output by the Scan.

A :class:`SipFilter` is created at plan time pointing at a hash join;
the join publishes its hash table's key view once the table is built
(which, in a pull pipeline, always happens before the probe-side scan
produces its first block).  The scan then drops rows whose join keys
cannot match — one test per dictionary entry or RLE run, not per row,
kept as a selection so the other columns stay encoded.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from itertools import repeat

from ..columnar.row_block import RowBlock
from ..columnar.selection import Selection
from ..columnar.vectors import DictVector, RleVector, as_list
from .expressions import Expr


@dataclass
class SipFilter:
    """A scan-side membership filter fed by a join's hash table."""

    #: Expressions over the scan's output that produce the join key.
    key_exprs: list[Expr]
    #: Set by the owning HashJoin once its build side is hashed: the
    #: key view of its table (anything with ``in``).
    build_keys: Collection | None = None
    #: Rows eliminated by this filter (observability for the bench).
    rows_filtered: int = 0
    #: Human-readable origin, e.g. the join's label.
    origin: str = ""

    @property
    def ready(self) -> bool:
        """Whether the hash table has been published yet."""
        return self.build_keys is not None

    def publish(self, build_keys: Collection) -> None:
        """Called by the join after building its hash table."""
        self.build_keys = build_keys

    def apply(self, block: RowBlock) -> RowBlock:
        """Filter a scan output block; a no-op until published."""
        if not self.ready or block.row_count == 0:
            return block
        columns = [expr.evaluate(block) for expr in self.key_exprs]
        selection = _members(self.build_keys, columns, block.row_count)
        self.rows_filtered += block.row_count - selection.count
        if selection.is_all:
            return block
        columns = {name: selection.apply(v) for name, v in block.columns.items()}
        return RowBlock(columns, selection.count, block.sorted_by)

    def describe(self) -> str:
        """Plan-display rendering."""
        keys = ", ".join(repr(expr) for expr in self.key_exprs)
        return f"SIP[{keys}] from {self.origin or 'join'}"


def _members(keys: Collection, columns: list, row_count: int) -> Selection:
    """The rows whose key is in ``keys``: one membership test per
    dictionary entry, per RLE run or per plain value.  A NULL is never
    a key, so unlike a predicate leaf no value needs a NULL guard: the
    plain and dictionary rungs are one C-level ``map`` each."""
    if len(columns) != 1:  # key tuples; a cross product's key is ()
        tuples = zip(*map(as_list, columns)) if columns else repeat((), row_count)
        return Selection.from_mask(list(map(keys.__contains__, tuples)))
    (column,) = columns
    if isinstance(column, DictVector):
        hits = list(map(keys.__contains__, column.entries))
        return Selection.from_mask(list(map(hits.__getitem__, column.codes)))
    if isinstance(column, RleVector):
        runs = zip(column.starts(), column.runs)
        ranges = [(start, start + n) for start, (value, n) in runs if value in keys]
        return Selection.from_ranges(ranges, row_count)
    return Selection.from_mask(list(map(keys.__contains__, as_list(column))))
