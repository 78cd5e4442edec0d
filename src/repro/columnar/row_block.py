"""Vectorized row blocks: the unit of data flow between operators.

    As in C-store, the EE is fully vectorized and makes requests for
    blocks of rows at a time instead of requesting single rows at a
    time.  (section 6.1)

A :class:`RowBlock` is a small columnar batch: a dict of column name to
equal-length value lists.  Operators pull blocks from their children,
transform them column-at-a-time, and push nothing — the most
downstream operator drives the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ExecutionError
from .vectors import PlainVector, as_list, null_count_of

#: Default number of rows per block flowing between operators.
VECTOR_SIZE = 4096


@dataclass
class RowBlock:
    """A columnar batch of rows.

    Columns are equal-length sequences: plain lists, or (from a
    vectorized scan) :class:`~repro.columnar.vectors.ColumnVector`
    instances that keep their encoded form until something actually
    indexes them.  ``sorted_by`` names the columns this block's rows are
    sorted by ascending (major first), when known — the hook kernel
    predicates use for binary search and GroupBy uses for run detection.
    """

    columns: dict[str, list]
    row_count: int
    sorted_by: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        for name, values in self.columns.items():
            if len(values) != self.row_count:
                raise ExecutionError(
                    f"column {name!r} has {len(values)} values, "
                    f"expected {self.row_count}"
                )

    @classmethod
    def from_rows(cls, rows: list[dict], column_names: list[str]) -> "RowBlock":
        """Build a block from row dicts (test/load convenience)."""
        return cls(
            columns={
                name: [row[name] for row in rows] for name in column_names
            },
            row_count=len(rows),
        )

    @classmethod
    def empty(cls, column_names: list[str]) -> "RowBlock":
        """A zero-row block with the given shape."""
        return cls(columns={name: [] for name in column_names}, row_count=0)

    @property
    def column_names(self) -> list[str]:
        """Names of the block's columns."""
        return list(self.columns)

    def column(self, name: str) -> list:
        """Values of one column."""
        try:
            return self.columns[name]
        except KeyError:
            raise ExecutionError(
                f"block has no column {name!r}; has {self.column_names}"
            ) from None

    def to_rows(self) -> list[dict]:
        """Materialize as row dicts (sinks and tests)."""
        names = self.column_names
        columns = {name: as_list(self.columns[name]) for name in names}
        return [
            {name: columns[name][index] for name in names}
            for index in range(self.row_count)
        ]

    def select_rows(self, keep: list[int]) -> "RowBlock":
        """A new block containing only the rows at the given indexes."""
        return RowBlock(
            columns={name: gather(values, keep) for name, values in self.columns.items()},
            row_count=len(keep),
            sorted_by=self.sorted_by,
        )

    def filter(self, mask: list) -> "RowBlock":
        """A new block keeping rows where ``mask`` is truthy (SQL
        three-valued logic: NULL does not pass)."""
        keep = [index for index, flag in enumerate(mask) if flag]
        if len(keep) == self.row_count:
            return self
        return self.select_rows(keep)

    def project(self, names: list[str]) -> "RowBlock":
        """A new block with only the named columns."""
        return RowBlock(
            columns={name: self.column(name) for name in names},
            row_count=self.row_count,
            sorted_by=sorted_prefix(self.sorted_by, set(names)),
        )

    def with_column(self, name: str, values: list) -> "RowBlock":
        """A new block with an extra (or replaced) column."""
        columns = dict(self.columns)
        columns[name] = values
        sorted_by = self.sorted_by
        if sorted_by and name in sorted_by:
            # the replacement may reorder values; keep the prefix before it
            sorted_by = sorted_by[: sorted_by.index(name)] or None
        return RowBlock(
            columns=columns, row_count=self.row_count, sorted_by=sorted_by
        )

    def rename(self, mapping: dict[str, str]) -> "RowBlock":
        """A new block with columns renamed per ``mapping``."""
        sorted_by = self.sorted_by
        if sorted_by:
            sorted_by = tuple(mapping.get(name, name) for name in sorted_by)
        return RowBlock(
            columns={
                mapping.get(name, name): values
                for name, values in self.columns.items()
            },
            row_count=self.row_count,
            sorted_by=sorted_by,
        )

    @staticmethod
    def concat(blocks: list["RowBlock"]) -> "RowBlock":
        """Concatenate blocks with identical column sets."""
        if not blocks:
            raise ExecutionError("cannot concat zero blocks")
        names = blocks[0].column_names
        columns: dict[str, list] = {name: [] for name in names}
        total = 0
        for block in blocks:
            if set(block.column_names) != set(names):
                raise ExecutionError("concat requires identical columns")
            for name in names:
                columns[name].extend(block.columns[name])
            total += block.row_count
        return RowBlock(columns=columns, row_count=total)

    def slices(self, size: int):
        """Yield sub-blocks of at most ``size`` rows."""
        if self.row_count <= size:
            yield self
            return
        for start in range(0, self.row_count, size):
            yield RowBlock(
                columns={
                    name: values[start : start + size]
                    for name, values in self.columns.items()
                },
                row_count=min(size, self.row_count - start),
                sorted_by=self.sorted_by,
            )


def gather(column, positions) -> list:
    """``column``'s values at ``positions``: a vector's gather keeps its
    promise of no NULL (and, through its origin, of no NaN)."""
    values = list(map(as_list(column).__getitem__, positions))
    if null_count_of(column) == 0:
        return PlainVector(values, 0, origin=column)
    return values


def sorted_prefix(sorted_by: tuple | None, available: set) -> tuple | None:
    """The leading run of ``sorted_by`` whose columns are all present."""
    if not sorted_by:
        return sorted_by
    prefix: list = []
    for name in sorted_by:
        if name not in available:
            break
        prefix.append(name)
    return tuple(prefix) or None


def blocks_to_rows(blocks) -> list[dict]:
    """Drain an iterator of blocks into row dicts."""
    rows: list[dict] = []
    for block in blocks:
        rows.extend(block.to_rows())
    return rows
