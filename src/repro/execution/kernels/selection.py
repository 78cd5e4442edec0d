"""Selections: which rows of a block a predicate kept.

A :class:`Selection` is the kernel engine's answer to "which rows
passed", decoupled from the data columns so late materialization works:
Filter computes a selection from only the predicate's columns, and the
remaining output columns are touched (and decoded) only if the
selection is non-empty.

Two physical representations, chosen by how the selection was built:

* a **mask** — one bool per row (general predicates);
* **position ranges** — sorted, disjoint ``[start, stop)`` intervals
  (RLE-run predicates and binary-searched sorted columns), which keep
  run structure exploitable downstream and compose in O(ranges).

Selections are *definite*: they record rows where the predicate is
TRUE (SQL three-valued logic resolved at the leaves — NULL never
passes).  ``invert`` is therefore only used where its complement is
also definite (IS NULL tests, bitmap algebra), never to implement NOT
over a three-valued predicate; the predicate compiler pushes NOT down
to the leaves instead.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress, count
from operator import and_, ne, not_, or_

from .vectors import ColumnVector, DictVector, PlainVector, RleVector


class Selection:
    """An immutable set of kept row positions within one block."""

    __slots__ = ("row_count", "count", "_mask", "_ranges")

    def __init__(self, row_count: int, mask=None, ranges=None, count=None):
        self.row_count = row_count
        self._mask = mask
        self._ranges = ranges
        if count is None:
            if mask is not None:
                count = sum(mask)
            else:
                count = sum(stop - start for start, stop in ranges)
        self.count = count

    # -- constructors ----------------------------------------------------

    @classmethod
    def all_rows(cls, row_count: int) -> "Selection":
        """Every row kept."""
        ranges = [(0, row_count)] if row_count else []
        return cls(row_count, ranges=ranges, count=row_count)

    @classmethod
    def none(cls, row_count: int) -> "Selection":
        """No row kept."""
        return cls(row_count, ranges=[], count=0)

    @classmethod
    def from_mask(cls, mask: list) -> "Selection":
        """From one bool per row."""
        return cls(len(mask), mask=mask)

    @classmethod
    def from_ranges(cls, ranges: list[tuple], row_count: int) -> "Selection":
        """From sorted, disjoint ``[start, stop)`` intervals (merged here
        so callers may hand adjacent pieces)."""
        merged: list[tuple] = []
        for start, stop in ranges:
            if stop <= start:
                continue
            if merged and start <= merged[-1][1]:
                previous = merged[-1]
                merged[-1] = (previous[0], max(previous[1], stop))
            else:
                merged.append((start, stop))
        return cls(row_count, ranges=merged)

    # -- views -----------------------------------------------------------

    @property
    def is_all(self) -> bool:
        return self.count == self.row_count

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    def mask(self) -> list:
        """One bool per row (materialized from ranges when needed)."""
        if self._mask is not None:
            return self._mask
        mask = [False] * self.row_count
        for start, stop in self._ranges:
            mask[start:stop] = [True] * (stop - start)
        return mask

    def ranges(self) -> list[tuple] | None:
        """The interval list, or None when held as a mask."""
        return self._ranges

    def positions(self) -> list[int]:
        """Kept row positions, ascending."""
        if self._ranges is not None:
            out: list[int] = []
            for start, stop in self._ranges:
                out.extend(range(start, stop))
            return out
        return list(compress(range(self.row_count), self._mask))

    # -- algebra ---------------------------------------------------------

    def intersect(self, other: "Selection") -> "Selection":
        """Rows kept by both (conjunction)."""
        if self.is_empty or other.is_all:
            return self
        if other.is_empty or self.is_all:
            return other
        if self._ranges is not None and other._ranges is not None:
            return Selection.from_ranges(
                _intersect_ranges(self._ranges, other._ranges), self.row_count
            )
        return Selection.from_mask(list(map(and_, self.mask(), other.mask())))

    def union(self, other: "Selection") -> "Selection":
        """Rows kept by either (disjunction)."""
        if self.is_all or other.is_empty:
            return self
        if other.is_all or self.is_empty:
            return other
        if self._ranges is not None and other._ranges is not None:
            merged = sorted(self._ranges + other._ranges)
            return Selection.from_ranges(merged, self.row_count)
        return Selection.from_mask(list(map(or_, self.mask(), other.mask())))

    def invert(self) -> "Selection":
        """The complementary row set (bitmap algebra; see module note)."""
        if self._ranges is not None:
            out: list[tuple] = []
            cursor = 0
            for start, stop in self._ranges:
                if start > cursor:
                    out.append((cursor, start))
                cursor = stop
            if cursor < self.row_count:
                out.append((cursor, self.row_count))
            return Selection.from_ranges(out, self.row_count)
        return Selection.from_mask(list(map(not_, self._mask)))

    def shifted(self, offset: int, row_count: int) -> "Selection":
        """This selection of a window re-expressed over the
        ``row_count``-row block the window starts at ``offset`` of.
        Always ranges: a window's mask never grows to block length."""
        mask = self._mask
        if mask is None:
            ranges = [(start + offset, stop + offset) for start, stop in self._ranges]
        elif self.count:
            # the kept runs alternate with the dropped ones between the
            # positions where the mask flips
            flips = compress(count(offset + 1), map(ne, mask[1:], mask))
            edges = [offset, *flips, offset + len(mask)]
            first = 0 if mask[0] else 1
            ranges = list(zip(edges[first::2], edges[first + 1 :: 2]))
        else:
            ranges = []
        return Selection(row_count, ranges=ranges, count=self.count)

    # -- application -----------------------------------------------------

    def apply(self, column):
        """Filter one column (vector or list) down to the kept rows.

        Encoded representations survive where the math allows: ranges
        slice RLE runs run-by-run and dictionary vectors keep their
        dictionary with compressed code lists.  A vector comes back as
        a vector (exact NULL count, ordering inherited — see
        :meth:`ColumnVector.is_ordered`), a list as a list.
        """
        if self.is_all:
            return column
        if self.is_empty:
            return []
        ranges, mask = self._ranges, self._mask
        if isinstance(column, DictVector):
            if ranges is not None:
                codes = column.codes
                kept: list = []
                for start, stop in ranges:
                    kept.extend(codes[start:stop])
            else:
                kept = list(compress(column.codes, mask))
            return DictVector(kept, column.entries, origin=column)
        if isinstance(column, RleVector) and ranges is not None:
            return RleVector(_slice_runs(column, ranges), self.count, origin=column)
        values = column.values() if isinstance(column, ColumnVector) else column
        if ranges is not None:
            out: list = []
            for start, stop in ranges:
                out.extend(values[start:stop])
        else:
            out = list(compress(values, mask))
        if isinstance(column, ColumnVector):
            nulls = out.count(None) if column.null_count else 0
            return PlainVector(out, nulls, origin=column)
        return out

    def __repr__(self) -> str:
        shape = "ranges" if self._ranges is not None else "mask"
        return f"Selection({self.count}/{self.row_count} {shape})"


def _intersect_ranges(left: list[tuple], right: list[tuple]) -> list[tuple]:
    """Interval intersection of two sorted disjoint interval lists."""
    out: list[tuple] = []
    i = j = 0
    while i < len(left) and j < len(right):
        start = max(left[i][0], right[j][0])
        stop = min(left[i][1], right[j][1])
        if start < stop:
            out.append((start, stop))
        if left[i][1] <= right[j][1]:
            i += 1
        else:
            j += 1
    return out


def _slice_runs(vector: RleVector, ranges: list[tuple]) -> list[tuple]:
    """Restrict ``vector``'s runs to the row positions covered by
    ``ranges``: a search for each range's first run, then only the runs
    the range overlaps."""
    out: list[tuple] = []
    runs, starts = vector.runs, vector.starts()
    for start, stop in ranges:
        k = bisect_right(starts, start) - 1
        while k < len(runs) and starts[k] < stop:
            value, length = runs[k]
            kept = min(starts[k] + length, stop) - max(starts[k], start)
            if out and out[-1][0] == value:
                out[-1] = (value, out[-1][1] + kept)
            else:
                out.append((value, kept))
            k += 1
    return out
