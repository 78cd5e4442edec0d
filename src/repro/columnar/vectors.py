"""Column vectors: encoded columnar data with a plain-sequence façade.

A :class:`ColumnVector` carries one block-range of one column in its
*encoded representation* — RLE runs or block-dictionary codes — plus a
lazily-built, cached materialization.  Vectors implement the read-only
sequence protocol (``len``, indexing, slicing, iteration), so they can
sit inside a :class:`~repro.columnar.row_block.RowBlock` and flow
through operators that know nothing about kernels: the first per-row
access simply materializes the values.  Kernel-aware operators instead
dispatch on the vector kind and work on runs/codes directly.

NULL handling contract: :class:`RleVector` and :class:`DictVector`
never contain NULLs — storage blocks with NULLs decode to a
:class:`PlainVector` (the presence bitmap's positions do not line up
with run/code positions, so the encoded form is not usable once NULLs
enter the picture).  ``null_count`` is therefore exact on every vector.

Ordering contract: a block sorted by a column can be binary-searched
only while every value in it orders against every other, which a NULL
or a float NaN breaks.  :meth:`ColumnVector.is_ordered` answers that
once per vector; a vector cut out of another (a visibility selection, a
seek window) inherits a clean answer from the vector it was cut from,
so the scan over a cached storage block is paid once per decode, not
once per statement.  :func:`seek` is the one binary search over such a
vector: the kernels' sort-prefix seek and the storage walk's
container skip both call it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

from ..types import any_nan

_RUN_VALUE = itemgetter(0)


class ColumnVector:
    """Base class: a fixed-length, read-only column of values."""

    __slots__ = ("row_count", "null_count", "_values", "_ordered", "_origin")

    #: Encoded-representation kind: "plain" | "rle" | "dict".
    kind = "plain"

    def __init__(self, row_count: int, null_count: int, origin=None):
        self.row_count = row_count
        self.null_count = null_count
        self._values: list | None = None
        self._ordered: bool | None = None
        #: The vector this one is a subset of, if any (see is_ordered).
        self._origin: ColumnVector | None = origin

    def is_ordered(self) -> bool:
        """Whether every value orders against every other: no NULL and
        no NaN.  A subset of an ordered vector is ordered; otherwise the
        vector's own scalars are checked, once."""
        ordered = self._ordered
        if ordered is None:
            origin = self._origin
            if self.null_count:
                ordered = False
            elif origin is not None and origin.is_ordered():
                ordered = True
            else:
                ordered = not any_nan(self._scalars())
            self._ordered = ordered
            self._origin = None
        return ordered

    def _scalars(self):
        """The distinct-ish values a scalar test has to visit."""
        return self.values()

    def values(self) -> list:
        """The materialized value list (decoded once, then cached)."""
        values = self._values
        if values is None:
            values = self._values = self._materialize()
        return values

    def _materialize(self) -> list:
        raise NotImplementedError

    # -- sequence protocol (transparent fallback for row operators) ------

    def __len__(self) -> int:
        return self.row_count

    def __iter__(self):
        return iter(self.values())

    def __getitem__(self, index):
        return self.values()[index]

    def __contains__(self, value) -> bool:
        return value in self.values()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rows={self.row_count})"


class PlainVector(ColumnVector):
    """An already-decoded value list, annotated with its NULL count."""

    __slots__ = ()

    kind = "plain"

    def __init__(self, values: list, null_count: int, origin=None):
        super().__init__(len(values), null_count, origin)
        self._values = values

    def _materialize(self) -> list:  # pragma: no cover - set in __init__
        return self._values


class RleVector(ColumnVector):
    """A column held as ``(value, run_length)`` pairs (no NULLs)."""

    __slots__ = ("runs", "_starts")

    kind = "rle"

    def __init__(
        self, runs: list[tuple], row_count: int | None = None, origin=None
    ):
        if row_count is None:
            row_count = sum(length for _, length in runs)
        super().__init__(row_count, 0, origin)
        self.runs = runs
        self._starts: list[int] | None = None

    def starts(self) -> list[int]:
        """Row position at which each run starts (built once)."""
        starts = self._starts
        if starts is None:
            starts = self._starts = []
            position = 0
            for _, length in self.runs:
                starts.append(position)
                position += length
        return starts

    def _scalars(self):
        return [value for value, _ in self.runs]

    def _materialize(self) -> list:
        out: list = []
        for value, length in self.runs:
            out.extend([value] * length)
        return out


class DictVector(ColumnVector):
    """A column held as dictionary codes plus the entry list (no NULLs).

    The dictionary is block-local (section 3.4.1), so a vector never
    spans storage blocks: batches are cut at block boundaries.
    """

    __slots__ = ("codes", "entries")

    kind = "dict"

    def __init__(self, codes: list[int], entries: list, origin=None):
        super().__init__(len(codes), 0, origin)
        self.codes = codes
        self.entries = entries

    def _scalars(self):
        return self.entries

    def _materialize(self) -> list:
        entries = self.entries
        return [entries[code] for code in self.codes]


def as_list(column) -> list:
    """Materialize ``column`` (vector or plain list) as a plain list.

    Row-path code that indexes per row calls this first so the inner
    loop runs over a real list instead of paying a method call per
    element on a vector.
    """
    if isinstance(column, ColumnVector):
        return column.values()
    return column


def null_count_of(column) -> int | None:
    """Exact NULL count for vectors; None (unknown) for plain lists."""
    if isinstance(column, ColumnVector):
        return column.null_count
    return None


def seek(column: ColumnVector, low, high, lo: int, hi: int):
    """Narrow ``[lo, hi)`` — a window in which ``column`` is sorted
    ascending and :meth:`~ColumnVector.is_ordered` — to the rows inside
    the interval ``low .. high`` (each None or ``(value, inclusive)``).
    Returns the new ``(lo, hi)``, or None when the literal does not
    order against the column's values (``TypeError``).

    The one binary search over a sorted column: over the value list of
    a plain vector, over the run heads of an RLE vector and over the
    codes of a dictionary vector through its entries — neither is
    decoded to values.  One ``bisect`` per bound, no closure.
    """
    if lo >= hi:
        return lo, hi
    starts = None
    if isinstance(column, RleVector):
        # runs [first, last) cover the window; a run index maps back to
        # its start, the end of the window past the last run
        starts = column.starts()
        keys, key = column.runs, _RUN_VALUE
        first, last = bisect_right(starts, lo) - 1, bisect_left(starts, hi)
    elif isinstance(column, DictVector):
        keys, key, first, last = column.codes, column.entries.__getitem__, lo, hi
    else:
        keys, key, first, last = column.values(), None, lo, hi
    try:
        # each end clamped into [lo, hi] by comparisons: min/max calls
        # would cost as much as the searches
        if low is not None:
            value, inclusive = low
            search = bisect_left if inclusive else bisect_right
            found = search(keys, value, first, last, key=key)
            if starts is not None:
                found = starts[found] if found < last else hi
            if found > lo:
                lo = found if found < hi else hi
        if high is not None:
            value, inclusive = high
            search = bisect_right if inclusive else bisect_left
            found = search(keys, value, first, last, key=key)
            if starts is not None:
                found = starts[found] if found < last else hi
            if found < hi:
                hi = found if found > lo else lo
    except TypeError:
        return None
    return lo, hi
