"""Aggregate functions and their accumulators.

Accumulators support the two-phase (prepass + final) aggregation the
paper describes for parallel group-by: *mergeable* aggregates can emit
a partial value from a prepass operator which a downstream group-by
folds in with a merge function (COUNT partials merge by SUM, SUM by
SUM, MIN by MIN, MAX by MAX).  AVG and DISTINCT aggregates are not
merged by value, so plans containing them skip the prepass stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from ..errors import ExecutionError
from .expressions import Expr
from .kernels.aggregate import NAN

SUPPORTED = ("COUNT", "SUM", "AVG", "MIN", "MAX")


@dataclass
class AggregateSpec:
    """One aggregate in a GROUP BY's select list."""

    func: str
    #: Argument expression; None means COUNT(*).
    arg: Expr | None
    #: Output column name.
    output_name: str
    distinct: bool = False

    def __post_init__(self):
        self.func = self.func.upper()
        if self.func not in SUPPORTED and not self._user_factory():
            raise ExecutionError(f"unsupported aggregate {self.func!r}")
        if self.func != "COUNT" and self.arg is None:
            raise ExecutionError(f"{self.func} requires an argument")

    def _user_factory(self):
        from ..sdk import user_aggregate_factory

        return user_aggregate_factory(self.func)

    @property
    def is_user_defined(self) -> bool:
        """Whether this aggregate came from the SDK registry."""
        return self.func not in SUPPORTED

    @property
    def mergeable(self) -> bool:
        """Whether a prepass partial can be folded in downstream.

        User-defined aggregates are never prepassed (their partial
        representation is opaque), like AVG and DISTINCT aggregates.
        """
        return not self.distinct and self.func in ("COUNT", "SUM", "MIN", "MAX")

    @property
    def merge_func(self) -> str:
        """Aggregate applied to partials in the final stage."""
        return "SUM" if self.func == "COUNT" else self.func

    def referenced_columns(self) -> set[str]:
        """Input columns the aggregate reads."""
        return self.arg.referenced_columns() if self.arg is not None else set()

    def describe(self) -> str:
        """SQL-ish rendering for plan display."""
        inner = "*" if self.arg is None else repr(self.arg)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.func}({prefix}{inner})"


class Accumulator:
    """Mutable state for one (group, aggregate) pair."""

    __slots__ = ("func", "distinct", "count", "total", "minimum", "maximum", "seen")

    def __init__(self, func: str, distinct: bool):
        self.func = func
        self.distinct = distinct
        self.count = 0
        self.total = None
        self.minimum = None
        self.maximum = None
        self.seen = set() if distinct else None

    def add(self, value) -> None:
        """Fold one input value in (NULLs are ignored per SQL)."""
        if value is None:
            return
        if self.distinct:
            if value != value:  # NaNs are one value, as they are one group
                value = NAN
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.func in ("SUM", "AVG"):
            self.total = value if self.total is None else self.total + value
        elif self.func == "MIN":
            if self.minimum is None or value < self.minimum:
                self.minimum = value
        elif self.func == "MAX":
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def add_count_star(self, count: int = 1) -> None:
        """COUNT(*) path: count rows regardless of values."""
        self.count += count

    def add_bulk(self, values, null_count: int | None = None) -> None:
        """Kernel path: fold a whole value sequence at once.

        ``null_count`` of 0 promises the sequence is NULL-free (exact
        vector metadata), skipping the filter pass; None means unknown.
        """
        if self.distinct:
            for value, _ in groupby(values):  # once per run of equal values
                self.add(value)
            return
        if null_count != 0:
            values = [value for value in values if value is not None]
        if not values:
            return
        self.count += len(values)
        if self.func in ("SUM", "AVG"):
            part = sum(values)
            self.total = part if self.total is None else self.total + part
        elif self.func == "MIN":
            low = min(values)
            if self.minimum is None or low < self.minimum:
                self.minimum = low
        elif self.func == "MAX":
            high = max(values)
            if self.maximum is None or high > self.maximum:
                self.maximum = high

    def add_run(self, value, length: int) -> None:
        """Kernel path: fold an RLE run — O(1) for every aggregate."""
        if value is None or length <= 0:
            return
        if self.distinct:
            self.add(value)
            return
        self.count += length
        if self.func in ("SUM", "AVG"):
            part = value * length
            self.total = part if self.total is None else self.total + part
        elif self.func == "MIN":
            if self.minimum is None or value < self.minimum:
                self.minimum = value
        elif self.func == "MAX":
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def final(self):
        """The aggregate's SQL result."""
        if self.func == "COUNT":
            return self.count
        if self.func == "SUM":
            return self.total
        if self.func == "AVG":
            return None if self.count == 0 else self.total / self.count
        if self.func == "MIN":
            return self.minimum
        return self.maximum


class _UserAccumulatorAdapter:
    """Wraps a user accumulator with NULL/DISTINCT handling."""

    __slots__ = ("inner", "seen")

    def __init__(self, inner, distinct: bool):
        self.inner = inner
        self.seen = set() if distinct else None

    def add(self, value) -> None:
        if value is None:
            return
        if self.seen is not None:
            if value != value:
                value = NAN
            if value in self.seen:
                return
            self.seen.add(value)
        self.inner.add(value)

    def add_bulk(self, values, null_count: int | None = None) -> None:
        for value in values:
            self.add(value)

    def add_run(self, value, length: int) -> None:
        for _ in range(length):
            self.add(value)

    def final(self):
        return self.inner.final()


def make_accumulator(spec: AggregateSpec):
    """Fresh accumulator for one group (built-in or SDK-registered)."""
    if spec.is_user_defined:
        return _UserAccumulatorAdapter(spec._user_factory()(), spec.distinct)
    return Accumulator(spec.func, spec.distinct)
