"""Aggregate functions: what a GROUP BY computes, not how it folds.

Specs support the two-phase (prepass + final) aggregation the paper
describes for parallel group-by: *mergeable* aggregates can emit a
partial value from a prepass operator which a downstream group-by folds
in with a merge function (COUNT partials merge by SUM, SUM by SUM, MIN
by MIN, MAX by MAX).  AVG and DISTINCT aggregates are not merged by
value, so plans containing them skip the prepass stage.  The state each
aggregate folds into is a column of the group table
(:mod:`repro.execution.kernels.aggregate`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ExecutionError
from .expressions import Expr

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
