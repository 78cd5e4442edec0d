"""Analytic (windowed aggregate) operator.

    Analytic: Computes SQL-99 Analytics style windowed aggregates.
    (section 6.1)

Supported functions: ROW_NUMBER, RANK, DENSE_RANK, and the aggregate
functions COUNT/SUM/AVG/MIN/MAX over a window.  With an ORDER BY the
aggregates are *running* (rows from partition start to the current row,
peers included); without one they cover the whole partition.

One permutation orders the input by (partition keys, then order keys)
under the ordering rule every sort shares
(:func:`repro.types.sort_permutation`), the input columns are gathered
through it, and each function is one fold over the permuted columns: it
resets where a partition starts and hands every row of a peer group —
rows with equal ordering keys, so all NULLs are peers and so are all
NaNs — the value it reached at the group's end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from ...columnar.row_block import VECTOR_SIZE, RowBlock
from ...columnar.vectors import as_list
from ...errors import ExecutionError
from ...types import ordering_keys, sort_permutation
from ..aggregates import AggregateSpec
from ..expressions import Expr
from ..kernels.aggregate import aggregate_state, fold_runs, run_starts
from .base import Operator

_RANKING = ("ROW_NUMBER", "RANK", "DENSE_RANK")
_AGGREGATE = ("COUNT", "SUM", "AVG", "MIN", "MAX")


@dataclass
class WindowSpec:
    """One window function in the select list."""

    func: str
    #: Argument expression; None for ROW_NUMBER/RANK/DENSE_RANK/COUNT(*).
    arg: Expr | None
    output_name: str
    partition_by: list[Expr] = field(default_factory=list)
    order_by: list[tuple[Expr, bool]] = field(default_factory=list)

    def __post_init__(self):
        self.func = self.func.upper()
        if self.func not in _RANKING + _AGGREGATE:
            raise ExecutionError(f"unsupported window function {self.func!r}")
        if self.func in _RANKING and not self.order_by:
            raise ExecutionError(f"{self.func} requires ORDER BY")

    def describe(self) -> str:
        inner = "" if self.arg is None else repr(self.arg)
        over = []
        if self.partition_by:
            over.append(
                "PARTITION BY " + ", ".join(repr(e) for e in self.partition_by)
            )
        if self.order_by:
            over.append(
                "ORDER BY "
                + ", ".join(
                    f"{expr!r} {'ASC' if asc else 'DESC'}"
                    for expr, asc in self.order_by
                )
            )
        return f"{self.func}({inner}) OVER ({' '.join(over)})"


class AnalyticOperator(Operator):
    """Computes one window function, appending its output column.

    Materializes the input (window semantics require it) and re-emits it
    permuted into (partition, order) order.  Chain several
    AnalyticOperators for several window functions.
    """

    op_name = "Analytic"

    def __init__(self, child: Operator, spec: WindowSpec):
        super().__init__([child])
        self.spec = spec

    def _produce(self):
        blocks = [block for block in self.children[0].blocks() if block.row_count]
        if not blocks:
            return
        spec = self.spec
        whole = RowBlock.concat(blocks)
        count = whole.row_count
        exprs = spec.partition_by + [expr for expr, _ in spec.order_by]
        keys = [as_list(expr.compiled()(whole)) for expr in exprs]
        if keys:
            descending = [False] * len(spec.partition_by)
            descending += [not ascending for _, ascending in spec.order_by]
            order = sort_permutation(keys, descending)
            whole = whole.select_rows(order)
            keys = [list(map(values.__getitem__, order)) for values in keys]
        keyed = [ordering_keys([values]) for values in keys]
        partitions = run_starts(keyed[: len(spec.partition_by)], count)
        peers = run_starts(keyed, count) + [count]
        yield from whole.with_column(
            spec.output_name, self._fold(whole, set(partitions), peers)
        ).slices(VECTOR_SIZE)

    def _fold(self, whole: RowBlock, partitions: set, peers: list[int]) -> list:
        """The function's value per row of the permuted input: a fold over
        the peer groups ``peers[i]:peers[i + 1]``, restarted at every
        position in ``partitions``."""
        func, arg = self.spec.func, self.spec.arg
        values = None if arg is None else as_list(arg.compiled()(whole))
        clean = values is None or None not in values
        folds = AggregateSpec(func, arg, self.spec.output_name) if func in _AGGREGATE else None
        out: list = []
        for start, stop in zip(peers, peers[1:]):
            if start in partitions:
                first, dense = start, 0
                if folds is not None:  # one group: the partition so far
                    state = aggregate_state(folds)
                    state.grow(1)
            dense += 1
            if func == "ROW_NUMBER":
                out.extend(range(start - first + 1, stop - first + 1))
                continue
            if func == "RANK":
                value = start - first + 1
            elif func == "DENSE_RANK":
                value = dense
            else:
                fold_runs(state, [0], [start], [stop], values, clean)
                value = state.results()[0]
            out.extend(repeat(value, stop - start))
        return out

    def label(self) -> str:
        return f"Analytic({self.spec.describe()})"
