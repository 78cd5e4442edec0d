"""Simple streaming operators: Filter, ExprEval, Limit, Distinct, UnionAll."""

from __future__ import annotations

from ...columnar.row_block import RowBlock
from ...errors import ExecutionError
from ...lint import sanitizer
from ..expressions import Expr
from ..kernels.aggregate import GroupTable, key_values
from ..kernels.predicates import compile_kernel_predicate
from .base import Operator


class FilterOperator(Operator):
    """Keeps rows whose predicate evaluates to TRUE (not NULL)."""

    op_name = "Filter"

    def __init__(self, child: Operator, predicate: Expr):
        super().__init__([child])
        self.predicate = predicate

    def _produce(self):
        kernel = compile_kernel_predicate(self.predicate)
        for block in self.children[0].blocks():
            self.kernel_blocks += 1
            selection = kernel(block.columns, block.row_count, block.sorted_by or ())
            if selection.is_empty:
                continue
            if selection.is_all:
                filtered = block
            else:
                filtered = RowBlock(
                    columns={
                        name: selection.apply(values)
                        for name, values in block.columns.items()
                    },
                    row_count=selection.count,
                    sorted_by=block.sorted_by,
                )
            if sanitizer.enabled():
                sanitizer.check_filter_conservation(
                    block.row_count, filtered.row_count
                )
            if filtered.row_count:
                yield filtered

    def label(self) -> str:
        return f"Filter({self.predicate!r})"


class ExprEvalOperator(Operator):
    """Computes output columns from expressions over the input.

    ``outputs`` is an ordered mapping of output name -> expression;
    this is both the projection and computed-column operator (the
    paper's ExprEval).
    """

    op_name = "ExprEval"

    def __init__(self, child: Operator, outputs: dict[str, Expr]):
        super().__init__([child])
        if not outputs:
            raise ExecutionError("ExprEval needs at least one output")
        self.outputs = dict(outputs)

    def _produce(self):
        from ..expressions import ColumnRef

        compiled = {name: expr.compiled() for name, expr in self.outputs.items()}
        # sort metadata survives pure column passthrough/rename outputs
        passthrough = {}
        for name, expr in self.outputs.items():
            if isinstance(expr, ColumnRef) and expr.name not in passthrough:
                passthrough[expr.name] = name
        for block in self.children[0].blocks():
            sorted_by = None
            if block.sorted_by:
                prefix = []
                for source in block.sorted_by:
                    if source not in passthrough:
                        break
                    prefix.append(passthrough[source])
                sorted_by = tuple(prefix) or None
            yield RowBlock(
                columns={name: run(block) for name, run in compiled.items()},
                row_count=block.row_count,
                sorted_by=sorted_by,
            )

    def label(self) -> str:
        body = ", ".join(f"{name}={expr!r}" for name, expr in self.outputs.items())
        return f"ExprEval({body})"


class LimitOperator(Operator):
    """LIMIT/OFFSET over the child's stream; stops pulling early."""

    op_name = "Limit"

    def __init__(self, child: Operator, limit: int, offset: int = 0):
        super().__init__([child])
        self.limit = limit
        self.offset = offset

    def _produce(self):
        to_skip = self.offset
        remaining = self.limit
        for block in self.children[0].blocks():
            if to_skip >= block.row_count:
                to_skip -= block.row_count
                continue
            if to_skip:
                block = block.select_rows(list(range(to_skip, block.row_count)))
                to_skip = 0
            if block.row_count >= remaining:
                yield block.select_rows(list(range(remaining)))
                return
            remaining -= block.row_count
            yield block

    def label(self) -> str:
        suffix = f" OFFSET {self.offset}" if self.offset else ""
        return f"Limit({self.limit}{suffix})"


class DistinctOperator(Operator):
    """Removes duplicate rows: a group table with no aggregate over every
    column, so NaNs are one value as they are one group
    (``kernels.aggregate.key_values``) and rows come out in first-seen
    order."""

    op_name = "Distinct"

    def __init__(self, child: Operator):
        super().__init__([child])

    def _produce(self):
        table = None
        for block in self.children[0].blocks():
            table = table or GroupTable([], block.column_names)
            table.ids(zip(*[key_values(block.columns[name]) for name in table.names]))
        yield from table.blocks() if table else ()

    def label(self) -> str:
        return "Distinct"


class UnionAllOperator(Operator):
    """Concatenates children's streams (bag union)."""

    op_name = "UnionAll"

    def __init__(self, children: list[Operator]):
        super().__init__(children)

    def _produce(self):
        for child in self.children:
            yield from child.blocks()

    def label(self) -> str:
        return f"UnionAll({len(self.children)} inputs)"
