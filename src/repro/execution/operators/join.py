"""Join operators: hash join and merge join, all SQL flavors.

    Join: Performs classic relational join.  Vertica supports both
    hash join and merge join algorithms which are capable of
    externalizing if necessary.  All flavors of INNER, LEFT OUTER,
    RIGHT OUTER, FULL OUTER, SEMI, and ANTI joins are supported.
    (section 6.1)

The hash join builds on its right (inner) child once per statement —
its columns concatenated, each key mapped to a build position — publishes
the table's key view to any registered SIP filters, then probes one key
column per left block and *gathers*: build columns by position, probe
columns through a selection (still encoded) or by position on a fan-out.
When the build side exceeds the memory budget, it *switches algorithms
at runtime*: both sides are externally sorted and the join completes
as a sort-merge join — exactly the adaptive behaviour the paper
describes ("if Vertica determines at runtime the hash table for a hash
join will not fit into memory, we will perform a sort-merge join
instead").
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from itertools import chain, compress, repeat

from ...errors import ExecutionError
from ...monitor import METRICS
from ...types import sort_key
from ..expressions import Expr
from ..kernels.selection import Selection
from ..kernels.vectors import as_list
from ..resource import ResourcePool
from ..row_block import VECTOR_SIZE, RowBlock
from ..sip import SipFilter
from .base import Operator, SourceBlocks
from .sort import SortKey, SortOperator


class JoinType(str, Enum):
    """SQL join flavors."""

    INNER = "INNER"
    LEFT = "LEFT"
    RIGHT = "RIGHT"
    FULL = "FULL"
    SEMI = "SEMI"
    ANTI = "ANTI"


class _JoinEmitter:
    """Buffers joined rows into vector-sized output blocks."""

    def __init__(self, column_names: list[str]):
        self.column_names = column_names
        self._pending: list[dict] = []

    def emit(self, row: dict):
        self._pending.append(row)
        if len(self._pending) >= VECTOR_SIZE:
            return self.flush()
        return None

    def flush(self):
        if not self._pending:
            return None
        block = RowBlock.from_rows(self._pending, self.column_names)
        self._pending = []
        return block


def _join_keys(block: RowBlock, key_runs) -> list:
    """Every row's join key: the value itself for one key column, a
    tuple for several (None when a part is NULL), ``()`` for none."""
    columns = [as_list(run(block)) for run in key_runs]
    if len(columns) == 1:
        return columns[0]
    if not columns:  # no equi-key: a cross product
        return [()] * block.row_count
    return [None if None in key else key for key in zip(*columns)]


class _HashBuild:
    """A hash join's build side: ``block``, its rows plus a trailing NULL
    row (what an unmatched probe row gathers), and ``table`` mapping each
    key to its position — its position list unless ``unique``.  NULL is
    never a key; ``1`` / ``1.0`` / ``True`` are one, NaN finds itself."""

    def __init__(self, blocks: list[RowBlock], names: list[str], key_exprs):
        runs = [key.compiled() for key in key_exprs]
        keys = list(chain.from_iterable(_join_keys(block, runs) for block in blocks))
        self.row_count = count = len(keys)
        nulls = RowBlock({name: [None] for name in names}, 1)
        self.block = RowBlock.concat([*(block.project(names) for block in blocks), nulls])
        table: dict = dict(zip(keys, range(count)))
        table.pop(None, None)
        self.unique = len(table) == count - keys.count(None)
        if not self.unique:
            table = defaultdict(list)  # read through get() and `in` only
            for position, key in enumerate(keys):
                table[key].append(position)
            table.pop(None, None)
        self.table = table


class HashJoinOperator(Operator):
    """Hash join; builds from the right child, probes with the left."""

    op_name = "HashJoin"

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: list[Expr],
        right_keys: list[Expr],
        join_type: JoinType = JoinType.INNER,
        left_columns: list[str] | None = None,
        right_columns: list[str] | None = None,
        pool: ResourcePool | None = None,
        max_build_rows: int | None = None,
        shared_build: dict | None = None,
    ):
        super().__init__([left, right])
        if len(left_keys) != len(right_keys):
            raise ExecutionError("join key lists must have equal length")
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.join_type = JoinType(join_type)
        self.left_columns = left_columns
        self.right_columns = right_columns
        self.pool = pool
        self.max_build_rows = max_build_rows
        #: Given by the executor to every fragment probing one inner: the
        #: first fragment to build stores its build here, the rest probe it.
        self.shared_build = {} if shared_build is None else shared_build
        self.sip_filters: list[SipFilter] = []
        self.switched_to_merge = False

    # -- SIP -----------------------------------------------------------

    def make_sip_filter(self, scan_key_exprs: list[Expr]) -> SipFilter:
        """Create a SIP filter to be placed in a probe-side scan; it is
        published when the build completes."""
        sip = SipFilter(key_exprs=scan_key_exprs, origin=self.op_name)
        self.sip_filters.append(sip)
        return sip

    # -- execution -------------------------------------------------------

    def _budget(self) -> int | None:
        if self.max_build_rows is not None:
            return self.max_build_rows
        if self.pool is not None:
            return self.pool.operator_budget()
        return None

    def _output_columns(self) -> list[str]:
        if self.join_type in (JoinType.SEMI, JoinType.ANTI):
            return list(self.left_columns)
        overlap = set(self.left_columns) & set(self.right_columns)
        if overlap:
            raise ExecutionError(f"join output column collision: {sorted(overlap)}")
        return list(self.left_columns) + list(self.right_columns)

    def _produce(self):
        self._output_columns()  # a name collision fails before any work
        build = self.shared_build.get("build")
        if build is None:
            budget = self._budget()
            drained: list[RowBlock] = []
            rows = 0
            right_blocks = self.children[1].blocks()
            for block in right_blocks:
                drained.append(block)
                rows += block.row_count
                if budget is not None and rows > budget:
                    # Runtime algorithm switch: finish draining the build
                    # side into the merge path and sort-merge join instead.
                    self.switched_to_merge = True
                    if self.pool is not None:
                        self.pool.note_spill()
                    yield from self._merge_fallback(chain(drained, right_blocks))
                    return
            build = self.shared_build["build"] = _HashBuild(
                drained, self.right_columns, self.right_keys
            )
        for sip in self.sip_filters:
            sip.publish(build.table.keys())
        yield from self._probe(build)

    def _probe(self, build: _HashBuild):
        join_type, table, null = self.join_type, build.table, build.row_count
        preserve_left = join_type in (JoinType.LEFT, JoinType.FULL)
        preserve_right = join_type in (JoinType.RIGHT, JoinType.FULL)
        matched = bytearray(null + 1) if preserve_right else None
        key_runs = [key.compiled() for key in self.left_keys]
        for block in self.children[0].blocks():
            self.kernel_blocks += 1
            METRICS.inc("executor.kernel_blocks")
            probe = block.project(self.left_columns)
            keys = _join_keys(block, key_runs)
            if join_type in (JoinType.SEMI, JoinType.ANTI):
                hits = list(map(table.__contains__, keys))
                if join_type is JoinType.ANTI:
                    hits = [not hit for hit in hits]
                yield from self._gather(probe, Selection.from_mask(hits), None, None)
                continue
            found = list(map(table.get, keys))
            if not build.unique:  # a probe row may match several build rows
                rows, at = [], []
                for index, positions in enumerate(found):
                    if positions is not None:
                        rows.extend(repeat(index, len(positions)))
                        at.extend(positions)
                    elif preserve_left:
                        rows.append(index)
                        at.append(null)
            elif preserve_left:
                rows = Selection.all_rows(block.row_count)
                at = [null if position is None else position for position in found]
            elif None in found:
                hits = [position is not None for position in found]
                rows, at = Selection.from_mask(hits), list(compress(found, hits))
            else:  # every probe row matched once: its columns pass through
                rows, at = Selection.all_rows(block.row_count), found
            if matched is not None:
                for position in at:
                    matched[position] = 1
            yield from self._gather(probe, rows, build, at)
        if matched is not None:
            unmatched = [position for position in range(null) if not matched[position]]
            nulls = RowBlock({name: [None] for name in self.left_columns}, 1)
            yield from self._gather(nulls, [0] * len(unmatched), build, unmatched)

    @staticmethod
    def _gather(probe: RowBlock, rows, build, at):
        """Output blocks: the probe rows at ``rows`` — a Selection, so
        their columns keep their encoding, or positions — beside the build
        rows at ``at`` (none for SEMI / ANTI).  Gathered blocks are cut at
        VECTOR_SIZE; a selected one has at most the probe block's rows."""
        if isinstance(rows, Selection):
            if rows.count:
                columns = {n: rows.apply(v) for n, v in probe.columns.items()}
                if build is not None:
                    columns.update(build.block.select_rows(at).columns)
                yield RowBlock(columns, rows.count)
            return
        for start in range(0, len(rows), VECTOR_SIZE):
            window = slice(start, start + VECTOR_SIZE)
            columns = probe.select_rows(rows[window]).columns
            columns.update(build.block.select_rows(at[window]).columns)
            yield RowBlock(columns, len(rows[window]))

    def _merge_fallback(self, right_blocks):
        """Complete the join as an external sort-merge join over the
        drained and the remaining build blocks.  SIP filters stay
        unpublished (the probe scan may already be running): no-ops."""

        def sort(child, keys):
            return SortOperator(
                child,
                [SortKey(expr) for expr in keys],
                pool=self.pool,
                max_buffered_rows=self.max_build_rows,
            )

        merge = MergeJoinOperator(
            sort(self.children[0], self.left_keys),
            sort(SourceBlocks(right_blocks), self.right_keys),
            self.left_keys,
            self.right_keys,
            self.join_type,
            self.left_columns,
            self.right_columns,
        )
        yield from merge.blocks()

    def label(self) -> str:
        keys = ", ".join(
            f"{l!r}={r!r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        algorithm = "MergeJoin(switched)" if self.switched_to_merge else "HashJoin"
        return f"{algorithm}[{self.join_type.value}]({keys})"


class MergeJoinOperator(Operator):
    """Merge join over inputs sorted ascending on the join keys."""

    op_name = "MergeJoin"

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: list[Expr],
        right_keys: list[Expr],
        join_type: JoinType = JoinType.INNER,
        left_columns: list[str] | None = None,
        right_columns: list[str] | None = None,
    ):
        super().__init__([left, right])
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.join_type = JoinType(join_type)
        self.left_columns = left_columns
        self.right_columns = right_columns

    def _output_columns(self) -> list[str]:
        if self.join_type in (JoinType.SEMI, JoinType.ANTI):
            return list(self.left_columns)
        return list(self.left_columns) + list(self.right_columns)

    @staticmethod
    def _row_stream(operator: Operator, keys: list[Expr]):
        runs = [key.compiled() for key in keys]
        for block in operator.blocks():
            key_columns = [as_list(run(block)) for run in runs]
            rows = block.to_rows()
            for index, row in enumerate(rows):
                raw = tuple(column[index] for column in key_columns)
                yield (tuple(sort_key(v) for v in raw), None in raw, row)

    @staticmethod
    def _next_group(stream, lookahead):
        """Pull the next run of equal-key rows; returns
        (key, has_null, rows, new_lookahead) or None at end."""
        if lookahead is None:
            try:
                lookahead = next(stream)
            except StopIteration:
                return None
        key, has_null, row = lookahead
        rows = [row]
        while True:
            try:
                lookahead = next(stream)
            except StopIteration:
                return key, has_null, rows, None
            if lookahead[0] != key:
                return key, has_null, rows, lookahead
            rows.append(lookahead[2])

    def _produce(self):
        emitter = _JoinEmitter(self._output_columns())
        left_stream = self._row_stream(self.children[0], self.left_keys)
        right_stream = self._row_stream(self.children[1], self.right_keys)
        left_group = self._next_group(left_stream, None)
        right_group = self._next_group(right_stream, None)
        preserve_left = self.join_type in (JoinType.LEFT, JoinType.FULL)
        preserve_right = self.join_type in (JoinType.RIGHT, JoinType.FULL)
        while left_group is not None and right_group is not None:
            left_key, left_null, left_rows, left_next = left_group
            right_key, right_null, right_rows, right_next = right_group
            if left_null or left_key < right_key:
                yield from self._left_unmatched(emitter, left_rows, preserve_left)
                left_group = self._next_group(left_stream, left_next)
            elif right_null or right_key < left_key:
                yield from self._right_unmatched(emitter, right_rows, preserve_right)
                right_group = self._next_group(right_stream, right_next)
            else:
                yield from self._matched(emitter, left_rows, right_rows)
                left_group = self._next_group(left_stream, left_next)
                right_group = self._next_group(right_stream, right_next)
        while left_group is not None:
            _, _, left_rows, left_next = left_group
            yield from self._left_unmatched(emitter, left_rows, preserve_left)
            left_group = self._next_group(left_stream, left_next)
        while right_group is not None:
            _, _, right_rows, right_next = right_group
            yield from self._right_unmatched(emitter, right_rows, preserve_right)
            right_group = self._next_group(right_stream, right_next)
        final = emitter.flush()
        if final is not None:
            yield final

    def _matched(self, emitter, left_rows, right_rows):
        if self.join_type is JoinType.SEMI:
            for left_row in left_rows:
                block = emitter.emit(left_row)
                if block is not None:
                    yield block
            return
        if self.join_type is JoinType.ANTI:
            return
        for left_row in left_rows:
            for right_row in right_rows:
                block = emitter.emit({**left_row, **right_row})
                if block is not None:
                    yield block

    def _left_unmatched(self, emitter, left_rows, preserve: bool):
        if self.join_type is JoinType.ANTI:
            for left_row in left_rows:
                block = emitter.emit(left_row)
                if block is not None:
                    yield block
            return
        if not preserve:
            return
        for left_row in left_rows:
            block = emitter.emit({**left_row, **dict.fromkeys(self.right_columns)})
            if block is not None:
                yield block

    def _right_unmatched(self, emitter, right_rows, preserve: bool):
        if not preserve:
            return
        for right_row in right_rows:
            block = emitter.emit({**dict.fromkeys(self.left_columns), **right_row})
            if block is not None:
                yield block

    def label(self) -> str:
        keys = ", ".join(
            f"{l!r}={r!r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"MergeJoin[{self.join_type.value}]({keys})"
