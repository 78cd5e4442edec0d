"""GroupBy operators: hash, pipelined (one-pass), and prepass.

    GroupBy: Groups and aggregates data.  We have several different
    hash based algorithms [...] Vertica also implements classic
    pipelined (one-pass) aggregates.  (section 6.1)

Three physical algorithms over one aggregation core:

* :class:`GroupByHashOperator` — general hash aggregation, externalizing
  when the group count exceeds the operator's memory budget;
* :class:`GroupByPipelinedOperator` — the same operator where the plan
  knows the keys are a sort prefix: every block folds in one pass over
  its runs (the payoff of sorted projections), and the runs of
  different containers meet in the hash table — nothing is sorted;
* :class:`PrepassGroupByOperator` — the paper's L1-cache-sized
  pre-aggregation: bounded hash table flushed when full, merged by a
  downstream GroupBy, with the runtime shutoff that stops prepassing
  when it is not actually reducing row counts.

Partials everywhere share one schema: the group key columns plus one
column per aggregate (COUNT partials are counts, merged downstream by
SUM).  That uniformity is what lets hash aggregation externalize and
prepass outputs flow into an ordinary merge-mode GroupBy.
"""

from __future__ import annotations

from ...columnar.row_block import RowBlock
from ...errors import ExecutionError
from ...lint import sanitizer
from ..aggregates import AggregateSpec
from ..expressions import ColumnRef, Expr
from ..kernels.aggregate import GroupTable, absorb_block_kernel, key_values
from ..resource import ResourcePool, SpillFile
from .base import Operator, SourceBlocks


def merge_specs(specs: list[AggregateSpec]) -> list[AggregateSpec]:
    """Specs for the merge stage: fold partials by their merge function,
    reading from the partial column of the same output name."""
    for spec in specs:
        if not spec.mergeable:
            raise ExecutionError(f"{spec.describe()} has no mergeable partial")
    return [AggregateSpec(s.merge_func, ColumnRef(s.output_name), s.output_name) for s in specs]


class _AggregationCore:
    """Shared accumulate-into-hash-table logic."""

    def __init__(self, key_exprs: list[Expr], key_names: list[str], specs: list[AggregateSpec]):
        if len(key_exprs) != len(key_names):
            raise ExecutionError("group key exprs and names must align")
        self.key_exprs = key_exprs
        self.key_names = key_names
        self.specs = specs
        self._key_runs = [expr.compiled() for expr in key_exprs]
        #: the keys' names, when all are columns: the ``sorted_by`` prefix that runs them
        refs = all(isinstance(expr, ColumnRef) for expr in key_exprs)
        self.sorting = {expr.name for expr in key_exprs} if refs else None
        self._arg_runs = [spec.arg and spec.arg.compiled() for spec in specs]

    def new_table(self) -> GroupTable:
        return GroupTable(self.specs, self.key_names)

    def key_columns(self, block: RowBlock) -> list[list]:
        return [key_values(run(block)) for run in self._key_runs]

    def to_partial_block(self, block: RowBlock) -> RowBlock:
        """Map raw rows 1:1 into the partial schema (no aggregation)."""
        columns = dict(zip(self.key_names, self.key_columns(block)))
        for spec, run in zip(self.specs, self._arg_runs):
            args = None if run is None else run(block)
            if spec.func != "COUNT":
                columns[spec.output_name] = list(args)
            elif args is None:
                columns[spec.output_name] = [1] * block.row_count
            else:
                columns[spec.output_name] = [0 if value is None else 1 for value in args]
        return RowBlock(columns=columns, row_count=block.row_count)


def _absorb(op: Operator, table: GroupTable, block: RowBlock) -> None:
    """Fold ``block`` into ``table`` (:func:`absorb_block_kernel`), counted."""
    absorb_block_kernel(op.core, table, block)
    op.kernel_blocks += 1


def _partial_stages(op: Operator):
    """The nearest group-by operators under ``op``: what feeds a merge."""
    for child in op.children:
        if isinstance(child, (GroupByHashOperator, PrepassGroupByOperator)):
            yield child
        else:
            yield from _partial_stages(child)


class GroupByHashOperator(Operator):
    """Hash aggregation, externalizing past its budget: mergeable
    aggregates spill partials partitioned by key; the others (AVG,
    DISTINCT) keep the groups they have and spill the rows of every
    other key for a pass of their own.

    ``merge_partials`` makes the operator consume partial rows (from a
    prepass or a Send/Recv of partials) instead of raw rows.
    """

    op_name = "GroupByHash"

    #: Number of spill partitions when externalizing.
    SPILL_PARTITIONS = 8

    def __init__(
        self,
        child: Operator,
        key_exprs: list[Expr],
        key_names: list[str],
        aggregates: list[AggregateSpec],
        pool: ResourcePool | None = None,
        max_groups: int | None = None,
        merge_partials: bool = False,
    ):
        super().__init__([child])
        self.merge_partials = merge_partials
        self.output_specs = aggregates
        if merge_partials:
            core_specs = merge_specs(aggregates)
            core_keys = [ColumnRef(name) for name in key_names]
        else:
            core_specs = aggregates
            core_keys = key_exprs
        self.core = _AggregationCore(core_keys, key_names, core_specs)
        self.pool = pool
        self.max_groups = max_groups
        self.spilled = False
        self.rows_in = 0

    def _budget(self) -> int | None:
        if self.max_groups is not None:
            return self.max_groups
        if self.pool is not None:
            return self.pool.operator_budget()
        return None

    def _produce(self):
        budget = self._budget()
        table = self.core.new_table()
        spill_files: list[SpillFile] | None = None
        overflow: SpillFile | None = None
        for block in self.children[0].blocks():
            self.rows_in += block.row_count
            if spill_files is not None:
                partial = (
                    block
                    if self.merge_partials
                    else self.core.to_partial_block(block)
                )
                self._spill_partials(partial, spill_files)
                continue
            if overflow is not None:
                block = self._keep_known(table, block, overflow)
            _absorb(self, table, block)
            if self.spilled or budget is None or len(table) <= budget:
                continue
            self.spilled = True
            if self.pool is not None:
                self.pool.note_spill()
            if not all(spec.mergeable for spec in self.core.specs):
                overflow = SpillFile()
                continue
            spill_files = [SpillFile() for _ in range(self.SPILL_PARTITIONS)]
            for flushed in table.blocks():
                self._spill_partials(flushed, spill_files)
            table = None
        if spill_files is not None:  # each partition's partials merged
            for spill in spill_files:
                merge = GroupByHashOperator(
                    SourceBlocks(spill.read_blocks()), [], self.core.key_names,
                    self.output_specs, merge_partials=True,
                )
                merge.cancel_token = self.cancel_token
                yield from merge.blocks()
                spill.close()
            return
        if sanitizer.enabled() and not self.spilled:
            self._check_conservation(table)
        if not table and not self.core.key_exprs and not self.spilled:
            table.ids([()])  # a global aggregate over empty input: one row
        yield from table.blocks()
        if overflow is not None:
            again = GroupByHashOperator(
                SourceBlocks(overflow.read_blocks()),
                self.core.key_exprs,
                self.core.key_names,
                self.output_specs,
                pool=self.pool,
                max_groups=self.max_groups,
            )
            again.cancel_token = self.cancel_token
            yield from again.blocks()
            overflow.close()

    def _keep_known(self, table: GroupTable, block: RowBlock, overflow) -> RowBlock:
        """Over budget with aggregates that have no partial: the rows of
        keys already in the table; the rest go to ``overflow``."""
        known = list(map(table.index.__contains__, zip(*self.core.key_columns(block))))
        rest = block.filter([not flag for flag in known])
        if rest.row_count:
            overflow.write_block(rest)
        return block.filter(known)

    def _check_conservation(self, table: GroupTable) -> None:
        """Sanitizer: the COUNT(*) total across groups must equal the
        rows in, whichever rung absorbed each block — this operator's
        rows, or, merging partials, the rows into every partial stage
        under it (prepass flushes and its passthrough included)."""
        stars = [state for spec, state in zip(self.output_specs, table.states)
                 if spec.func == "COUNT" and spec.arg is None and not spec.distinct]
        if not stars:
            return
        if not self.merge_partials:
            rows_in, total = self.rows_in, sum(stars[0].rows)
        elif stages := list(_partial_stages(self)):  # a SUM of the partial counts
            rows_in, total = sum(stage.rows_in for stage in stages), sum(stars[0].totals)
        else:
            return
        sanitizer.check_groupby_conservation(rows_in, total)

    def _spill_partials(self, block: RowBlock, spill_files) -> None:
        buckets: list[list[int]] = [[] for _ in spill_files]
        keys = zip(*[key_values(block.columns[name]) for name in self.core.key_names])
        for index, key in enumerate(keys):
            buckets[hash(key) % len(spill_files)].append(index)
        for spill, bucket in zip(spill_files, buckets):
            if bucket:
                spill.write_block(block.select_rows(bucket))

    def label(self) -> str:
        keys = ", ".join(self.core.key_names) or "<global>"
        aggs = ", ".join(spec.describe() for spec in self.output_specs)
        mode = " merge" if self.merge_partials else ""
        return f"{self.op_name}(keys=[{keys}] aggs=[{aggs}]{mode})"


class GroupByPipelinedOperator(GroupByHashOperator):
    """The hash operator under the name the plan gives it when the group
    keys are a sort prefix of its input: every block then folds in one
    pass over its key runs ("stream aggregation", section 6.2), and the
    runs of different containers meet in the hash table.  Nothing is
    sorted to find them, and nothing here differs: the kernel reads the
    runs off the block, not off this class."""

    op_name = "GroupByPipelined"


class PrepassGroupByOperator(Operator):
    """L1-sized partial aggregation with adaptive shutoff.

    Output rows are *partials*; a downstream GroupBy with
    ``merge_partials=True`` folds them together.  Only mergeable
    aggregates may be prepassed — the planner checks before placing one.
    """

    op_name = "PrepassGroupBy"

    #: Default bound on the in-flight table ("L1 cache sized").
    DEFAULT_TABLE_SIZE = 1024
    #: After this many input rows, evaluate whether to shut off.
    SHUTOFF_CHECK_ROWS = 8192
    #: Shut off when output/input exceeds this ratio.
    SHUTOFF_RATIO = 0.9

    def __init__(
        self,
        child: Operator,
        key_exprs: list[Expr],
        key_names: list[str],
        aggregates: list[AggregateSpec],
        table_size: int | None = None,
    ):
        super().__init__([child])
        for spec in aggregates:
            if not spec.mergeable:
                raise ExecutionError(f"aggregate {spec.describe()} cannot be prepassed")
        self.core = _AggregationCore(key_exprs, key_names, aggregates)
        self.table_size = table_size or self.DEFAULT_TABLE_SIZE
        self.shut_off = False
        self.rows_in = 0
        self.rows_out_partial = 0

    def _produce(self):
        table = self.core.new_table()
        for block in self.children[0].blocks():
            self.rows_in += block.row_count
            if self.shut_off:
                partial = self.core.to_partial_block(block)
                self.rows_out_partial += partial.row_count
                yield partial
                continue
            _absorb(self, table, block)
            if len(table) >= self.table_size:
                yield from self._flush(table)
                table = self.core.new_table()
            if (
                self.rows_in >= self.SHUTOFF_CHECK_ROWS
                and self.rows_out_partial > self.SHUTOFF_RATIO * self.rows_in
            ):
                # Not reducing: emit the current table and become a
                # passthrough (the paper's runtime decision to stop).
                if table:
                    yield from self._flush(table)
                    table = self.core.new_table()
                self.shut_off = True
        if table:
            yield from self._flush(table)

    def _flush(self, table: GroupTable):
        self.rows_out_partial += len(table)
        yield from table.blocks()

    def label(self) -> str:
        keys = ", ".join(self.core.key_names) or "<global>"
        state = " [shutoff]" if self.shut_off else ""
        return f"PrepassGroupBy(keys=[{keys}] table={self.table_size}{state})"
