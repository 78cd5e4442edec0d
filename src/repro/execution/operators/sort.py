"""Sort operator with disk externalization.

    Sort: Sorts incoming data, externalizing if needed.  (section 6.1)

A sort is a permutation followed by a gather.  The key expressions are
evaluated once per block, their columns concatenated, and
:func:`repro.types.sort_permutation` — the ordering rule the write path
sorts with too: NULL first, NaN last, a DESC term a reversed stable pass
— orders the buffered positions; the buffered columns are gathered
through it.  Past the memory budget each buffer becomes a sorted run of
blocks in a :class:`SpillFile`, and the runs meet in a k-way heap merge,
the one place a DESC term needs a key wrapper.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter

from ...columnar.row_block import VECTOR_SIZE, RowBlock
from ...columnar.vectors import as_list
from ...lint import sanitizer
from ...types import ordering_keys, sort_permutation
from ..expressions import Expr
from ..resource import ResourcePool, SpillFile
from .base import Operator


@dataclass(frozen=True)
class SortKey:
    """One ORDER BY term."""

    expr: Expr
    ascending: bool = True

    def describe(self) -> str:
        return f"{self.expr!r} {'ASC' if self.ascending else 'DESC'}"


class _Descending:
    """A DESC term's key in the k-way merge: ``<`` inverted."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return self.key == other.key


class SortOperator(Operator):
    """Full sort (optionally top-K when a limit hint is supplied)."""

    op_name = "Sort"

    def __init__(
        self,
        child: Operator,
        keys: list[SortKey],
        pool: ResourcePool | None = None,
        max_buffered_rows: int | None = None,
        limit_hint: int | None = None,
    ):
        super().__init__([child])
        self.keys = keys
        self.descending = [not key.ascending for key in keys]
        self.pool = pool
        self.max_buffered_rows = max_buffered_rows
        self.limit_hint = limit_hint
        self.spilled_runs = 0
        self.rows_in = 0

    def _budget(self) -> int | None:
        if self.max_buffered_rows is not None:
            return self.max_buffered_rows
        if self.pool is not None:
            return self.pool.operator_budget()
        return None

    def _key_columns(self, block: RowBlock) -> list[list]:
        return [as_list(key.expr.compiled()(block)) for key in self.keys]

    def _produce(self):
        if not sanitizer.enabled():
            yield from self._sorted()
            return
        emitted: list[list] = [[] for _ in self.keys]
        rows_out = 0
        for block in self._sorted():
            for values, more in zip(emitted, self._key_columns(block)):
                values.extend(more)
            rows_out += block.row_count
            yield block
        sanitizer.check_sort_output(
            emitted, self.descending, self.rows_in, rows_out, self.limit_hint
        )

    def _sorted(self):
        budget = self._budget()
        buffered: list[RowBlock] = []
        keys: list[list] = [[] for _ in self.keys]
        count = 0
        runs: list[SpillFile] = []
        for block in self.children[0].blocks():
            if not block.row_count:
                continue
            self.rows_in += block.row_count
            names = block.column_names
            buffered.append(block)
            count += block.row_count
            for values, more in zip(keys, self._key_columns(block)):
                values.extend(more)
            if budget is not None and count > budget:
                runs.append(self._spill(self._gather(buffered, keys)))
                buffered, keys, count = [], [[] for _ in self.keys], 0
        if not runs:
            if buffered:
                yield from self._gather(buffered, keys)
            return
        if buffered:
            runs.append(self._spill(self._gather(buffered, keys)))
        yield from self._merge(runs, names)
        for run in runs:
            run.close()

    def _gather(self, blocks: list[RowBlock], keys: list[list]):
        """The buffered rows in key order, as vector-sized blocks — only
        the first ``limit_hint`` of them: no later row can make the cut,
        in memory or in a spilled run."""
        whole = RowBlock.concat(blocks)
        limit = self.limit_hint
        if keys:
            order = sort_permutation(keys, self.descending)[:limit]
        else:  # no key: input order
            order = list(range(whole.row_count))[:limit]
        for start in range(0, len(order), VECTOR_SIZE):
            yield whole.select_rows(order[start : start + VECTOR_SIZE])

    def _spill(self, sorted_blocks) -> SpillFile:
        spill = SpillFile()
        for block in sorted_blocks:
            spill.write_block(block)
        self.spilled_runs += 1
        if self.pool is not None:
            self.pool.note_spill()
        return spill

    def _merge_keys(self, block: RowBlock):
        """One heap-merge key per row: a tuple of ordering keys, DESC
        terms wrapped."""
        terms = []
        for values, descending in zip(self._key_columns(block), self.descending):
            keyed = ordering_keys([values])
            terms.append(list(map(_Descending, keyed)) if descending else keyed)
        return zip(*terms) if terms else repeat(())

    def _merge(self, runs: list[SpillFile], names: list[str]):
        """The sorted runs merged (ties from the earlier run first), cut
        at the limit hint, as vector-sized blocks."""

        def stream(spill: SpillFile):
            for block in spill.read_blocks():
                rows = zip(*map(block.columns.__getitem__, names))
                yield from zip(self._merge_keys(block), rows)

        merged = heapq.merge(*map(stream, runs), key=itemgetter(0))
        rows = map(itemgetter(1), islice(merged, self.limit_hint))
        while pending := list(islice(rows, VECTOR_SIZE)):
            yield RowBlock(dict(zip(names, map(list, zip(*pending)))), len(pending))

    def label(self) -> str:
        keys = ", ".join(key.describe() for key in self.keys)
        spill = f" runs={self.spilled_runs}" if self.spilled_runs else ""
        return f"Sort({keys}{spill})"
