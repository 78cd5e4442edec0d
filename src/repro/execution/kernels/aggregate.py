"""GroupBy/aggregate kernels: the group table is columns.

    Vertica's EE [...] operates directly on encoded data: a COUNT over
    an RLE run is the run length, a SUM is value x length.  (section 6.1)

A :class:`GroupTable` is one ``dict`` from key tuple to group id plus a
state column per aggregate: flat lists indexed by group id (a count, a
total, an extreme), or a set per group for DISTINCT and an accumulator
per group for a user aggregate.  Output is a slice of each list.

:func:`absorb_block_kernel` looks up a group id once per *run* or per
distinct *label* of a block (dictionary codes, one key column's values
or key tuples), at C speed, and folds each aggregate as a column: per
run where the block says its keys run (RLE keys, keys leading its
``sorted_by``, no key); otherwise, where a fold reads values, by how
the block's first rows look — a few or large groups each fold their
values gathered once, runs averaging :data:`RUN_ROWS` rows fold per run,
and many small groups in one ``zip(ids, values)`` pass; a COUNT is run
lengths, bucket sizes or a ``Counter``.  MIN and MAX order NaN after
every number, as every sort does (:data:`repro.types.NAN_LAST`): MIN
skips NaN unless every value is NaN, MAX is NaN if any value is.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import replace
from functools import partial
from itertools import compress, count, filterfalse, repeat
from operator import eq, gt, is_not, itemgetter, lt, mul, ne, not_, or_, sub

from ...columnar.row_block import VECTOR_SIZE, RowBlock
from ...columnar.vectors import ColumnVector, DictVector, PlainVector, RleVector, as_list, null_count_of
from ...types import any_nan

#: The one object every NaN group key becomes: NaN keys are one group (as
#: NULL keys are), and a dict finds an equal-by-identity key.
NAN = float("nan")

_not_null = partial(is_not, None)

#: A run's fold costs what RUN_ROWS rows of the ``zip`` pass do, gathering
#: a group's values what BUCKET_ROWS of its rows do, and up to FEW groups
#: always gather; a block's first SAMPLE rows say which (DESIGN §11 has
#: the measurements).
RUN_ROWS, BUCKET_ROWS, FEW, SAMPLE = 8, 16, 4, 256


def key_values(column, scalars: list | None = None) -> list:
    """``column`` as a list fit to be group keys — or ``scalars``, the
    run values or dictionary entries its keys are drawn from: every NaN
    replaced by :data:`NAN`.  Free for a vector that knows it holds none."""
    values = as_list(column) if scalars is None else scalars
    if isinstance(column, ColumnVector) and column.is_ordered():
        return values
    if any_nan(values):
        return [NAN if value != value else value for value in values]
    return values


def run_starts(key_lists: list[list], row_count: int) -> list[int]:
    """The positions whose key differs from the row before (and 0; only
    0 with no key)."""
    if not key_lists:
        return [0]
    changed = None
    for values in key_lists:
        flags = map(ne, values[1:], values)
        changed = flags if changed is None else map(or_, changed, flags)
    return [0, *compress(range(1, row_count), changed)]


class GroupTable:
    """The groups of one aggregation: ``index`` maps each key tuple to its
    group id (ids count up from 0 in first-seen order), ``states`` holds a
    state column per aggregate spec, ``names`` the output's columns."""

    def __init__(self, specs, key_names: list[str]):
        self.index: dict = {}
        self.states = [aggregate_state(spec) for spec in specs]
        self.names = [*key_names, *(spec.output_name for spec in specs)]
        self.reads = any(state.reads for state in self.states)

    def __len__(self) -> int:
        return len(self.index)

    def ids(self, keys) -> list[int]:
        """The group id of each of ``keys`` (key tuples), a group made for
        each key not seen before: one lookup per key, at C speed."""
        index = self.index
        keys = list(keys)
        ids = list(map(index.get, keys))
        if None in ids:
            size = len(index)
            index.update(zip(filterfalse(index.__contains__, keys), count(size)))
            for state in self.states:
                state.grow(len(index) - size)
            ids = list(map(index.__getitem__, keys))
        return ids

    def blocks(self):
        """The groups, in id order, as blocks of at most VECTOR_SIZE rows:
        slices of the key and result columns with exact NULL counts."""
        columns = [*map(list, zip(*self.index)), *(s.results() for s in self.states)]
        for start in range(0, len(self), VECTOR_SIZE):
            cut = [values[start : start + VECTOR_SIZE] for values in columns]
            yield RowBlock(
                {name: PlainVector(v, v.count(None)) for name, v in zip(self.names, cut)},
                min(VECTOR_SIZE, len(self) - start),
            )


def absorb_block_kernel(core, table: GroupTable, block) -> None:
    """Fold ``block`` into ``table``, the group table of ``core``."""
    row_count = block.row_count
    if row_count == 0:
        return
    arg_columns = [run(block) if run is not None else None for run in core._arg_runs]
    key_columns = [run(block) for run in core._key_runs]
    if not key_columns:  # a global aggregate: the block is one run
        starts, run_keys = [0], [()]
    elif len(key_columns) == 1 and isinstance(key_columns[0], RleVector):
        (rle,) = key_columns
        starts, run_keys = rle.starts(), zip(key_values(rle, [v for v, _ in rle.runs]))
    else:
        labels, key_of = _labels(key_columns)
        sorting, sorted_by = core.sorting, block.sorted_by or ()  # (None: an expression key)
        in_runs = sorting is not None and sorting == set(sorted_by[: len(sorting)]) or (
            len(key_columns) > 1 and all(isinstance(c, RleVector) for c in key_columns))
        # where values are folded the first rows decide: few groups, or few
        # and large, fold values gathered per group; many fold per run where
        # runs are long enough to beat the ``zip`` pass, else in the pass
        head, starts = labels[:SAMPLE], None
        seen = not in_runs and table.reads and len(set(head))
        if seen and (seen <= FEW or 2 * seen <= len(head) and BUCKET_ROWS * seen <= row_count):
            buckets = defaultdict(list)  # each label's positions, in one pass
            for position, label in enumerate(labels):
                buckets[label].append(position)
            _fold_gathered(table, buckets, table.ids(key_of(buckets)), arg_columns)
            return
        if in_runs or seen and RUN_ROWS * sum(map(ne, head[1:], head)) < len(head):
            starts = run_starts([labels], row_count)
            if not in_runs and (len(starts) - 1) * RUN_ROWS >= row_count:
                starts = None
        if starts is None:
            tally = Counter(labels)  # the labels this block uses, and their rows
            if len(tally) > 1:
                _fold_labelled(table, labels, tally, table.ids(key_of(tally)), arg_columns)
                return
            starts = [0]
        run_keys = key_of(map(labels.__getitem__, starts))
    gids = table.ids(run_keys)
    stops = [*starts[1:], row_count]
    for state, column in zip(table.states, arg_columns):
        if len(gids) == 1 and state.reads and type(state) is _Total and type(column) is RleVector:
            state.add_counts([(gids[0], row_count)])  # a SUM is value x length
            state.fold_weighted(gids[0], *map(list, zip(*column.runs)))
        else:
            fold_runs(state, gids, starts, stops, *_argument(column, state.reads))


def fold_runs(state, gids, starts, stops, values: list | None, clean=True) -> None:
    """Fold each run ``values[start:stop]`` into its group (``values``
    None: the runs are only counted), NULLs dropped unless ``clean``."""
    parts = None if values is None else map(values.__getitem__, map(slice, starts, stops))
    _fold_parts(state, gids, parts, map(sub, stops, starts), clean)


def _fold_parts(state, gids, parts, rows, clean: bool) -> None:
    """Fold each group's values ``parts`` (None: only counted), ``rows``
    of them, into the group of the same place in ``gids``."""
    if not clean:
        parts = [list(filter(_not_null, part)) for part in parts]
        rows = map(len, parts)
    if state.counts:
        state.add_counts(zip(gids, rows))
    if state.reads:
        for gid, part in zip(gids, parts):
            if part:
                state.fold(gid, part)


# -- internals -------------------------------------------------------------


def _argument(column, reads: bool) -> tuple[list | None, bool]:
    """An aggregate's argument column as (values, NULL-free): no values
    where none need be read (COUNT(*), a COUNT over a NULL-free column)."""
    nulls = None if column is None else null_count_of(column)
    if column is None or nulls == 0 and not reads:
        return None, True
    values = as_list(column)
    return values, nulls == 0 or nulls is None and None not in values


def _labels(key_columns) -> tuple[list, object]:
    """A block's row labels — one dictionary's codes, one key column's
    values or the key tuples — and what maps labels to key tuples."""
    first = key_columns[0]
    if len(key_columns) > 1:
        return list(zip(*map(key_values, key_columns))), iter
    if isinstance(first, DictVector):
        entries = key_values(first, first.entries)
        return first.codes, lambda codes: zip(map(entries.__getitem__, codes))
    return key_values(first), zip  # the column's own values label its rows


def _fold_labelled(table: GroupTable, labels, tally: Counter, gids, arg_columns) -> None:
    """A block of many small groups in no known order, ``gids`` those of
    the labels in ``tally``: every COUNT from the tally, every other fold
    one ``zip`` pass over the rows' group ids and values."""
    sizes, row_gids = list(tally.values()), None
    for state, column in zip(table.states, arg_columns):
        values, clean = _argument(column, state.reads)
        if clean and not state.reads:
            state.add_counts(zip(gids, sizes))
            continue
        ids = row_gids = row_gids or list(map(dict(zip(tally, gids)).__getitem__, labels))
        if not clean:
            keep = list(map(_not_null, values))
            ids, values = list(compress(ids, keep)), list(compress(values, keep))
        if state.counts:
            state.add_counts(zip(gids, sizes) if clean else Counter(ids).items())
        if state.reads:
            state.fold_rows(ids, values)


def _fold_gathered(table: GroupTable, buckets: dict, gids, arg_columns) -> None:
    """A block of few large groups in no known order, ``buckets`` each
    label's positions and ``gids`` their groups: each group folds the
    values gathered at its positions."""
    for state, column in zip(table.states, arg_columns):
        values, clean = _argument(column, state.reads)
        parts = None if values is None else [
            itemgetter(*bucket)(values) if len(bucket) > 1 else [values[bucket[0]]]
            for bucket in buckets.values()
        ]
        _fold_parts(state, gids, parts, map(len, buckets.values()), clean)


# -- state columns ---------------------------------------------------------
#
# An aggregate's state for every group, by group id.  ``counts``: adds
# (group id, non-NULL rows) pairs; ``reads``: folds one group's values or
# each value with its group's id (no NULL, never empty).  ``grow(n)`` adds
# n groups; ``results()`` is the aggregate of each.


class _State:
    counts, reads = False, True

    def fold_rows(self, gids: list, values: list) -> None:
        for gid, value in zip(gids, values):
            self.fold(gid, [value])


class _Total(_State):
    """COUNT, SUM and AVG: per group the rows counted and (but for COUNT)
    their total."""

    counts = True

    def __init__(self, spec):
        self.rows, self.totals, self.func = [], [], spec.func
        self.reads = spec.func != "COUNT"

    def grow(self, new: int) -> None:
        self.rows += repeat(0, new)
        self.totals += repeat(0, new)

    def add_counts(self, pairs) -> None:
        rows = self.rows
        for gid, n in pairs:
            rows[gid] += n

    def fold(self, gid: int, values: list) -> None:
        self.totals[gid] += sum(values)

    def fold_weighted(self, gid: int, values: list, weights: list) -> None:
        self.totals[gid] += sum(map(mul, values, weights))

    def fold_rows(self, gids: list, values: list) -> None:
        totals = self.totals
        for gid, value in zip(gids, values):
            totals[gid] += value

    def results(self) -> list:
        if self.func == "COUNT":
            return self.rows
        if self.func == "SUM" and all(self.rows):
            return self.totals
        average = self.func == "AVG"
        return [(t / n if average else t) if n else None for t, n in zip(self.totals, self.rows)]


class _Extreme(_State):
    """MIN or MAX: per group the least or greatest value under the sort
    order, NaN after every number.  A MAX that saw NaN holds it (no number
    compares above it); a MIN keeps its NaN groups apart, in ``nans``,
    where a later number still replaces it."""

    def __init__(self, spec):
        self.values, self.least, self.nans = [], spec.func == "MIN", set()
        self.better = lt if self.least else gt

    def grow(self, new: int) -> None:
        self.values += repeat(None, new)

    def fold(self, gid: int, values: list) -> None:
        best, current = _extreme(self.least, values), self.values[gid]
        if best != best:
            if self.least:
                self.nans.add(gid)
            else:
                self.values[gid] = NAN
        elif current is None or self.better(best, current):
            self.values[gid] = best

    def fold_rows(self, gids: list, values: list) -> None:
        if any_nan(values):  # NaN rows fold apart; the rest compare
            keep = list(map(eq, values, values))
            for gid in set(compress(gids, map(not_, keep))):
                self.fold(gid, [NAN])
            gids, values = compress(gids, keep), compress(values, keep)
        extremes, better = self.values, self.better
        for gid, value in zip(gids, values):
            current = extremes[gid]
            if current is None or better(value, current):
                extremes[gid] = value

    def results(self) -> list:
        if not self.nans:
            return self.values
        nans = self.nans
        return [NAN if v is None and g in nans else v for g, v in enumerate(self.values)]


class _Distinct(_State):
    """Any aggregate over DISTINCT values: a set per group (every NaN the
    one :data:`NAN`, as NaNs are one value), each folded at output into
    the aggregate without DISTINCT."""

    def __init__(self, spec):
        self.sets, self.spec = [], spec

    def grow(self, new: int) -> None:
        self.sets += [set() for _ in range(new)]

    def fold(self, gid: int, values: list) -> None:
        self.sets[gid].update(key_values(values))

    def fold_rows(self, gids: list, values: list) -> None:
        sets = self.sets
        for gid, value in set(zip(gids, key_values(values))):  # once per pair
            sets[gid].add(value)

    def results(self) -> list:
        folded = aggregate_state(replace(self.spec, distinct=False))
        folded.grow(len(self.sets))
        for gid, values in enumerate(self.sets):
            fold_runs(folded, [gid], [0], [len(values)], list(values))
        return folded.results()


class _User(_State):
    """An SDK aggregate: its accumulator per group, fed the non-NULL
    values in arrival order."""

    def __init__(self, spec):
        self.make, self.accumulators = spec._user_factory(), []

    def grow(self, new: int) -> None:
        self.accumulators += [self.make() for _ in range(new)]

    def fold(self, gid: int, values: list) -> None:
        add = self.accumulators[gid].add
        for value in values:
            add(value)

    def results(self) -> list:
        return [accumulator.final() for accumulator in self.accumulators]


def _extreme(least: bool, values: list):
    """The least or greatest of ``values`` (no NULL, not empty) under the
    sort order: NaN after every number."""
    if any_nan(values):
        numbers = [value for value in values if value == value]
        if not least or not numbers:
            return NAN
        values = numbers
    return min(values) if least else max(values)


def aggregate_state(spec) -> _State:
    """An empty state column for ``spec`` (an ``AggregateSpec``)."""
    if spec.distinct:
        return _Distinct(spec)
    if spec.is_user_defined:
        return _User(spec)
    return (_Extreme if spec.func in ("MIN", "MAX") else _Total)(spec)
