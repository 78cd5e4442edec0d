"""GroupBy/aggregate kernels: a block folds into the group table by its
structure — runs where it has them, position buckets where it does not.

    Vertica's EE [...] operates directly on encoded data: a COUNT over
    an RLE run is the run length, a SUM is value x length.  (section 6.1)

:func:`absorb_block_kernel` folds one block into the group hash table
with one probe and one bulk fold per *run* or per *distinct key*, never
per row.  Which it is reads only the block, in this order:

* **no keys** — each accumulator folds its whole column at once (RLE via
  ``add_run``, dictionary via a code histogram, plain via ``add_bulk``);
* **one RLE key** — the vector's runs are the key runs;
* **keys known to sit in runs** (every key RLE, or the keys are the
  block's leading ``sorted_by`` columns) — key changes found at C speed;
* **one dictionary key** — positions bucketed by integer code;
* **one other key, COUNT only** — a ``Counter`` of its values;
* **any other keys** — key changes counted; positions bucketed by key
  when that is the cheaper fold (:func:`_by_key`), else runs.  One key
  column's own values label its rows; a key tuple is made once per
  distinct label, never per row.

Keys are whatever the key expressions evaluate to — columns, or the
lists an expression key computes — and any aggregate folds, DISTINCT
and user-defined ones included; correctness never depends on which
rung fires.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import compress
from operator import itemgetter, ne, or_

from ...types import any_nan
from ..expressions import ColumnRef
from .vectors import ColumnVector, DictVector, RleVector, as_list, null_count_of

#: The one object every NaN group key becomes: NaN keys are one group (as
#: NULL keys are), and a dict finds an equal-by-identity key.
NAN = float("nan")


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


def absorb_block_kernel(core, groups: dict, block) -> None:
    """Fold ``block`` into ``groups``, the group table of ``core``."""
    row_count = block.row_count
    if row_count == 0:
        return
    arg_columns = [
        run(block) if run is not None else None for run in core._arg_runs
    ]
    if not core.key_exprs:
        _fold_whole_columns(_group(core, groups, ()), arg_columns, row_count)
        return
    #: per aggregate (values, NULLs among them: 0 or None = unknown)
    args = [
        (None, None) if column is None
        else (as_list(column), 0 if null_count_of(column) == 0 else None)
        for column in arg_columns
    ]
    key_columns = [run(block) for run in core._key_runs]
    first = key_columns[0]
    if len(key_columns) == 1 and isinstance(first, RleVector):
        starts = first.starts()
        run_keys = zip(key_values(first, [value for value, _ in first.runs]))
    else:
        # an expression key (``meter % 3``) is in no sort order the block
        # knows, whatever columns it reads
        in_runs = all(isinstance(column, RleVector) for column in key_columns)
        if all(isinstance(expr, ColumnRef) for expr in core.key_exprs):
            names = {expr.name for expr in core.key_exprs}
            in_runs = in_runs or names == set((block.sorted_by or ())[: len(names)])
        if len(key_columns) == 1 and isinstance(first, DictVector) and not in_runs:
            keys = [(entry,) for entry in key_values(first, first.entries)]
            _fold_buckets(core, groups, first.codes, keys.__getitem__, args)
            return
        key_lists = [key_values(column) for column in key_columns]
        one = len(key_lists) == 1
        # a COUNT-only block over one key is a histogram of it: no runs
        histogram = one and not in_runs and all(values is None for values, _ in args)
        starts = None if histogram else run_starts(key_lists, row_count)
        if histogram or not in_runs and _by_key(key_lists, starts, row_count):
            if one:  # the column's own values label its rows
                _fold_buckets(core, groups, key_lists[0], lambda label: (label,), args)
            else:
                _fold_buckets(core, groups, zip(*key_lists), None, args)
            return
        run_keys = zip(*[map(keys.__getitem__, starts) for keys in key_lists])
    for key, start, stop in zip(run_keys, starts, [*starts[1:], row_count]):
        _fold(_group(core, groups, key), args, stop - start, start, None)


# -- internals -------------------------------------------------------------


def _group(core, groups: dict, key: tuple) -> list:
    """The accumulators of ``key``: one probe, made on first sight."""
    accumulators = groups.get(key)
    if accumulators is None:
        accumulators = groups[key] = core.new_accumulators()
    return accumulators


def _by_key(key_lists: list[list], starts: list[int], row_count: int) -> bool:
    """Whether bucketing the block's positions by key folds it cheaper
    than folding its runs.  Measured on 4096-row blocks (COUNT and SUM):
    a run costs about a probe and a fold (2-3 us), a distinct key two,
    and bucketing a row a sixteenth of one — so runs under two rows long
    always bucket, runs of sixteen or more never do, and in between the
    distinct keys decide."""
    runs = len(starts)
    if 2 * runs > row_count:
        return True
    if 16 * runs <= row_count:
        return False
    keys = set(zip(*[map(values.__getitem__, starts) for values in key_lists]))
    return 16 * (runs - 2 * len(keys)) > row_count


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


def _fold_buckets(core, groups: dict, labels, key_of, args) -> None:
    """Bucket the block's positions by ``labels`` once — dictionary
    codes or one key column's values, ``key_of(label)`` the group key, or
    (``key_of`` None) the key tuples themselves — then one probe and one
    bulk fold per distinct label."""
    counting = all(values is None for values, _ in args)
    if counting:  # nothing reads a column: a histogram is the answer
        buckets = Counter(labels)
    else:
        buckets = defaultdict(list)
        for position, label in enumerate(labels):
            buckets[label].append(position)
    for label, bucket in buckets.items():  # a count, or a position list
        if counting:
            count, first, take = bucket, None, None
        else:
            count, first, take = len(bucket), bucket[0], itemgetter(*bucket)
        key = label if key_of is None else key_of(label)
        _fold(_group(core, groups, key), args, count, first, take)


def _fold(accumulators, args, count: int, first, take) -> None:
    """One group's rows of this block into its accumulators: ``count``
    of them, the first at ``first``, their values ``take(column)`` — or,
    ``take`` being None, the ``count`` rows from ``first`` on.  A bulk
    fold of one value is an ``add``."""
    for accumulator, (values, nulls) in zip(accumulators, args):
        if values is None:
            accumulator.add_count_star(count)
        elif count == 1:
            accumulator.add(values[first])
        elif take is None:
            accumulator.add_bulk(values[first : first + count], nulls)
        else:
            accumulator.add_bulk(take(values), nulls)


def _fold_whole_columns(accumulators, arg_columns, row_count: int) -> None:
    """Global aggregate: fold each argument column in one shot."""
    for accumulator, column in zip(accumulators, arg_columns):
        if column is None:
            accumulator.add_count_star(row_count)
        elif isinstance(column, RleVector):
            for value, length in column.runs:
                accumulator.add_run(value, length)
        elif isinstance(column, DictVector):
            for code, count in Counter(column.codes).items():
                accumulator.add_run(column.entries[code], count)
        else:
            accumulator.add_bulk(as_list(column), null_count_of(column))
