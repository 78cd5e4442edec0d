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
* **any other column keys** — key changes counted; runs when the run
  bounds describe the block in fewer integers than its positions would
  (two a run against one a row), else positions bucketed by key.

:func:`groupby_fallback_reason` names the shapes that stay on the row
path; correctness never depends on which rung fires.
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


def groupby_fallback_reason(key_exprs, specs) -> str | None:
    """Why this aggregation shape is outside the kernel dialect (None
    when it is inside): keys must be plain column references and every
    aggregate a built-in without DISTINCT."""
    if not all(isinstance(expr, ColumnRef) for expr in key_exprs):
        return "expression key"
    if any(spec.distinct for spec in specs):
        return "distinct"
    if any(spec.is_user_defined for spec in specs):
        return "user aggregate"
    return None


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
    """Fold ``block`` into ``groups``; ``core``'s shape must have no
    :func:`groupby_fallback_reason`."""
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
        names = {expr.name for expr in core.key_exprs}
        in_runs = names == set((block.sorted_by or ())[: len(names)]) or all(
            isinstance(column, RleVector) for column in key_columns
        )
        if len(key_columns) == 1 and isinstance(first, DictVector) and not in_runs:
            keys = [(entry,) for entry in key_values(first, first.entries)]
            _fold_buckets(core, groups, first.codes, keys, args)
            return
        key_lists = [key_values(column) for column in key_columns]
        starts = run_starts(key_lists, row_count)
        if not in_runs and 2 * len(starts) > row_count:
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


def _fold_buckets(core, groups: dict, labels, keys, args) -> None:
    """Bucket the block's positions by ``labels`` once — dictionary
    codes with ``keys[code]`` the group key, or the key tuples
    themselves — then one probe and one bulk fold per distinct label."""
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
        key = label if keys is None else keys[label]
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
