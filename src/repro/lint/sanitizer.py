"""Runtime invariant sanitizer (the dynamic half of replint).

Enabled with ``REPRO_SANITIZE=1`` (any value other than empty/``0``),
or programmatically via :func:`override` / :func:`set_enabled`.  When
disabled every check is a cheap no-op, so production paths can call
them unconditionally.

The checks assert the physical invariants the paper relies on:

* **ROS containers** (:func:`check_container`): the position index is
  monotonic and gap-free, per-block row counts sum to the container's
  row count, every column stores the same number of rows, and each
  block's recorded min/max matches the decoded values (section 3.7 —
  pruning correctness depends on this metadata being exact).
* **Moveout / mergeout** (:func:`check_moveout_conservation`,
  :func:`check_mergeout_conservation`): WOS→ROS moveout conserves row
  counts, and mergeout writes exactly what it read minus what it
  purged (section 4 — "read from disk once and written to disk once").
* **Delete vectors** (:func:`check_no_double_delete`): a position is
  never recorded deleted twice in one vector (section 3.7.1).
* **Epochs** (:func:`check_ahm_advance`, :func:`check_epoch_advance`):
  the AHM never regresses, never passes the cluster Last Good Epoch,
  and never passes the latest queryable epoch; the epoch clock is
  strictly monotonic (section 5).

Failures raise :class:`repro.errors.InvariantViolation` with a message
naming the violated invariant and the offending values.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from ..errors import InvariantViolation
from ..types import sort_permutation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..storage.ros import ROSContainer

#: Serializes writes to the override flag (a plain ``threading.Lock``,
#: not a TrackedLock: the race detector itself calls ``enabled()``).
_OVERRIDE_LOCK = threading.Lock()

#: Tri-state programmatic override; None defers to the environment.
_OVERRIDE: bool | None = None  # concurrency: guarded-by(_OVERRIDE_LOCK)


def enabled() -> bool:
    """Whether sanitizer checks are active."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


def set_enabled(value: bool | None) -> None:
    """Force the sanitizer on/off; ``None`` restores env control."""
    global _OVERRIDE
    with _OVERRIDE_LOCK:
        _OVERRIDE = value


@contextmanager
def override(value: bool) -> Iterator[None]:
    """Temporarily force the sanitizer on/off (tests, fixtures)."""
    previous = _OVERRIDE
    set_enabled(value)
    try:
        yield
    finally:
        set_enabled(previous)


def invariant(condition: bool, message: str) -> None:
    """Raise :class:`InvariantViolation` unless ``condition`` holds."""
    if not condition:
        raise InvariantViolation(f"sanitizer: {message}")


# -- ROS containers ----------------------------------------------------


def check_container(container: "ROSContainer") -> None:
    """Validate a container's position indexes, counts and block min/max.

    Called after :meth:`ROSContainer.write` and :meth:`ROSContainer.load`
    when the sanitizer is enabled.  Decodes every block once — bounded
    by container size, which is what makes this affordable at test
    scale while still catching byte-level corruption.
    """
    if not enabled():
        return
    from ..storage.block import value_bounds
    from ..storage.ros import EPOCH_COLUMN

    meta = container.meta
    grouped = {name for group in meta.column_groups for name in group}
    names = [n for n in meta.columns if n not in grouped] + [EPOCH_COLUMN]
    for name in names:
        reader = container.column_reader(name)
        invariant(
            reader.row_count == meta.row_count,
            f"container {meta.container_id}: column {name!r} has "
            f"{reader.row_count} rows, meta.row_count is {meta.row_count}",
        )
        expected_start = 0
        for index, info in enumerate(reader.blocks):
            invariant(
                info.start_position == expected_start,
                f"container {meta.container_id}: column {name!r} block "
                f"{index} starts at {info.start_position}, expected "
                f"{expected_start} (position index must be monotonic and "
                "gap-free)",
            )
            invariant(
                info.row_count > 0,
                f"container {meta.container_id}: column {name!r} block "
                f"{index} is empty",
            )
            expected_start = info.end_position
            values = reader.block_values(index)
            invariant(
                len(values) == info.row_count,
                f"container {meta.container_id}: column {name!r} block "
                f"{index} decoded {len(values)} values, index says "
                f"{info.row_count}",
            )
            non_nulls = [value for value in values if value is not None]
            invariant(
                len(values) - len(non_nulls) == info.null_count,
                f"container {meta.container_id}: column {name!r} block "
                f"{index} has {len(values) - len(non_nulls)} NULLs, index "
                f"says {info.null_count}",
            )
            actual = value_bounds(non_nulls)
            invariant(
                (info.min_value, info.max_value) == actual,
                f"container {meta.container_id}: column {name!r} block "
                f"{index} min/max metadata ({info.min_value!r}, "
                f"{info.max_value!r}) does not match decoded values "
                f"{actual!r} — pruning would be wrong",
            )


# -- tuple mover -------------------------------------------------------


def check_moveout_conservation(
    projection: str, drained_rows: int, written_rows: int
) -> None:
    """WOS→ROS moveout must conserve the row count exactly."""
    if not enabled():
        return
    invariant(
        drained_rows == written_rows,
        f"moveout of {projection!r} drained {drained_rows} WOS rows but "
        f"wrote {written_rows} ROS rows — rows were lost or duplicated",
    )


def check_mergeout_conservation(
    projection: str, rows_read: int, rows_written: int, rows_purged: int
) -> None:
    """Mergeout output must equal input minus purged rows."""
    if not enabled():
        return
    invariant(
        rows_read == rows_written + rows_purged,
        f"mergeout of {projection!r} read {rows_read} rows but wrote "
        f"{rows_written} and purged {rows_purged} "
        f"({rows_written + rows_purged} accounted)",
    )


def check_wos_truncate(
    epoch: int,
    rows_past_epoch: int,
    rows_dropped: int,
    surviving_epochs: list[int],
) -> None:
    """WOS truncation must drop exactly the rows past ``epoch``.

    Row conservation for recovery's first step: the number of rows
    dropped equals the number stamped after the truncation epoch, and
    no surviving row is stamped after it.
    """
    if not enabled():
        return
    invariant(
        rows_dropped == rows_past_epoch,
        f"WOS truncate to epoch {epoch} dropped {rows_dropped} rows but "
        f"{rows_past_epoch} rows were stamped past the epoch — rows were "
        "lost or wrongly kept",
    )
    invariant(
        all(e <= epoch for e in surviving_epochs),
        f"WOS truncate to epoch {epoch} left a row stamped after it",
    )


# -- delete vectors ----------------------------------------------------


def check_no_double_delete(
    target_container: int | None, positions: list[int], position: int
) -> None:
    """A delete vector must not record the same position twice."""
    if not enabled():
        return
    if position in positions:
        target = "WOS" if target_container is None else f"container {target_container}"
        raise InvariantViolation(
            f"sanitizer: double delete of position {position} in the "
            f"delete vector for {target} — a row was deleted twice in one "
            "operation"
        )


# -- epochs ------------------------------------------------------------


def check_ahm_advance(
    old_ahm: int, new_ahm: int, cluster_lge: int | None, latest_queryable: int
) -> None:
    """The Ancient History Mark advances monotonically and never passes
    the latest queryable epoch; fresh advancement (not a held value)
    additionally never passes the cluster LGE when one is tracked —
    the AHM may legitimately *hold* above an LGE that appears late, it
    just must not advance further."""
    if not enabled():
        return
    invariant(
        new_ahm >= old_ahm,
        f"AHM regressed from {old_ahm} to {new_ahm}",
    )
    invariant(
        new_ahm <= latest_queryable,
        f"AHM {new_ahm} passed the latest queryable epoch "
        f"{latest_queryable} — committed history would be purged",
    )
    if cluster_lge is not None and new_ahm > old_ahm:
        invariant(
            new_ahm <= cluster_lge,
            f"AHM advanced to {new_ahm}, past the cluster Last Good Epoch "
            f"{cluster_lge} — purge would outrun durability",
        )


def check_epoch_advance(previous_epoch: int, new_epoch: int) -> None:
    """The epoch clock is strictly monotonic."""
    if not enabled():
        return
    invariant(
        new_epoch > previous_epoch,
        f"epoch clock moved from {previous_epoch} to {new_epoch}; commits "
        "must strictly advance the epoch",
    )


# -- traces ------------------------------------------------------------

#: Wall-clock slack for the nesting check: synthesized operator spans
#: are clipped to their parent exactly, so only float rounding needs
#: absorbing.
_NEST_EPS = 1e-9


def check_trace_spans_closed(trace) -> None:
    """Every span opened during a trace must be closed by its end.

    Called by ``Tracer.end_trace`` after ``TraceContext.finish``; a
    still-open span at this point means a code path closed the trace
    while bypassing the span's context manager."""
    if not enabled():
        return
    for span in trace.spans:
        invariant(
            span.closed,
            f"trace {trace.trace_id}: span {span.span_id} "
            f"({span.name!r}) was opened but never closed",
        )


def check_trace_nesting(trace) -> None:
    """Every span's interval must nest inside its parent's.

    Checks both clocks: wall offsets (within ``_NEST_EPS``) and the
    simulated ticks.  A child outside its parent means the span tree's
    causality story is a lie — the Perfetto rendering would show work
    attributed to a request that had already finished."""
    if not enabled():
        return
    for span in trace.spans:
        if span.parent_id is None:
            continue
        parent = trace.span_by_id(span.parent_id)
        invariant(
            parent is not None,
            f"trace {trace.trace_id}: span {span.span_id} "
            f"({span.name!r}) has unknown parent {span.parent_id}",
        )
        if not (span.closed and parent.closed):
            continue
        invariant(
            span.start_offset >= parent.start_offset - _NEST_EPS
            and span.end_offset <= parent.end_offset + _NEST_EPS,
            f"trace {trace.trace_id}: span {span.span_id} "
            f"({span.name!r}) interval [{span.start_offset:.9f}, "
            f"{span.end_offset:.9f}] escapes parent {parent.span_id} "
            f"({parent.name!r}) [{parent.start_offset:.9f}, "
            f"{parent.end_offset:.9f}]",
        )
        invariant(
            span.start_tick >= parent.start_tick
            and (
                span.end_tick is None
                or parent.end_tick is None
                or span.end_tick <= parent.end_tick
            ),
            f"trace {trace.trace_id}: span {span.span_id} "
            f"({span.name!r}) ticks [{span.start_tick}, {span.end_tick}] "
            f"escape parent {parent.span_id} ({parent.name!r}) ticks "
            f"[{parent.start_tick}, {parent.end_tick}]",
        )


# -- execution kernels -------------------------------------------------


def check_filter_conservation(rows_in: int, rows_out: int) -> None:
    """A filter may only ever drop rows, never invent them."""
    if not enabled():
        return
    invariant(
        0 <= rows_out <= rows_in,
        f"filter emitted {rows_out} rows from a {rows_in}-row block — "
        "a predicate kernel fabricated or lost track of rows",
    )


def check_sort_output(
    key_columns: list[list],
    descending: list[bool],
    rows_in: int,
    rows_out: int,
    limit: int | None,
) -> None:
    """A Sort emits every row it took (its first ``limit`` under a limit
    hint), keys non-decreasing under the one ordering rule: sorted again,
    stably, the emitted ``key_columns`` stay where they are."""
    if not enabled():
        return
    expected = rows_in if limit is None else min(rows_in, limit)
    invariant(
        rows_out == expected,
        f"sort took {rows_in} rows and emitted {rows_out} (limit {limit}) — "
        "rows were dropped or invented",
    )
    if not key_columns or not rows_out:
        return
    order = sort_permutation(key_columns, descending)
    moved = next((i for i, position in enumerate(order) if i != position), None)
    invariant(
        moved is None,
        f"sort emitted row {moved} out of key order — the output is not "
        "what the ordering rule sorts it to",
    )


def check_groupby_conservation(rows_in: int, count_star_total: int) -> None:
    """GROUP BY COUNT(*) outputs must sum to the input rows — a
    single-stage group-by's own, or, for a merge stage, the rows into
    every partial stage under it (prepass flushes and passthrough
    included).

    Row conservation across the fold rungs: however a block was
    absorbed (run folds, position buckets, whole-column folds), every
    input row lands in exactly one group.
    """
    if not enabled():
        return
    invariant(
        rows_in == count_star_total,
        f"group-by absorbed {rows_in} rows but its COUNT(*) totals sum "
        f"to {count_star_total} — rows were dropped or double-counted",
    )
