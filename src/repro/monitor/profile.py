"""Per-query operator profiles: the data behind ``EXPLAIN ANALYZE`` and
``v_monitor.query_profiles``.

After a query runs, :func:`profile_plan` walks the finished operator
tree and freezes each operator's accounting (rows, blocks, pulls, wall
time) into plain dataclasses.  The walk deduplicates by object
identity: distributed plans share operators across branches (one
``Send`` feeds every ``Recv`` endpoint), and counting a shared operator
once per parent would double its contribution — exactly the class of
bug this profiler exists to expose, so it must not commit it itself.

Completed profiles land in the database's Data Collector — the
memory-only ``profiles`` ring, whose record id is the query id — and
``v_monitor.query_profiles`` reads them back out through the SQL front
end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..execution.operators.base import Operator


@dataclass
class OperatorProfile:
    """Frozen accounting for one operator instance in one query."""

    operator_id: int
    parent_id: int | None
    depth: int
    op_name: str
    label: str
    rows_produced: int
    blocks_produced: int
    pulls: int
    wall_seconds: float
    #: Wall time minus children's wall time (clamped at zero): the
    #: operator's own work, not the subtree's.
    self_seconds: float = 0.0
    #: A Scan's blocks that its predicate narrowed to a sort-order
    #: window before testing anything, and the rows in those windows
    #: (0 / 0: every block it was handed was filtered row by row).
    seek_blocks: int = 0
    seek_window_rows: int = 0


@dataclass
class QueryProfile:
    """One executed query: its text, shape and per-operator costs."""

    query_id: int
    sql: str
    epoch: int
    rows_returned: int
    wall_seconds: float
    operators: list[OperatorProfile] = field(default_factory=list)

    def render(self) -> str:
        """The ``EXPLAIN ANALYZE`` text: plan tree annotated with
        per-operator rows, blocks, pulls and wall time."""
        header = (
            f"Query {self.query_id} ({self.rows_returned} rows, "
            f"{self.wall_seconds * 1000:.2f} ms)"
        )
        lines = [header]
        for op in self.operators:
            seek = (
                f" seek={op.seek_blocks}/{op.seek_window_rows}"
                if op.seek_blocks
                else ""
            )
            lines.append(
                "  " * op.depth
                + f"{op.label}  "
                + f"[rows={op.rows_produced} blocks={op.blocks_produced} "
                + f"pulls={op.pulls} time={op.wall_seconds * 1000:.2f}ms "
                + f"self={op.self_seconds * 1000:.2f}ms{seek}]"
            )
        return "\n".join(lines)


def profile_plan(root: "Operator") -> list[OperatorProfile]:
    """Freeze the operator tree under ``root`` into profiles, preorder.

    Shared operators (a ``Send`` appears in every ``Recv``'s child
    list) are visited once, under their first parent; revisits are
    skipped so totals are never double-counted.
    """
    profiles: list[OperatorProfile] = []
    seen: set[int] = set()
    pending = [(root, None, 0)]  # preorder: children pushed reversed
    while pending:
        op, parent_id, depth = pending.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        operator_id = len(profiles) + 1
        profiles.append(OperatorProfile(
            operator_id, parent_id, depth, op.op_name, op.label(),
            op.rows_produced, op.blocks_produced, op.pulls, op.wall_seconds,
            0.0, getattr(op, "seek_blocks", 0), getattr(op, "seek_window_rows", 0),
        ))
        pending.extend(
            [(child, operator_id, depth + 1) for child in reversed(op.children)]
        )
    child_time: dict[int, float] = {}
    for profile in profiles:
        if profile.parent_id is not None:
            child_time[profile.parent_id] = (
                child_time.get(profile.parent_id, 0.0) + profile.wall_seconds
            )
    for profile in profiles:
        profile.self_seconds = max(
            0.0, profile.wall_seconds - child_time.get(profile.operator_id, 0.0)
        )
    return profiles


def build_query_profile(
    collector,
    root: "Operator",
    sql: str,
    epoch: int,
    rows_returned: int,
    wall_seconds: float,
) -> QueryProfile:
    """Assemble a :class:`QueryProfile` for a finished query and record
    it in ``collector``'s ``profiles`` ring; the record id is the query
    id (0 when the collector is None or disabled and nothing was
    recorded)."""
    fields = {
        "sql": sql,
        "epoch": epoch,
        "rows_returned": rows_returned,
        "wall_seconds": wall_seconds,
        "operators": profile_plan(root),
    }
    record = (
        collector.record("profiles", "select", **fields)
        if collector is not None
        else None
    )
    return QueryProfile(
        query_id=record.record_id if record is not None else 0, **fields
    )
