"""``python -m repro.console`` — the operator's text dashboard.

Modeled on vDBAHelper-style consoles over Vertica's Data Collector:
everything rendered here is read back through plain SQL against the
``v_monitor`` tables, so the console exercises exactly the surface an
operator (or any external tool) would use — it holds no private
handles into the engine.

Two modes:

* ``--snapshot`` renders the dashboard once to stdout and exits —
  scriptable, deterministic, used by CI smoke tests;
* live mode (the default) re-renders every ``--interval`` seconds
  until interrupted, re-opening the database for each frame so the
  dashboard tracks the on-disk state as it changes (a ``Database``
  instance holds in-memory rings; only a fresh ``Database.open`` picks
  up history flushed by the serving process since the last frame).

Sections, top to bottom: a header (path, tick, epoch, service mode),
NODES (``node_states``), POOLS (``resource_pools``), SESSIONS,
ALERTS (firing first), SLOW QUERIES, RECENT REQUESTS
(``dc_requests_completed`` tail) and NODE EVENTS
(``dc_node_events`` tail).
"""

from __future__ import annotations

import argparse
import sys
import time

#: (title, v_monitor table, columns, tail) per dashboard section.
#: ``tail`` keeps the newest rows of history tables; 0 keeps all.
SECTIONS = [
    (
        "NODES",
        "node_states",
        [
            "node_name", "is_up", "supervisor_state",
            "heartbeat_age", "missed_heartbeats", "recovery_attempts",
        ],
        0,
    ),
    (
        "POOLS",
        "resource_pools",
        [
            "pool_name", "memory_budget_rows", "memory_in_use_rows",
            "running", "queued", "admitted_total", "rejected_total",
            "timed_out_total",
        ],
        0,
    ),
    (
        "SESSIONS",
        "sessions",
        [
            "session_id", "state", "pool_name", "txn_id",
            "current_statement", "statements_run", "statements_failed",
        ],
        0,
    ),
    (
        "ALERTS",
        "alerts",
        ["alert", "severity", "state", "value", "times_raised", "detail"],
        0,
    ),
    (
        "SLOW QUERIES",
        "slow_queries",
        [
            "record_id", "tick", "statement", "pool_name",
            "duration_ms", "rows_returned", "sql",
        ],
        8,
    ),
    (
        "RECENT REQUESTS",
        "dc_requests_completed",
        [
            "record_id", "tick", "statement", "success",
            "duration_ms", "rows_returned", "sql",
        ],
        8,
    ),
    (
        "NODE EVENTS",
        "dc_node_events",
        ["record_id", "tick", "kind", "node_name", "attempt", "detail"],
        8,
    ),
]

#: Cells longer than this are truncated with an ellipsis so one wide
#: SQL text cannot wreck the layout.
MAX_CELL = 48


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        text = f"{value:.2f}"
    else:
        text = str(value)
    text = text.replace("\n", " ")
    if len(text) > MAX_CELL:
        text = text[: MAX_CELL - 1] + "…"
    return text


def _format_table(columns: list[str], rows: list[dict]) -> list[str]:
    """Render rows as an aligned text table (header + one line each)."""
    grid = [[_cell(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in grid)) if grid else len(col)
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines = [header, "  ".join("-" * w for w in widths)]
    for line in grid:
        lines.append(
            "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        )
    return lines


def _section(db, title: str, table: str, columns: list[str], tail: int) -> list[str]:
    rows = db.sql(f"SELECT * FROM v_monitor.{table}")
    if table == "alerts":
        # firing alerts first, then by name; an all-ok panel stays short.
        rows.sort(key=lambda r: (r.get("state") == "ok", r.get("alert")))
    if tail and len(rows) > tail:
        rows = rows[-tail:]
    lines = [f"── {title} " + "─" * max(0, 60 - len(title))]
    if rows:
        lines += _format_table(columns, rows)
    else:
        lines.append("(none)")
    lines.append("")
    return lines


def render(db, path: str) -> str:
    """Render the whole dashboard for one database as a string."""
    firing = [
        row["alert"]
        for row in db.sql("SELECT * FROM v_monitor.alerts")
        if row.get("state") == "firing"
    ]
    service = getattr(db, "service", None)
    mode = "no service"
    if service is not None:
        mode = "read-only" if service.read_only else "read-write"
    lines = [
        "repro console — Data Collector dashboard",
        f"db={path}  tick={db.cluster.clock.now}  "
        f"epoch={db.latest_epoch}  service={mode}  "
        f"alerts_firing={len(firing)}"
        + (f" ({', '.join(firing)})" if firing else ""),
        "",
    ]
    for title, table, columns, tail in SECTIONS:
        lines += _section(db, title, table, columns, tail)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Run the console; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.console",
        description="text dashboard over the v_monitor / Data "
        "Collector tables of an on-disk repro database",
    )
    parser.add_argument("--db", required=True, help="database directory")
    parser.add_argument(
        "--snapshot",
        action="store_true",
        help="render once and exit (default: refresh continuously)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes in live mode (default: 2)",
    )
    args = parser.parse_args(argv)

    from ..core.database import Database

    try:
        if args.snapshot:
            print(render(Database.open(args.db), args.db))
            return 0
        while True:
            # Re-open per frame: the dashboard must show whatever the
            # serving process has flushed to disk since the last frame,
            # which a single in-process instance would never see.
            db = Database.open(args.db)
            # ANSI clear + home, then the fresh frame.
            sys.stdout.write("\x1b[2J\x1b[H" + render(db, args.db) + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
