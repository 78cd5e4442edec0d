"""Data Collector overhead bench: collector-on vs collector-off.

Vertica's justification for recording *everything* in DC tables is
that the collection path is cheap enough to leave on in production.
This bench makes the same claim for the reproduction: the same
statement mix runs with the collector enabled and disabled (the
``DataCollector.enabled`` kill switch, same as ``REPRO_DC_DISABLE``),
best-of-``REPRO_DC_REPEATS`` each, and the enabled run must cost at
most 10% throughput.  Each leg has a database of its own, built and
warmed alike, and the legs alternate repeat by repeat (off, on, off,
on ...): the mix inserts, so on one shared table the leg that ran
second would also pay for scanning what the first one left, and on
this machine speed drifts by a tenth within seconds.  At every repeat
both legs so see the same table and the same machine.

Scale is environment-tunable via ``REPRO_DC_STATEMENTS`` (statements
per measured run, default 300).
"""

from __future__ import annotations

import time

from repro import ColumnDef, Database, TableDefinition, types

from conftest import env_int, print_table

#: Acceptance ceiling: collector-on may cost at most this fraction.
MAX_OVERHEAD = 0.10


def build(root):
    db = Database(str(root), node_count=3, durable=False)
    db.create_table(
        TableDefinition(
            "metrics_t",
            [ColumnDef("k", types.INTEGER), ColumnDef("v", types.INTEGER)],
        ),
        sort_order=["k"],
    )
    db.load("metrics_t", [{"k": i, "v": i % 13} for i in range(2000)])
    return db


def run_statements(db, count):
    """The measured mix: point reads, scans and small inserts."""
    for i in range(count):
        which = i % 4
        if which == 0:
            db.sql(f"SELECT v FROM metrics_t WHERE k = {i % 2000}")
        elif which == 1:
            db.sql("SELECT count(*) AS n FROM metrics_t WHERE v = 3")
        elif which == 2:
            db.sql(f"SELECT k FROM metrics_t WHERE v = {i % 13}")
        else:
            db.sql(f"INSERT INTO metrics_t VALUES ({100_000 + i}, 1)")


def seconds_for(db, count):
    started = time.perf_counter()
    run_statements(db, count)
    return time.perf_counter() - started


def test_collector_overhead_within_budget(tmp_path):
    count = env_int("REPRO_DC_STATEMENTS", 300)
    repeats = env_int("REPRO_DC_REPEATS", 7)
    db_off, db = build(tmp_path / "off"), build(tmp_path / "on")
    for leg in (db_off, db):
        run_statements(leg, 50)  # warm caches on both paths
    db_off.cluster.dc.enabled = False

    off = on = float("inf")
    for _ in range(repeats):
        off = min(off, seconds_for(db_off, count))
        on = min(on, seconds_for(db, count))

    overhead = on / off - 1.0
    print_table(
        "Data Collector overhead (statement mix, best of "
        f"{repeats} x {count} statements)",
        ["collector", "seconds", "stmts/sec"],
        [
            ["off", f"{off:.4f}", f"{count / off:,.0f}"],
            ["on", f"{on:.4f}", f"{count / on:,.0f}"],
            ["overhead", f"{overhead * 100:+.1f}%", ""],
        ],
    )
    assert db.cluster.dc.counts()["requests"] > 0  # it really collected
    assert overhead <= MAX_OVERHEAD, (
        f"collector-on costs {overhead * 100:.1f}% "
        f"(> {MAX_OVERHEAD * 100:.0f}% budget)"
    )
