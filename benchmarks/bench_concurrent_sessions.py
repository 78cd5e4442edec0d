"""Concurrent multi-session throughput and latency (section 7).

The workload-management claim is that a governed service stays
responsive as sessions multiply past the pool's concurrency: admitted
statements keep their latency, excess demand queues, and throughput
plateaus at the pool limit instead of collapsing.  This bench drives a
mixed read/write workload through the :class:`repro.service.SqlService`
at 8, 64 and 256 sessions over a fixed pool, recording per-statement
wall latency, and reports QPS plus p50/p99 per level into
``BENCH_REPORT.json``.

Sessions beyond the worker-thread count are *simulated*: statements of
all N sessions are interleaved round-robin over a bounded OS-thread
pool (each session still issues its own statements in order through
its own governed session object), which is exactly how a real server
multiplexes thousands of connections over a worker pool.
"""

from __future__ import annotations

import threading
import time

import pytest

from conftest import env_int, print_table

from repro import ColumnDef, Database, TableDefinition, types
from repro.service import PoolConfig, SqlService

SESSION_LEVELS = (8, 64, 256)
STATEMENTS_PER_SESSION = env_int("REPRO_SESSION_STATEMENTS", 4)
WORKER_THREADS = env_int("REPRO_SESSION_WORKERS", 8)
WRITE_EVERY = 4  # one INSERT per this many statements; the rest read

SQL_READ = "SELECT region, COUNT(*) AS n FROM events GROUP BY region"


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(
        str(tmp_path_factory.mktemp("sessions")), node_count=3, k_safety=1
    )
    db.create_table(
        TableDefinition(
            "events",
            [
                ColumnDef("event_id", types.INTEGER),
                ColumnDef("region", types.INTEGER),
            ],
            primary_key=("event_id",),
        ),
        sort_order=["event_id"],
    )
    db.load(
        "events",
        [{"event_id": i, "region": i % 16} for i in range(20000)],
        direct_to_ros=True,
    )
    db.analyze_statistics()
    return db


def percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(
        int(fraction * len(sorted_values)), len(sorted_values) - 1
    )
    return sorted_values[index]


def run_level(db, sessions):
    """Drive ``sessions`` governed sessions; returns (qps, p50, p99, shed)."""
    service = SqlService(
        db,
        pools=[
            PoolConfig(
                "general",
                max_concurrency=WORKER_THREADS,
                queue_depth=sessions,
                queue_timeout_ticks=1_000_000,
            )
        ],
        lock_timeout_seconds=60.0,
    )
    try:
        handles = [service.connect() for _ in range(sessions)]
        # each work item is (session_index, statement_index); a session's
        # items run in order because the queue is FIFO per session slice.
        work = [
            (s, i)
            for i in range(STATEMENTS_PER_SESSION)
            for s in range(sessions)
        ]
        work_iter = iter(work)
        work_lock = threading.Lock()
        latencies: list[float] = []
        shed = [0]
        errors: list[BaseException] = []
        next_key = [1_000_000]

        def worker():
            while True:
                with work_lock:
                    item = next(work_iter, None)
                if item is None:
                    return
                session_index, statement_index = item
                session = handles[session_index]
                writes = (
                    session_index * STATEMENTS_PER_SESSION + statement_index
                ) % WRITE_EVERY == 0
                if writes:
                    with work_lock:
                        key = next_key[0]
                        next_key[0] += 1
                    statement = (
                        f"INSERT INTO events VALUES ({key}, {key % 16})"
                    )
                else:
                    statement = SQL_READ
                started = time.perf_counter()
                try:
                    session.execute(statement)
                except Exception as exc:  # noqa: BLE001 - audited below
                    from repro.errors import AdmissionTimeoutError

                    if isinstance(exc, AdmissionTimeoutError):
                        with work_lock:
                            shed[0] += 1
                        return
                    errors.append(exc)
                    return
                with work_lock:
                    latencies.append(time.perf_counter() - started)

        threads = [
            threading.Thread(target=worker) for _ in range(WORKER_THREADS)
        ]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall_start
        assert not errors, errors
        for session in handles:
            session.close()
        service.governor.assert_idle()
        latencies.sort()
        qps = len(latencies) / wall if wall > 0 else 0.0
        return (
            qps,
            percentile(latencies, 0.50) * 1000.0,
            percentile(latencies, 0.99) * 1000.0,
            shed[0],
        )
    finally:
        service.shutdown()


def test_concurrent_session_levels(db):
    rows = []
    for sessions in SESSION_LEVELS:
        qps, p50_ms, p99_ms, shed = run_level(db, sessions)
        rows.append(
            [
                sessions,
                sessions * STATEMENTS_PER_SESSION,
                f"{qps:.0f}",
                f"{p50_ms:.2f}",
                f"{p99_ms:.2f}",
                shed,
            ]
        )
        # the governed service must complete the workload at every
        # level; shedding is for overload *storms*, not steady state
        # with an effectively unbounded queue deadline.
        assert shed == 0
    print_table(
        "Concurrent sessions: mixed read/write over one governed pool "
        f"({WORKER_THREADS} workers)",
        ["sessions", "statements", "qps", "p50 ms", "p99 ms", "shed"],
        rows,
    )
