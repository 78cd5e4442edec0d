"""Shared fixtures and reporting helpers for the benchmark suite.

Every bench prints the paper artifact it regenerates (table rows or
figure description) so that ``pytest benchmarks/ --benchmark-only -s``
reproduces the evaluation section end to end.  Scale factors are
environment-tunable:

* ``REPRO_T3_SCALE``  — C-Store benchmark scale (default 0.25)
* ``REPRO_T4A_COUNT`` — random integers count (default 200000)
* ``REPRO_T4B_ROWS``  — meter telemetry rows (default 400000)
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.monitor import METRICS

#: Counters recorded per bench in BENCH_REPORT.json — the ones whose
#: movement the paper's evaluation section argues about, plus the
#: self-healing runtime's failover/recovery activity and the blocks
#: the execution kernels ran over.
TRACKED_COUNTERS = (
    "storage.blocks_decoded",
    "storage.bytes_decoded",
    "storage.blocks_vectorized",
    "storage.blocks_pruned",
    "storage.containers_scanned",
    "storage.containers_pruned",
    "storage.wos_spills",
    "tuple_mover.moveouts",
    "tuple_mover.mergeouts",
    "queries.executed",
    "executor.query_retries",
    "executor.kernel_blocks",
    "cluster.nodes_failed",
    "supervisor.ticks",
    "supervisor.recoveries",
    "service.statements",
    "service.admitted",
    "service.admission_queued",
    "service.admission_rejected",
    "service.admission_timeouts",
    "service.statement_errors",
    "journal.appends",
    "journal.bytes_written",
    "journal.checkpoints",
    "journal.cold_starts",
    "journal.segments_pruned",
    "journal.replay.commits",
    "journal.replay.rows",
    "dc.records",
    "dc.records_evicted",
    "dc.flushes",
    "dc.bytes_written",
    "dc.alerts_raised",
    "dc.alerts_cleared",
)

BENCH_REPORT = "BENCH_REPORT.json"

#: name -> {"seconds": float, "metrics": {counter: delta}}
_RESULTS: dict = {}


def env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


#: pytest config, captured at startup so _emit can suspend output
#: capture — the regenerated paper tables then appear in every
#: benchmark run's output with or without ``-s``.
_CONFIG = None


def pytest_configure(config):
    global _CONFIG
    _CONFIG = config


def _emit(line: str) -> None:
    capman = (
        _CONFIG.pluginmanager.get_plugin("capturemanager")
        if _CONFIG is not None
        else None
    )
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:  # pragma: no cover - direct invocation outside pytest
        print(line)


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render a small aligned table, bypassing pytest capture."""
    widths = [len(h) for h in headers]
    rendered = [[str(cell) for cell in row] for row in rows]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    _emit("")
    _emit(f"=== {title} ===")
    _emit("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    _emit("  ".join("-" * w for w in widths))
    for row in rendered:
        _emit("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


@pytest.fixture(scope="session")
def report():
    """The table printer, as a fixture."""
    return print_table


# -- BENCH_REPORT.json: wall time + metrics deltas per bench -------------

@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Wrap every bench body: wall time plus the registry's movement."""
    with METRICS.capture(TRACKED_COUNTERS) as captured:
        started = time.perf_counter()
        yield
        elapsed = time.perf_counter() - started
    _RESULTS[item.nodeid] = {
        "seconds": round(elapsed, 6),
        "metrics": captured.deltas,
    }


def pytest_sessionfinish(session, exitstatus):
    """Write the per-bench report next to the repo root."""
    if not _RESULTS:
        return
    path = os.path.join(os.path.dirname(__file__), os.pardir, BENCH_REPORT)
    payload = {
        "suite": "benchmarks",
        "exit_status": int(exitstatus),
        "benches": dict(sorted(_RESULTS.items())),
    }
    with open(os.path.abspath(path), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
