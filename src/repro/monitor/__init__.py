"""Monitoring: metrics registry, query profiling, ``v_monitor`` tables.

The package mirrors Vertica's monitoring surface (``v_monitor``
system tables, ``PROFILE``/``EXPLAIN ANALYZE``) for the reproduction.
Three kinds of fact, one home each:

* counters — :data:`METRICS`, the process-wide registry of
  counters/gauges/histograms bumped by every layer;
* spans — :data:`repro.trace.TRACER`, process-wide;
* history (statements, query profiles, tuple-mover runs, node and
  failover events, lock waits, admissions, errors) — the rings of the
  database's own :class:`repro.dc.DataCollector` (``db.cluster.dc``),
  never a process-wide store, so two databases in one process keep
  separate histories.

The ``v_monitor`` table definitions live in
:mod:`repro.monitor.tables`, which the analyzer, the planner and the
executor read: a virtual table is a scan leaf of the one plan.
"""

from .profile import (
    OperatorProfile,
    QueryProfile,
    build_query_profile,
    profile_plan,
)
from .registry import (
    METRICS,
    CounterCapture,
    Histogram,
    MetricsRegistry,
    counter_delta,
)
from .retention import DEFAULT_RETENTION, RetentionPolicy

__all__ = [
    "DEFAULT_RETENTION",
    "RetentionPolicy",
    "CounterCapture",
    "OperatorProfile",
    "QueryProfile",
    "build_query_profile",
    "profile_plan",
    "METRICS",
    "Histogram",
    "MetricsRegistry",
    "counter_delta",
    "reset_all",
]


def reset_all() -> None:
    """Zero every process-wide monitoring store (tests, benchmark
    isolation); history is per database and goes with the database."""
    METRICS.reset()
    # lazy: the tracer lives in its own package and monitoring must
    # stay importable from the storage layers below it.
    from ..trace import TRACER

    TRACER.reset()
    from ..lint.concur.runtime import RACES

    RACES.reset()
