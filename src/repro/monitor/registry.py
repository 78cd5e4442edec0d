"""Process-wide metrics registry: counters, gauges, histograms, events.

Vertica exposes its internal accounting through ``v_monitor`` system
tables; everything those tables report starts life as a plain counter
bump somewhere in the engine.  This module is that substrate for the
reproduction: a single :class:`MetricsRegistry` instance (``METRICS``)
that every layer — operators, storage, tuple mover, lock manager,
cluster — increments as it works.

Design constraints, in order:

* **Near-zero cost.**  ``inc`` is one dict lookup and an integer add
  under an uncontended mutex; hot paths bump once per *block*, never
  per row.  Instrumentation is on unconditionally — there is no
  "enabled" flag to check.
* **Thread safe.**  One registry serves every session thread, so all
  mutation and every read-modify-write snapshot runs under a single
  internal lock (a :class:`~repro.lint.concur.runtime.TrackedLock`, so
  the ``REPRO_SANITIZE=1`` lockset race detector can verify the
  guarded-by discipline at runtime).  Single-threaded behaviour is
  unchanged.
* **Deterministic snapshots.**  Histograms keep exact count/sum/min/max
  plus a bounded reservoir sample.  Reservoir replacement uses a
  ``random.Random`` seeded from the registry seed and the metric name
  (via ``zlib.crc32``, not ``hash()``, which is salted per process), so
  the same sequence of ``observe`` calls yields byte-identical
  snapshots on every run.
* **Resettable.**  Tests and benchmarks call :meth:`reset` (or diff two
  :meth:`snapshot` results) to get isolated measurements without
  touching the instrumented code.
"""

from __future__ import annotations

import zlib
from random import Random
from typing import Any, Iterable

from ..lint.concur.runtime import RACES, TrackedLock

#: Bounded sample kept per histogram for percentile estimates.
RESERVOIR_SIZE = 256


class Histogram:
    """Exact count/sum/min/max plus a seeded reservoir sample.

    Mutation happens only through :meth:`MetricsRegistry.observe`,
    which holds the registry lock — the histogram itself carries no
    synchronization.
    """

    __slots__ = ("count", "total", "min", "max", "_reservoir", "_rng")

    def __init__(self, seed: int):
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._reservoir: list[float] = []
        self._rng = Random(seed)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._reservoir) < RESERVOIR_SIZE:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < RESERVOIR_SIZE:
                self._reservoir[slot] = value

    def percentile(self, fraction: float) -> float | None:
        """Estimated percentile (0.0-1.0) from the reservoir sample."""
        if not self._reservoir:
            return None
        ordered = sorted(self._reservoir)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    def to_dict(self) -> dict[str, Any]:
        """Snapshot of the histogram's state (deterministic)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": (self.total / self.count) if self.count else None,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
        }


class MetricsRegistry:
    """Named counters, gauges and histograms for the whole process."""

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._lock = TrackedLock("MetricsRegistry._lock")
        self._counters: dict[str, int] = {}  # concurrency: guarded-by(self._lock)
        self._gauges: dict[str, float] = {}  # concurrency: guarded-by(self._lock)
        self._histograms: dict[str, Histogram] = {}  # concurrency: guarded-by(self._lock)

    # -- write side ------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount
            RACES.note_write("METRICS._counters", "MetricsRegistry.inc")

    def fold(self, counts: dict[str, int]) -> None:
        """Add each nonzero amount in ``counts`` to its counter, all
        under one lock: a walk that tallied locally bumps the registry
        once, not once per step and counter."""
        with self._lock:
            for name, amount in counts.items():
                if amount:
                    self._counters[name] = self._counters.get(name, 0) + amount
            RACES.note_write("METRICS._counters", "MetricsRegistry.fold")

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                seed = self._seed ^ zlib.crc32(name.encode("utf-8"))
                histogram = self._histograms[name] = Histogram(seed)
            histogram.observe(value)

    # -- read side -------------------------------------------------------

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        """Current value of gauge ``name``, if set."""
        with self._lock:
            return self._gauges.get(name)

    def histogram(self, name: str) -> Histogram | None:
        """The histogram object for ``name``, if any observation exists."""
        with self._lock:
            return self._histograms.get(name)

    def counters_with_prefix(self, prefix: str) -> dict[str, int]:
        """All counters whose name starts with ``prefix``."""
        with self._lock:
            return {
                name: value
                for name, value in self._counters.items()
                if name.startswith(prefix)
            }

    def counters_snapshot(self) -> dict[str, int]:
        """Consistent copy of every counter, for delta capture."""
        with self._lock:
            return dict(self._counters)

    def snapshot(self) -> dict[str, Any]:
        """Deterministic point-in-time dump of every metric."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: histogram.to_dict()
                    for name, histogram in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        """Zero everything; the next measurement starts clean."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def capture(self, names: Iterable[str] | None = None) -> "CounterCapture":
        """Scoped counter-delta measurement::

            with METRICS.capture(("queries.executed",)) as captured:
                run_workload()
            captured.deltas  # {"queries.executed": 3}

        ``names`` restricts (and orders) the reported counters; by
        default every counter that existed at entry or moved during the
        scope is reported.  Unlike hand-diffing :meth:`snapshot`, the
        capture never resets the registry, so scopes nest safely.
        """
        return CounterCapture(self, tuple(names) if names is not None else None)


class CounterCapture:
    """Context manager recording counter deltas across a scope."""

    def __init__(self, registry: MetricsRegistry, names: tuple | None):
        self._registry = registry
        self._names = names
        self._before: dict[str, int] = {}
        #: Per-counter movement, populated at scope exit.
        self.deltas: dict[str, int] = {}

    def __enter__(self) -> "CounterCapture":
        self._before = self._registry.counters_snapshot()
        return self

    def __exit__(self, *exc: object) -> None:
        after = self._registry.counters_snapshot()
        names = (
            self._names
            if self._names is not None
            else sorted(set(self._before) | set(after))
        )
        self.deltas = {
            name: after.get(name, 0) - self._before.get(name, 0)
            for name in names
        }


def counter_delta(
    before: dict[str, Any], after: dict[str, Any], names: Iterable[str]
) -> dict[str, int]:
    """Per-counter difference between two :meth:`MetricsRegistry.snapshot`
    results, for the given counter names."""
    old = before.get("counters", {})
    new = after.get("counters", {})
    return {name: new.get(name, 0) - old.get(name, 0) for name in names}


#: The process-wide registry every subsystem bumps.
METRICS = MetricsRegistry()
