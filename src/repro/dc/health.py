"""Tick-driven health rules with raise/clear hysteresis.

``v_monitor.alerts`` is produced here: a small set of deterministic
rules, each reducing the Data Collector rings / metrics registry /
cluster state to one scalar per evaluation, compared against a pair of
thresholds.  The rule grammar is deliberately tiny:

    raise   when  value >  raise_above
    clear   when  value <= clear_below          (clear_below <= raise_above)
    hold    otherwise                           (hysteresis band)

Evaluation is driven by the simulated clock — ``evaluate()`` stamps
transitions with ``cluster.clock.now``, never the wall clock — so an
alert's raise/clear history replays tick-for-tick under a chaos seed.
Each transition is also recorded into the collector's ``errors``
component (``alert_raised`` / ``alert_cleared``), making alert history
itself part of the durable operational record.

Thresholds live on the mutable :class:`HealthConfig` (also the home of
the ``v_monitor.slow_queries`` threshold), so tests and operators can
retune without rebuilding the monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..monitor.registry import METRICS


@dataclass
class HealthConfig:
    """Tunable thresholds for the health rules and slow-query view."""

    #: ``v_monitor.slow_queries`` reports requests at or above this.
    slow_query_ms: float = 250.0
    #: queue_wait_p99 rule: p99 admission queue wait (ticks) budget.
    queue_wait_p99_budget_ticks: float = 8.0
    queue_wait_p99_clear_ticks: float = 4.0
    #: crc_failures rule: failures tolerated inside the sliding window.
    crc_failure_window_ticks: int = 32
    crc_failure_raise_count: float = 2.0
    crc_failure_clear_count: float = 0.0


@dataclass(frozen=True)
class AlertRule:
    """One health rule: a value source plus its hysteresis thresholds.

    ``value`` reduces current state to one float; the threshold
    callables read the live :class:`HealthConfig` so retuning takes
    effect on the next evaluation.
    """

    name: str
    severity: str
    description: str
    value: Callable[["HealthMonitor"], float]
    raise_above: Callable[[HealthConfig], float]
    clear_below: Callable[[HealthConfig], float]


@dataclass
class AlertState:
    """Mutable raise/clear bookkeeping for one rule."""

    state: str = "ok"  # "ok" | "firing"
    raised_tick: int | None = None
    cleared_tick: int | None = None
    times_raised: int = 0
    last_value: float = 0.0


def _percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _queue_wait_p99(monitor: "HealthMonitor") -> float:
    collector = getattr(monitor.db.cluster, "dc", None)
    if collector is None:
        return 0.0
    waits = [
        float(row.get("queued_ticks", 0))
        for row in collector.rows("resource_acquisitions")
        if row.get("kind") in ("granted", "timed_out")
    ]
    return _percentile(waits, 0.99)


def _down_nodes(monitor: "HealthMonitor") -> float:
    return float(len(monitor.db.cluster.membership.down_nodes()))


def _quarantined_nodes(monitor: "HealthMonitor") -> float:
    supervisor = monitor.db.cluster.supervisor
    return float(
        sum(
            1
            for record in supervisor.states().values()
            if record.state == "QUARANTINED"
        )
    )


def _recent_crc_failures(monitor: "HealthMonitor") -> float:
    return float(monitor._crc_failures_in_window())


#: The built-in rule set, in report order.
DEFAULT_RULES = (
    AlertRule(
        "crc_failures",
        "critical",
        "repeated storage CRC failures inside the sliding window",
        _recent_crc_failures,
        lambda c: c.crc_failure_raise_count,
        lambda c: c.crc_failure_clear_count,
    ),
    AlertRule(
        "node_down",
        "critical",
        "one or more nodes are out of the cluster membership",
        _down_nodes,
        lambda c: 0.0,
        lambda c: 0.0,
    ),
    AlertRule(
        "node_quarantined",
        "critical",
        "a node exhausted its recovery attempts and was quarantined",
        _quarantined_nodes,
        lambda c: 0.0,
        lambda c: 0.0,
    ),
    AlertRule(
        "queue_wait_p99",
        "warning",
        "p99 admission queue wait exceeds the configured tick budget",
        _queue_wait_p99,
        lambda c: c.queue_wait_p99_budget_ticks,
        lambda c: c.queue_wait_p99_clear_ticks,
    ),
)


class HealthMonitor:
    """Evaluates the health rules against one database.

    Owned by :class:`repro.core.Database` as ``db.health``; the
    ``v_monitor.alerts`` producer calls :meth:`evaluate` (so reading
    the table is always current) and renders :meth:`rows`.
    """

    def __init__(self, db, config: HealthConfig | None = None):
        self.db = db
        self.config = config or HealthConfig()
        self.rules = DEFAULT_RULES
        self._states: dict[str, AlertState] = {
            rule.name: AlertState() for rule in self.rules
        }
        #: (tick, count) deltas of storage.crc_failures, for the
        #: sliding-window rule.
        self._crc_events: list[tuple[int, int]] = []
        self._crc_seen = METRICS.counter("storage.crc_failures")

    # -- the crc sliding window -----------------------------------------

    def _crc_failures_in_window(self) -> int:
        now = self.db.cluster.clock.now
        current = METRICS.counter("storage.crc_failures")
        if current > self._crc_seen:
            self._crc_events.append((now, current - self._crc_seen))
            self._crc_seen = current
        window = self.config.crc_failure_window_ticks
        self._crc_events = [
            (tick, count)
            for tick, count in self._crc_events
            if now - tick <= window
        ]
        return sum(count for _, count in self._crc_events)

    # -- evaluation ------------------------------------------------------

    def evaluate(self) -> list[str]:
        """Run every rule once; returns the names of firing alerts.

        Transitions follow the hysteresis grammar in the module
        docstring and are stamped with the cluster's simulated clock.
        """
        now = self.db.cluster.clock.now
        collector = getattr(self.db.cluster, "dc", None)
        firing = []
        for rule in self.rules:
            state = self._states[rule.name]
            value = rule.value(self)
            state.last_value = value
            if state.state == "ok" and value > rule.raise_above(self.config):
                state.state = "firing"
                state.raised_tick = now
                state.times_raised += 1
                METRICS.inc("dc.alerts_raised")
                if collector is not None:
                    collector.record(
                        "errors",
                        "alert_raised",
                        source="health",
                        node_index=-1,
                        detail=f"{rule.name} value={value:g} > "
                        f"{rule.raise_above(self.config):g}",
                    )
            elif state.state == "firing" and value <= rule.clear_below(
                self.config
            ):
                state.state = "ok"
                state.cleared_tick = now
                METRICS.inc("dc.alerts_cleared")
                if collector is not None:
                    collector.record(
                        "errors",
                        "alert_cleared",
                        source="health",
                        node_index=-1,
                        detail=f"{rule.name} value={value:g} <= "
                        f"{rule.clear_below(self.config):g}",
                    )
            if state.state == "firing":
                firing.append(rule.name)
        return firing

    def state_of(self, rule_name: str) -> AlertState:
        """The live raise/clear state for one rule (tests)."""
        return self._states[rule_name]

    def rows(self) -> list[dict]:
        """One ``v_monitor.alerts`` row per rule, report order."""
        rows = []
        for rule in self.rules:
            state = self._states[rule.name]
            rows.append(
                {
                    "alert": rule.name,
                    "severity": rule.severity,
                    "state": state.state,
                    "value": state.last_value,
                    "raise_above": rule.raise_above(self.config),
                    "clear_below": rule.clear_below(self.config),
                    "raised_tick": state.raised_tick,
                    "cleared_tick": state.cleared_tick,
                    "times_raised": state.times_raised,
                    "detail": rule.description,
                }
            )
        return rows
