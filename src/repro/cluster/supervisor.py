"""The auto-recovery supervisor: failure detection + self-healing.

The paper's availability story (section 5.2-5.3) is a *runtime*
behaviour, not a toolbox: failed nodes are detected, restarted,
recovered back to currency from buddies and rejoined without an
operator typing commands, and the cluster degrades gracefully while
that happens (writes rejected below quorum, reads served while every
segment has a reachable copy, safety shutdown when one does not).

:class:`ClusterSupervisor` closes that loop over the mechanisms built
in earlier PRs (``restart_node`` / scavenge, ``recover_node``, scrub).
Each :meth:`tick` advances the simulated clock one heartbeat interval
and

1. runs the deterministic failure detector (heartbeat round; nodes
   missing ``heartbeat_timeout`` consecutive ticks are ejected exactly
   like commit-or-eject ejects a node that misses a commit message);
2. reconciles its per-node state machine with the membership (nodes
   ejected by commit-or-eject or the executor's mid-query failover are
   adopted as DOWN);
3. drives at most one recovery phase per down node::

       DOWN -> RESTARTING -> SCAVENGED -> RECOVERING -> CURRENT -> UP

   with exponential backoff on failures — a node whose restart or
   recovery keeps crashing (e.g. under an armed fault plan) waits
   ``backoff_base * 2**(attempts-1)`` ticks before the next try and is
   QUARANTINED after ``max_recovery_attempts`` failures rather than
   retried forever;
4. re-evaluates the degraded modes and records transitions into the
   collector as failover events (``v_monitor.dc_node_events``).

Everything runs off :class:`repro.cluster.clock.SimulatedClock`; no
wall-clock call is involved, so a chaos seed replays tick-for-tick.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ClusterError, ReproError
from ..monitor import METRICS
from .cluster import Cluster
from .recovery import recover_node

#: Supervisor states, in lifecycle order.  RESTARTING / RECOVERING /
#: CURRENT are transient within one tick but still recorded as
#: transitions so ``v_monitor.dc_node_events`` shows the full path.
DOWN = "DOWN"
RESTARTING = "RESTARTING"
SCAVENGED = "SCAVENGED"
RECOVERING = "RECOVERING"
CURRENT = "CURRENT"
UP = "UP"
QUARANTINED = "QUARANTINED"

#: Every state, for introspection/validation.
STATES = (DOWN, RESTARTING, SCAVENGED, RECOVERING, CURRENT, UP, QUARANTINED)


@dataclass
class NodeSupervision:
    """Supervisor-side bookkeeping for one node."""

    state: str = UP
    #: Consecutive failed recovery attempts since the node went down.
    recovery_attempts: int = 0
    #: Simulated-clock tick before which no new attempt is made
    #: (exponential backoff).
    next_attempt_tick: int = 0
    #: Tick of the last recorded state transition.
    last_transition_tick: int = 0
    #: Message of the most recent recovery failure ("" when none).
    last_error: str = ""


class ClusterSupervisor:
    """Drives failed nodes back to UP; one state step per tick."""

    def __init__(
        self,
        cluster: Cluster,
        backoff_base: int = 1,
        max_recovery_attempts: int = 4,
    ):
        self.cluster = cluster
        #: First retry waits this many ticks; each failure doubles it.
        self.backoff_base = backoff_base
        #: Failed attempts tolerated before the node is quarantined.
        self.max_recovery_attempts = max_recovery_attempts
        self._nodes: dict[int, NodeSupervision] = {}
        #: (has_quorum, data_available) at the last tick, to record
        #: degraded-mode events only on change.  A cluster is born
        #: healthy, so the first tick of a healthy cluster logs nothing.
        self._last_modes: tuple[bool, bool] = (True, True)

    # -- introspection ---------------------------------------------------

    def node_state(self, node_index: int) -> NodeSupervision:
        """The supervision record for one node (created UP on demand)."""
        record = self._nodes.get(node_index)
        if record is None:
            record = self._nodes[node_index] = NodeSupervision()
        return record

    def states(self) -> dict[int, NodeSupervision]:
        """node index -> supervision record, for every cluster node."""
        return {
            index: self.node_state(index)
            for index in range(self.cluster.node_count)
        }

    def converged(self) -> bool:
        """Whether every node is UP or (terminally) QUARANTINED."""
        return all(
            record.state in (UP, QUARANTINED)
            for record in self.states().values()
        )

    # -- the control loop ------------------------------------------------

    def tick(self) -> int:
        """One supervisor cycle; returns the new simulated time."""
        now = self.cluster.clock.advance()
        self._detect_failures(now)
        self._reconcile_membership(now)
        self._drive_recovery(now)
        self._update_degraded_modes()
        # clock advanced: let the Data Collector age out expired history
        # at a deterministic point in the tick.
        self.cluster.dc.on_tick()
        METRICS.inc("supervisor.ticks")
        return now

    def run_until_converged(self, max_ticks: int = 64) -> int:
        """Tick until every node is UP or QUARANTINED; returns the
        number of ticks spent.  Raises :class:`ClusterError` when the
        cluster has not converged within ``max_ticks`` — with bounded
        backoff and quarantine that indicates a supervisor bug, so
        failing loudly beats spinning."""
        for spent in range(1, max_ticks + 1):
            self.tick()
            if self.converged():
                return spent
        raise ClusterError(
            f"cluster did not converge within {max_ticks} ticks; "
            f"states: {self.render_states()}"
        )

    def render_states(self) -> str:
        """``node00=UP node01=DOWN ...`` — for errors and logs."""
        return " ".join(
            f"node{index:02d}={record.state}"
            for index, record in sorted(self.states().items())
        )

    # -- phase 1: failure detection -------------------------------------

    def _detect_failures(self, now: int) -> None:
        for node_index, reason in self.cluster.membership.heartbeat_round(now):
            # heartbeat_round already ejected the node; freeze its
            # epoch/WOS state like every other death path.
            self.cluster._eject_and_freeze(node_index, reason)
            METRICS.inc("supervisor.heartbeat_ejections")
            self.cluster.record_failover_event("ejection", node_index, reason)
            self._transition(node_index, DOWN, now)

    # -- phase 2: adopt externally observed state ------------------------

    def _reconcile_membership(self, now: int) -> None:
        membership = self.cluster.membership
        for node_index in range(self.cluster.node_count):
            record = self.node_state(node_index)
            if membership.is_up(node_index):
                if record.state != UP:
                    # recovered outside the supervisor (direct
                    # recover_node call, rebalance): adopt it.
                    self._transition(node_index, UP, now)
                    record.recovery_attempts = 0
                    record.last_error = ""
            elif record.state in (UP, CURRENT):
                # ejected by commit-or-eject, fail_node or the
                # executor's mid-query failover: start supervising.
                self._transition(node_index, DOWN, now)

    # -- phase 3: drive recovery -----------------------------------------

    def _drive_recovery(self, now: int) -> None:
        for node_index in sorted(self._nodes):
            record = self._nodes[node_index]
            if record.state not in (DOWN, SCAVENGED):
                continue
            if now < record.next_attempt_tick:
                continue
            if record.state == DOWN:
                self._try_restart(node_index, record, now)
            else:
                self._try_recover(node_index, record, now)

    def _try_restart(self, node_index: int, record, now: int) -> None:
        self._transition(node_index, RESTARTING, now)
        try:
            self.cluster.restart_node(node_index)
        except ReproError as exc:
            self._attempt_failed(node_index, record, now, RESTARTING, exc)
            return
        self._transition(node_index, SCAVENGED, now)

    def _try_recover(self, node_index: int, record, now: int) -> None:
        self._transition(node_index, RECOVERING, now)
        try:
            recover_node(self.cluster, node_index)
        except ReproError as exc:
            self._attempt_failed(node_index, record, now, RECOVERING, exc)
            return
        # recover_node replayed the node to the current epoch and
        # rejoined it: currency and membership in one step.
        self._transition(node_index, CURRENT, now)
        self._transition(node_index, UP, now)
        record.recovery_attempts = 0
        record.last_error = ""
        METRICS.inc("supervisor.recoveries")

    def _attempt_failed(
        self, node_index: int, record, now: int, phase: str, exc: Exception
    ) -> None:
        record.recovery_attempts += 1
        record.last_error = f"{phase.lower()} failed: {exc}"
        METRICS.inc("supervisor.recovery_failures")
        if record.recovery_attempts >= self.max_recovery_attempts:
            self._transition(node_index, QUARANTINED, now)
            METRICS.inc("supervisor.quarantines")
            self.cluster.record_failover_event(
                "quarantine",
                node_index,
                f"giving up after {record.recovery_attempts} failed "
                f"attempts; last: {record.last_error}",
                attempt=record.recovery_attempts,
            )
            return
        backoff = self.backoff_base * 2 ** (record.recovery_attempts - 1)
        record.next_attempt_tick = now + backoff
        # a failed recovery may have left partial replays behind; going
        # back to DOWN re-runs restart+scavenge before the next try.
        self._transition(node_index, DOWN, now)

    # -- phase 4: degraded modes -----------------------------------------

    def _update_degraded_modes(self) -> None:
        has_quorum = self.cluster.membership.has_quorum()
        # the availability pass writes the cluster.data_available gauge
        data_available = self.cluster.check_data_available()
        METRICS.set_gauge("cluster.has_quorum", int(has_quorum))
        modes = (has_quorum, data_available)
        if modes == self._last_modes:
            return
        self._last_modes = modes
        if not data_available:
            self.cluster.record_failover_event(
                "degraded_mode",
                -1,
                "safety shutdown: some segment has no reachable copy; "
                "queries raise DataUnavailableError",
            )
        elif not has_quorum:
            self.cluster.record_failover_event(
                "degraded_mode",
                -1,
                "quorum lost: writes rejected with QuorumLossError, "
                "reads continue from surviving copies",
            )
        else:
            self.cluster.record_failover_event(
                "degraded_mode", -1, "healthy: quorum and all data"
            )

    # -- shared ----------------------------------------------------------

    def _transition(self, node_index: int, new_state: str, now: int) -> None:
        record = self.node_state(node_index)
        if record.state == new_state:
            return
        detail = f"{record.state}->{new_state}"
        record.state = new_state
        record.last_transition_tick = now
        METRICS.inc("supervisor.transitions")
        self.cluster.record_failover_event(
            "recovery_transition",
            node_index,
            detail,
            attempt=record.recovery_attempts,
        )
