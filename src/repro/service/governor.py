"""The resource governor: Vertica-style named resource pools.

Section 7 of the paper describes workload management as *resource
pools*: named budgets of memory and concurrency that statements are
admitted against, queue for, or are rejected from.  This module is
that layer for the reproduction.  Each :class:`PoolConfig` carries the
four knobs that matter:

* ``memory_budget_rows`` — total working memory (in rows, the same
  deterministic byte-proxy the operator :class:`ResourcePool` uses)
  all concurrently running statements of the pool may pin;
* ``max_concurrency`` — statements allowed to run at once;
* ``queue_depth`` — statements allowed to *wait* for a slot; a
  submission that finds the queue full is rejected immediately;
* ``queue_timeout_ticks`` — how long (simulated-clock ticks) a queued
  statement waits before giving up with
  :class:`repro.errors.AdmissionTimeoutError`.

Admission is a deterministic two-phase state machine so every decision
is replayable:

1. :meth:`ResourceGovernor.submit` is synchronous and non-blocking —
   under one mutex it either **grants** (capacity and memory fit),
   **queues** (FIFO, queue not full) or **rejects** (queue full) and
   returns an :class:`AdmissionTicket` in that state.  Single-threaded
   tests drive this directly: the same submission sequence always
   produces the same grants/queue/rejections.
2. :meth:`ResourceGovernor.admit` wraps ``submit`` for threaded
   callers: a queued ticket parks on the governor's condition variable
   (bounded wake slices, so cancellation and clock advances are never
   missed — the "backoff" of the degradation ladder) until a
   :meth:`release` promotes it, its queue deadline passes, or its
   cancel token fires.

Timeouts are *tick*-driven: a queued ticket expires only when the
:class:`SimulatedClock` passes its deadline (``on_tick`` sweeps
expiry), so overload scenarios are exactly reproducible.  A wall-clock
safety valve (:attr:`ResourceGovernor.SAFETY_VALVE_SECONDS`) exists
solely so a mis-driven test hangs for seconds, not forever; it is far
outside any deterministic test's horizon.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..errors import AdmissionTimeoutError, ResourceExceededError
from ..lint.concur.runtime import TrackedLock
from ..monitor import METRICS

#: Ticket lifecycle states.
QUEUED = "queued"
GRANTED = "granted"
REJECTED = "rejected"
TIMED_OUT = "timed_out"
CANCELLED = "cancelled"
RELEASED = "released"


@dataclass(frozen=True)
class PoolConfig:
    """Operator-facing knobs of one named resource pool."""

    name: str
    #: Total rows of working memory the pool's running statements may
    #: pin at once (the governor's *global* view of the per-operator
    #: budgets of section 6.1).
    memory_budget_rows: int = 1_000_000
    #: Statements allowed to execute concurrently.
    max_concurrency: int = 4
    #: Statements allowed to wait for a slot before new arrivals are
    #: rejected outright.
    queue_depth: int = 8
    #: Simulated-clock ticks a queued statement waits before
    #: :class:`AdmissionTimeoutError`.
    queue_timeout_ticks: int = 10
    #: Memory granted to one statement when the submitter does not ask
    #: for a specific amount; None = budget / max_concurrency.
    per_query_memory_rows: int | None = None

    def default_grant(self) -> int:
        """Rows one statement receives absent an explicit request."""
        if self.per_query_memory_rows is not None:
            return self.per_query_memory_rows
        return max(self.memory_budget_rows // max(self.max_concurrency, 1), 1)


@dataclass
class AdmissionTicket:
    """One statement's admission record, from submit to release."""

    ticket_id: int
    pool: str
    memory_rows: int
    session_id: int | None = None
    state: str = QUEUED
    #: Tick the ticket was submitted.
    submit_tick: int = 0
    #: Tick a queued ticket gives up (submit + queue_timeout_ticks).
    deadline_tick: int = 0
    #: Tick the grant happened (== submit_tick for immediate grants).
    grant_tick: int | None = None
    #: Why a ticket left the queue without running, for observability.
    detail: str = ""

    @property
    def queued_ticks(self) -> int:
        """Ticks spent waiting before the grant (0 if immediate)."""
        if self.grant_tick is None:
            return 0
        return self.grant_tick - self.submit_tick


@dataclass
class _PoolState:
    """Mutable accounting of one pool; guarded by the governor mutex."""

    config: PoolConfig
    #: ticket_id -> memory rows of currently running statements.
    running: dict[int, int] = field(default_factory=dict)
    #: FIFO of queued tickets.
    queue: list[AdmissionTicket] = field(default_factory=list)
    admitted_total: int = 0
    queued_total: int = 0
    rejected_total: int = 0
    timed_out_total: int = 0
    cancelled_total: int = 0
    peak_running: int = 0

    @property
    def memory_in_use(self) -> int:
        return sum(self.running.values())

    def fits(self, memory_rows: int) -> bool:
        """Whether one more statement of this size can run right now."""
        return (
            len(self.running) < self.config.max_concurrency
            and self.memory_in_use + memory_rows
            <= self.config.memory_budget_rows
        )


class ResourceGovernor:
    """Admits, queues, rejects and reclaims statements across pools."""

    #: Upper bound between wakeups while parked in :meth:`admit`; the
    #: re-check is what observes clock advances and cancellations that
    #: raced the notify.
    WAKE_SLICE = 0.05

    #: Wall-clock bound on one blocking admission — a mis-driven test's
    #: failure mode is a seconds-long hang plus a clear error, never a
    #: silent deadlock.  Deterministic tests finish orders of magnitude
    #: before this fires.
    SAFETY_VALVE_SECONDS = 30.0

    def __init__(self, clock, pools: list[PoolConfig] | None = None):
        self.clock = clock
        self._cond = threading.Condition(TrackedLock("ResourceGovernor._cond"))
        self._pools: dict[str, _PoolState] = {}  # concurrency: guarded-by(self._cond)
        self._next_ticket = 1  # concurrency: guarded-by(self._cond)
        #: Optional Data Collector (duck-typed; set by the SQL
        #: service).  Every admission outcome lands in
        #: ``dc_resource_acquisitions``.  The collector's internal
        #: mutex nests strictly inside ``self._cond``; recording defers
        #: segment flushes so no disk I/O (or injected ``dc.flush.*``
        #: fault) ever runs inside this critical section.
        self.collector = None
        for config in pools or [PoolConfig("general")]:
            self._pools[config.name] = _PoolState(config)

    def _dc_record(self, outcome: str, ticket: AdmissionTicket) -> None:
        """Mirror one admission outcome into the collector."""
        if self.collector is None:
            return
        self.collector.record(
            "resource_acquisitions",
            outcome,
            defer_flush=True,
            pool_name=ticket.pool,
            session_id=ticket.session_id,
            ticket_id=ticket.ticket_id,
            memory_rows=ticket.memory_rows,
            queued_ticks=ticket.queued_ticks,
            detail=ticket.detail,
        )

    # -- configuration ---------------------------------------------------

    def add_pool(self, config: PoolConfig) -> None:
        """Register (or replace) a named pool."""
        with self._cond:
            self._pools[config.name] = _PoolState(config)

    def pool_names(self) -> list[str]:
        """Registered pool names, sorted."""
        with self._cond:
            return sorted(self._pools)

    def _pool(self, name: str) -> _PoolState:
        try:
            return self._pools[name]
        except KeyError:
            raise AdmissionTimeoutError(
                f"unknown resource pool {name!r}; have {sorted(self._pools)}"
            ) from None

    # -- admission --------------------------------------------------------

    def submit(
        self,
        pool_name: str = "general",
        memory_rows: int | None = None,
        session_id: int | None = None,
    ) -> AdmissionTicket:
        """Non-blocking admission decision: grant, queue or reject.

        Returns the ticket in state ``granted``, ``queued`` or
        ``rejected`` — pure function of governor state and arguments,
        so submission sequences replay exactly.  Raises
        :class:`ResourceExceededError` if the request can *never* fit
        the pool's total budget (queueing would be a guaranteed
        timeout).
        """
        with self._cond:
            pool = self._pool(pool_name)
            rows = (
                memory_rows
                if memory_rows is not None
                else pool.config.default_grant()
            )
            if rows > pool.config.memory_budget_rows:
                raise ResourceExceededError(
                    f"statement needs {rows} rows of memory; pool "
                    f"{pool_name!r} budget is {pool.config.memory_budget_rows}"
                )
            now = self.clock.now
            ticket = AdmissionTicket(
                ticket_id=self._next_ticket,
                pool=pool_name,
                memory_rows=rows,
                session_id=session_id,
                submit_tick=now,
                deadline_tick=now + pool.config.queue_timeout_ticks,
            )
            self._next_ticket += 1
            if pool.fits(rows) and not pool.queue:
                self._grant(pool, ticket)
            elif len(pool.queue) < pool.config.queue_depth:
                ticket.state = QUEUED
                pool.queue.append(ticket)
                pool.queued_total += 1
                METRICS.inc("service.admission_queued")
                self._dc_record(QUEUED, ticket)
            else:
                ticket.state = REJECTED
                ticket.detail = (
                    f"pool {pool_name!r} saturated: "
                    f"{len(pool.running)} running, "
                    f"{len(pool.queue)}/{pool.config.queue_depth} queued"
                )
                pool.rejected_total += 1
                METRICS.inc("service.admission_rejected")
                self._dc_record(REJECTED, ticket)
            return ticket

    def admit(
        self,
        pool_name: str = "general",
        memory_rows: int | None = None,
        session_id: int | None = None,
        cancel=None,
    ) -> AdmissionTicket:
        """Blocking admission: submit, then wait out the queue.

        Returns a granted ticket, or raises
        :class:`AdmissionTimeoutError` (queue full, or queued past the
        pool's tick deadline) / whatever ``cancel`` raises (statement
        cancelled while queued).  Any exception path deregisters the
        ticket — nothing is held on failure.
        """
        ticket = self.submit(pool_name, memory_rows, session_id)
        if ticket.state == GRANTED:
            return ticket
        if ticket.state == REJECTED:
            raise AdmissionTimeoutError(ticket.detail)
        valve = time.monotonic() + self.SAFETY_VALVE_SECONDS
        with self._cond:
            while True:
                if ticket.state == GRANTED:
                    return ticket
                if ticket.state == TIMED_OUT:
                    raise AdmissionTimeoutError(ticket.detail)
                if cancel is not None:
                    try:
                        cancel()
                    except BaseException:
                        self._leave_queue(ticket, CANCELLED, "cancelled")
                        raise
                self._expire_locked()
                if ticket.state == QUEUED and time.monotonic() >= valve:
                    self._leave_queue(
                        ticket, TIMED_OUT, "wall-clock safety valve"
                    )
                    raise AdmissionTimeoutError(
                        f"admission wait exceeded the "
                        f"{self.SAFETY_VALVE_SECONDS:.0f}s safety valve "
                        f"(clock at tick {self.clock.now}, deadline tick "
                        f"{ticket.deadline_tick}); is anything advancing "
                        f"the clock or releasing grants?"
                    )
                if ticket.state == QUEUED:
                    self._cond.wait(self.WAKE_SLICE)

    # -- lifecycle --------------------------------------------------------

    def release(self, ticket: AdmissionTicket) -> None:
        """Return a granted ticket's slot and memory; promote waiters.

        Idempotent: releasing a ticket twice (or one that never ran)
        is a no-op, so error-path ``finally`` blocks can call it
        unconditionally.
        """
        with self._cond:
            pool = self._pools.get(ticket.pool)
            if pool is None or ticket.ticket_id not in pool.running:
                return
            del pool.running[ticket.ticket_id]
            ticket.state = RELEASED
            METRICS.inc("service.grants_released")
            self._pump(pool)
            self._cond.notify_all()

    def cancel_queued(self, ticket: AdmissionTicket) -> None:
        """Withdraw a queued ticket (session cancelled while waiting)."""
        with self._cond:
            self._leave_queue(ticket, CANCELLED, "cancelled while queued")
            self._cond.notify_all()

    def on_tick(self) -> None:
        """Clock-advance hook: expire queued tickets past deadline and
        wake parked waiters to observe the new time.  Tests (and any
        component that advances the SimulatedClock) call this after
        ``clock.advance``."""
        with self._cond:
            self._expire_locked()
            self._cond.notify_all()

    # -- internals (caller holds self._cond) ------------------------------

    def _grant(self, pool: _PoolState, ticket: AdmissionTicket) -> None:
        ticket.state = GRANTED
        ticket.grant_tick = self.clock.now
        pool.running[ticket.ticket_id] = ticket.memory_rows
        pool.admitted_total += 1
        pool.peak_running = max(pool.peak_running, len(pool.running))
        METRICS.inc("service.admitted")
        self._dc_record(GRANTED, ticket)

    def _pump(self, pool: _PoolState) -> None:
        """Promote queued tickets FIFO while the head fits.  Strict
        head-of-line order keeps promotion deterministic (no small
        statement ever jumps a big one, so arrival order alone decides
        who runs)."""
        while pool.queue and pool.fits(pool.queue[0].memory_rows):
            self._grant(pool, pool.queue.pop(0))

    def _expire_locked(self) -> None:
        now = self.clock.now
        for pool in self._pools.values():
            expired = [t for t in pool.queue if t.deadline_tick <= now]
            for ticket in expired:
                pool.queue.remove(ticket)
                ticket.state = TIMED_OUT
                ticket.detail = (
                    f"queued at tick {ticket.submit_tick}, deadline tick "
                    f"{ticket.deadline_tick} passed at tick {now} in pool "
                    f"{ticket.pool!r}"
                )
                pool.timed_out_total += 1
                METRICS.inc("service.admission_timeouts")
                self._dc_record(TIMED_OUT, ticket)
            if expired:
                self._pump(pool)

    def _leave_queue(
        self, ticket: AdmissionTicket, state: str, detail: str
    ) -> None:
        pool = self._pools.get(ticket.pool)
        if pool is None or ticket not in pool.queue:
            return
        pool.queue.remove(ticket)
        ticket.state = state
        ticket.detail = detail
        if state == CANCELLED:
            pool.cancelled_total += 1
            METRICS.inc("service.admission_cancelled")
        self._dc_record(state, ticket)

    # -- observability ----------------------------------------------------

    def pool_rows(self) -> list[dict]:
        """One dict per pool for ``v_monitor.resource_pools``."""
        with self._cond:
            rows = []
            for name in sorted(self._pools):
                pool = self._pools[name]
                config = pool.config
                rows.append(
                    {
                        "pool_name": name,
                        "memory_budget_rows": config.memory_budget_rows,
                        "memory_in_use_rows": pool.memory_in_use,
                        "max_concurrency": config.max_concurrency,
                        "running": len(pool.running),
                        "queue_depth": config.queue_depth,
                        "queued": len(pool.queue),
                        "queue_timeout_ticks": config.queue_timeout_ticks,
                        "admitted_total": pool.admitted_total,
                        "queued_total": pool.queued_total,
                        "rejected_total": pool.rejected_total,
                        "timed_out_total": pool.timed_out_total,
                        "cancelled_total": pool.cancelled_total,
                        "peak_running": pool.peak_running,
                    }
                )
            return rows

    def assert_idle(self) -> None:
        """Raise AssertionError unless every pool has zero running
        grants and an empty queue — the no-leak postcondition the
        overload tests assert after the storm passes."""
        with self._cond:
            for name in sorted(self._pools):
                pool = self._pools[name]
                if pool.running or pool.queue:
                    raise AssertionError(
                        f"pool {name!r} not idle: {len(pool.running)} "
                        f"running grants, {len(pool.queue)} queued"
                    )
