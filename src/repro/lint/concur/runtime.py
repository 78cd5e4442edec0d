"""Runtime concurrency companion: ranked tracked locks + lockset races.

Enabled (like the rest of the sanitizer) by ``REPRO_SANITIZE=1``.  Two
pieces:

* :class:`TrackedLock` — a ``threading.Lock`` wrapper that records the
  locks each thread currently holds in a thread-local stack.  Every
  product mutex is one (the three ``Condition`` s wrap one), named in
  :data:`LOCK_RANKS` with its level.  Under the sanitizer a blocking
  acquire of a ranked lock whose rank is not strictly above every
  ranked lock the thread already holds raises
  :class:`~repro.errors.InvariantViolation`: a bad nesting — or a
  re-acquisition that would hang — fails the first time it executes,
  on whichever path really runs it.  This is the whole lock-order
  check; there is no static model of the program's locking.

* :data:`RACES` — an Eraser-style lockset race detector
  (Savage et al., SOSP '97).  Registered shared objects report each
  write via :func:`RaceDetector.note_write`; the detector intersects
  the writer's held-lock set into the object's candidate lockset.
  While a single thread writes, the object is *exclusive* and nothing
  is checked (initialisation needs no locks).  The first write from a
  second thread moves it to *shared*, seeding the candidate lockset
  from that write's held locks; every later write intersects.  A write
  that empties the lockset means no single lock protects the object —
  a data race candidate — and is recorded (once per object) on
  :meth:`RaceDetector.reports`.

The race detector never raises from arbitrary threads: reports
accumulate and the test harness asserts them empty (thread-stress
smoke) or non-empty (seeded negative fixtures).  With no objects
tracked — the production default — ``note_write`` is a single
attribute read and a truthiness check, so instrumented hot paths
(``MetricsRegistry.inc``) stay cheap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .. import sanitizer

#: Lock levelling: every product mutex and its rank, in the order a
#: statement meets them (service → admission → gate → commit → table
#: locks → durable history → telemetry → leaves that take nothing).  A
#: thread only ever blocks on a rank above all the ranks it holds.  A
#: :class:`TrackedLock` whose name is not here (a test's scratch lock)
#: is unranked: visible to the race detector, never checked.
LOCK_RANKS = {  # concurrency: immutable
    "SqlService._mutex": 10,
    "ResourceGovernor._cond": 20,
    "StatementGate._cond": 30,
    "Database._commit_lock": 40,
    "LockManager._cond": 50,
    "Journal._lock": 60,
    "DataCollector._lock": 70,
    "Tracer._lock": 80,
    "MetricsRegistry._lock": 90,
    "Database._txn_id_lock": 100,
    "faults._PLAN_LOCK": 110,
}

#: Per-thread stack of held :class:`TrackedLock` s.
_HELD = threading.local()  # concurrency: thread-local


def held_locks() -> tuple[str, ...]:
    """Names of the tracked locks the calling thread holds right now."""
    return tuple(lock.name for lock in getattr(_HELD, "locks", ()))


def _pop_held(lock: "TrackedLock") -> None:
    locks = getattr(_HELD, "locks", None)
    if not locks:
        return
    if locks[-1] is lock:
        locks.pop()
        return
    # released out of acquisition order: still forget it.
    for index in range(len(locks) - 1, -1, -1):
        if locks[index] is lock:
            del locks[index]
            return


class TrackedLock:
    """A named, ranked mutex whose ownership is visible per thread.

    Semantics and signatures match ``threading.Lock`` (non-reentrant),
    so ``threading.Condition(TrackedLock(...))`` works.  Additions:
    acquiring pushes the lock onto the calling thread's held stack and
    releasing pops it, so :func:`held_locks` — and through it the
    lockset algorithm — can see which guards a write ran under; and
    with the sanitizer on, a blocking acquire checks :attr:`rank`
    against that stack first.  A non-blocking acquire cannot deadlock
    and is not checked (``Condition._is_owned`` probes its own held
    lock that way).
    """

    __slots__ = ("name", "rank", "_lock")

    def __init__(self, name: str):
        self.name = name
        #: Level from :data:`LOCK_RANKS`; 0 = unranked.
        self.rank = LOCK_RANKS.get(name, 0)
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the underlying lock; records ownership on success."""
        held = getattr(_HELD, "locks", None)
        if held is None:
            held = _HELD.locks = []
        if held and blocking and self.rank:
            for other in held:
                if other.rank >= self.rank and sanitizer.enabled():
                    sanitizer.invariant(
                        False,
                        f"lock rank inversion: acquiring {self.name} "
                        f"(rank {self.rank}) while holding {other.name} "
                        f"(rank {other.rank}); held stack {held_locks()}",
                    )
        got = self._lock.acquire(blocking, timeout)
        if got:
            held.append(self)
        return got

    def release(self) -> None:
        """Release the underlying lock and forget ownership."""
        _pop_held(self)
        self._lock.release()

    def locked(self) -> bool:
        """Whether any thread currently holds the lock."""
        return self._lock.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


@dataclass
class RaceReport:
    """One shared object whose candidate lockset went empty."""

    #: Registered name of the shared object.
    name: str
    #: Free-form location hint supplied by the writing site.
    where: str
    #: Number of writes observed up to (and including) the racy one.
    writes: int
    #: The lockset held at the emptying write (always disjoint from
    #: the prior candidate set, by construction).
    held: tuple[str, ...]

    def render(self) -> str:
        """Human-readable one-liner for harness output."""
        guard = ", ".join(self.held) if self.held else "no locks"
        site = f" at {self.where}" if self.where else ""
        return (
            f"lockset race: {self.name}{site} — write #{self.writes} under "
            f"[{guard}] leaves no common guard across all writers"
        )


@dataclass
class _SharedState:
    """Eraser bookkeeping for one registered shared object."""

    first_thread: int | None = None
    shared: bool = False
    lockset: frozenset[str] = frozenset()
    writes: int = 0
    reported: bool = False
    report: RaceReport | None = field(default=None, repr=False)


class RaceDetector:
    """Process-wide lockset (Eraser) race detector for shared objects."""

    def __init__(self):
        self._mutex = threading.Lock()
        self._objects: dict[str, _SharedState] = {}  # concurrency: guarded-by(self._mutex)

    def track(self, name: str) -> None:
        """Start monitoring writes reported under ``name``."""
        with self._mutex:
            self._objects.setdefault(name, _SharedState())

    def untrack(self, name: str) -> None:
        """Stop monitoring ``name`` and drop its state."""
        with self._mutex:
            self._objects.pop(name, None)

    def tracking(self, name: str) -> bool:
        """Whether ``name`` is currently monitored."""
        return name in self._objects

    def note_write(self, name: str, where: str = "") -> None:
        """Record one write to the shared object registered as ``name``.

        Call sites invoke this unconditionally; the fast path (nothing
        tracked, or this object untracked, or sanitizer off) is a dict
        probe and returns immediately.
        """
        objects = self._objects
        if not objects or name not in objects:
            return
        if not sanitizer.enabled():
            return
        held = frozenset(held_locks())
        thread_id = threading.get_ident()
        with self._mutex:
            state = objects.get(name)
            if state is None:
                return
            state.writes += 1
            if state.first_thread is None:
                state.first_thread = thread_id
            if thread_id != state.first_thread and not state.shared:
                # first write from a second thread: the object is now
                # genuinely shared; seed the candidate lockset here so
                # unguarded single-threaded initialisation never trips.
                state.shared = True
                state.lockset = held
            elif state.shared:
                state.lockset &= held
            if state.shared and not state.lockset and not state.reported:
                state.reported = True
                state.report = RaceReport(
                    name=name, where=where, writes=state.writes, held=tuple(sorted(held))
                )

    def reports(self) -> list[RaceReport]:
        """All race reports so far, in registration order of the objects."""
        with self._mutex:
            return [
                state.report
                for state in self._objects.values()
                if state.report is not None
            ]

    def reset(self) -> None:
        """Forget every tracked object and report."""
        with self._mutex:
            self._objects.clear()


#: The process-wide race detector shared-object writes report into.
RACES = RaceDetector()
