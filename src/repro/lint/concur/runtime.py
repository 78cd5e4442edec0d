"""Runtime concurrency companion: tracked locks + lockset race detection.

This is the dynamic half of the R9/R10 static analyses, enabled (like
the rest of the sanitizer) by ``REPRO_SANITIZE=1``.  Two pieces:

* :class:`TrackedLock` — a ``threading.Lock`` wrapper that records the
  locks each thread currently holds in a thread-local stack.  The
  process-wide singletons (``METRICS``, ``TRACER``) and each
  database's ``DataCollector`` guard their mutable state with one,
  which is what lets the race detector compute candidate locksets
  without patching the interpreter.

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

Nothing here raises from arbitrary threads: reports accumulate and the
test harness asserts them empty (thread-stress smoke) or non-empty
(seeded negative fixtures).  With no objects tracked — the production
default — ``note_write`` is a single attribute read and a truthiness
check, so instrumented hot paths (``MetricsRegistry.inc``) stay cheap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .. import sanitizer

#: Per-thread stack of held :class:`TrackedLock` names.
_HELD = threading.local()  # concurrency: thread-local


def held_locks() -> tuple[str, ...]:
    """Names of the tracked locks the calling thread holds right now."""
    return tuple(getattr(_HELD, "names", ()))


def _push_held(name: str) -> None:
    names = getattr(_HELD, "names", None)
    if names is None:
        names = _HELD.names = []
    names.append(name)


def _pop_held(name: str) -> None:
    names = getattr(_HELD, "names", None)
    if names and names[-1] == name:
        names.pop()
    elif names and name in names:
        # released out of acquisition order: still forget it.
        names.reverse()
        names.remove(name)
        names.reverse()


class TrackedLock:
    """A named mutex whose ownership is visible to the race detector.

    Semantics match ``threading.Lock`` (non-reentrant); the only
    addition is that acquiring pushes ``name`` onto the calling
    thread's held-lock stack and releasing pops it, so
    :func:`held_locks` — and through it the lockset algorithm — can
    see which guards a write ran under.
    """

    __slots__ = ("name", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()

    def acquire(self, timeout: float = -1) -> bool:
        """Acquire the underlying lock; records ownership on success."""
        got = self._lock.acquire(timeout=timeout)
        if got:
            _push_held(self.name)
        return got

    def release(self) -> None:
        """Release the underlying lock and forget ownership."""
        _pop_held(self.name)
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
