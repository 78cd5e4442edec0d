"""Table locking: the paper's seven-mode analytic lock model.

Tables 1 and 2 of the paper (adapted from Gray & Reuter) define the
compatibility and conversion matrices for Vertica's lock modes:

* ``S``  (Shared)       — prevents concurrent modification; SERIALIZABLE reads
* ``I``  (Insert)       — data insertion; compatible with itself so bulk
  loads run concurrently (critical for ingest rates)
* ``SI`` (SharedInsert) — read and insert, but not update/delete
* ``X``  (eXclusive)    — deletes and updates
* ``T``  (Tuple mover)  — short tuple mover operations on delete vectors
* ``U``  (Usage)        — parts of moveout/mergeout; compatible with all but O
* ``O``  (Owner)        — significant DDL; compatible with nothing

Most queries take **no locks at all** (snapshot reads below the current
epoch, section 5); the lock manager exists for writers, the tuple mover
and DDL.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum

from ..errors import DeadlockError, LockTimeoutError, TransactionError
from ..lint.concur.runtime import TrackedLock
from ..monitor import METRICS


class LockMode(str, Enum):
    """The seven lock modes of Table 1/2."""

    S = "S"
    I = "I"  # noqa: E741 - the paper's name
    SI = "SI"
    X = "X"
    T = "T"
    U = "U"
    O = "O"  # noqa: E741 - the paper's name


_MODES = [LockMode.S, LockMode.I, LockMode.SI, LockMode.X, LockMode.T, LockMode.U, LockMode.O]

# Table 1: rows = requested mode, columns = granted (held) mode.
_COMPATIBILITY_ROWS = {
    LockMode.S: (True, False, False, False, True, True, False),
    LockMode.I: (False, True, False, False, True, True, False),
    LockMode.SI: (False, False, False, False, True, True, False),
    LockMode.X: (False, False, False, False, False, True, False),
    LockMode.T: (True, True, True, False, True, True, False),
    LockMode.U: (True, True, True, True, True, True, False),
    LockMode.O: (False, False, False, False, False, False, False),
}

# Table 2: rows = requested mode, columns = granted (held) mode; the
# cell is the mode the lock converts to when one transaction already
# holding `granted` requests `requested`.
_CONVERSION_ROWS = {
    LockMode.S: (LockMode.S, LockMode.SI, LockMode.SI, LockMode.X, LockMode.S, LockMode.S, LockMode.O),
    LockMode.I: (LockMode.SI, LockMode.I, LockMode.SI, LockMode.X, LockMode.I, LockMode.I, LockMode.O),
    LockMode.SI: (LockMode.SI, LockMode.SI, LockMode.SI, LockMode.X, LockMode.SI, LockMode.SI, LockMode.O),
    LockMode.X: (LockMode.X, LockMode.X, LockMode.X, LockMode.X, LockMode.X, LockMode.X, LockMode.O),
    LockMode.T: (LockMode.S, LockMode.I, LockMode.SI, LockMode.X, LockMode.T, LockMode.T, LockMode.O),
    LockMode.U: (LockMode.S, LockMode.I, LockMode.SI, LockMode.X, LockMode.T, LockMode.U, LockMode.O),
    LockMode.O: (LockMode.O, LockMode.O, LockMode.O, LockMode.O, LockMode.O, LockMode.O, LockMode.O),
}


def compatible(requested: LockMode, granted: LockMode) -> bool:
    """Table 1 lookup: may ``requested`` be granted alongside ``granted``?"""
    return _COMPATIBILITY_ROWS[requested][_MODES.index(granted)]


def convert(requested: LockMode, granted: LockMode) -> LockMode:
    """Table 2 lookup: mode resulting from requesting ``requested``
    while already holding ``granted``."""
    return _CONVERSION_ROWS[requested][_MODES.index(granted)]


@dataclass
class _ObjectLocks:
    """Lock state for one lockable object (a table)."""

    holders: dict[int, LockMode] = field(default_factory=dict)


class LockManager:
    """Grants, converts and releases table locks for transactions.

    Incompatible requests either fail fast (the default,
    ``block=False`` — a wait that has already timed out, which keeps
    single-threaded protocol tests exact) or block on an internal
    condition variable until the conflicting holders release or
    ``timeout`` elapses.

    Either way, every incompatible request first runs **waits-for-graph
    deadlock detection**: if granting would make the requester wait on
    a transaction that is (transitively) already waiting on the
    requester, the request raises :class:`DeadlockError` instead of
    waiting.  Victim selection is deterministic — the transaction whose
    request *closes* the cycle is the victim; the transactions already
    parked keep waiting and are woken when the victim's locks are
    released by its rollback.

    Blocking waits are additionally **cancellable**: ``acquire`` takes
    an optional ``cancel`` callable that is invoked before parking and
    after every wakeup; when a statement has been cancelled or timed
    out the callable raises (:class:`QueryCancelledError` or a
    subclass), the wait unwinds, and — the critical cleanup contract —
    the waiter's condition-variable registration and waits-for edges
    are removed *before* the exception escapes.  A waiter that has
    timed out or been cancelled therefore can never be observed by a
    later deadlock search, and can never be chosen as a victim for a
    cycle it is no longer part of.  External cancellers call
    :meth:`wake_waiters` after flipping their flag so parked threads
    re-check promptly.
    """

    def __init__(self):
        self._cond = threading.Condition(TrackedLock("LockManager._cond"))
        self._objects: dict[str, _ObjectLocks] = {}  # concurrency: guarded-by(self._cond)
        #: txn id -> (object, target mode) it is currently parked on.
        self._waiting: dict[int, tuple[str, LockMode]] = {}  # concurrency: guarded-by(self._cond)
        #: Optional Data Collector (duck-typed; set by the cluster).
        #: Waits, deadlock victims and timeouts land in
        #: ``dc_lock_waits``.  The collector's internal mutex nests
        #: strictly inside ``self._cond`` and takes no further locks;
        #: recording defers segment flushes so no disk I/O (or injected
        #: ``dc.flush.*`` fault) ever runs inside this critical section.
        self.collector = None

    def _dc_record(self, outcome: str, txn_id: int, obj: str,
                   mode: LockMode, blocker, detail: str = "") -> None:
        """Mirror one lock-contention incident into the collector."""
        if self.collector is None:
            return
        self.collector.record(
            "lock_waits",
            outcome,
            defer_flush=True,
            txn_id=txn_id,
            object_name=obj,
            mode=mode.value,
            blocker_txn=blocker[0] if blocker else None,
            detail=detail,
        )

    def acquire(
        self,
        txn_id: int,
        obj: str,
        mode: LockMode,
        *,
        block: bool = False,
        timeout: float = 1.0,
        cancel=None,
    ) -> LockMode:
        """Acquire (or convert to) ``mode`` on ``obj`` for ``txn_id``.

        Returns the mode actually held after the call (conversion can
        strengthen it, e.g. holding I and requesting S yields SI).
        Raises :class:`DeadlockError` if waiting would close a cycle in
        the waits-for graph, :class:`LockTimeoutError` if the request
        stays blocked (immediately when ``block=False``, after
        ``timeout`` seconds otherwise).  ``cancel``, when given, is a
        zero-argument callable invoked before parking and after every
        wakeup; it raises to abandon the wait (statement cancellation
        / timeout), and the waiter is deregistered before the
        exception propagates.  It runs under the manager's
        (non-reentrant) mutex, so it must not call back into the
        manager.
        """
        from ..trace import TRACER

        with TRACER.span(
            "lock.acquire",
            category="lock",
            txn=txn_id,
            object=obj,
            mode=mode.value,
        ) as span:
            granted = self._acquire(txn_id, obj, mode, block, timeout, cancel)
            if span is not None:
                span.attrs["granted"] = granted.value
            return granted

    def _acquire(
        self,
        txn_id: int,
        obj: str,
        mode: LockMode,
        block: bool,
        timeout: float,
        cancel=None,
    ) -> LockMode:
        with self._cond:
            state = self._objects.setdefault(obj, _ObjectLocks())
            current = state.holders.get(txn_id)
            target = mode if current is None else convert(mode, current)
            METRICS.inc("locks.requests")
            if current is not None and target is not current:
                METRICS.inc("locks.conversions")
            blocker = self._blocking_holder(state, txn_id, target)
            if blocker is not None:
                METRICS.inc("locks.waits")
                if current is not None:
                    METRICS.inc("locks.upgrade_conflicts")
                self._dc_record(
                    "wait", txn_id, obj, target, blocker,
                    f"blocked by txn {blocker[0]} holding "
                    f"{blocker[1].value}",
                )
                self._check_deadlock(txn_id, obj, target)
                if block:
                    blocker = self._wait_for_grant(
                        txn_id, obj, target, timeout, cancel
                    )
                if blocker is not None:
                    other_txn, other_mode = blocker
                    self._dc_record(
                        "timeout", txn_id, obj, target, blocker,
                        f"gave up; txn {other_txn} still holds "
                        f"{other_mode.value}",
                    )
                    raise LockTimeoutError(
                        f"txn {txn_id} cannot take {target.value} on "
                        f"{obj!r}: txn {other_txn} holds {other_mode.value}"
                    )
                # woken and grantable: recompute the conversion target
                # against whatever the txn still holds.
                current = state.holders.get(txn_id)
                target = mode if current is None else convert(mode, current)
            state.holders[txn_id] = target
            METRICS.inc(f"locks.granted.{target.value}")
            return target

    @staticmethod
    def _blocking_holder(
        state: _ObjectLocks, txn_id: int, target: LockMode
    ) -> tuple[int, LockMode] | None:
        """First (txn, mode) holder incompatible with ``target``, if any."""
        for other_txn in sorted(state.holders):
            if other_txn == txn_id:
                continue
            other_mode = state.holders[other_txn]
            if not compatible(target, other_mode):
                return other_txn, other_mode
        return None

    def _wait_for_grant(
        self,
        txn_id: int,
        obj: str,
        target: LockMode,
        timeout: float,
        cancel=None,
    ) -> tuple[int, LockMode] | None:
        """Park on the condition until grantable, ``timeout`` elapses,
        or ``cancel`` raises.

        Returns None once grantable, else the still-blocking holder.
        Caller holds ``self._cond``.  The ``finally`` below is the
        cleanup contract every exit path (grant, timeout, cancellation,
        even an unexpected error) shares: the waiter's registration —
        and with it every waits-for edge other transactions' deadlock
        searches could traverse — is gone before control leaves this
        frame, so a dead waiter can never be picked as a deadlock
        victim later.
        """
        state = self._objects[obj]
        self._waiting[txn_id] = (obj, target)
        try:
            deadline = time.monotonic() + timeout
            while True:
                if cancel is not None:
                    cancel()
                blocker = self._blocking_holder(state, txn_id, target)
                if blocker is None:
                    return None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return blocker
                # wake at least every WAKE_SLICE seconds so an external
                # cancel (which may race the notify) is never missed.
                self._cond.wait(min(remaining, self.WAKE_SLICE))
        finally:
            del self._waiting[txn_id]

    #: Upper bound between cancel-flag re-checks while parked, seconds.
    WAKE_SLICE = 0.05

    def wake_waiters(self) -> None:
        """Wake every parked waiter so it re-checks grantability and
        its cancel flag.  Called by cancellers after flipping a
        statement's cancel flag (the flag lives outside the lock
        manager, so the notify here is what makes cancellation of a
        lock wait prompt rather than WAKE_SLICE-bounded)."""
        with self._cond:
            self._cond.notify_all()

    # -- deadlock detection ---------------------------------------------

    def _waits_for(self, txn_id: int, obj: str, target: LockMode) -> list[int]:
        """Transactions ``txn_id`` would wait on for ``target`` on ``obj``."""
        state = self._objects.get(obj)
        if state is None:
            return []
        return sorted(
            other_txn
            for other_txn, other_mode in state.holders.items()
            if other_txn != txn_id and not compatible(target, other_mode)
        )

    def _check_deadlock(
        self, txn_id: int, obj: str, target: LockMode
    ) -> None:
        """Raise :class:`DeadlockError` if waiting would close a cycle.

        DFS over the waits-for graph starting from the transactions the
        new request would wait on; neighbours are visited in sorted
        order, so the reported cycle is deterministic.  Caller holds
        ``self._cond``.
        """
        path: list[int] = []
        seen: set[int] = set()

        def edges(waiter: int) -> list[int]:
            if waiter == txn_id:
                return self._waits_for(txn_id, obj, target)
            parked = self._waiting.get(waiter)
            if parked is None:
                return []
            return self._waits_for(waiter, parked[0], parked[1])

        def visit(waiter: int) -> list[int] | None:
            if waiter == txn_id:
                return [txn_id] + path
            if waiter in seen:
                return None
            seen.add(waiter)
            path.append(waiter)
            for nxt in edges(waiter):
                cycle = visit(nxt)
                if cycle is not None:
                    return cycle
            path.pop()
            return None

        for first in edges(txn_id):
            cycle = visit(first)
            if cycle is not None:
                METRICS.inc("locks.deadlocks")
                chain = " -> ".join(f"txn {t}" for t in cycle + [cycle[0]])
                self._dc_record(
                    "deadlock_victim", txn_id, obj, target,
                    (cycle[0], target), f"cycle {chain}",
                )
                raise DeadlockError(
                    f"deadlock detected: txn {txn_id} waiting for "
                    f"{target.value} on {obj!r} would close the cycle "
                    f"{chain}; txn {txn_id} chosen as victim",
                    cycle=cycle,
                )

    # -- release / introspection ----------------------------------------

    def release(self, txn_id: int, obj: str) -> None:
        """Release the lock ``txn_id`` holds on ``obj``."""
        with self._cond:
            state = self._objects.get(obj)
            if state is None or txn_id not in state.holders:
                raise TransactionError(
                    f"txn {txn_id} holds no lock on {obj!r}"
                )
            del state.holders[txn_id]
            self._cond.notify_all()

    def release_all(self, txn_id: int) -> None:
        """Release every lock held by ``txn_id`` (commit/rollback)."""
        with self._cond:
            for state in self._objects.values():
                state.holders.pop(txn_id, None)
            self._cond.notify_all()

    def held(self, txn_id: int, obj: str) -> LockMode | None:
        """Mode ``txn_id`` currently holds on ``obj``, if any."""
        with self._cond:
            state = self._objects.get(obj)
            return state.holders.get(txn_id) if state else None

    def holders_of(self, obj: str) -> dict[int, LockMode]:
        """All current holders of ``obj`` (for monitoring)."""
        with self._cond:
            state = self._objects.get(obj)
            return dict(state.holders) if state else {}

    def granted(self) -> list[tuple[str, int, str]]:
        """Every granted lock as sorted (object, txn id, mode) triples —
        the one snapshot both monitoring views read."""
        with self._cond:
            return [
                (obj, txn_id, mode.value)
                for obj, state in sorted(self._objects.items())
                for txn_id, mode in sorted(state.holders.items())
            ]

    def waiting(self) -> dict[int, tuple[str, str]]:
        """Parked waiters: txn id -> (object, requested mode)."""
        with self._cond:
            return {
                txn: (obj, target.value)
                for txn, (obj, target) in self._waiting.items()
            }

    # -- matrix rendering (Table 1 / Table 2 benches) -------------------

    @staticmethod
    def compatibility_matrix() -> dict[tuple[str, str], bool]:
        """All 49 cells of Table 1, keyed (requested, granted)."""
        return {
            (requested.value, granted.value): compatible(requested, granted)
            for requested in _MODES
            for granted in _MODES
        }

    @staticmethod
    def conversion_matrix() -> dict[tuple[str, str], str]:
        """All 49 cells of Table 2, keyed (requested, granted)."""
        return {
            (requested.value, granted.value): convert(requested, granted).value
            for requested in _MODES
            for granted in _MODES
        }

    @staticmethod
    def modes() -> list[str]:
        """Mode names in the paper's row/column order."""
        return [mode.value for mode in _MODES]
