"""The statement gate: a writer-preference read/write lock.

Concurrent sessions interact with the storage substrate in exactly two
shapes: **statements** (snapshot reads and DML buffering — many at
once, touching only immutable committed state plus their own
transaction buffers) and **commit application** (one at a time,
mutating WOS buffers, delete vectors and ROS container maps for
everyone).  The service therefore brackets every statement body in the
*shared* side of this gate and every commit's apply step in the
*exclusive* side — the same division of labour as Vertica's global
catalog lock, which is held only for the commit critical section, not
for the life of a transaction.

Writer preference: once a committer is waiting, new readers queue
behind it.  Commits are short (they move buffered rows, they do not
scan), so preferring them bounds commit latency under read storms
instead of starving writers.

Deadlock safety: a shared holder may park inside the lock *manager*
(waiting for a table lock another session holds) while it holds this
gate; that wait is always bounded — lock waits carry timeouts and
cancel flags — so an exclusive waiter is delayed, never deadlocked.
The gate itself is never acquired while holding a lock-manager mutex
(gate → table locks is the only order that exists in the codebase:
``StatementGate._cond`` ranks below ``LockManager._cond`` in
``LOCK_RANKS``, and the sanitizer checks that at every acquire).
"""

from __future__ import annotations

import threading

from ..lint.concur.runtime import TrackedLock


class StatementGate:
    """Writer-preference shared/exclusive lock for statement vs commit."""

    def __init__(self):
        self._cond = threading.Condition(TrackedLock("StatementGate._cond"))
        self._readers = 0  # concurrency: guarded-by(self._cond)
        self._writer = False  # concurrency: guarded-by(self._cond)
        self._writers_waiting = 0  # concurrency: guarded-by(self._cond)

    # -- shared (statement) side ------------------------------------------

    def acquire_shared(self) -> None:
        """Enter the shared side; blocks while a commit runs or waits."""
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_shared(self) -> None:
        """Leave the shared side; wakes a waiting committer when last out."""
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- exclusive (commit) side ------------------------------------------

    def acquire_exclusive(self) -> None:
        """Enter the exclusive side; blocks until all statements drain."""
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
                self._writer = True
            finally:
                self._writers_waiting -= 1

    def release_exclusive(self) -> None:
        """Leave the exclusive side; wakes everyone."""
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    # -- context-manager sugar --------------------------------------------

    class _Side:
        """Context manager for one side of the gate."""

        __slots__ = ("_enter", "_exit")

        def __init__(self, enter, leave):
            self._enter = enter
            self._exit = leave

        def __enter__(self) -> None:
            self._enter()

        def __exit__(self, *exc: object) -> None:
            self._exit()

    def shared(self) -> "_Side":
        """``with gate.shared():`` — the statement bracket."""
        return self._Side(self.acquire_shared, self.release_shared)

    def exclusive(self) -> "_Side":
        """``with gate.exclusive():`` — the commit bracket."""
        return self._Side(self.acquire_exclusive, self.release_exclusive)
