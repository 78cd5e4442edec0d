"""The multi-session SQL service: front door, governor, degradation.

:class:`SqlService` is the concurrency boundary of the reproduction:
many client threads hold :class:`ServiceSession` objects and execute
statements concurrently; below the service, the engine keeps its
single-writer storage discipline (commits serialize through the
statement gate and the database commit lock; snapshot reads run lock
free).  The service owns:

* the **session registry** — numbered sessions with live state for
  ``v_monitor.sessions``;
* the **resource governor** — named pools admitting/queueing/rejecting
  statements (``v_monitor.resource_pools``);
* the **degradation ladder** — the ordered responses to trouble, each
  strictly smaller than the last:

  1. *healthy*: statements admitted and run;
  2. *pool saturation*: statements queue (bounded, tick-timed), then
     reject with :class:`AdmissionTimeoutError` — overload sheds load
     instead of piling it up;
  3. *slow/stuck statements*: statement timeouts and client
     cancellation unwind cooperatively, releasing locks, grants and
     spans;
  4. *deadlock*: exactly one transaction of the cycle is chosen victim
     (deterministically) and rolled back; the others proceed;
  5. *quorum loss*: the service steps down to **read-only** — writes
     fail fast with :class:`ReadOnlyModeError`, reads keep answering —
     and steps back up automatically once quorum returns.
"""

from __future__ import annotations


from ..errors import ReadOnlyModeError
from ..lint.concur.runtime import TrackedLock
from ..monitor import METRICS
from ..txn import IsolationLevel
from .gate import StatementGate
from .governor import PoolConfig, ResourceGovernor
from .session import CLOSED, ServiceSession


class SqlService:
    """A threaded, governed, multi-session front end over one Database."""

    def __init__(
        self,
        db,
        pools: list[PoolConfig] | None = None,
        default_pool: str = "general",
        statement_timeout_ticks: int | None = None,
        lock_timeout_seconds: float = 5.0,
        autocommit: bool = True,
    ):
        self.db = db
        self.clock = db.cluster.clock
        self.governor = ResourceGovernor(self.clock, pools)
        # admission outcomes land in dc_resource_acquisitions.
        self.governor.collector = getattr(db.cluster, "dc", None)
        self.default_pool = default_pool
        self.statement_timeout_ticks = statement_timeout_ticks
        self.lock_timeout_seconds = lock_timeout_seconds
        self.autocommit = autocommit
        self.gate = StatementGate()
        self._mutex = TrackedLock("SqlService._mutex")
        self._sessions: dict[int, ServiceSession] = {}  # concurrency: guarded-by(self._mutex)
        self._next_session = 1  # concurrency: guarded-by(self._mutex)
        self._read_only = False  # concurrency: guarded-by(self._mutex)
        self._read_only_reason = ""  # concurrency: guarded-by(self._mutex)
        db.service = self

    # -- sessions ----------------------------------------------------------

    def connect(
        self,
        pool: str | None = None,
        isolation: IsolationLevel = IsolationLevel.READ_COMMITTED,
        statement_timeout_ticks: int | None = None,
    ) -> ServiceSession:
        """Open a session bound to ``pool`` (default pool when None)."""
        with self._mutex:
            session_id = self._next_session
            self._next_session += 1
            session = ServiceSession(
                self,
                session_id,
                pool or self.default_pool,
                isolation=isolation,
                statement_timeout_ticks=(
                    statement_timeout_ticks
                    if statement_timeout_ticks is not None
                    else self.statement_timeout_ticks
                ),
            )
            self._sessions[session_id] = session
            METRICS.inc("service.sessions_opened")
            return session

    def _forget(self, session_id: int) -> None:
        """Drop a closed session from the registry."""
        with self._mutex:
            self._sessions.pop(session_id, None)

    def sessions(self) -> list[ServiceSession]:
        """Live sessions, ordered by id."""
        with self._mutex:
            return [self._sessions[k] for k in sorted(self._sessions)]

    def shutdown(self) -> None:
        """Cancel every in-flight statement and close every session."""
        for session in self.sessions():
            session.cancel("service shutdown")
        for session in self.sessions():
            if session.state != CLOSED:
                session.close()
        self.db.service = None

    # -- degradation ladder ------------------------------------------------

    @property
    def read_only(self) -> bool:
        """Whether the service is currently degraded to read-only."""
        with self._mutex:
            return self._read_only

    def enter_read_only(self, reason: str) -> None:
        """Step down: reject writes, keep serving reads (rung 5)."""
        with self._mutex:
            if not self._read_only:
                self._read_only = True
                self._read_only_reason = reason
                METRICS.inc("service.read_only_entered")
                METRICS.set_gauge("service.read_only", 1)

    def exit_read_only(self) -> None:
        """Step back up to read-write."""
        with self._mutex:
            if self._read_only:
                self._read_only = False
                self._read_only_reason = ""
                METRICS.set_gauge("service.read_only", 0)

    def require_writable(self) -> None:
        """Gate for write statements: raise
        :class:`ReadOnlyModeError` while degraded.  Steps down
        proactively when quorum is already gone (the write would only
        discover it at commit, after doing work), and steps back up
        automatically when quorum has returned.
        """
        if self.db.cluster.membership.has_quorum():
            self.exit_read_only()  # quorum returned: step back up and let the write run
        else:
            self.enter_read_only("quorum lost")
        with self._mutex:
            if self._read_only:
                raise ReadOnlyModeError(
                    f"service is read-only ({self._read_only_reason}); "
                    f"writes rejected until quorum returns"
                )

    # -- observability -----------------------------------------------------

    def session_rows(self) -> list[dict]:
        """One dict per live session for ``v_monitor.sessions``."""
        return [
            {
                "session_id": session.session_id,
                "state": session.state,
                "pool_name": session.pool,
                "isolation": session.isolation.name,
                "txn_id": session.txn_id,
                "current_statement": session.current_statement,
                "statements_run": session.statements_run,
                "statements_failed": session.statements_failed,
                "last_error": session.last_error,
            }
            for session in self.sessions()
        ]
