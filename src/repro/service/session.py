"""Service sessions: governed, cancellable statement execution.

A :class:`ServiceSession` is one client's connection to the
:class:`repro.service.SqlService`.  It wraps a core
:class:`repro.core.database.Session` (which owns the transaction and
its locks) and adds the workload-management lifecycle around every
statement:

1. **classify** — parse the statement once and decide whether it
   writes (INSERT/UPDATE/DELETE/COPY/DDL) or only reads;
2. **degradation gate** — writes are rejected fast with
   :class:`repro.errors.ReadOnlyModeError` while the service is
   degraded to read-only (quorum loss);
3. **admission** — the resource governor grants, queues or rejects the
   statement against the session's resource pool;
4. **governed run** — the statement executes with a fresh
   :class:`CancelToken` (deadline = statement timeout) installed on
   the core session, a workload policy sized to the pool grant, and
   the service's statement gate held shared;
5. **reclaim** — the pool grant, the cancel token, and (on error) the
   transaction's locks are released on every exit path, success or
   not.

States move ``idle → queued → running → idle`` (or ``closed``); the
``v_monitor.sessions`` table renders them live.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import (
    QueryCancelledError,
    QuorumLossError,
    ReadOnlyModeError,
    TransactionError,
)
from ..monitor import METRICS
from ..txn import IsolationLevel
from .cancel import CancelToken

#: Session lifecycle states (``v_monitor.sessions.state``).
IDLE = "idle"
QUEUED = "queued"
RUNNING = "running"
CLOSED = "closed"

#: AST statement class names that mutate data or metadata.
_WRITE_STATEMENTS = {
    "InsertStatement",
    "UpdateStatement",
    "DeleteStatement",
    "CopyStatement",
    "CreateTableStatement",
    "CreateProjectionStatement",
    "DropTableStatement",
}


class ServiceSession:
    """One governed client connection; created by ``SqlService.connect``."""

    def __init__(
        self,
        service,
        session_id: int,
        pool: str,
        isolation: IsolationLevel = IsolationLevel.READ_COMMITTED,
        statement_timeout_ticks: int | None = None,
    ):
        self.service = service
        self.session_id = session_id
        self.pool = pool
        #: None = no deadline; otherwise ticks from statement start to
        #: :class:`repro.errors.StatementTimeoutError`.
        self.statement_timeout_ticks = statement_timeout_ticks
        self._core = service.db.session(isolation)
        self._core.lock_block = True
        self._core.lock_timeout = service.lock_timeout_seconds
        # stamp the core session so the SQL front end can attribute
        # dc_requests_completed records to this session and pool.
        self._core.service_session_id = session_id
        self._core.service_pool = pool
        self.state = IDLE
        self.current_statement: str | None = None
        self.statements_run = 0
        self.statements_failed = 0
        self.last_error: str | None = None
        #: Token of the in-flight statement (None when idle); kept so
        #: :meth:`cancel` can reach a statement from another thread.
        self._token: CancelToken | None = None

    # -- introspection ----------------------------------------------------

    @property
    def txn_id(self) -> int | None:
        """The open transaction's id, if a transaction is open."""
        txn = self._core.txn
        return txn.txn_id if txn is not None else None

    @property
    def isolation(self) -> IsolationLevel:
        """The session's isolation level."""
        return self._core.isolation

    # -- statement execution ----------------------------------------------

    def execute(self, text: str, copy_rows: Iterable | None = None):
        """Execute one SQL statement through the full governed path.

        Returns what the SQL front end returns (rows for SELECT, plan
        text for EXPLAIN, a CopyResult for COPY...).  Raises
        :class:`AdmissionTimeoutError` when the pool turns the
        statement away, :class:`ReadOnlyModeError` for writes while
        degraded, :class:`QueryCancelledError` /
        :class:`StatementTimeoutError` when cancelled mid-flight, and
        :class:`DeadlockError` when this statement is the chosen
        victim (the transaction is rolled back first).
        """
        if self.state == CLOSED:
            raise TransactionError(
                f"session {self.session_id} is closed"
            )
        from ..sql.parser import parse

        # the statement's one parse: it says, before admission, whether
        # the statement writes (no guessing from keywords) and rejects a
        # malformed one; the front end is handed the result
        statement = parse(text)
        service = self.service
        if type(statement).__name__ in _WRITE_STATEMENTS:
            service.require_writable()
        token = CancelToken(
            clock=service.clock,
            deadline_tick=(
                service.clock.now + self.statement_timeout_ticks
                if self.statement_timeout_ticks is not None
                else None
            ),
        )
        self._token = token
        self.current_statement = text
        self.state = QUEUED
        try:
            ticket = service.governor.admit(
                self.pool,
                session_id=self.session_id,
                cancel=token.check,
            )
        except BaseException:
            self.state = IDLE
            self.current_statement = None
            self._token = None
            raise
        self.state = RUNNING
        try:
            result = self._run_governed(text, copy_rows, ticket, statement)
            self.statements_run += 1
            return result
        except QuorumLossError as exc:
            self._fail(exc)
            service.enter_read_only(str(exc))
            raise
        except BaseException as exc:
            self._fail(exc)
            raise
        finally:
            service.governor.release(ticket)
            self._core.cancel_token = None
            self._core.workload_policy = None
            self._token = None
            self.current_statement = None
            if self.state != CLOSED:
                self.state = IDLE

    def _run_governed(self, text: str, copy_rows, ticket, statement):
        """The single sanctioned entry into the SQL front end (replint
        R11): every service statement reaches ``execute_sql`` through
        here, carrying a pool grant, a cancel token, and the statement
        gate — never through ``Database.sql()``."""
        from ..execution.resource import WorkloadPolicy
        from ..sql import execute_sql

        service = self.service
        self._core.cancel_token = self._token
        self._core.workload_policy = WorkloadPolicy(
            query_memory_rows=ticket.memory_rows
        )
        with service.gate.shared():
            result = execute_sql(
                self._core, text, copy_rows=copy_rows, statement=statement
            )
        if service.autocommit and self._core.txn is not None:
            if self._core.txn.has_dml:
                self.commit()
            else:
                # read-only: commit at the snapshot epoch to release
                # the snapshot and any S locks; no apply step, so the
                # exclusive commit bracket is unnecessary.
                self._core.commit()
        METRICS.inc("service.statements")
        return result

    def _fail(self, exc: BaseException) -> None:
        """Error-path bookkeeping: roll back the open transaction (which
        releases its locks) and record the failure."""
        self.statements_failed += 1
        self.last_error = f"{type(exc).__name__}: {exc}"
        METRICS.inc("service.statement_errors")
        if self._core.txn is not None:
            self._core.rollback()

    # -- transaction control ----------------------------------------------

    def commit(self) -> int:
        """Commit the open transaction under the commit bracket of the
        statement gate; returns the commit epoch."""
        with self.service.gate.exclusive():
            return self._core.commit()

    def rollback(self) -> None:
        """Abort the open transaction and release its locks."""
        self._core.rollback()

    def cancel(self, reason: str = "cancelled by client") -> None:
        """Cancel the in-flight statement (callable from any thread).

        Cooperative: the statement observes the flag at its next
        checkpoint — operator pull, lock wakeup, admission wakeup —
        and unwinds with :class:`QueryCancelledError`.
        """
        token = self._token
        if token is not None:
            token.cancel(reason)
            # prod parked waiters so cancellation is prompt.
            self.service.db.cluster.locks.wake_waiters()
            self.service.governor.on_tick()

    def close(self) -> None:
        """End the session: roll back any open transaction, mark closed."""
        if self._core.txn is not None:
            self._core.rollback()
        self.state = CLOSED
        self.service._forget(self.session_id)
