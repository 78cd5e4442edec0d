"""Transaction state objects.

A transaction buffers its own writes privately (they reach the WOS/ROS
only at commit, which is what lets rollback "simply entail discarding
any ROS container or WOS data created by the transaction").  Reads run
against the snapshot at the transaction's epoch; READ COMMITTED
refreshes the snapshot each statement, SERIALIZABLE pins it and takes
table S locks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from ..errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..execution.expressions import Expr
    from ..storage import HistoryRun


class IsolationLevel(str, Enum):
    """Supported isolation levels (section 5)."""

    READ_COMMITTED = "READ COMMITTED"
    SERIALIZABLE = "SERIALIZABLE"


class TxnStatus(str, Enum):
    """Lifecycle of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class PendingDelete:
    """A buffered DELETE: a predicate over rows of one table."""

    table: str
    predicate: Expr
    #: The statement's SQL text, when it came from SQL.
    sql_text: str | None = None


@dataclass
class Transaction:
    """One client transaction."""

    txn_id: int
    isolation: IsolationLevel = IsolationLevel.READ_COMMITTED
    #: Snapshot epoch for reads; refreshed per statement under READ
    #: COMMITTED, pinned at start under SERIALIZABLE.
    snapshot_epoch: int = 0
    status: TxnStatus = TxnStatus.ACTIVE
    #: table -> the rows buffered for insert, one columnar run per
    #: table (every table column; epochs 0 until the commit stamps its
    #: own).
    pending_inserts: dict[str, HistoryRun] = field(default_factory=dict)
    pending_deletes: list[PendingDelete] = field(default_factory=list)
    #: Whether the transaction performed any DML (drives epoch advance).
    has_dml: bool = False
    #: Load operations flagged direct-to-ROS (section 7).
    direct_to_ros: bool = False

    def check_active(self) -> None:
        """Raise unless the transaction can still execute statements."""
        if self.status is not TxnStatus.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.status.value}"
            )

    def buffer_insert(self, table: str, run: HistoryRun) -> None:
        """Queue a run of rows for insertion at commit.  The transaction
        takes the run's lists over: a later run for the same table is
        appended to the first one's."""
        self.check_active()
        buffered = self.pending_inserts.get(table)
        if buffered is None:
            self.pending_inserts[table] = run
        else:
            for name, values in buffered.columns.items():
                values.extend(run.columns[name])
            buffered.epochs.extend(run.epochs)
        self.has_dml = True

    def buffer_delete(self, table: str, predicate, sql_text: str | None = None) -> None:
        """Queue a delete-by-predicate for commit."""
        self.check_active()
        self.pending_deletes.append(PendingDelete(table, predicate, sql_text))
        self.has_dml = True
