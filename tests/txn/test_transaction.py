"""Tests for the Transaction state object."""

import pytest

from repro.errors import TransactionError
from repro.storage import HistoryRun
from repro.txn import IsolationLevel, Transaction, TxnStatus


def run_of(rows):
    """Rows of a one-column table ``a`` as the run a session buffers."""
    return HistoryRun.from_rows(["a"], rows, [0] * len(rows))


class TestLifecycle:
    def test_initial_state(self):
        txn = Transaction(txn_id=1)
        assert txn.status is TxnStatus.ACTIVE
        assert txn.isolation is IsolationLevel.READ_COMMITTED
        assert not txn.has_dml

    def test_buffering_marks_dml(self):
        txn = Transaction(txn_id=1)
        txn.buffer_insert("t", run_of([{"a": 1}]))
        assert txn.has_dml
        assert list(txn.pending_inserts["t"].rows()) == [{"a": 1}]
        assert "other" not in txn.pending_inserts

    def test_buffer_delete(self):
        txn = Transaction(txn_id=1)
        txn.buffer_delete("t", lambda row: True)
        assert txn.has_dml
        assert txn.pending_deletes[0].table == "t"

    def test_inserts_accumulate(self):
        txn = Transaction(txn_id=1)
        first = run_of([{"a": 1}])
        txn.buffer_insert("t", first)
        txn.buffer_insert("t", run_of([{"a": 2}]))
        # one run per table: the first run's lists take the later rows
        assert txn.pending_inserts["t"] is first
        assert first.columns == {"a": [1, 2]} and len(first) == 2

    def test_committed_txn_rejects_statements(self):
        txn = Transaction(txn_id=1)
        txn.status = TxnStatus.COMMITTED
        with pytest.raises(TransactionError):
            txn.buffer_insert("t", run_of([]))
        with pytest.raises(TransactionError):
            txn.check_active()

    def test_aborted_txn_rejects_statements(self):
        txn = Transaction(txn_id=1)
        txn.status = TxnStatus.ABORTED
        with pytest.raises(TransactionError):
            txn.buffer_delete("t", lambda row: True)
