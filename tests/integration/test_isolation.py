"""Isolation-level semantics tests (section 5)."""

import pytest

from repro import ColumnDef, Database, IsolationLevel, TableDefinition, types
from repro.execution import AggregateSpec, ColumnRef
from repro.optimizer import GroupByNode, ScanNode
from storage_helpers import read_table

C = ColumnRef


def count_plan():
    return GroupByNode(
        ScanNode("t", ["k"]), [], [AggregateSpec("COUNT", None, "n")]
    )


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1)
    db.create_table(
        TableDefinition("t", [ColumnDef("k", types.INTEGER)], primary_key=("k",))
    )
    db.load("t", [{"k": i} for i in range(100)])
    return db


class TestReadCommitted:
    def test_snapshot_refreshes_per_statement(self, db):
        reader = db.session()
        assert reader.query(count_plan()) == [{"n": 100}]
        db.load("t", [{"k": 1000}])
        assert reader.query(count_plan()) == [{"n": 101}]

    def test_queries_take_no_locks(self, db):
        reader = db.session()
        reader.query(count_plan())
        assert db.sql("SELECT * FROM v_monitor.locks") == []
        # a writer is never blocked by the reader
        writer = db.session()
        writer.delete("t", C("k") == 1)
        writer.commit()


class TestSerializable:
    def test_snapshot_pinned_for_transaction(self, db):
        reader = db.session(isolation=IsolationLevel.SERIALIZABLE)
        assert reader.query(count_plan()) == [{"n": 100}]
        # another session wants to write: blocked by the S lock
        from repro.errors import LockTimeoutError

        writer = db.session()
        with pytest.raises(LockTimeoutError):
            writer.delete("t", C("k") == 1)
        # the reader keeps seeing its snapshot even after new inserts
        # by sessions that only need the I lock (compatible? no: S vs I
        # is incompatible too — inserts also blocked)
        with pytest.raises(LockTimeoutError):
            writer.insert("t", [{"k": 5000}])
        reader.commit()
        writer.insert("t", [{"k": 5000}])
        writer.commit()

    def test_repeatable_reads_within_txn(self, db):
        reader = db.session(isolation=IsolationLevel.SERIALIZABLE)
        first = reader.query(count_plan())
        # sneak a commit through a different table path: create second
        # table and write there (no lock conflict with reader's S on t)
        db.sql("CREATE TABLE u (x INTEGER)")
        db.sql("INSERT INTO u VALUES (1)")
        # reader's snapshot is pinned: still the old epoch for t
        second = reader.query(count_plan())
        assert first == second
        reader.commit()


class TestRollbackSemantics:
    def test_rollback_discards_everything(self, db):
        session = db.session()
        session.insert("t", [{"k": 777}])
        session.delete("t", C("k") == 0)
        session.rollback()
        rows = db.session().query(count_plan())
        assert rows == [{"n": 100}]  # neither insert nor delete applied

    def test_committed_txn_cannot_continue(self, db):
        session = db.session()
        session.insert("t", [{"k": 888}])
        session.commit()
        # a new implicit transaction starts transparently
        session.insert("t", [{"k": 889}])
        session.commit()
        assert db.session().query(count_plan()) == [{"n": 102}]

    def test_update_sees_own_pending_rows(self, db):
        # UPDATE sees the txn's own pending inserts: the buffered row is
        # replaced by its updated copy, and only that copy commits.
        session = db.session()
        session.insert("t", [{"k": 950}])
        changed = session.update("t", {"k": 951}, C("k") == 950)
        assert changed == 1
        session.commit()
        final = {row["k"] for row in read_table(db.cluster, "t", db.latest_epoch)}
        assert 951 in final and 950 not in final
