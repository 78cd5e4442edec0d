"""The commit record holds each table's inserts and delete victims as
columns, and a journal written when they were row dicts still opens.

``Journal.log_commit`` stores ``{table: {column: [values]}}`` and
``[{table, columns: {column: [values]}}]``: a column name once per
table, and the lists ``Cluster.apply_commit`` turns into a run, or into
``delete_where``'s victims, without a pivot, at commit time and at cold
start.  Before, the record held row dicts; cold start still reads that
form, pivoting it once where it decodes the record.  Four checks: the
record's form on disk, a row-dict record appended by hand to a journal's
tail, a tail mixing both forms under the random transactions of
``test_apply_is_replay.py``, which must reopen copy for copy, and a
``create_table`` record holding its partition expression as the text
of the statement that made it.
"""

from itertools import count

import pytest
from hypothesis import HealthCheck, given, settings
from test_apply_is_replay import build, copy_histories, run_transaction, steps

from repro import ColumnDef, Database, TableDefinition, types
from repro.durability import Journal, encode_table
from storage_helpers import rows_of


def make(path) -> Database:
    db = Database(str(path), node_count=3, k_safety=1)
    db.create_table(
        TableDefinition(
            "t",
            [
                ColumnDef("k", types.INTEGER),
                ColumnDef("x", types.FLOAT),
                ColumnDef("s", types.VARCHAR),
            ],
        ),
        sort_order=["k"],
    )
    return db


def log_as_rows(journal, *, inserts, deletes, **fields):
    """Append a commit record in the form records had before columns."""
    return journal._append(
        "commit",
        {
            **fields,
            "inserts": {table: rows_of(columns) for table, columns in inserts.items()},
            "deletes": [
                {"table": table, "rows": rows_of(columns)} for table, columns in deletes
            ],
        },
    )


def test_a_commit_record_holds_columns(tmp_path):
    db = make(tmp_path / "db")
    db.sql("INSERT INTO t VALUES (1, 1.5, 'a'), (2, 2, NULL)")
    db.sql("DELETE FROM t WHERE k = 2")
    directory = db.cluster.journal.directory
    del db
    insert, delete = [
        record
        for record in Journal.open(directory).last_replay.records
        if record.kind == "commit"
    ]
    # checked: the int bound for FLOAT was journalled as a float
    assert insert.payload["inserts"] == {
        "t": {"k": [1, 2], "s": ["a", None], "x": [1.5, 2.0]}
    }
    assert delete.payload["deletes"] == [
        {"table": "t", "columns": {"k": [2], "x": [2.0], "s": [None]}}
    ]


def test_a_row_dict_commit_record_replays_to_its_rows(tmp_path):
    path = tmp_path / "db"
    db = make(path)
    db.sql("INSERT INTO t VALUES (1, 1.5, 'columns')")
    # a commit the journal took, in the form records had before columns,
    # and the database crashed before applying it
    log_as_rows(
        db.cluster.journal,
        epoch=db.current_epoch,
        snapshot_epoch=db.latest_epoch,
        inserts={"t": {"k": [2, 3], "x": [2.5, None], "s": ["rows", None]}},
        deletes=[("t", {"k": [1], "x": [1.5], "s": ["columns"]})],
        direct_to_ros=False,
    )
    del db
    reopened = Database.open(str(path))
    assert reopened.replay_report.commits_replayed == 2
    assert reopened.replay_report.rows_reinserted == 3
    assert reopened.replay_report.rows_redeleted == 1
    assert reopened.sql("SELECT k, x, s FROM t ORDER BY k") == [
        {"k": 2, "x": 2.5, "s": "rows"},
        {"k": 3, "x": None, "s": None},
    ]


@given(steps=steps)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_a_tail_mixing_both_forms_reopens_copy_for_copy(tmp_path_factory, steps):
    path = tmp_path_factory.mktemp("mixed") / "db"
    log_commit = Journal.log_commit
    commits = count()

    def every_other_as_rows(journal, **fields):
        as_rows = log_as_rows if next(commits) % 2 else log_commit
        return as_rows(journal, **fields)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Journal, "log_commit", every_other_as_rows)
        db = build(path)
        dims: list[int] = []
        for step in steps:
            if step == "movers":
                db.run_tuple_movers()
            else:
                run_transaction(db, step, dims)
    live = copy_histories(db)
    epoch = db.latest_epoch
    del db
    reopened = Database.open(str(path))
    assert reopened.latest_epoch == epoch
    assert copy_histories(reopened) == live


def test_a_create_table_record_holding_its_statement_text_reopens_partitioned(
    tmp_path, monkeypatch
):
    """Records written while ``partition_by`` was a callable kept only
    ``partition_by_text``, the statement's own text: the reopen parses
    and analyzes it as ``CREATE TABLE`` does."""
    path = tmp_path / "db"
    db = Database(str(path), node_count=3, k_safety=1)

    def as_written_before(table):
        return {**encode_table(table), "partition_by_text": "a % 3"}

    monkeypatch.setattr("repro.durability.encode_table", as_written_before)
    db.sql("CREATE TABLE p (a INTEGER, b INTEGER) PARTITION BY a % 3")
    monkeypatch.undo()
    del db
    reopened = Database.open(str(path))
    assert repr(reopened.cluster.catalog.table("p").partition_by) == "(a % 3)"
    reopened.load("p", [{"a": a, "b": a} for a in range(30)], direct_to_ros=True)
    primary = reopened.cluster.catalog.super_projection_for("p").primary.name
    assert {
        key for node in reopened.cluster.nodes for key in node.manager.partition_keys(primary)
    } == {0, 1, 2}
