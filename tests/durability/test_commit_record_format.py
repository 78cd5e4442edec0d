"""The commit record holds each table's inserts as columns, and a
journal written when it held row dicts still opens.

``Journal.log_commit`` stores ``{table: {column: [values]}}``: a column
name once per table, and the lists ``Cluster.apply_commit`` turns into
a run without a pivot, at commit time and at cold start.  Before, the
record held a list of row dicts per table; cold start still reads that
form, pivoting it once where it decodes the record.  Three checks: the
record's form on disk, a row-dict record appended by hand to a journal's
tail, and a tail mixing both forms under the random transactions of
``test_apply_is_replay.py``, which must reopen copy for copy.
"""

from itertools import count

import pytest
from hypothesis import HealthCheck, given, settings
from test_apply_is_replay import build, copy_histories, run_transaction, steps

from repro import ColumnDef, Database, TableDefinition, types
from repro.durability import Journal
from repro.storage import HistoryRun


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


def test_a_commit_record_holds_columns(tmp_path):
    db = make(tmp_path / "db")
    db.sql("INSERT INTO t VALUES (1, 1.5, 'a'), (2, 2, NULL)")
    directory = db.cluster.journal.directory
    del db
    (commit,) = [
        record
        for record in Journal.open(directory).last_replay.records
        if record.kind == "commit"
    ]
    # checked: the int bound for FLOAT was journalled as a float
    assert commit.payload["inserts"] == {
        "t": {"k": [1, 2], "s": ["a", None], "x": [1.5, 2.0]}
    }


def test_a_row_dict_commit_record_replays_to_its_rows(tmp_path):
    path = tmp_path / "db"
    db = make(path)
    db.sql("INSERT INTO t VALUES (1, 1.5, 'columns')")
    # a commit the journal took, in the form records had before columns,
    # and the database crashed before applying it
    db.cluster.journal.log_commit(
        epoch=db.current_epoch,
        snapshot_epoch=db.latest_epoch,
        inserts={
            "t": [{"k": 2, "x": 2.5, "s": "rows"}, {"k": 3, "x": None, "s": None}]
        },
        deletes=[("t", [{"k": 1, "x": 1.5, "s": "columns"}])],
        direct_to_ros=False,
    )
    del db
    reopened = Database.open(str(path))
    assert reopened.replay_report.commits_replayed == 2
    assert reopened.replay_report.rows_reinserted == 3
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

    def every_other_as_rows(journal, *, inserts, **fields):
        if next(commits) % 2:
            inserts = {
                table: list(HistoryRun.stamped(columns, 0).rows())
                for table, columns in inserts.items()
            }
        return log_commit(journal, inserts=inserts, **fields)

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
