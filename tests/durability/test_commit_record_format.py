"""The commit record holds each table's inserts and delete victims as
columns, and a ``create_table`` record its partition expression as text.

``Journal.log_commit`` stores ``{table: {column: [values]}}`` and
``[{table, columns: {column: [values]}}]``: a column name once per
table, and the lists ``Cluster.apply_commit`` turns into a run, or into
``delete_where``'s victims, without a pivot, at commit time and at cold
start.  Two checks: the record's form on disk, and a ``create_table``
record holding its partition expression as the text of the statement
that made it.
"""

from repro import ColumnDef, Database, TableDefinition, types
from repro.durability import Journal, encode_table


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
