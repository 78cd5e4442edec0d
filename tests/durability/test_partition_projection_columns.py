"""A projection of a partitioned table stores every column the partition
expression reads.

Each node keys a row's partition from its own copy of the row, so a
narrow projection that omits such a column cannot place its rows.  It
used to be accepted at DDL and to fail inside ``apply_commit`` — whose
contract is that nothing in it can reject a record: a direct-to-ROS
load raised *after* its record was journalled (gone from the live
database, back after a reopen), and an ordinary INSERT committed into
the WOS and then broke every mover cycle after the WOS was drained.
The DDL is refused instead, before anything is journalled.
"""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.errors import CatalogError

ROWS = [{"a": i % 3, "b": i, "c": float(i)} for i in range(30)]
NARROW = (
    "CREATE PROJECTION t_narrow ({columns}) AS SELECT {columns} FROM t "
    "ORDER BY b SEGMENTED BY HASH(b) ALL NODES"
)


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "db")


@pytest.fixture
def db(path):
    db = Database(path, node_count=3, k_safety=1)
    db.sql("CREATE TABLE t (a INTEGER, b INTEGER, c FLOAT) PARTITION BY a")
    return db


def counts(db):
    """Rows the table answers with, rows the narrow family stores."""
    narrow = db.cluster.catalog.family("t_narrow")
    return {
        "t": db.sql("SELECT count(*) AS n FROM t")[0]["n"],
        "t_narrow": len(db.cluster.collect_history(narrow)),
    }


def test_sql_projection_without_the_partition_column_is_refused(db, path):
    journalled = db.cluster.journal.record_count()
    with pytest.raises(CatalogError, match=r"omits \['a'\]"):
        db.sql(NARROW.format(columns="b, c"))
    assert db.cluster.journal.record_count() == journalled
    assert "t_narrow" not in db.cluster.catalog.families
    assert all(
        "t_narrow" not in node.manager.projection_names() for node in db.cluster.nodes
    )
    # and the table is as usable as before, across a reopen
    db.load("t", ROWS, direct_to_ros=True)
    del db
    assert Database.open(path).sql("SELECT count(*) AS n FROM t") == [{"n": 30}]


def test_a_partition_callable_is_refused(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=1)
    journalled = db.cluster.journal.record_count()
    with pytest.raises(TypeError, match="partition expression is an Expr"):
        db.create_table(
            TableDefinition(
                "t",
                [ColumnDef("a", types.INTEGER), ColumnDef("b", types.INTEGER)],
                partition_by=lambda row: row["a"] % 2,
            )
        )
    assert db.cluster.journal.record_count() == journalled
    assert "t" not in db.cluster.catalog.tables


def test_direct_load_survives_a_reopen_with_the_partition_column(db, path):
    db.sql(NARROW.format(columns="a, b"))
    db.load("t", ROWS, direct_to_ros=True)
    before = counts(db)
    assert before == {"t": 30, "t_narrow": 30}
    del db
    assert counts(Database.open(path)) == before


def test_insert_then_moveout_keeps_the_rows_with_the_partition_column(db):
    db.sql(NARROW.format(columns="a, b"))
    db.load("t", ROWS)
    for _ in range(2):  # the second cycle used to find the WOS emptied
        db.cluster.run_tuple_movers()
        assert counts(db) == {"t": 30, "t_narrow": 30}
    keys = {
        key
        for node in db.cluster.nodes
        for key in node.manager.partition_keys("t_narrow")
    }
    assert keys == {0, 1, 2}
