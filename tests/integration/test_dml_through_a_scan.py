"""SQL DELETE and UPDATE through the plan agree with the row path.

The product finds a DELETE's victims with a Scan (pruning, seek, kernel
predicate) and an UPDATE's new rows with that Scan under an ExprEval of
the SET list.  The oracle here is the row path those replaced, kept
test-side: every row ``storage_helpers.read_table`` returns at the
snapshot, tested with ``Expr.evaluate_row``, the SET list evaluated the
same way.

A table with NULLs, NaNs and duplicate rows, in ROS containers and in
the WOS, takes a fixed list of statements — NULL, NaN, LIKE, IN,
BETWEEN, OR / NOT and arithmetic (the kernels' generic leaf) — on 1 and
3 nodes, with one of the three down.  Per statement, the victim
multiset handed to ``Cluster.commit_dml``, the rows it inserts and the
table after the commit must equal the oracle's.
"""

import math
from collections import Counter

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.cluster import Cluster
from repro.execution import ColumnRef
from repro.sql.analyzer import Analyzer
from repro.sql.interface import _single_table_scope
from repro.sql.parser import parse
from storage_helpers import read_table, rows_of, rows_where

NAN = math.nan
STATEMENTS = [
    "DELETE FROM t WHERE x IS NULL AND k < 4",
    "UPDATE t SET x = x + 1, s = 'u' WHERE s LIKE 'a%'",
    "DELETE FROM t WHERE x > 2.5",
    "UPDATE t SET k = k * 2 WHERE NOT (x > 1.5)",
    "DELETE FROM t WHERE s NOT LIKE '%b' AND k BETWEEN 5 AND 9",
    "UPDATE t SET s = NULL WHERE k IN (1, 3, 5)",
    "DELETE FROM t WHERE s IN ('b', NULL)",
    "DELETE FROM t WHERE k % 5 = 1",
    "UPDATE t SET x = k % 3 WHERE NOT k BETWEEN 2 AND 12 OR x <> x",
    "DELETE FROM t WHERE k < 3 OR s = 'u'",
    "DELETE FROM t WHERE NOT (k = 14 OR x < 0.5)",
]


def table_rows():
    rows = []
    for i in range(240):
        x = None if i % 11 == 0 else NAN if i % 13 == 0 else (i * 7 % 31) / 10
        s = None if i % 17 == 0 else ("ab", "b", "ba", "cab")[i % 4]
        rows.append({"k": i % 16, "x": x, "s": s})  # duplicate rows
    return rows


def build(path, node_count):
    db = Database(
        str(path), node_count=node_count, k_safety=1 if node_count > 1 else 0,
        durable=False,
    )
    db.create_table(
        TableDefinition(
            "t",
            [
                ColumnDef("k", types.INTEGER),
                ColumnDef("x", types.FLOAT),
                ColumnDef("s", types.VARCHAR),
            ],
        ),
        sort_order=["k", "s"],
    )
    rows = table_rows()
    db.load("t", rows[:100], direct_to_ros=True)
    db.load("t", rows[100:180], direct_to_ros=True)
    db.load("t", rows[180:])  # the WOS
    return db


def key(row):
    return tuple(sorted((name, repr(value)) for name, value in row.items()))


def multiset(rows):
    return Counter(map(key, rows))


def oracle(db, text):
    """(victims, inserted rows) of ``text`` by the row path."""
    statement = parse(text)
    catalog = db.cluster.catalog
    scope = _single_table_scope(catalog, "t")
    analyzer = Analyzer(catalog)
    where = analyzer.convert(statement.where, scope)
    victims = rows_where(
        db.cluster, "t", lambda row: where.evaluate_row(row) is True, db.latest_epoch
    )
    assignments = {
        column: analyzer.convert(expr, scope)
        for column, expr in getattr(statement, "assignments", {}).items()
    }
    inserted = [
        {**row, **{column: expr.evaluate_row(row) for column, expr in assignments.items()}}
        for row in victims
    ] if assignments else []
    return victims, inserted


@pytest.fixture
def commits(monkeypatch):
    """The (inserts, deletes) of every ``Cluster.commit_dml`` call."""
    seen = []
    commit_dml = Cluster.commit_dml

    def spying(self, inserts, deletes, *args, **kwargs):
        seen.append((inserts, deletes))
        return commit_dml(self, inserts, deletes, *args, **kwargs)

    monkeypatch.setattr(Cluster, "commit_dml", spying)
    return seen


@pytest.mark.parametrize("layout", ["1-node", "3-node", "3-node-one-down"])
def test_dml_through_the_plan_equals_the_row_path(tmp_path, commits, layout):
    db = build(tmp_path / "db", 1 if layout == "1-node" else 3)
    if layout.endswith("down"):
        db.fail_node(1)
    columns = db.cluster.catalog.table("t").columns
    for text in STATEMENTS:
        victims, inserted = oracle(db, text)
        before = multiset(read_table(db.cluster, "t", db.latest_epoch))
        commits.clear()
        db.sql(text)
        ((got_inserts, got_deletes),) = commits
        assert [table for table, _ in got_deletes] == ["t"], text
        assert multiset(rows_of(got_deletes[0][1])) == multiset(victims), text
        got = got_inserts["t"].rows() if "t" in got_inserts else []
        assert multiset(got) == multiset(inserted), text
        stored = [
            {column.name: column.dtype.validate(row[column.name]) for column in columns}
            for row in inserted
        ]
        after = multiset(read_table(db.cluster, "t", db.latest_epoch))
        assert after == before - multiset(victims) + multiset(stored), text


def test_deletes_of_one_transaction_are_one_victim_multiset(tmp_path, commits):
    """Two SQL DELETEs, and then one more from the Python API, in one
    transaction: a row more than one of them selects is deleted once."""
    db = build(tmp_path / "db", 3)
    first, second = "DELETE FROM t WHERE k < 4", "DELETE FROM t WHERE x > 2.5"
    for api_too in (False, True):
        victims = {key(row): row for text in (first, second) for row in oracle(db, text)[0]}
        if api_too:
            nines = rows_where(db.cluster, "t", lambda row: row["k"] == 9, db.latest_epoch)
            victims.update((key(row), row) for row in nines)
        want = [
            row for row in read_table(db.cluster, "t", db.latest_epoch) if key(row) in victims
        ]
        commits.clear()
        session = db.session()
        session.sql(first)
        session.sql(second)
        if api_too:
            session.delete("t", ColumnRef("k") == 9)
        session.commit()
        ((_, got_deletes),) = commits
        assert multiset(rows_of(got_deletes[0][1])) == multiset(want)


def test_a_dml_predicate_is_an_expression(tmp_path, commits):
    """A Python callable is no DELETE / UPDATE predicate: it is refused
    before the statement takes a lock or buffers anything."""
    db = build(tmp_path / "db", 1)
    commits.clear()
    session = db.session()
    with pytest.raises(TypeError, match="Expr"):
        session.delete("t", lambda row: row["k"] == 9)
    with pytest.raises(TypeError, match="Expr"):
        session.update("t", {"s": "u"}, lambda row: row["k"] == 9)
    assert db.cluster.locks.holders_of("t") == {}
    session.commit()
    assert commits == []


def test_an_update_sees_the_transactions_earlier_update(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=1, durable=False)
    db.create_table(
        TableDefinition(
            "t", [ColumnDef(name, types.INTEGER) for name in ("k", "a", "b")]
        )
    )
    db.load("t", [{"k": 3, "a": 0, "b": 0}])
    session = db.session()
    session.sql("UPDATE t SET a = a + 1 WHERE k = 3")
    session.sql("UPDATE t SET a = a + 1 WHERE k = 3")
    session.commit()
    assert db.sql("SELECT k, a, b FROM t") == [{"k": 3, "a": 2, "b": 0}]


@pytest.mark.parametrize(
    "statements, want",
    [
        (  # an UPDATE sees the transaction's own INSERT
            ["INSERT INTO t VALUES (5, 0, 0)", "UPDATE t SET a = a + 7 WHERE k = 5"],
            [(3, 0, 0), (5, 7, 0)],
        ),
        (  # a DELETE sees the transaction's own UPDATE
            ["UPDATE t SET a = 9 WHERE k = 3", "DELETE FROM t WHERE a = 9"],
            [],
        ),
        (  # a DELETE takes an own insert out, not a later one
            [
                "INSERT INTO t VALUES (5, 1, 0)",
                "DELETE FROM t WHERE k = 5",
                "INSERT INTO t VALUES (5, 2, 0)",
            ],
            [(3, 0, 0), (5, 2, 0)],
        ),
        (  # a row an earlier DELETE leaves NULL is still there to update
            [
                "INSERT INTO t VALUES (4, NULL, 1)",
                "DELETE FROM t WHERE a < 1",
                "UPDATE t SET b = b + 1 WHERE k > 0",
            ],
            [(4, None, 2)],
        ),
    ],
)
def test_a_statement_sees_its_transactions_writes(tmp_path, statements, want):
    db = Database(str(tmp_path / "db"), node_count=3, durable=False)
    db.create_table(
        TableDefinition(
            "t", [ColumnDef(name, types.INTEGER) for name in ("k", "a", "b")]
        )
    )
    db.load("t", [{"k": 3, "a": 0, "b": 0}])
    session = db.session()
    for text in statements:
        session.sql(text)
    session.commit()
    got = sorted(tuple(row.values()) for row in db.sql("SELECT k, a, b FROM t"))
    assert got == want


def test_a_select_sees_its_transactions_writes(tmp_path):
    """Inside the transaction a SELECT sees its own inserts and not its
    own deletes — also through a narrow projection that lacks the
    DELETE's column, which the planner must then pass over."""
    db = Database(str(tmp_path / "db"), node_count=3, durable=False)
    db.create_table(
        TableDefinition(
            "t", [ColumnDef(name, types.INTEGER) for name in ("k", "a", "b")]
        ),
        sort_order=["k"],
    )
    db.sql(
        "CREATE PROJECTION t_k (k) AS SELECT k FROM t ORDER BY k "
        "SEGMENTED BY HASH(k) ALL NODES"
    )
    db.load("t", [{"k": k, "a": k % 3, "b": 0} for k in range(30)], direct_to_ros=True)
    db.load("t", [{"k": k, "a": k % 3, "b": 0} for k in range(30, 40)])  # the WOS
    db.analyze_statistics()
    session = db.session()
    session.sql("DELETE FROM t WHERE a = 1")
    session.sql("UPDATE t SET b = 5 WHERE k < 6")
    session.sql("INSERT INTO t VALUES (100, 1, 0)")
    kept = [k for k in range(40) if k % 3 != 1] + [100]
    assert [row["k"] for row in session.sql("SELECT k FROM t ORDER BY k")] == kept
    assert session.sql("SELECT count(*) AS n FROM t WHERE b = 5") == [{"n": 4}]
    session.commit()
    assert [row["k"] for row in db.sql("SELECT k FROM t ORDER BY k")] == kept
