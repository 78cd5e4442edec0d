"""SQL DELETE and UPDATE through the plan agree with the row path.

The product finds a DELETE's victims with a Scan (pruning, seek, kernel
predicate) and an UPDATE's new rows with that Scan under an ExprEval of
the SET list.  The oracle here is the row path those replaced, kept
test-side: every row ``Cluster.read_table`` returns at the snapshot,
tested with ``Expr.evaluate_row``, the SET list evaluated the same way.

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
from repro.sql.analyzer import Analyzer
from repro.sql.interface import _single_table_scope
from repro.sql.parser import parse
from storage_helpers import rows_where

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
        before = multiset(db.cluster.read_table("t", db.latest_epoch))
        commits.clear()
        db.sql(text)
        ((got_inserts, got_deletes),) = commits
        assert [table for table, _ in got_deletes] == ["t"], text
        assert multiset(got_deletes[0][1]) == multiset(victims), text
        got = got_inserts["t"].rows() if "t" in got_inserts else []
        assert multiset(got) == multiset(inserted), text
        stored = [
            {column.name: column.dtype.validate(row[column.name]) for column in columns}
            for row in inserted
        ]
        after = multiset(db.cluster.read_table("t", db.latest_epoch))
        assert after == before - multiset(victims) + multiset(stored), text


def test_deletes_of_one_transaction_are_one_victim_multiset(tmp_path, commits):
    """Two SQL DELETEs and a callable one in one transaction: a row more
    than one of them selects is deleted once, by the row path."""
    db = build(tmp_path / "db", 3)
    first, second = "DELETE FROM t WHERE k < 4", "DELETE FROM t WHERE x > 2.5"
    for callable_too in (False, True):
        victims = {key(row): row for text in (first, second) for row in oracle(db, text)[0]}
        if callable_too:
            odd = rows_where(db.cluster, "t", lambda row: row["k"] == 9, db.latest_epoch)
            victims.update((key(row), row) for row in odd)
        want = [
            row for row in db.cluster.read_table("t", db.latest_epoch) if key(row) in victims
        ]
        commits.clear()
        session = db.session()
        session.sql(first)
        session.sql(second)
        if callable_too:
            session.delete("t", lambda row: row["k"] == 9)
        session.commit()
        ((_, got_deletes),) = commits
        assert multiset(got_deletes[0][1]) == multiset(want)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 1(g): a transaction's second UPDATE reads the snapshot, "
    "not its own first UPDATE, so both buffer a copy of the new row",
)
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
