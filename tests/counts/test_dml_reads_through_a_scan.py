"""Counts, not timings: DELETE and UPDATE find their rows with a Scan.

A SQL DELETE's victims are the output of the Scan a SELECT with the
same WHERE would run — container pruning, the sort-prefix seek, the
kernel predicate — and an UPDATE's new rows are that Scan under an
ExprEval of the SET list.  So:

* neither statement evaluates an expression a row at a time
  (``Expr.evaluate_row``);
* a DELETE pinning one sort-key value opens no more blocks than
  ``SELECT * ... WHERE <same>`` plus what ``delete_where`` reads, and
  fewer than the table holds;
* the DELETE is one request and one profiled query, named by its SQL.
"""

import pytest

from repro import Database
from repro.execution.expressions import Expr
from repro.lint import sanitizer
from repro.monitor import METRICS
from repro.storage import StorageManager
from repro.storage.block import BLOCK_ROWS
from storage_helpers import kv_rows

BIG = 4 * BLOCK_ROWS
OPENED = ("storage.blocks_decoded", "storage.blocks_vectorized")


def opened() -> int:
    """Blocks read off a column file so far, decoded or kept encoded."""
    return sum(METRICS.counter(name) for name in OPENED)


@pytest.fixture(autouse=True)
def product_decodes_only():
    """The sanitizer checks a container as it loads and leaves its
    blocks decoded; what is counted here is what the statements open."""
    with sanitizer.override(False):
        yield


@pytest.fixture
def spies(monkeypatch):
    seen = {"evaluate_row": 0, "delete_where_opened": 0}
    evaluate_row, delete_where = Expr.evaluate_row, StorageManager.delete_where

    def counting_evaluate_row(self, row):
        seen["evaluate_row"] += 1
        return evaluate_row(self, row)

    def counting_delete_where(self, *args, **kwargs):
        before = opened()
        try:
            return delete_where(self, *args, **kwargs)
        finally:
            seen["delete_where_opened"] += opened() - before

    monkeypatch.setattr(Expr, "evaluate_row", counting_evaluate_row)
    monkeypatch.setattr(StorageManager, "delete_where", counting_delete_where)
    return seen


def test_sql_delete_and_update_never_read_a_row_at_a_time(kv_database, spies):
    _, make = kv_database
    db = make(node_count=3, k_safety=1)
    db.load("t", kv_rows(range(600)), direct_to_ros=True)
    db.load("t", kv_rows(range(600, 700)))  # the WOS
    assert db.sql("UPDATE t SET v = v * 10 + 1 WHERE k < 40 OR k >= 690") == 50
    db.sql("DELETE FROM t WHERE k BETWEEN 100 AND 199 AND v <> 3")
    db.sql("DELETE FROM t WHERE k % 7 = 1")  # outside the kernel dialect
    assert spies["evaluate_row"] == 0, spies
    want = sorted(
        (k, k % 9 * 10 + 1 if k < 40 or k >= 690 else k % 9)
        for k in range(700)
        if not (100 <= k <= 199 and k % 9 != 3) and k % 7 != 1
    )
    got = sorted((row["k"], row["v"]) for row in db.sql("SELECT k, v FROM t"))
    assert got == want


def test_a_delete_opens_what_its_select_opens(kv_database, spies):
    path, make = kv_database
    db = make(node_count=1, k_safety=0, segments_per_node=1)
    db.load("t", kv_rows(range(BIG)), direct_to_ros=True)
    db.cluster.run_tuple_movers()
    del db
    where = f"WHERE k = {2 * BLOCK_ROWS + 5}"

    db = Database.open(path)  # cold caches
    manager = db.cluster.nodes[0].manager
    held = sum(
        len(container.column_reader(name).blocks)
        for container in manager.storage("t_super").containers.values()
        for name in ("k", "v")
    )
    before = opened()
    assert len(db.sql(f"SELECT * FROM t {where}")) == 1
    select = opened() - before
    del db

    db = Database.open(path)  # cold caches again
    before = opened()
    db.sql(f"DELETE FROM t {where}")
    delete = opened() - before
    assert delete <= select + spies["delete_where_opened"], (delete, select, spies)
    assert delete < held, (delete, held)
    assert db.sql("SELECT count(*) AS n FROM t")[0]["n"] == BIG - 1


def test_a_delete_is_one_request_and_one_profiled_query(kv_database):
    _, make = kv_database
    db = make(node_count=3, k_safety=1)
    db.load("t", kv_rows(range(50)))
    dc = db.cluster.dc
    requests, profiles = len(dc.rows("requests")), len(dc.rows("profiles"))
    text = "DELETE FROM t WHERE k < 5"
    db.sql(text)
    assert [row["sql"] for row in dc.rows("requests")[requests:]] == [text]
    (profile,) = dc.rows("profiles")[profiles:]
    assert profile["sql"] == text
    assert profile["rows_returned"] == 5
    assert any(op.op_name == "Scan" for op in profile["operators"])
