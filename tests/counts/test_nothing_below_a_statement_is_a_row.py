"""Counts, not timings: nothing below a statement is a row.

A batch is columns from the statement to the disk.  On a table
partitioned by an expression (``PARTITION BY a % 3``), none of

* a COPY to the WOS and one direct to ROS,
* a mover cycle (moveout and mergeout),
* ``drop_partition`` with rows of that partition in the WOS,
* a SQL DELETE and a SQL UPDATE, up to their commit,
* a reopen replaying the DELETE and the UPDATE,
* ``recover_node`` over a DELETE the node missed

turns a run into row dicts or back (``HistoryRun.rows`` / ``records`` /
``from_rows``), a block into row dicts or back (``RowBlock.to_rows`` /
``from_rows``), or evaluates an expression a row at a time
(``Expr.evaluate_row``): the partition expression is evaluated once per
run, a DML read hands its result on as columns, and a commit's delete
victims are columns in the record, in ``delete_where`` and in recovery.
A SELECT pivots once, in ``Session.query``, for its caller, and a
``v_monitor`` SELECT evaluates its WHERE, ORDER BY and select list once
each over one block of the virtual table.
"""

import pytest

from repro import Database
from repro.columnar import RowBlock
from repro.execution.expressions import Expr
from repro.storage import HistoryRun

ROW_CALLS = [
    (HistoryRun, "rows"),
    (HistoryRun, "records"),
    (HistoryRun, "from_rows"),
    (RowBlock, "to_rows"),
    (RowBlock, "from_rows"),
    (Expr, "evaluate_row"),
]


@pytest.fixture
def calls(monkeypatch):
    """Calls of everything that builds a row or reads one."""
    seen = {}
    for owner, name in ROW_CALLS:
        key = f"{owner.__name__}.{name}"
        seen[key] = 0

        def counting(*args, _original=getattr(owner, name), _key=key, **kwargs):
            seen[_key] += 1
            return _original(*args, **kwargs)

        if isinstance(owner.__dict__[name], classmethod):
            counting = staticmethod(counting)  # the original is bound already
        monkeypatch.setattr(owner, name, counting)
    return seen


def lines(first, count):
    """COPY input for ``t(a, b, s)``."""
    return [f"{i}|{i * 7}|s{i % 5}" for i in range(first, first + count)]


def test_a_partitioned_table_builds_no_row_from_copy_to_recovery(tmp_path, calls):
    path = str(tmp_path / "db")
    db = Database(path, node_count=3, k_safety=1)
    db.sql("CREATE TABLE t (a INTEGER, b INTEGER, s VARCHAR) PARTITION BY a % 3")
    counted = {}

    def count(step, action):
        calls.update(dict.fromkeys(calls, 0))
        result = action()
        counted[step] = {name: n for name, n in calls.items() if n}
        return result

    def every_copy():
        for node in db.cluster.nodes:
            for copy in db.cluster.catalog.all_projections():
                yield node.manager, copy.name

    count("copy to the WOS", lambda: db.sql("COPY t FROM STDIN", copy_rows=lines(0, 3000)))
    count(
        "copy direct to ROS",
        lambda: db.sql("COPY t FROM STDIN", copy_rows=lines(3000, 10_500)),
    )
    count("moveout and mergeout", db.run_tuple_movers)
    db.sql("COPY t FROM STDIN", copy_rows=lines(13_500, 30))  # into the WOS
    dropped = count(
        "drop_partition with WOS rows",
        lambda: sum(manager.drop_partition(name, 0) for manager, name in every_copy()),
    )
    # the primary and its buddy each drop the a % 3 = 0 third of every row
    assert dropped == 2 * 13_530 // 3
    count("SQL DELETE", lambda: db.sql("DELETE FROM t WHERE a BETWEEN 100 AND 120"))
    count("SQL UPDATE", lambda: db.sql("UPDATE t SET b = 0 WHERE a BETWEEN 200 AND 210"))
    del db

    db = count("reopen", lambda: Database.open(path))
    assert db.replay_report.commits_replayed >= 2
    db.run_tuple_movers()  # the node's last good epoch passes every load
    db.fail_node(1)
    db.sql("DELETE FROM t WHERE a BETWEEN 301 AND 320")
    count("recover_node over a missed DELETE", lambda: db.recover_node(1))

    assert counted == dict.fromkeys(counted, {}), counted
    assert db.sql("SELECT count(*) AS n FROM t WHERE a BETWEEN 301 AND 320") == [{"n": 0}]

    # a SELECT pivots its result once, for its caller
    rows = count("SELECT", lambda: db.sql("SELECT a, b FROM t WHERE a < 12 ORDER BY a"))
    assert rows == [{"a": a, "b": a * 7} for a in (1, 2, 4, 5, 7, 8, 10, 11)]
    assert counted["SELECT"] == {"RowBlock.to_rows": 1}


def test_a_monitor_select_evaluates_a_column_at_a_time(tmp_path, calls):
    """WHERE, ORDER BY and the select list of a ``v_monitor`` SELECT are
    each evaluated once over one block of the virtual table; the answer
    is the row-at-a-time one, computed here."""
    from repro.monitor.tables import table_rows

    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1)
    db.sql("CREATE TABLE t (a INTEGER, b INTEGER, s VARCHAR) PARTITION BY a % 3")
    db.sql("COPY t FROM STDIN", copy_rows=lines(0, 300))
    db.run_tuple_movers()
    db.sql("COPY t FROM STDIN", copy_rows=lines(300, 30))
    _, rows = table_rows(db, "v_monitor.projection_storage")
    want = sorted(
        (row for row in rows if row["wos_rows"] > 0 or row["ros_containers"] >= 3),
        key=lambda row: (-row["ros_rows"], row["node_name"]),
    )
    want = [
        {"node_name": row["node_name"], "rows": row["wos_rows"] + row["ros_rows"]}
        for row in want
    ][1:5]

    calls.update(dict.fromkeys(calls, 0))
    got = db.sql(
        "SELECT node_name, wos_rows + ros_rows AS rows FROM v_monitor.projection_storage "
        "WHERE wos_rows > 0 OR ros_containers >= 3 ORDER BY ros_rows DESC, node_name "
        "LIMIT 4 OFFSET 1"
    )
    assert got == want and len(got) == 4
    assert {name: n for name, n in calls.items() if n} == {"RowBlock.to_rows": 1}
