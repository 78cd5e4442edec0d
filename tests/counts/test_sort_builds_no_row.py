"""Counts, not timings: a sort is a permutation and a gather, and builds
no row.

A table ``t(k, g, x)`` on three nodes, with NULLs in ``g`` and ``x`` and
NaNs in ``x``, in ROS containers and in the WOS; two tables ``a`` / ``b``
segmented and sorted on their join keys, so the planner picks a merge
join.  Per statement — ORDER BY with mixed ASC / DESC and a LIMIT (also
under a one-row memory budget, where the sort spills), every window
function with and without PARTITION BY, the chosen merge join, a hash
join switched to merge by a one-row budget, a spilling GROUP BY, SELECT
DISTINCT and COUNT(DISTINCT):

* no block is built from row dicts (``RowBlock.from_rows``);
* only the result becomes row dicts, in one ``RowBlock.to_rows``;
* no expression is evaluated a row at a time (``Expr.evaluate_row``);
* the answer is the reference, computed in plain Python.
"""

import functools
import math

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.columnar import RowBlock
from repro.execution import WorkloadPolicy
from repro.execution.executor import DistributedExecutor
from repro.execution.expressions import Expr
from repro.execution.operators import (
    AnalyticOperator,
    GroupByHashOperator,
    HashJoinOperator,
    MergeJoinOperator,
    SortOperator,
)
from repro.projections import HashSegmentation

ROWS = 3000
NAN = math.nan


def _x(i):
    if i % 11 == 0:
        return None
    return NAN if i % 13 == 0 else float(i * 7 % 97) / 4


T = [
    {"k": i, "g": None if i % 17 == 0 else "abcde"[i * 3 % 5], "x": _x(i)}
    for i in range(ROWS)
]
A = [{"k": i % 400, "av": i} for i in range(1200)]
B = [{"k2": i, "bv": i * 2} for i in range(0, 500, 2)]


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(str(tmp_path_factory.mktemp("sorts") / "db"), node_count=3, k_safety=1)
    db.create_table(
        TableDefinition(
            "t",
            [ColumnDef("k", types.INTEGER), ColumnDef("g", types.VARCHAR),
             ColumnDef("x", types.FLOAT)],
        ),
        sort_order=["k"],
    )
    db.load("t", T[:1000], direct_to_ros=True)
    db.load("t", T[1000:2000], direct_to_ros=True)
    db.load("t", T[2000:])  # the WOS
    for name, columns, rows in (("a", ["k", "av"], A), ("b", ["k2", "bv"], B)):
        db.create_table(
            TableDefinition(name, [ColumnDef(c, types.INTEGER) for c in columns]),
            sort_order=[columns[0]],
            segmentation=HashSegmentation((columns[0],)),
        )
        db.load(name, rows, direct_to_ros=True)
    db.analyze_statistics()
    return db


@pytest.fixture
def spies(monkeypatch):
    seen = {"roots": [], "to_rows": [], "from_rows": 0, "evaluate_row": 0}
    operator = DistributedExecutor.operator
    to_rows, from_rows = RowBlock.to_rows, RowBlock.from_rows.__func__
    evaluate_row = Expr.evaluate_row

    def spying_operator(self, plan):
        seen["roots"].append(operator(self, plan))
        return seen["roots"][-1]

    def spying_to_rows(self):
        seen["to_rows"].append(self)
        return to_rows(self)

    def counting_from_rows(cls, rows, names):
        seen["from_rows"] += 1
        return from_rows(cls, rows, names)

    def counting_evaluate_row(self, row):
        seen["evaluate_row"] += 1
        return evaluate_row(self, row)

    monkeypatch.setattr(DistributedExecutor, "operator", spying_operator)
    monkeypatch.setattr(RowBlock, "to_rows", spying_to_rows)
    monkeypatch.setattr(RowBlock, "from_rows", classmethod(counting_from_rows))
    monkeypatch.setattr(Expr, "evaluate_row", counting_evaluate_row)
    return seen


# -- the reference: plain Python ----------------------------------------------


def _rank(value):
    """NULL, then every number or string, then NaN."""
    if value is None:
        return (0, 0)
    return (2, 0) if value != value else (1, value)


def _ordered(rows, terms):
    """``rows`` stably sorted by ``terms``: (column, ascending) pairs."""

    def compare(left, right):
        for column, ascending in terms:
            a, b = _rank(left[column]), _rank(right[column])
            if a != b:
                return (-1 if a < b else 1) * (1 if ascending else -1)
        return 0

    return sorted(rows, key=functools.cmp_to_key(compare))


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b) or math.isclose(a, b, rel_tol=1e-9)
    return a == b


def _window(func, partition, rows):
    """The window column per ``k``: ``func`` over ``x`` (``*`` for
    COUNT(*)), ordered by ``x DESC, k``, within ``partition``."""
    groups: dict = {}
    for row in rows:
        key = _rank(row[partition]) if partition else ()
        groups.setdefault(key, []).append(row)
    out = {}
    for members in groups.values():
        members = _ordered(members, [("x", False), ("k", True)])
        values = [row["x"] for row in members]
        for index, row in enumerate(members):
            seen = [v for v in values[: index + 1] if v is not None]
            out[row["k"]] = {
                "ROW_NUMBER": index + 1,
                "RANK": index + 1,  # (x, k) is unique: no peers
                "DENSE_RANK": index + 1,
                "COUNT(*)": index + 1,
                "COUNT": len(seen),
                "SUM": _fold(seen, lambda a, b: a + b),
                "AVG": None if not seen else _fold(seen, lambda a, b: a + b) / len(seen),
                # as the sort orders them: NaN after every number
                "MIN": min(seen, key=_rank, default=None),
                "MAX": max(seen, key=_rank, default=None),
            }[func]
    return out


def _fold(values, step):
    if not values:
        return None
    total = values[0]
    for value in values[1:]:
        total = step(total, value)
    return total


# -- the statements ------------------------------------------------------------

ORDER_BY = "SELECT k, g, x FROM t ORDER BY g ASC, x DESC, k LIMIT 40"
WINDOW = "SELECT k, {call} OVER ({partition}ORDER BY x DESC, k) AS w FROM t"
CALLS = {
    "ROW_NUMBER": "ROW_NUMBER()", "RANK": "RANK()", "DENSE_RANK": "DENSE_RANK()",
    "COUNT(*)": "COUNT(*)", "COUNT": "COUNT(x)", "SUM": "SUM(x)", "AVG": "AVG(x)",
    "MIN": "MIN(x)", "MAX": "MAX(x)",
}
MERGE_JOIN = "SELECT k, av, bv FROM a JOIN b ON k = k2 WHERE av < 900"
#: ``bv`` is no sort column of ``b``: a hash join, switched by a 1-row budget
HASH_JOIN = "SELECT k, g, k2 FROM t JOIN b ON k = bv"
GROUP_BY = "SELECT k, count(*) AS n, max(x) AS m FROM t GROUP BY k"
DISTINCT = {
    "select distinct": "SELECT DISTINCT g, x FROM t",
    "count distinct": "SELECT g, count(DISTINCT x) AS n FROM t GROUP BY g",
}


def _run(db, sql, memory_rows=None):
    session = db.session()
    if memory_rows is not None:
        session.workload_policy = WorkloadPolicy(query_memory_rows=memory_rows)
    return session, session.sql(sql)


def _assert_columnar(spies):
    (root,) = spies["roots"]
    assert spies["from_rows"] == 0
    assert len(spies["to_rows"]) == 1  # the result, pivoted once in Session.query
    assert spies["evaluate_row"] == 0
    return list(root.walk())


@pytest.mark.parametrize("memory_rows", [None, 1], ids=["in-memory", "spilling"])
def test_order_by_is_a_permutation_and_a_gather(db, spies, memory_rows):
    session, rows = _run(db, ORDER_BY, memory_rows)
    want = _ordered(T, [("g", True), ("x", False), ("k", True)])[:40]
    assert [row["k"] for row in rows] == [row["k"] for row in want]
    assert all(_same(a["x"], b["x"]) and a["g"] == b["g"] for a, b in zip(rows, want))
    operators = _assert_columnar(spies)
    sorts = [op for op in operators if isinstance(op, SortOperator)]
    assert sorts
    if memory_rows is not None:
        assert any(op.spilled_runs > 1 for op in sorts)
        assert session.last_pool.spills >= 1


@pytest.mark.parametrize("partition", ["", "PARTITION BY g "], ids=["whole", "partitioned"])
@pytest.mark.parametrize("func", CALLS)
def test_each_window_function_folds_permuted_columns(db, spies, func, partition):
    _, rows = _run(db, WINDOW.format(call=CALLS[func], partition=partition))
    want = _window(func, "g" if partition else None, T)
    got = {row["k"]: row["w"] for row in rows}
    assert got.keys() == want.keys()
    assert all(_same(got[k], want[k]) for k in want), func
    operators = _assert_columnar(spies)
    assert any(isinstance(op, AnalyticOperator) for op in operators)


def test_a_chosen_merge_join_walks_key_columns(db, spies):
    assert "MergeJoin" in db.sql("EXPLAIN " + MERGE_JOIN)
    spies["roots"].clear()
    _, rows = _run(db, MERGE_JOIN)
    bv = {row["k2"]: row["bv"] for row in B}
    want = [(r["k"], r["av"], bv[r["k"]]) for r in A if r["av"] < 900 and r["k"] in bv]
    assert sorted((r["k"], r["av"], r["bv"]) for r in rows) == sorted(want)
    operators = _assert_columnar(spies)
    assert any(isinstance(op, MergeJoinOperator) for op in operators)


def test_a_hash_join_switched_to_merge_walks_key_columns(db, spies):
    _, rows = _run(db, HASH_JOIN, memory_rows=1)
    k2 = {row["bv"]: row["k2"] for row in B}
    want = [(r["k"], r["g"] or "", k2[r["k"]]) for r in T if r["k"] in k2]
    assert sorted((r["k"], r["g"] or "", r["k2"]) for r in rows) == sorted(want)
    operators = _assert_columnar(spies)
    joins = [op for op in operators if isinstance(op, HashJoinOperator)]
    assert joins and all(op.switched_to_merge for op in joins)


def test_a_spilling_group_by_spills_blocks(db, spies):
    session, rows = _run(db, GROUP_BY, memory_rows=4)
    got = {row["k"]: (row["n"], row["m"]) for row in rows}
    assert got.keys() == {row["k"] for row in T}
    assert all(n == 1 for n, _ in got.values())
    assert all(_same(got[row["k"]][1], row["x"]) for row in T)
    operators = _assert_columnar(spies)
    assert any(op.spilled for op in operators if isinstance(op, GroupByHashOperator))
    assert session.last_pool.spills >= 1


@pytest.mark.parametrize("name", DISTINCT)
def test_distinct_plans_build_no_row(db, spies, name):
    """NULLs are one value and NaNs are one value, under DISTINCT too."""
    _, rows = _run(db, DISTINCT[name])
    values: dict = {}
    for row in T:
        values.setdefault(_rank(row["g"]), set()).add(_rank(row["x"]))
    if name == "select distinct":
        want = sorted((g, x) for g, xs in values.items() for x in xs)
        assert sorted((_rank(r["g"]), _rank(r["x"])) for r in rows) == want
    else:
        want = {g: len(xs - {_rank(None)}) for g, xs in values.items()}
        assert {_rank(r["g"]): r["n"] for r in rows} == want
    _assert_columnar(spies)
