"""Counts, not timings: a join condition becomes keys in one place.

``planner.split_condition`` splits a join's conjuncts into hash / merge
keys and the residual the join evaluates on its candidate pairs.  The
analyzer only converts conditions (an ON to its join, WHERE to a
filter); the logical join carries one condition; the executor wraps no
join in a filter.  Planning a three-table chain with a non-key
conjunct, a LEFT join with a non-key ON conjunct and a SEMI join with
one calls the split once per physical join and leaves no filter above a
join.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
import repro.optimizer.planner as planner_module
from repro import ColumnDef, Database, TableDefinition, types
from repro.optimizer import physical as P
from repro.optimizer.logical import JoinNode
from repro.sql.analyzer import Analyzer
from repro.sql.parser import parse

SRC = Path(repro.__file__).parent


def tree(relative: str) -> ast.Module:
    path = SRC / relative
    return ast.parse(path.read_text(), filename=str(path))


def test_the_analyzer_builds_no_key_lists():
    found = []
    for node in ast.walk(tree("sql/analyzer.py")):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "arg", None)
        if isinstance(name, str) and name in ("left_keys", "right_keys", "residual"):
            found.append(f"{node.lineno}: {name}")
        if isinstance(node, ast.FunctionDef) and node.name in ("_classify_conjunct", "_split_equi"):
            found.append(f"{node.lineno}: def {node.name}")
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "JoinNode":
            # left, right, join type and the condition: nothing else
            if len(node.args) > 4 or any(k.arg != "condition" for k in node.keywords):
                found.append(f"{node.lineno}: JoinNode(...) with keys")
    assert found == []


def test_a_logical_join_carries_one_condition():
    names = {field.name for field in dataclasses.fields(JoinNode)}
    assert "condition" in names
    assert names.isdisjoint({"left_keys", "right_keys", "residual"})


def test_the_executor_wraps_no_join_in_a_filter():
    (make,) = [
        node for node in ast.walk(tree("execution/executor.py"))
        if isinstance(node, ast.FunctionDef) and node.name == "_make_join_op"
    ]
    assert not [n for n in ast.walk(make) if getattr(n, "id", None) == "FilterOperator"]


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(
        str(tmp_path_factory.mktemp("split") / "db"), node_count=3, k_safety=1,
        durable=False,
    )
    for name, key, value, count in (("a", "id", "x", 40), ("b", "jd", "y", 30), ("c", "kd", "z", 20)):
        db.create_table(
            TableDefinition(
                name, [ColumnDef(key, types.INTEGER), ColumnDef(value, types.INTEGER)],
                primary_key=(key,),
            )
        )
        db.load(name, [{key: i, value: i % 5} for i in range(count)])
    db.analyze_statistics()
    return db


@pytest.mark.parametrize("sql", [
    "SELECT a.id, b.jd, c.kd FROM a, b, c WHERE a.x = b.y AND b.y = c.z AND a.id < c.kd",
    "SELECT a.id, b.jd FROM a LEFT JOIN b ON a.x = b.y AND a.id < b.jd",
    "SELECT a.id FROM a SEMI JOIN b ON a.x = b.y AND a.id < b.jd",
])
def test_each_physical_join_splits_its_condition_once(db, monkeypatch, sql):
    calls = []
    split = planner_module.split_condition

    def spy(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(planner_module, "split_condition", spy)
    plan = db.planner().plan(Analyzer(db.cluster.catalog).analyze_select(parse(sql)))
    joins = [node for node in plan.walk() if isinstance(node, P.PhysJoin)]
    assert len(calls) == len(joins) >= 1
    assert any(join.residual is not None for join in joins)
    assert not [
        node for node in plan.walk()
        if isinstance(node, P.PhysFilter)
        and any(isinstance(below, P.PhysJoin) for below in node.walk())
    ]
