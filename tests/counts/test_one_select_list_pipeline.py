"""Counts, not timings: the analyzer has one select-list pipeline.

``Analyzer.convert(node, scope, lookup)`` is the only place an AST
expression becomes an ``Expr``: a grouped SELECT's lookup maps aggregate
calls and group keys, a windowed SELECT's maps window calls, and
nothing else in ``sql/analyzer.py`` takes an operator node apart.  The
post-GROUP BY translator and the aggregate hoister it needed are gone,
and plain, grouped and windowed SELECTs resolve ORDER BY through one
function.
"""

import ast
from pathlib import Path

import pytest

import repro.sql.analyzer as analyzer_module
from repro import Database
from repro.sql.analyzer import Analyzer

SOURCE = Path(analyzer_module.__file__)

#: The AST operator nodes only ``Analyzer.convert`` may translate.
TRANSLATED = {
    "BetweenExpr", "InExpr", "IsNullExpr", "LikeExpr", "CaseExpr", "UnaryOp", "BinaryOp",
}


def functions():
    """(qualified name, node) for every function in the analyzer module."""
    tree = ast.parse(SOURCE.read_text(), filename=str(SOURCE))
    stack = [("", tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if isinstance(child, ast.FunctionDef):
                    yield name, child
                stack.append((f"{name}.", child))


def own_nodes(function):
    """The nodes of ``function``'s body outside its nested functions."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child for child in ast.iter_child_nodes(node)
            if not isinstance(child, ast.FunctionDef)
        )


def test_operator_nodes_are_translated_only_in_convert():
    users = {
        f"{name} ast.{node.attr}"
        for name, function in functions()
        for node in own_nodes(function)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ast"
        and node.attr in TRANSLATED
    }
    assert {user.split()[0] for user in users} == {"Analyzer.convert"}, sorted(users)
    assert {user.split()[1] for user in users} == {f"ast.{name}" for name in TRANSLATED}


def test_the_post_group_translator_and_the_hoister_are_gone():
    names = {name.rsplit(".", 1)[-1] for name, _ in functions()}
    assert not names & {"_post_group_expr", "_hoist_aggregates", "_contains_window",
                        "_contains_aggregate", "_plan_aggregation", "_plan_windows"}


def test_one_place_reads_order_by():
    readers = [
        name
        for name, function in functions()
        for node in own_nodes(function)
        if isinstance(node, ast.Attribute) and node.attr == "order_by"
        and isinstance(node.value, ast.Name) and node.value.id == "stmt"
    ]
    assert readers == ["Analyzer.analyze_select"]


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(str(tmp_path_factory.mktemp("pipeline") / "db"), node_count=1)
    db.sql("CREATE TABLE t (g INTEGER, x INTEGER)")
    db.sql("INSERT INTO t VALUES (1, 2)")
    return db


@pytest.mark.parametrize("sql", [
    "SELECT g, x AS y FROM t ORDER BY 2, y, g + x",
    "SELECT g, sum(x) AS y FROM t GROUP BY g ORDER BY 2, y, g + sum(x)",
    "SELECT g, rank() OVER (ORDER BY x) AS y FROM t ORDER BY 2, y, g + x",
])
def test_every_path_resolves_order_by_in_one_function(db, sql, monkeypatch):
    """Plain, grouped and windowed: each ORDER BY key (position, alias,
    expression) is one call of the one resolver."""
    calls = []
    original = Analyzer._order_expr

    def spy(self, node, *args):
        calls.append(type(node).__name__)
        return original(self, node, *args)

    monkeypatch.setattr(Analyzer, "_order_expr", spy)
    assert len(db.sql(sql)) == 1
    assert calls == ["Constant", "Identifier", "BinaryOp"]
