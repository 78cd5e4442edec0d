"""Counts, not timings: the product has one planner.

Section 6.2's V2Opt replaced StarOpt and StarifiedOpt.  The product
plans with V2Opt's policy alone (``repro.optimizer.PlannerBase``): no
function takes an ``optimizer`` choice, nothing in ``src/repro``
subclasses the planner, the older generations are not exported, and
``Database.planner()`` hands back the planner itself.  The older
generations are the test suite's ``reference_planners``.
"""

import ast
from pathlib import Path

import repro
import repro.optimizer
from repro import Database
from repro.optimizer import PlannerBase

SRC = Path(repro.__file__).parent


def modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_function_takes_an_optimizer():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
        for path, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in (
            node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        )
        if arg.arg == "optimizer"
    ]
    assert found == []


def test_nothing_in_the_product_subclasses_the_planner():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
        for path, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for base in node.bases
        if (base.id if isinstance(base, ast.Name) else getattr(base, "attr", None))
        == "PlannerBase"
    ]
    assert found == []


def test_the_older_generations_are_not_exported():
    for name in ("StarOpt", "StarifiedOpt", "V2Opt"):
        assert not hasattr(repro.optimizer, name), name


def test_the_database_plans_with_the_planner(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=1, durable=False)
    assert type(db.planner()) is PlannerBase
