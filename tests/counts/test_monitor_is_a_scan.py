"""Counts, not timings: a ``v_monitor`` table is a scan leaf of the one
engine.

A SELECT over ``v_monitor`` is planned once by the planner and run once
by the distributed executor, like any SELECT, and each virtual leaf
materializes its table once — also when it is the replicated side of a
join that several fragments of a segmented table probe.  The monitor's
own SELECT interpreter, its scope helper and its dispatch test are
gone from the product.
"""

import ast
from pathlib import Path

import pytest

import repro
import repro.execution.executor as executor_module
from repro import Database
from repro.execution.executor import DistributedExecutor
from repro.optimizer import PlannerBase

SRC = Path(repro.__file__).parent


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(str(tmp_path_factory.mktemp("db")), node_count=3, k_safety=1)
    db.sql("CREATE TABLE t (k INTEGER, v INTEGER)")
    db.sql("COPY t FROM STDIN", copy_rows=[f"{i % 3}|{i}" for i in range(300)])
    db.run_tuple_movers()
    return db


@pytest.fixture
def calls(monkeypatch):
    seen = {"plan": 0, "run": 0, "table_rows": []}

    def spy(owner, name, record):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            record(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    spy(PlannerBase, "plan", lambda args: seen.__setitem__("plan", seen["plan"] + 1))
    spy(DistributedExecutor, "run", lambda args: seen.__setitem__("run", seen["run"] + 1))
    # the executor's reference: it makes a virtual leaf's rows
    spy(executor_module, "table_rows", lambda args: seen["table_rows"].append(args[1]))
    return seen


def test_a_monitor_select_is_planned_and_run_once(db, calls):
    rows = db.sql(
        "SELECT node_name, count(*) AS n FROM v_monitor.projection_storage "
        "GROUP BY node_name ORDER BY node_name"
    )
    assert [row["n"] for row in rows] == [2, 2, 2]
    assert calls == {
        "plan": 1, "run": 1, "table_rows": ["v_monitor.projection_storage"]
    }


@pytest.mark.parametrize("join", ["JOIN", "LEFT JOIN", "FULL JOIN"])
def test_a_replicated_leaf_is_made_once_under_several_fragments(db, calls, join):
    sql = (
        f"SELECT t.v, s.is_up FROM t {join} v_monitor.node_states s "
        "ON t.k = s.node_index"
    )
    assert "Scan t_super" in db.sql(f"EXPLAIN {sql}")  # three fragments
    calls["table_rows"].clear()
    rows = db.sql(sql)
    assert len(rows) == 300
    assert calls["table_rows"] == ["v_monitor.node_states"]


def test_two_virtual_leaves_are_made_once_each(db, calls):
    db.sql(
        "SELECT s.node_name, count(*) AS n FROM v_monitor.storage_containers c "
        "JOIN v_monitor.node_states s ON c.node_name = s.node_name GROUP BY s.node_name"
    )
    assert sorted(calls["table_rows"]) == [
        "v_monitor.node_states", "v_monitor.storage_containers"
    ]
    assert (calls["plan"], calls["run"]) == (1, 1)


def test_the_monitor_has_no_interpreter_of_its_own():
    gone = {"execute_monitor_select", "monitor_scope", "_is_monitor_select"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (
                node.name
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                else node.id
                if isinstance(node, ast.Name)
                else node.attr
                if isinstance(node, ast.Attribute)
                else None
            )
            if name in gone:
                found.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    assert found == []
