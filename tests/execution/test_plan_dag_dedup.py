"""Regression tests for DAG-shaped plans and per-operator accounting.

A resegment join shares each Send operator across every Recv
destination, so the physical plan is a DAG, not a tree.  The per-
operator counters the monitor relies on used to be double-counted:
``walk()`` yielded shared Sends once per parent and ``explain()``
rendered their subtrees repeatedly, so summing ``rows_produced`` over
a resegmented plan overstated pipeline volume by the sharing factor.
These tests force the resegment strategy and pin the fixed behaviour.
"""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.execution import ColumnRef
from repro.execution.executor import DistributedExecutor
from repro.execution.operators.join import JoinType
from repro.monitor import profile_plan
from repro.optimizer import JoinNode, PhysJoin, ScanNode
from repro.optimizer import physical as P

C = ColumnRef


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1)
    db.create_table(
        TableDefinition(
            "fact",
            [ColumnDef("f_id", types.INTEGER), ColumnDef("dim_id", types.INTEGER)],
            primary_key=("f_id",),
        )
    )
    db.create_table(
        TableDefinition(
            "fact2",
            [ColumnDef("g_id", types.INTEGER), ColumnDef("link", types.INTEGER)],
            primary_key=("g_id",),
        )
    )
    db.load("fact", [{"f_id": i, "dim_id": i % 20} for i in range(600)])
    db.load("fact2", [{"g_id": i, "link": i % 300} for i in range(600)])
    db.analyze_statistics()
    return db


def _run_resegmented(db):
    """Plan fact JOIN fact2 and force the resegment strategy (the cost
    model would otherwise pick broadcast and hide the shared Sends)."""
    plan = JoinNode(
        ScanNode("fact", ["f_id", "dim_id"]),
        ScanNode("fact2", ["g_id", "link"]),
        JoinType.INNER,
        condition=C("f_id") == C("link"),
    )
    physical = db.planner().plan(plan)
    join = next(n for n in physical.walk() if isinstance(n, PhysJoin))
    join.strategy = P.RESEGMENT
    join.sip = False
    executor = DistributedExecutor(db.cluster, db.latest_epoch)
    rows = executor.run(physical).to_rows()
    assert len(rows) == 600
    root = executor.root_operator
    assert root is not None
    return root


def test_walk_yields_shared_operators_once(db):
    root = _run_resegmented(db)
    walked = list(root.walk())
    assert len(walked) == len({id(op) for op in walked})
    # the DAG really is shared: some operator has several parents.
    parents: dict = {}
    for op in walked:
        for child in op.children:
            parents.setdefault(id(child), set()).add(id(op))
    assert any(len(ps) > 1 for ps in parents.values())


def test_walk_row_totals_not_double_counted(db):
    root = _run_resegmented(db)
    total = sum(op.rows_produced for op in root.walk())
    by_id = {id(op): op for op in root.walk()}
    assert total == sum(op.rows_produced for op in by_id.values())


def test_explain_marks_shared_subtrees(db):
    root = _run_resegmented(db)
    rendered = root.explain()
    assert "[shared]" in rendered
    # a shared Send's subtree is expanded exactly once: the rendering
    # has one line per unique operator plus one [shared] stub per
    # extra parent edge.
    unique = len(list(root.walk()))
    stub_lines = sum(
        1 for line in rendered.splitlines() if line.endswith("[shared]")
    )
    assert len(rendered.splitlines()) == unique + stub_lines
    assert stub_lines > 0


def test_profile_plan_counts_each_operator_once(db):
    root = _run_resegmented(db)
    profiles = profile_plan(root)
    assert len(profiles) == len(list(root.walk()))
    assert len({p.operator_id for p in profiles}) == len(profiles)
    walked_rows = sum(op.rows_produced for op in root.walk())
    assert sum(p.rows_produced for p in profiles) == walked_rows
