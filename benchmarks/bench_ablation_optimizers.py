"""Ablation: the three optimizer generations (section 6.2).

Runs a star query and a non-star (fact-fact) query through StarOpt,
StarifiedOpt and V2Opt, reporting plannability, the chosen join
strategy, estimated cost and measured runtime — the paper's narrative:
StarOpt handles only co-located stars; StarifiedOpt "bridges the gap"
by starifying everything (broadcasts); V2Opt moves data on the fly and
wins on fact-fact joins.  V2Opt is the product planner
(``repro.optimizer.PlannerBase``); the two it replaced are the test
suite's ``reference_planners``.
"""

from __future__ import annotations

import time

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.errors import PlanningError
from repro.execution import ColumnRef
from repro.execution.operators.join import JoinType
from repro.optimizer import JoinNode, PhysJoin, PlannerBase, ScanNode
from repro.projections import Replicated

from conftest import print_table
from reference_planners import StarifiedOpt, StarOpt, run_planned

#: the generations by the names the report prints
PLANNERS = {"star": StarOpt, "starified": StarifiedOpt, "v2": PlannerBase}

C = ColumnRef


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(str(tmp_path_factory.mktemp("opt")), node_count=3, k_safety=1)
    db.create_table(
        TableDefinition(
            "fact",
            [ColumnDef("f_id", types.INTEGER), ColumnDef("dim_id", types.INTEGER),
             ColumnDef("v", types.FLOAT)],
            primary_key=("f_id",),
        )
    )
    db.create_table(
        TableDefinition(
            "dim",
            [ColumnDef("d_id", types.INTEGER), ColumnDef("label", types.VARCHAR)],
            primary_key=("d_id",),
        ),
        segmentation=Replicated(),
    )
    db.create_table(
        TableDefinition(
            "fact2",
            [ColumnDef("g_id", types.INTEGER), ColumnDef("link", types.INTEGER)],
            primary_key=("g_id",),
        )
    )
    db.load("dim", [{"d_id": i, "label": f"d{i}"} for i in range(50)])
    db.load(
        "fact",
        [{"f_id": i, "dim_id": i % 50, "v": float(i)} for i in range(20_000)],
    )
    db.load(
        "fact2",
        [{"g_id": i, "link": i % 5_000} for i in range(20_000)],
    )
    db.analyze_statistics()
    return db


def star_query():
    return JoinNode(
        ScanNode("fact", ["f_id", "dim_id", "v"]),
        ScanNode("dim", ["d_id", "label"]),
        JoinType.INNER,
        condition=C("dim_id") == C("d_id"),
    )


def fact_fact_query():
    return JoinNode(
        ScanNode("fact", ["f_id", "dim_id"]),
        ScanNode("fact2", ["g_id", "link"]),
        JoinType.INNER,
        condition=C("f_id") == C("link"),
    )


def _evaluate(db, optimizer: str, query):
    start = time.perf_counter()
    try:
        rows, _, plan = run_planned(PLANNERS[optimizer], db, query)
    except PlanningError:
        return None
    elapsed = (time.perf_counter() - start) * 1000
    join = next(n for n in plan.walk() if isinstance(n, PhysJoin))
    return {
        "strategy": join.strategy,
        "cost": plan.est_cost.total,
        "ms": elapsed,
        "rows": len(rows),
    }


def test_optimizer_generations_report(benchmark, db):
    table = []
    outcomes = {}
    for query_name, query in (("star", star_query()), ("fact-fact", fact_fact_query())):
        for optimizer in PLANNERS:
            outcome = _evaluate(db, optimizer, query)
            outcomes[(query_name, optimizer)] = outcome
            if outcome is None:
                table.append([query_name, optimizer, "CANNOT PLAN", "-", "-", "-"])
            else:
                table.append(
                    [
                        query_name,
                        optimizer,
                        outcome["strategy"],
                        f"{outcome['cost']:.0f}",
                        f"{outcome['ms']:.0f}",
                        outcome["rows"],
                    ]
                )
    print_table(
        "Ablation — three optimizer generations on star and non-star joins",
        ["query", "optimizer", "join strategy", "est cost", "time (ms)", "rows"],
        table,
    )
    # StarOpt plans the co-located star...
    assert outcomes[("star", "star")] is not None
    assert outcomes[("star", "star")]["strategy"] == "colocated"
    # ...but cannot place the non-co-located fact-fact join
    assert outcomes[("fact-fact", "star")] is None
    # StarifiedOpt starifies it (broadcast); V2Opt plans it too
    assert outcomes[("fact-fact", "starified")]["strategy"] == "broadcast_inner"
    assert outcomes[("fact-fact", "v2")] is not None
    # all planners that succeed agree on the answer
    counts = {
        key: outcome["rows"]
        for key, outcome in outcomes.items()
        if outcome is not None
    }
    assert counts[("star", "star")] == counts[("star", "v2")] == 20_000
    assert counts[("fact-fact", "starified")] == counts[("fact-fact", "v2")]
    # V2's cost model never regresses vs StarifiedOpt on these queries
    assert (
        outcomes[("fact-fact", "v2")]["cost"]
        <= outcomes[("fact-fact", "starified")]["cost"] * 1.01
    )
    benchmark.pedantic(lambda: db.planner().plan(star_query()), rounds=1, iterations=1)


@pytest.mark.parametrize("optimizer", ["starified", "v2"])
def test_fact_fact_benchmark(benchmark, db, optimizer):
    query = fact_fact_query()
    benchmark.pedantic(
        lambda: run_planned(PLANNERS[optimizer], db, query), rounds=2, iterations=1
    )
