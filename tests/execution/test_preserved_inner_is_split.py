"""A RIGHT or FULL join returns each unmatched inner row once, however
many nodes probe it.

Three nodes, K=1: ``f`` (300 rows, ``f_dim = i % 10``) and ``d`` (20
rows, ``d_id`` 0–19, so 10–19 match nothing), both sorted by the join
key.  With ``d`` segmented the join used to be a broadcast hash join;
with ``d`` replicated, a merge join co-located against the replicated
copy.  Either way every probe fragment held the whole inner and
returned the inner rows *its* slice of ``f`` did not match — d 10–19
three times each, 330 rows instead of 310.  The planner now resegments
such a join; the older generations, which cannot resegment
(``reference_planners``), refuse it.
"""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.errors import PlanningError
from repro.execution import ColumnRef, JoinType
from repro.optimizer.logical import JoinNode, ScanNode
from repro.projections import Replicated

from reference_planners import StarifiedOpt, StarOpt, run_planned


@pytest.fixture(scope="module", params=["segmented", "replicated"])
def db(request, tmp_path_factory):
    db = Database(
        str(tmp_path_factory.mktemp(request.param) / "db"), node_count=3, k_safety=1
    )
    db.create_table(
        TableDefinition(
            "f", [ColumnDef("f_id", types.INTEGER), ColumnDef("f_dim", types.INTEGER)]
        ),
        sort_order=["f_dim"],
    )
    layout = {"segmentation": Replicated()} if request.param == "replicated" else {}
    db.create_table(
        TableDefinition(
            "d", [ColumnDef("d_id", types.INTEGER), ColumnDef("d_name", types.VARCHAR)]
        ),
        sort_order=["d_id"],
        **layout,
    )
    db.load("f", [{"f_id": i, "f_dim": i % 10} for i in range(300)])
    db.load("d", [{"d_id": i, "d_name": str(i)} for i in range(20)])
    db.analyze_statistics()
    return db


@pytest.mark.parametrize("join_type", ["RIGHT", "FULL"])
def test_unmatched_inner_rows_come_back_once(db, join_type):
    sql = f"SELECT f_id, d_id FROM f {join_type} JOIN d ON f_dim = d_id"
    assert f"HashJoin[{join_type}] (f_dim=d_id) resegment" in db.sql("EXPLAIN " + sql)
    rows = db.sql(sql)
    expected = [(i, i % 10) for i in range(300)] + [(None, d) for d in range(10, 20)]
    key = lambda pair: (pair[0] is None, pair)  # noqa: E731
    assert sorted(((r["f_id"], r["d_id"]) for r in rows), key=key) == sorted(
        expected, key=key
    )


@pytest.mark.parametrize("planner", [StarOpt, StarifiedOpt], ids=["star", "starified"])
@pytest.mark.parametrize("join_type", [JoinType.RIGHT, JoinType.FULL])
def test_a_planner_that_cannot_resegment_refuses(db, planner, join_type):
    query = JoinNode(
        ScanNode("f", ["f_id", "f_dim"]),
        ScanNode("d", ["d_id", "d_name"]),
        join_type,
        condition=ColumnRef("f_dim") == ColumnRef("d_id"),
    )
    with pytest.raises(PlanningError):
        run_planned(planner, db, query)
