"""End-to-end tests through the Database facade (programmatic plans)."""

import pytest

from repro import ColumnDef, Database, IsolationLevel, TableDefinition, types
from repro.errors import LockTimeoutError, PlanningError
from repro.execution import AggregateSpec, ColumnRef, Literal
from repro.execution.operators.join import JoinType
from repro.optimizer import (
    FilterNode,
    GroupByNode,
    JoinNode,
    LimitNode,
    PlannerBase,
    ProjectNode,
    ScanNode,
    SortNode,
)
from repro.projections import Replicated

from reference_planners import StarifiedOpt, StarOpt, run_planned

C = ColumnRef
L = Literal


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1)
    db.create_table(
        TableDefinition(
            "orders",
            [
                ColumnDef("oid", types.INTEGER),
                ColumnDef("cid", types.INTEGER),
                ColumnDef("amount", types.FLOAT),
                ColumnDef("day", types.INTEGER),
            ],
            primary_key=("oid",),
        ),
        sort_order=["day", "oid"],
    )
    db.create_table(
        TableDefinition(
            "customers",
            [
                ColumnDef("cid", types.INTEGER),
                ColumnDef("name", types.VARCHAR),
                ColumnDef("region", types.VARCHAR),
            ],
            primary_key=("cid",),
        ),
        segmentation=Replicated(),
    )
    db.load(
        "customers",
        [
            {"cid": c, "name": f"cust{c}", "region": "east" if c % 2 else "west"}
            for c in range(20)
        ],
    )
    db.load(
        "orders",
        [
            {"oid": o, "cid": o % 20, "amount": float(o % 100), "day": o % 30}
            for o in range(2000)
        ],
    )
    db.analyze_statistics()
    return db


def orders_scan(columns, predicate=None):
    return ScanNode("orders", columns, predicate=predicate)


class TestScanQueries:
    def test_count_star(self, db):
        plan = GroupByNode(
            orders_scan(["oid"]), [], [AggregateSpec("COUNT", None, "n")]
        )
        assert db.query(plan) == [{"n": 2000}]

    def test_filtered_scan(self, db):
        plan = orders_scan(["oid", "day"], predicate=C("day") == L(3))
        rows = db.query(plan)
        assert len(rows) == len([o for o in range(2000) if o % 30 == 3])
        assert all(row["day"] == 3 for row in rows)

    def test_group_by(self, db):
        plan = GroupByNode(
            orders_scan(["day", "amount"]),
            [("day", C("day"))],
            [
                AggregateSpec("COUNT", None, "n"),
                AggregateSpec("SUM", C("amount"), "total"),
            ],
        )
        rows = db.query(plan)
        assert len(rows) == 30
        assert sum(row["n"] for row in rows) == 2000

    def test_group_by_having(self, db):
        plan = GroupByNode(
            orders_scan(["cid"]),
            [("cid", C("cid"))],
            [AggregateSpec("COUNT", None, "n")],
            having=C("n") > L(99),
        )
        rows = db.query(plan)
        assert all(row["n"] >= 100 for row in rows)

    def test_sort_limit(self, db):
        plan = LimitNode(
            SortNode(
                orders_scan(["oid", "amount"]),
                [(C("amount"), False), (C("oid"), True)],
            ),
            limit=5,
        )
        rows = db.query(plan)
        assert len(rows) == 5
        assert rows[0]["amount"] == 99.0

    def test_projection_exprs(self, db):
        plan = ProjectNode(
            orders_scan(["oid", "amount"], predicate=C("oid") < L(3)),
            {"oid": C("oid"), "double_amount": C("amount") * L(2)},
        )
        rows = sorted(db.query(plan), key=lambda row: row["oid"])
        assert rows[1]["double_amount"] == 2.0

    def test_historical_query(self, db):
        epoch_before = db.latest_epoch
        session = db.session()
        session.delete("orders", C("oid") < L(1000))
        session.commit()
        count_plan = GroupByNode(
            orders_scan(["oid"]), [], [AggregateSpec("COUNT", None, "n")]
        )
        assert db.query(count_plan) == [{"n": 1000}]
        assert db.session().query(count_plan, at_epoch=epoch_before) == [
            {"n": 2000}
        ]


def join_plan():
    return JoinNode(
        ScanNode("orders", ["oid", "cid", "amount"]),
        ScanNode("customers", ["cid", "region"], rename={"cid": "c_cid"}),
        JoinType.INNER,
        condition=C("cid") == C("c_cid"),
    )


class TestJoins:
    @pytest.mark.parametrize(
        "planner", [StarOpt, StarifiedOpt, PlannerBase], ids=["star", "starified", "v2"]
    )
    def test_join_all_generations(self, db, planner):
        plan = GroupByNode(
            join_plan(),
            [("region", C("region"))],
            [AggregateSpec("COUNT", None, "n")],
        )
        rows, _, _ = run_planned(planner, db, plan)
        rows = sorted(rows, key=lambda r: r["region"])
        assert [row["region"] for row in rows] == ["east", "west"]
        assert sum(row["n"] for row in rows) == 2000

    def test_sip_reduces_scan(self, db):
        # dimension restricted on a non-join column: transitive
        # predicates cannot help, so SIP does the early filtering.
        plan = JoinNode(
            ScanNode("orders", ["oid", "cid"]),
            ScanNode(
                "customers",
                ["cid", "region"],
                predicate=C("name") == L("cust7"),
                rename={"cid": "c_cid"},
            ),
            JoinType.INNER,
            condition=C("cid") == C("c_cid"),
        )
        session = db.session()
        rows = session.query(plan)
        assert len(rows) == 100  # oid % 20 == 7
        assert session.last_stats.rows_sip_filtered > 0

    def test_star_opt_rejects_non_colocated(self, db, tmp_path):
        # both tables hash-segmented on non-join keys: StarOpt cannot place
        db2 = Database(str(tmp_path / "db2"), node_count=3, k_safety=1)
        db2.create_table(
            TableDefinition(
                "a", [ColumnDef("x", types.INTEGER), ColumnDef("y", types.INTEGER)]
            )
        )
        db2.create_table(
            TableDefinition(
                "b", [ColumnDef("p", types.INTEGER), ColumnDef("q", types.INTEGER)]
            )
        )
        db2.load("a", [{"x": i, "y": i % 5} for i in range(50)])
        db2.load("b", [{"p": i, "q": i % 5} for i in range(50)])
        db2.analyze_statistics()
        plan = JoinNode(
            ScanNode("a", ["x", "y"]),
            ScanNode("b", ["p", "q"]),
            JoinType.INNER,
            condition=C("y") == C("q"),
        )
        with pytest.raises(PlanningError):
            run_planned(StarOpt, db2, plan)
        # starified and the product planner both handle it
        assert len(run_planned(StarifiedOpt, db2, plan)[0]) == 500
        assert len(db2.query(plan)) == 500

    def test_left_join(self, db):
        # delete a customer; its orders survive a LEFT join with NULLs
        session = db.session()
        session.delete("customers", C("cid") == L(3))
        session.commit()
        plan = JoinNode(
            ScanNode("orders", ["oid", "cid"]),
            ScanNode("customers", ["cid", "region"], rename={"cid": "c_cid"}),
            JoinType.LEFT,
            condition=C("cid") == C("c_cid"),
        )
        rows = db.query(plan)
        assert len(rows) == 2000
        orphans = [row for row in rows if row["cid"] == 3]
        assert all(row["region"] is None for row in orphans)


class TestTransactions:
    def test_own_inserts_visible_before_commit(self, db):
        session = db.session()
        session.insert("orders", [{"oid": 9999, "cid": 1, "amount": 1.0, "day": 1}])
        plan = orders_scan(["oid"], predicate=C("oid") == L(9999))
        assert len(session.query(plan)) == 1
        # other sessions do not see it
        assert len(db.session().query(plan)) == 0
        session.rollback()
        assert len(db.session().query(plan)) == 0

    def test_update_is_delete_plus_insert(self, db):
        session = db.session()
        changed = session.update(
            "orders", {"amount": L(0.0)}, C("oid") == L(5)
        )
        assert changed == 1
        epoch = session.commit()
        rows = db.query(orders_scan(["oid", "amount"], predicate=C("oid") == L(5)))
        assert rows == [{"oid": 5, "amount": 0.0}]
        # the pre-update value is still visible historically
        old = db.session().query(
            orders_scan(["oid", "amount"], predicate=C("oid") == L(5)),
            at_epoch=epoch - 1,
        )
        assert old[0]["amount"] == 5.0

    def test_concurrent_inserts_allowed(self, db):
        s1, s2 = db.session(), db.session()
        s1.insert("orders", [{"oid": 10001, "cid": 0, "amount": 0.0, "day": 0}])
        s2.insert("orders", [{"oid": 10002, "cid": 0, "amount": 0.0, "day": 0}])
        s1.commit()
        s2.commit()
        plan = orders_scan(["oid"], predicate=C("oid") > L(10000))
        assert len(db.query(plan)) == 2

    def test_delete_blocks_insert(self, db):
        s1, s2 = db.session(), db.session()
        s1.delete("orders", C("oid") == L(1))
        with pytest.raises(LockTimeoutError):
            s2.insert("orders", [{"oid": 10003, "cid": 0, "amount": 0.0, "day": 0}])
        s1.rollback()
        s2.insert("orders", [{"oid": 10003, "cid": 0, "amount": 0.0, "day": 0}])
        s2.commit()

    def test_serializable_takes_shared_lock(self, db):
        s1 = db.session(isolation=IsolationLevel.SERIALIZABLE)
        s1.query(orders_scan(["oid"]))
        s2 = db.session()
        with pytest.raises(LockTimeoutError):
            s2.delete("orders", C("oid") == L(1))
        s1.commit()
        s2.delete("orders", C("oid") == L(1))
        s2.commit()

    def test_read_committed_sees_fresh_data_per_statement(self, db):
        reader = db.session()
        plan = GroupByNode(
            orders_scan(["oid"]), [], [AggregateSpec("COUNT", None, "n")]
        )
        assert reader.query(plan) == [{"n": 2000}]
        writer = db.session()
        writer.insert("orders", [{"oid": 20000, "cid": 0, "amount": 0.0, "day": 0}])
        writer.commit()
        assert reader.query(plan) == [{"n": 2001}]


class TestFailureDuringQueries:
    def test_queries_keep_answering_with_node_down(self, db):
        db.run_tuple_movers()
        db.fail_node(1)
        plan = GroupByNode(
            orders_scan(["oid"]), [], [AggregateSpec("COUNT", None, "n")]
        )
        assert db.query(plan) == [{"n": 2000}]
        db.recover_node(1)
        assert db.query(plan) == [{"n": 2000}]


class TestExplain:
    def test_explain_shows_strategy(self, db):
        text = db.explain(join_plan())
        assert "Join" in text
        assert "Scan" in text

    def test_explain_differs_between_generations(self, db, tmp_path):
        plan = join_plan()
        star = StarOpt(db.cluster, db.stats).plan(plan).explain()
        v2 = db.explain(plan)
        assert "Scan" in star and "Scan" in v2
