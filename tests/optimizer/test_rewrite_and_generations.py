"""Tests for logical rewrites, the planner, and the planner against the
generations it replaced (``reference_planners``)."""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.execution import And, ColumnRef, Comparison, IsNull, Literal
from repro.execution.operators.join import JoinType
from repro.execution.aggregates import AggregateSpec
from repro.optimizer import (
    DistinctNode,
    FilterNode,
    GroupByNode,
    JoinNode,
    PhysJoin,
    PhysScan,
    PlannerBase,
    ProjectNode,
    ScanNode,
    rewrite,
)
from repro.optimizer import physical as P
from repro.optimizer.rewrite import (
    add_transitive_predicates,
    convert_outer_to_inner,
    prune_columns,
    push_down_filters,
    split_conjuncts,
)
from repro.projections import Replicated

from reference_planners import StarifiedOpt, StarOpt, run_planned

C = ColumnRef
L = Literal


def scans():
    fact = ScanNode("fact", ["f_id", "dim_id", "v"])
    dim = ScanNode("dim", ["d_id", "name"])
    return fact, dim


class TestPushDown:
    def test_filter_merges_into_scan(self):
        fact, _ = scans()
        plan = FilterNode(fact, C("v") > L(5))
        result = push_down_filters(plan)
        assert result is fact
        assert repr(fact.predicate) == repr(C("v") > L(5))

    def test_join_side_routing(self):
        fact, dim = scans()
        join = JoinNode(fact, dim, JoinType.INNER, condition=C("dim_id") == C("d_id"))
        plan = FilterNode(join, And(C("v") > L(5), C("name") == L("x")))
        result = push_down_filters(plan)
        assert result is join
        assert fact.predicate is not None
        assert dim.predicate is not None

    def test_left_join_blocks_null_side_pushdown(self):
        fact, dim = scans()
        join = JoinNode(fact, dim, JoinType.LEFT, condition=C("dim_id") == C("d_id"))
        plan = FilterNode(join, IsNull(C("name")))
        result = push_down_filters(plan)
        # predicate on the NULL-extended side must stay above the join
        assert isinstance(result, FilterNode)
        assert dim.predicate is None

    def test_pushdown_through_rename(self):
        scan = ScanNode("fact", ["f_id"], rename={"f_id": "f.f_id"})
        plan = FilterNode(scan, C("f.f_id") > L(3))
        result = push_down_filters(plan)
        assert result is scan
        assert scan.predicate.referenced_columns() == {"f_id"}


class TestTransitivePredicates:
    def test_constant_copied_across_join_keys(self):
        fact, dim = scans()
        dim.predicate = C("d_id") == L(7)
        join = JoinNode(fact, dim, JoinType.INNER, condition=C("dim_id") == C("d_id"))
        add_transitive_predicates(join)
        conjuncts = [repr(c) for c in split_conjuncts(fact.predicate)]
        assert "(dim_id = 7)" in conjuncts

    def test_not_applied_to_outer_joins(self):
        fact, dim = scans()
        dim.predicate = C("d_id") == L(7)
        join = JoinNode(fact, dim, JoinType.LEFT, condition=C("dim_id") == C("d_id"))
        add_transitive_predicates(join)
        assert fact.predicate is None

    def test_idempotent(self):
        fact, dim = scans()
        dim.predicate = C("d_id") == L(7)
        join = JoinNode(fact, dim, JoinType.INNER, condition=C("dim_id") == C("d_id"))
        add_transitive_predicates(join)
        add_transitive_predicates(join)
        assert len(split_conjuncts(fact.predicate)) == 1


class TestPruneColumns:
    def test_scans_and_joins_keep_what_the_plan_above_reads(self):
        fact, dim = scans()
        join = JoinNode(fact, dim, JoinType.INNER, condition=C("dim_id") == C("d_id"))
        plan = GroupByNode(join, [("name", C("name"))], [AggregateSpec("SUM", C("v"), "s")])
        prune_columns(plan)
        assert fact.columns == ["dim_id", "v"]
        assert dim.columns == ["d_id", "name"]
        assert join.needed == {"name", "v"}  # the keys are read below it

    def test_a_filter_and_a_residual_keep_their_columns(self):
        fact, dim = scans()
        join = JoinNode(
            fact, dim, JoinType.LEFT,
            condition=And(C("dim_id") == C("d_id"), C("name") == L("x")),
        )
        plan = ProjectNode(FilterNode(join, C("f_id") > L(3)), {"v": C("v")})
        prune_columns(plan)
        assert join.needed == {"v", "f_id"}  # the condition is read below it
        assert fact.columns == ["f_id", "dim_id", "v"]
        assert dim.columns == ["d_id", "name"]

    def test_a_bare_root_and_distinct_read_every_column(self):
        fact, dim = scans()
        prune_columns(fact)
        assert fact.columns == ["f_id", "dim_id", "v"]
        join = JoinNode(fact, dim, JoinType.INNER, condition=C("dim_id") == C("d_id"))
        prune_columns(DistinctNode(join))
        assert join.needed is None
        assert dim.columns == ["d_id", "name"]

    def test_a_bare_count_keeps_one_column(self):
        count = [AggregateSpec("COUNT", None, "n")]
        fact, _ = scans()
        prune_columns(GroupByNode(fact, [], count))
        assert fact.columns == ["f_id"]
        fact, _ = scans()
        fact.predicate = C("v") > L(5)
        prune_columns(GroupByNode(fact, [], count))
        assert fact.columns == ["v"]  # decoded for the predicate anyway


class TestOuterToInner:
    def test_null_rejecting_filter_converts(self):
        fact, dim = scans()
        join = JoinNode(fact, dim, JoinType.LEFT, condition=C("dim_id") == C("d_id"))
        plan = FilterNode(join, C("name") == L("x"))
        convert_outer_to_inner(plan)
        assert join.join_type is JoinType.INNER

    def test_is_null_filter_does_not_convert(self):
        fact, dim = scans()
        join = JoinNode(fact, dim, JoinType.LEFT, condition=C("dim_id") == C("d_id"))
        plan = FilterNode(join, IsNull(C("name")))
        convert_outer_to_inner(plan)
        assert join.join_type is JoinType.LEFT


@pytest.fixture
def star_db(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1)
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
            [ColumnDef("d_id", types.INTEGER), ColumnDef("name", types.VARCHAR)],
            primary_key=("d_id",),
        ),
        segmentation=Replicated(),
    )
    db.load("dim", [{"d_id": i, "name": f"d{i}"} for i in range(20)])
    db.load(
        "fact",
        [{"f_id": i, "dim_id": i % 20, "v": float(i)} for i in range(2000)],
    )
    db.analyze_statistics()
    return db


def star_query():
    return JoinNode(
        ScanNode("fact", ["f_id", "dim_id", "v"]),
        ScanNode("dim", ["d_id", "name"]),
        JoinType.INNER,
        condition=C("dim_id") == C("d_id"),
    )


class TestGenerations:
    def test_staropt_plans_star_colocated(self, star_db):
        plan = StarOpt(star_db.cluster, star_db.stats).plan(star_query())
        joins = [n for n in plan.walk() if isinstance(n, PhysJoin)]
        assert len(joins) == 1
        assert joins[0].strategy == P.COLOCATED

    def test_staropt_puts_fact_on_probe_side(self, star_db):
        plan = StarOpt(star_db.cluster, star_db.stats).plan(star_query())
        join = next(n for n in plan.walk() if isinstance(n, PhysJoin))
        left_scan = next(
            n for n in join.left.walk() if isinstance(n, PhysScan)
        )
        assert left_scan.table == "fact"

    def test_v2_uses_sip_on_hash_joins(self, star_db):
        plan = star_db.planner().plan(star_query())
        join = next(n for n in plan.walk() if isinstance(n, PhysJoin))
        if join.algorithm == "hash" and join.strategy != P.RESEGMENT:
            assert join.sip

    def test_all_generations_same_results(self, star_db):
        for planner in (StarOpt, StarifiedOpt, PlannerBase):
            rows, _, _ = run_planned(planner, star_db, star_query())
            assert len(rows) == 2000

    def test_projection_choice_prefers_predicate_sorted(self, star_db):
        from repro.projections import HashSegmentation, ProjectionColumn, ProjectionDefinition

        narrow = ProjectionDefinition(
            name="fact_by_v",
            anchor_table="fact",
            columns=[
                ProjectionColumn("v", types.FLOAT),
                ProjectionColumn("f_id", types.INTEGER),
                ProjectionColumn("dim_id", types.INTEGER),
            ],
            sort_order=["v"],
            segmentation=HashSegmentation(("f_id",)),
        )
        star_db.add_projection(narrow)
        star_db.analyze_statistics()
        query = ScanNode("fact", ["f_id"], predicate=C("v") > L(1990.0))
        plan = star_db.planner().plan(query)
        scan = next(n for n in plan.walk() if isinstance(n, PhysScan))
        assert scan.family_name == "fact_by_v"

    def test_a_scan_claims_only_the_sort_prefix_it_emits(self, tmp_path):
        """A scan emitting ``meter`` of a ``(metric, meter, ts)``
        projection is sorted only within each metric's run: it is not
        sorted by ``meter``, so a GROUP BY meter over it hashes."""
        from repro.workloads.meters import meters_table

        db = Database(str(tmp_path / "so"), node_count=1)
        db.create_table(meters_table(), sort_order=["metric", "meter", "ts"])
        db.load("meter_readings", [
            {"metric": m, "meter": k, "ts": t, "value": 1.0}
            for m in ("a", "b") for k in range(3) for t in range(2)
        ])
        db.analyze_statistics()
        planner = db.planner()
        second = planner.plan_scan(ScanNode("meter_readings", ["meter"]))
        assert second.sort_order == ()
        prefix = planner.plan_scan(ScanNode("meter_readings", ["ts", "meter", "metric"]))
        assert prefix.sort_order == ("metric", "meter", "ts")
        count = [AggregateSpec("COUNT", None, "n")]
        grouped = planner.plan(
            GroupByNode(ScanNode("meter_readings", ["meter"]), [("meter", C("meter"))], count)
        )
        assert grouped.algorithm == "hash"
        assert sorted(
            (row["meter"], row["n"]) for row in db.query(
                GroupByNode(ScanNode("meter_readings", ["meter"]), [("meter", C("meter"))], count)
            )
        ) == [(0, 4), (1, 4), (2, 4)]

    def test_merge_join_chosen_for_matching_sort_orders(self, tmp_path):
        db = Database(str(tmp_path / "mj"), node_count=1)
        db.create_table(
            TableDefinition(
                "a", [ColumnDef("k", types.INTEGER), ColumnDef("x", types.INTEGER)]
            ),
            sort_order=["k"],
            segmentation=Replicated(),
        )
        db.create_table(
            TableDefinition(
                "b", [ColumnDef("k2", types.INTEGER), ColumnDef("y", types.INTEGER)]
            ),
            sort_order=["k2"],
            segmentation=Replicated(),
        )
        db.load("a", [{"k": i, "x": i} for i in range(100)])
        db.load("b", [{"k2": i, "y": i} for i in range(100)])
        db.analyze_statistics()
        query = JoinNode(
            ScanNode("a", ["k", "x"]),
            ScanNode("b", ["k2", "y"]),
            JoinType.INNER,
            condition=C("k") == C("k2"),
        )
        plan = db.planner().plan(query)
        join = next(n for n in plan.walk() if isinstance(n, PhysJoin))
        assert join.algorithm == "merge"
        rows = db.query(query)
        assert len(rows) == 100

    def test_v2_costs_resegment_vs_broadcast(self, star_db, tmp_path):
        # two large co-segmented-on-wrong-keys tables: v2 resegments,
        # starified broadcasts; both must agree on results.
        db = Database(str(tmp_path / "rs"), node_count=3, k_safety=1)
        for name, key in (("big1", "a"), ("big2", "b")):
            db.create_table(
                TableDefinition(
                    name,
                    [ColumnDef(key, types.INTEGER), ColumnDef("j" + name, types.INTEGER)],
                    primary_key=(key,),
                )
            )
        db.load("big1", [{"a": i, "jbig1": i % 50} for i in range(1000)])
        db.load("big2", [{"b": i, "jbig2": i % 50} for i in range(1000)])
        db.analyze_statistics()
        query = JoinNode(
            ScanNode("big1", ["a", "jbig1"]),
            ScanNode("big2", ["b", "jbig2"]),
            JoinType.INNER,
            condition=C("jbig1") == C("jbig2"),
        )
        v2_plan = db.planner().plan(query)
        v2_join = next(n for n in v2_plan.walk() if isinstance(n, PhysJoin))
        assert v2_join.strategy in (P.RESEGMENT, P.BROADCAST_INNER)
        rows, _, star_plan = run_planned(StarifiedOpt, db, query)
        star_join = next(n for n in star_plan.walk() if isinstance(n, PhysJoin))
        assert star_join.strategy == P.BROADCAST_INNER
        assert len(db.query(query)) == 20000
        assert len(rows) == 20000

    def test_rewrite_wrapper(self):
        fact, dim = scans()
        dim.predicate = C("d_id") == L(3)
        join = JoinNode(fact, dim, JoinType.LEFT, condition=C("dim_id") == C("d_id"))
        plan = FilterNode(join, C("name") == L("x"))
        result = rewrite(plan)
        assert join.join_type is JoinType.INNER  # converted
        conjuncts = [repr(c) for c in split_conjuncts(fact.predicate)]
        assert "(dim_id = 3)" in conjuncts  # transitive after conversion


def _expressions_under(value, found):
    """Every Expr reachable from a logical tree, by identity."""
    from repro.execution.expressions import Expr
    from repro.optimizer.logical import LogicalNode

    if isinstance(value, Expr):
        if id(value) not in found:
            found[id(value)] = value
            _expressions_under(list(vars(value).values()), found)
    elif isinstance(value, LogicalNode):
        _expressions_under(list(vars(value).values()), found)
    elif isinstance(value, dict):
        _expressions_under(list(value.values()), found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _expressions_under(item, found)
    return found


class TestPlanCopiesNodesNotExpressions:
    """``PlannerBase.plan`` copies the logical *nodes* — what ``rewrite``
    rebinds — and shares every expression: no rewrite and no planner
    step mutates an ``Expr``, they build new ones."""

    @staticmethod
    def outer_join_query():
        # exercises every in-place rewrite: outer->inner conversion,
        # push-down into both scans, a transitive predicate
        return FilterNode(
            JoinNode(
                ScanNode("fact", ["f_id", "dim_id", "v"]),
                ScanNode("dim", ["d_id", "name"], predicate=C("d_id") == L(7)),
                JoinType.LEFT,
                condition=C("dim_id") == C("d_id"),
            ),
            And(C("name") == L("d7"), C("v") > L(5.0)),
        )

    def test_replanning_one_tree_leaves_it_untouched(self, star_db):
        query = self.outer_join_query()
        before = query.explain()
        first = star_db.planner().plan(query)
        assert query.explain() == before
        assert query.child.join_type is JoinType.LEFT
        assert query.child.left.predicate is None
        assert star_db.planner().plan(query).explain() == first.explain()
        assert len(star_db.query(query)) == len(star_db.query(query)) == 100

    def test_no_expression_is_copied_or_mutated(self, star_db, monkeypatch):
        import copy

        from repro.execution.expressions import Expr

        query = self.outer_join_query()
        originals = _expressions_under(query, {})
        assert len(originals) > 10
        rendered = {key: repr(expr) for key, expr in originals.items()}
        deep_copies, rebound = [], []
        real_deepcopy = copy.deepcopy
        monkeypatch.setattr(
            copy, "deepcopy", lambda *a, **k: deep_copies.append(a) or real_deepcopy(*a, **k)
        )

        def watching(self, name, value):
            if id(self) in originals and not name.startswith("_"):
                rebound.append((self, name))  # caches are underscored
            object.__setattr__(self, name, value)

        monkeypatch.setattr(Expr, "__setattr__", watching, raising=False)
        for planner in (StarOpt, StarifiedOpt, PlannerBase):
            planner(star_db.cluster, star_db.stats).plan(query)
        star_db.sql("SELECT f_id FROM fact WHERE dim_id = 3 AND v > 100.0")
        assert deep_copies == []
        assert rebound == []
        assert {key: repr(expr) for key, expr in originals.items()} == rendered
