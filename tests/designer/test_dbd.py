"""Tests for the Database Designer."""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.columnar import blocks_to_rows
from repro.designer import (
    BALANCED,
    LOAD_OPTIMIZED,
    QUERY_OPTIMIZED,
    DatabaseDesigner,
)
from repro.errors import DesignError


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1)
    db.create_table(
        TableDefinition(
            "metrics",
            [
                ColumnDef("metric", types.VARCHAR),
                ColumnDef("meter", types.INTEGER),
                ColumnDef("ts", types.INTEGER),
                ColumnDef("value", types.FLOAT),
            ],
        ),
        sort_order=["meter", "ts"],
    )
    rows = [
        {
            "metric": f"m{i % 5}",
            "meter": i % 40,
            "ts": i * 300,
            "value": float(i % 97),
        }
        for i in range(4000)
    ]
    db.load("metrics", rows)
    db.analyze_statistics()
    return db


WORKLOAD = [
    "SELECT metric, count(*) FROM metrics WHERE metric = 'm3' GROUP BY metric",
    "SELECT metric, sum(value) FROM metrics GROUP BY metric",
]


class TestCandidateEnumeration:
    def test_candidates_cover_predicate_and_group_columns(self, db):
        designer = DatabaseDesigner(db)
        from repro.sql.analyzer import Analyzer
        from repro.sql.parser import parse

        analyzer = Analyzer(db.cluster.catalog)
        workload = [analyzer.analyze_select(parse(q)) for q in WORKLOAD]
        candidates = designer.enumerate_candidates(workload)
        assert candidates
        sort_leads = {c.definition.sort_order[0] for c in candidates}
        assert "metric" in sort_leads

    def test_candidates_are_valid_projections(self, db):
        designer = DatabaseDesigner(db)
        from repro.sql.analyzer import Analyzer
        from repro.sql.parser import parse

        analyzer = Analyzer(db.cluster.catalog)
        workload = [analyzer.analyze_select(parse(q)) for q in WORKLOAD]
        for candidate in designer.enumerate_candidates(workload):
            table = db.cluster.catalog.table(candidate.definition.anchor_table)
            assert candidate.definition.is_super_for(table)


class TestDesign:
    def test_balanced_design_proposes_beneficial_projection(self, db):
        designer = DatabaseDesigner(db)
        proposal = designer.design_sql(WORKLOAD, policy="balanced")
        assert proposal.policy is BALANCED
        assert len(proposal.projections) <= 1
        if proposal.projections:
            assert proposal.designed_cost <= proposal.baseline_cost

    def test_load_optimized_proposes_nothing(self, db):
        designer = DatabaseDesigner(db)
        proposal = designer.design_sql(WORKLOAD, policy="load-optimized")
        assert proposal.projections == []

    def test_query_optimized_allows_more(self, db):
        designer = DatabaseDesigner(db)
        balanced = designer.design_sql(WORKLOAD, policy="balanced")
        rich = designer.design_sql(WORKLOAD, policy="query-optimized")
        assert rich.policy is QUERY_OPTIMIZED
        assert len(rich.projections) >= len(balanced.projections)

    def test_empty_workload_rejected(self, db):
        with pytest.raises(DesignError):
            DatabaseDesigner(db).design([], policy="balanced")

    def test_unknown_policy_rejected(self, db):
        with pytest.raises(DesignError):
            DatabaseDesigner(db).design_sql(WORKLOAD, policy="turbo")

    def test_summary_readable(self, db):
        proposal = DatabaseDesigner(db).design_sql(WORKLOAD, "query-optimized")
        text = proposal.summary()
        assert "Design (query-optimized)" in text


class TestEncodingPhase:
    def test_empirical_encodings_match_data_shape(self, db):
        designer = DatabaseDesigner(db)
        proposal = designer.design_sql(WORKLOAD, policy="query-optimized")
        for projection in proposal.projections:
            encodings = proposal.encodings[projection.name]
            lead = projection.sort_order[0]
            if lead == "metric":
                # 5 distinct sorted values -> RLE is unbeatable
                assert encodings["metric"] == "RLE"

    def test_deploy_creates_projections(self, db):
        designer = DatabaseDesigner(db)
        proposal = designer.design_sql(WORKLOAD, policy="query-optimized")
        created = designer.deploy(proposal)
        assert created == len(proposal.projections)
        for projection in proposal.projections:
            family = db.cluster.catalog.family(projection.name)
            # populated via refresh
            total = sum(
                len(blocks_to_rows(node.manager.scan(copy.name, db.latest_epoch)))
                for node in db.cluster.nodes
                for copy in [family.primary]
            )
            assert total == 4000

    def test_deployed_projection_used_by_optimizer(self, db):
        designer = DatabaseDesigner(db)
        proposal = designer.design_sql(WORKLOAD, policy="query-optimized")
        designer.deploy(proposal)
        db.analyze_statistics()
        rows = db.sql(WORKLOAD[0])
        assert rows[0]["count"] == 800
