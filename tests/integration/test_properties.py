"""Cross-cutting property tests (DESIGN.md §5 invariants)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ColumnDef, Database, TableDefinition, types
from repro.cluster import rebalance
from repro.columnar import blocks_to_rows
from repro.projections import (
    HashSegmentation,
    ProjectionColumn,
    ProjectionDefinition,
)
from storage_helpers import nodes_of, read_table

row_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(["a", "bb", "ccc", ""]),
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False,
                                       min_value=-1e6, max_value=1e6)),
    ),
    min_size=1,
    max_size=60,
    unique_by=lambda t: t[0],
)


def build_db(tmp_path_factory, rows, node_count=3):
    db = Database(
        str(tmp_path_factory.mktemp("prop")),
        node_count=node_count,
        k_safety=1 if node_count > 1 else 0,
    )
    db.create_table(
        TableDefinition(
            "t",
            [
                ColumnDef("k", types.INTEGER),
                ColumnDef("s", types.VARCHAR),
                ColumnDef("f", types.FLOAT),
            ],
            primary_key=("k",),
        ),
        sort_order=["k"],
    )
    db.load("t", [{"k": k, "s": s, "f": f} for k, s, f in rows])
    return db


def multiset(rows):
    return sorted(
        tuple(sorted((key, repr(value)) for key, value in row.items()))
        for row in rows
    )


class TestProjectionEquivalence:
    @given(rows=row_lists)
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_every_projection_answers_identically(self, tmp_path_factory, rows):
        db = build_db(tmp_path_factory, rows)
        narrow = ProjectionDefinition(
            name="t_by_s",
            anchor_table="t",
            columns=[
                ProjectionColumn("s", types.VARCHAR),
                ProjectionColumn("k", types.INTEGER),
                ProjectionColumn("f", types.FLOAT),
            ],
            sort_order=["s", "k"],
            segmentation=HashSegmentation(("s",)),
        )
        db.add_projection(narrow)
        db.run_tuple_movers()
        epoch = db.latest_epoch
        reference = None
        for family in db.cluster.catalog.families_for_table("t"):
            for copy in family.all_copies:
                gathered = []
                if copy.segmentation.replicated:
                    continue
                for node in db.cluster.nodes:
                    gathered.extend(
                        blocks_to_rows(node.manager.scan(copy.name, epoch))
                    )
                shaped = multiset(
                    {"k": r["k"], "s": r["s"], "f": r["f"]} for r in gathered
                )
                if reference is None:
                    reference = shaped
                else:
                    assert shaped == reference, copy.name


class TestRebalanceInvariance:
    @given(
        rows=row_lists,
        new_nodes=st.integers(min_value=2, max_value=6),
    )
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_rebalance_preserves_table(self, tmp_path_factory, rows, new_nodes):
        db = build_db(tmp_path_factory, rows)
        db.run_tuple_movers()
        epoch = db.latest_epoch
        before = multiset(read_table(db.cluster, "t", epoch))
        rebalance(db.cluster, new_nodes)
        after = multiset(read_table(db.cluster, "t", epoch))
        assert before == after
        # placement matches the new ring exactly
        family = db.cluster.catalog.super_projection_for("t")
        for node in db.cluster.nodes:
            own = blocks_to_rows(node.manager.scan(family.primary.name, epoch))
            placed = nodes_of(family.primary.segmentation, own, new_nodes)
            assert set(placed) <= {node.index}


class TestEncodingChoiceNeverLoses:
    @given(
        values=st.lists(
            st.integers(min_value=-(10**9), max_value=10**9),
            min_size=1, max_size=2000,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_auto_never_beaten_by_plain(self, values):
        from repro import types as T
        from repro.storage.encodings import PLAIN, choose_encoding

        chosen = choose_encoding(T.INTEGER, values)
        assert len(chosen.encode(values)) <= len(PLAIN.encode(values))

    @given(
        values=st.lists(
            st.sampled_from(["x", "y", "z"]), min_size=1, max_size=2000
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_auto_roundtrips_strings(self, values):
        from repro import types as T
        from repro.storage.encodings import choose_encoding

        chosen = choose_encoding(T.VARCHAR, values)
        assert chosen.decode(chosen.encode(values), len(values)) == values


class TestSqlAgainstBruteForce:
    @given(
        rows=row_lists,
        threshold=st.integers(min_value=0, max_value=10**6),
    )
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_filtered_count(self, tmp_path_factory, rows, threshold):
        db = build_db(tmp_path_factory, rows, node_count=1)
        got = db.sql(f"SELECT count(*) AS n FROM t WHERE k >= {threshold}")
        expected = sum(1 for k, _, _ in rows if k >= threshold)
        assert got == [{"n": expected}]

    @given(rows=row_lists)
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_group_by_string(self, tmp_path_factory, rows):
        db = build_db(tmp_path_factory, rows, node_count=1)
        got = db.sql("SELECT s, count(*) AS n FROM t GROUP BY s")
        from collections import Counter

        expected = Counter(s for _, s, _ in rows)
        assert {row["s"]: row["n"] for row in got} == dict(expected)
