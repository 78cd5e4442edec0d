"""K-safety = 2: two buddies, two simultaneous failures survived."""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.columnar import blocks_to_rows
from repro.errors import DataUnavailableError
from storage_helpers import nodes_of


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "k2"), node_count=5, k_safety=2)
    db.create_table(
        TableDefinition(
            "t",
            [ColumnDef("k", types.INTEGER), ColumnDef("v", types.VARCHAR)],
            primary_key=("k",),
        ),
        sort_order=["k"],
    )
    db.load("t", [{"k": i, "v": f"v{i % 5}"} for i in range(500)])
    db.run_tuple_movers()
    return db


def total(db):
    return db.sql("SELECT count(*) AS n FROM t")[0]["n"]


class TestKSafety2:
    def test_three_copies_exist(self, db):
        family = db.cluster.catalog.super_projection_for("t")
        assert len(family.all_copies) == 3
        assert family.k_safety() == 2
        offsets = sorted(
            copy.segmentation.offset for copy in family.all_copies
        )
        assert offsets == [0, 1, 2]

    def test_no_row_colocated_across_copies(self, db):
        family = db.cluster.catalog.super_projection_for("t")
        for node in db.cluster.nodes:
            sets = [
                {
                    row["k"]
                    for row in blocks_to_rows(node.manager.scan(
                        copy.name, db.latest_epoch
                    ))
                }
                for copy in family.all_copies
            ]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert sets[i].isdisjoint(sets[j])

    def test_survives_two_failures(self, db):
        db.fail_node(0)
        db.fail_node(1)
        assert total(db) == 500
        assert db.cluster.check_data_available()

    def test_dml_during_double_failure_then_recovery(self, db):
        db.fail_node(0)
        db.fail_node(3)
        db.load("t", [{"k": 1000 + i, "v": "new"} for i in range(50)])
        db.sql("DELETE FROM t WHERE k < 10")
        assert total(db) == 540
        db.recover_node(0)
        db.recover_node(3)
        assert total(db) == 540
        # recovered nodes individually hold exactly their segments
        family = db.cluster.catalog.super_projection_for("t")
        for node_index in (0, 3):
            own = blocks_to_rows(db.cluster.nodes[node_index].manager.scan(
                family.primary.name, db.latest_epoch
            ))
            assert set(nodes_of(family.primary.segmentation, own, 5)) <= {node_index}

    def test_k1_design_cannot_survive_two(self, tmp_path):
        db = Database(str(tmp_path / "k1"), node_count=5, k_safety=1)
        db.create_table(
            TableDefinition("t", [ColumnDef("k", types.INTEGER)]),
        )
        db.load("t", [{"k": i} for i in range(100)])
        db.run_tuple_movers()
        # failing two *adjacent* nodes loses the segment whose primary
        # and buddy both lived there
        db.fail_node(0)
        db.fail_node(1)
        assert not db.cluster.check_data_available()
        with pytest.raises(DataUnavailableError):
            db.sql("SELECT count(*) FROM t")
