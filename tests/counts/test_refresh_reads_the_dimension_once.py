"""Counts, not timings: refreshing a prejoin projection reads its
dimension once per distinct insert epoch, not once per fact row.

Refresh used to shape one history record at a time, and shaping a row
for a prejoin copy reads the whole dimension table: 400 facts x 2
copies = 800 whole-table reads.  A run is shaped once per family, the
dimension read (``Cluster.read_columns``) once per insert epoch it
holds — and each fact still carries the dimension value that was
visible at its own epoch.
"""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.cluster import Cluster
from repro.projections import (
    HashSegmentation,
    PrejoinSpec,
    ProjectionColumn,
    ProjectionDefinition,
    Replicated,
)

FACTS = 400
PREJOIN = ProjectionDefinition(
    # named to sort after a_orders_super, which serves the table's reads
    name="a_orders_with_customer",
    anchor_table="a_orders",
    columns=[
        ProjectionColumn("oid", types.INTEGER),
        ProjectionColumn("cid", types.INTEGER),
        ProjectionColumn("cust_name", types.VARCHAR),
    ],
    sort_order=["cust_name", "oid"],
    segmentation=HashSegmentation(("oid",)),
    prejoin=PrejoinSpec("z_customers", "cid", "cid", {"name": "cust_name"}),
)


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1)
    db.create_table(
        TableDefinition(
            "z_customers",
            [ColumnDef("cid", types.INTEGER), ColumnDef("name", types.VARCHAR)],
            primary_key=("cid",),
        ),
        segmentation=Replicated(),
    )
    db.create_table(
        TableDefinition(
            "a_orders",
            [ColumnDef("oid", types.INTEGER), ColumnDef("cid", types.INTEGER)],
            primary_key=("oid",),
        )
    )
    db.load("z_customers", [{"cid": c, "name": f"name{c}"} for c in range(5)])
    return db


@pytest.fixture
def dimension_reads(monkeypatch):
    reads = []
    original = Cluster.read_columns

    def counted(self, table_name, epoch, names=None):
        reads.append((table_name, epoch))
        return original(self, table_name, epoch, names)

    monkeypatch.setattr(Cluster, "read_columns", counted)
    return reads


def stored(db):
    """``oid -> cust_name`` per copy of the prejoin family, all nodes."""
    family = db.cluster.catalog.family(PREJOIN.name)
    copies = {}
    for copy in family.all_copies:
        rows = [
            row
            for node in db.cluster.nodes
            for row in node.manager.history(copy.name).rows()
        ]
        copies[copy.name] = {row["oid"]: row["cust_name"] for row in rows}
        assert len(copies[copy.name]) == len(rows)
    return copies


def test_one_dimension_read_per_insert_epoch(db, dimension_reads):
    facts = [{"oid": o, "cid": o % 5} for o in range(FACTS)]
    db.load("a_orders", facts[:300], direct_to_ros=True)
    db.cluster.run_tuple_movers()
    epoch = db.load("a_orders", facts[300:])  # these wait in the WOS
    del dimension_reads[:]

    db.add_projection(PREJOIN)

    copies = len(db.cluster.catalog.family(PREJOIN.name).all_copies)
    assert copies == 2 and 0 < len(dimension_reads) <= 2 * copies
    assert set(dimension_reads) <= {("z_customers", epoch - 1), ("z_customers", epoch)}
    expected = {fact["oid"]: f"name{fact['cid']}" for fact in facts}
    assert stored(db) == dict.fromkeys(stored(db), expected)
    assert db.sql(
        "SELECT count(*) AS n FROM a_orders WHERE cid = 3"
    ) == [{"n": FACTS // 5}]


def test_each_fact_carries_the_dimension_of_its_own_epoch(db, dimension_reads):
    db.load("a_orders", [{"oid": o, "cid": 1} for o in range(0, 10)])
    db.sql("UPDATE z_customers SET name = 'renamed' WHERE cid = 1")
    db.load("a_orders", [{"oid": o, "cid": 1} for o in range(10, 20)])
    db.cluster.run_tuple_movers()
    db.load("a_orders", [{"oid": o, "cid": 1} for o in range(20, 30)])
    del dimension_reads[:]

    db.add_projection(PREJOIN)

    assert len(dimension_reads) == 3  # three insert epochs, one family
    expected = {
        oid: "name1" if oid < 10 else "renamed" for oid in range(30)
    }
    assert stored(db) == dict.fromkeys(stored(db), expected)
