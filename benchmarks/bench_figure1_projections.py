"""Figure 1: relationship between tables, projections and segments.

Recreates the paper's running example: a ``sales`` table with (1) a
super projection sorted by date, segmented by HASH(sale_id) and (2) a
narrow (cust, price) projection sorted by cust, segmented by
HASH(cust) — then prints what each node of a 3-node cluster actually
stores, which is the content of the figure.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.columnar import blocks_to_rows
from repro.projections import (
    HashSegmentation,
    ProjectionColumn,
    ProjectionDefinition,
)
from repro import types

from conftest import _emit, print_table

FIGURE_ROWS = [
    (1, 11, "Andrew", 0, 100.0),
    (2, 17, "Chuck", 4, 98.0),
    (3, 27, "Nga", 1, 90.0),
    (4, 28, "Matt", 2, 101.0),
    (5, 89, "Ben", 0, 103.0),
    (1000, 89, "Ben", 1, 103.0),
    (1001, 11, "Andrew", 2, 95.0),
]


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(str(tmp_path_factory.mktemp("fig1")), node_count=3, k_safety=1)
    db.sql(
        "CREATE TABLE sales (sale_id INTEGER, cid INTEGER, cust VARCHAR, "
        "sale_date DATE, price FLOAT, PRIMARY KEY (sale_id))"
    )
    narrow = ProjectionDefinition(
        name="sales_cust_price",
        anchor_table="sales",
        columns=[
            ProjectionColumn("cust", types.VARCHAR),
            ProjectionColumn("price", types.FLOAT),
        ],
        sort_order=["cust"],
        segmentation=HashSegmentation(("cust",)),
    )
    db.add_projection(narrow)
    rows = [
        dict(zip(("sale_id", "cid", "cust", "sale_date", "price"), values))
        for values in FIGURE_ROWS
    ]
    db.load("sales", rows)
    db.run_tuple_movers()
    return db


def test_figure1_report(benchmark, db):
    """Print each projection's per-node contents (the figure's bottom
    half) and assert the figure's structural properties."""
    catalog = db.cluster.catalog
    _emit("\n=== Figure 1 — projections of table `sales` ===")
    for family in catalog.families_for_table("sales"):
        _emit(f"  {family.primary.describe()}")
    for family in catalog.families_for_table("sales"):
        rows = []
        total = 0
        for node in db.cluster.nodes:
            stored = blocks_to_rows(node.manager.scan(
                family.primary.name, db.latest_epoch
            ))
            total += len(stored)
            rows.append(
                [
                    node.name,
                    len(stored),
                    ", ".join(
                        str(row.get("sale_id", row.get("cust")))
                        for row in stored
                    )
                    or "(empty)",
                ]
            )
        print_table(
            f"Figure 1 — {family.primary.name} per node",
            ["node", "rows", "contents"],
            rows,
        )
        assert total == len(FIGURE_ROWS)  # segmentation partitions rows

    # structural assertions matching the figure
    super_family = catalog.super_projection_for("sales")
    assert super_family.primary.segmentation.columns == ("sale_id",)
    narrow = catalog.family("sales_cust_price")
    assert narrow.primary.column_names == ["cust", "price"]
    assert narrow.primary.sort_order == ["cust"]
    assert not narrow.primary.is_super_for(catalog.table("sales"))
    benchmark.pedantic(lambda: db.sql('SELECT count(*) AS n FROM sales'), rounds=1, iterations=1)


def test_projections_answer_identically(benchmark, db):
    """Any projection answers covered queries with the same multiset."""
    via_narrow = db.sql("SELECT cust, price FROM sales")
    catalog = db.cluster.catalog
    super_name = catalog.super_projection_for("sales").primary.name
    by_super = []
    for node_index, projection_name in db.cluster.scan_sources(
        catalog.family(super_name)
    ):
        for row in blocks_to_rows(db.cluster.nodes[node_index].manager.scan(
            projection_name, db.latest_epoch
        )):
            by_super.append({"cust": row["cust"], "price": row["price"]})
    normalize = lambda rows: sorted(
        (row["cust"], row["price"]) for row in rows
    )
    assert normalize(via_narrow) == normalize(by_super)
    benchmark.pedantic(lambda: db.sql('SELECT cust, price FROM sales'), rounds=1, iterations=1)


def test_narrow_projection_query(benchmark, db):
    """pytest-benchmark: the narrow-projection query of the figure."""
    benchmark(
        lambda: db.sql("SELECT cust, sum(price) AS total FROM sales GROUP BY cust")
    )
