#!/usr/bin/env python3
"""Figure 1 as a narrative: tables, projections, segments (§3).

Recreates the paper's sales example — a super projection sorted by
date segmented by HASH(sale_id), and a narrow (cust, price) projection
sorted by cust segmented by HASH(cust) — and shows how the optimizer
picks between them, how encodings differ per projection, and how
buddies place rows for K-safety.

Run:  python examples/projections_and_segmentation.py
"""

import tempfile

from repro import Database, types
from repro.columnar import blocks_to_rows
from repro.projections import (
    HashSegmentation,
    ProjectionColumn,
    ProjectionDefinition,
)

SALES = [
    (1, 11, "Andrew", "2006-01-01", 100.0),
    (2, 17, "Chuck", "2006-01-05", 98.0),
    (3, 27, "Nga", "2006-01-02", 90.0),
    (4, 28, "Matt", "2006-01-03", 101.0),
    (5, 89, "Ben", "2006-01-01", 103.0),
    (1000, 89, "Ben", "2006-01-02", 103.0),
    (1001, 11, "Andrew", "2006-01-03", 95.0),
]


def main() -> None:
    db = Database(tempfile.mkdtemp(prefix="repro_fig1_"),
                  node_count=3, k_safety=1)
    db.sql(
        "CREATE TABLE sales (sale_id INTEGER, cid INTEGER, cust VARCHAR,"
        " sale_date DATE, price FLOAT, PRIMARY KEY (sale_id))"
    )

    print("== the figure's second projection, via SQL DDL ==")
    db.sql(
        "CREATE PROJECTION sales_cust_price (cust ENCODING RLE, price) AS"
        " SELECT cust, price FROM sales ORDER BY cust"
        " SEGMENTED BY HASH(cust) ALL NODES"
    )

    rows = [f"{sid}|{cid}|{cust}|{date}|{price}"
            for sid, cid, cust, date, price in SALES]
    db.sql("COPY sales FROM STDIN", copy_rows=rows)
    db.run_tuple_movers()
    db.analyze_statistics()

    print("\n== catalog ==")
    for family in db.cluster.catalog.families_for_table("sales"):
        for copy in family.all_copies:
            marker = "buddy " if copy.buddy_offset else ""
            print(f"  {marker}{copy.describe()}")

    print("\n== physical placement (the figure's bottom half) ==")
    for family in db.cluster.catalog.families_for_table("sales"):
        print(f"  {family.primary.name}:")
        for node in db.cluster.nodes:
            stored = blocks_to_rows(node.manager.scan(
                family.primary.name, db.latest_epoch))
            keys = [str(r.get("sale_id", r.get("cust"))) for r in stored]
            print(f"    {node.name}: {', '.join(keys) or '(empty)'}")

    print("\n== buddies never co-locate a row with the primary ==")
    family = db.cluster.catalog.super_projection_for("sales")
    for node in db.cluster.nodes:
        primary_ids = {r["sale_id"] for r in blocks_to_rows(node.manager.scan(
            family.primary.name, db.latest_epoch))}
        buddy_ids = {r["sale_id"] for r in blocks_to_rows(node.manager.scan(
            family.buddies[0].name, db.latest_epoch))}
        print(f"  {node.name}: primary {sorted(primary_ids)} "
              f"| buddy {sorted(buddy_ids)} "
              f"| overlap {sorted(primary_ids & buddy_ids)}")

    print("\n== the optimizer picks the projection per query ==")
    for sql in (
        "SELECT cust, sum(price) AS total FROM sales GROUP BY cust",
        "SELECT sale_id, sale_date FROM sales WHERE sale_id = 1000",
    ):
        plan = db.sql("EXPLAIN " + sql)
        scan_line = next(line for line in plan.splitlines() if "Scan" in line)
        print(f"  {sql}")
        print(f"    -> {scan_line.strip()}")

    print("\n== per-projection encodings on real storage ==")
    for family in db.cluster.catalog.families_for_table("sales"):
        name = family.primary.name
        for node in db.cluster.nodes:
            state = node.manager.storage(name)
            for container in state.containers.values():
                encodings = {
                    column: container.column_reader(column).blocks[0].encoding
                    for column in container.meta.columns
                }
                print(f"  {name} on {node.name}: {encodings}")
                break
            break


if __name__ == "__main__":
    main()
