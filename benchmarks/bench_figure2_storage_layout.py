"""Figure 2: physical storage layout within a node.

The figure shows a table partitioned by EXTRACT(month, year) and
segmented by HASH(cid), stored on one node as 14 ROS containers (one
per partition key x local segment after tuple-mover activity), each
column a separate pair of files.  This bench loads four months of data
into a node configured with 3 local segments and prints the resulting
container/file inventory.
"""

from __future__ import annotations

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.execution import ColumnRef, Literal
from repro.projections import HashSegmentation

from conftest import _emit, print_table

MONTHS = [(2012, 3), (2012, 4), (2012, 5), (2012, 6)]


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(
        str(tmp_path_factory.mktemp("fig2")),
        node_count=1,
        segments_per_node=3,
    )
    table = TableDefinition(
        "readings",
        [ColumnDef("cid", types.INTEGER), ColumnDef("value", types.FLOAT),
         ColumnDef("month_key", types.INTEGER)],
        partition_by=ColumnRef("month_key"),
    )
    db.create_table(
        table,
        sort_order=["cid"],
        segmentation=HashSegmentation(("cid",)),
    )
    rows = []
    for index, (year, month) in enumerate(MONTHS):
        for cid in range(500):
            rows.append(
                {"cid": cid, "value": float(cid), "month_key": year * 100 + month}
            )
    db.load("readings", rows, direct_to_ros=True)
    db.run_tuple_movers()
    return db


def test_figure2_report(benchmark, db):
    """Print the node's ROS container inventory and check the figure's
    invariants: one (partition, local segment) per container, two files
    per column, data fully segregated."""
    family = db.cluster.catalog.super_projection_for("readings")
    manager = db.cluster.nodes[0].manager
    state = manager.storage(family.primary.name)
    rows = []
    user_files = 0
    for container_id in sorted(state.containers):
        container = state.containers[container_id]
        files = container.file_inventory()
        dat_files = [
            f for f in files if f.endswith(".dat") and not f.startswith("_epoch")
        ]
        user_files += len(dat_files)
        rows.append(
            [
                f"ros_{container_id:06d}",
                repr(container.meta.partition_key),
                container.meta.local_segment,
                container.row_count,
                len(dat_files),
            ]
        )
    print_table(
        "Figure 2 — ROS containers on node00 "
        "(partitioned by month, segmented by HASH(cid), 3 local segments)",
        ["container", "partition key", "local segment", "rows", "column .dat files"],
        rows,
    )
    containers = list(state.containers.values())
    # every container holds exactly one partition key & one local segment
    keys = {(repr(c.meta.partition_key), c.meta.local_segment) for c in containers}
    assert len(keys) == len(containers)
    # 4 months x 3 local segments = 12 containers after mergeout
    assert len(containers) == len(MONTHS) * 3
    # two files per column per container (the paper's 28-file count at
    # its 14x2 configuration; here 12 containers x 3 user columns)
    for container in containers:
        files = set(container.file_inventory())
        for column in ("cid", "value", "month_key"):
            assert f"{column}.dat" in files and f"{column}.pidx" in files
    benchmark.pedantic(lambda: db.sql('SELECT count(*) AS n FROM readings'), rounds=1, iterations=1)


def test_partition_drop_is_file_deletion(benchmark, db):
    """The figure's point: dropping a month only deletes whole files."""
    family = db.cluster.catalog.super_projection_for("readings")
    manager = db.cluster.nodes[0].manager
    before = manager.container_count(family.primary.name)
    reclaimed = manager.drop_partition(family.primary.name, 201203)
    after = manager.container_count(family.primary.name)
    _emit(
        f"\nFigure 2 — dropped partition 2012-03: {reclaimed} rows reclaimed, "
        f"{before - after} containers deleted instantly"
    )
    assert reclaimed == 500
    assert before - after == 3  # that month's three local segments
    # remaining data untouched
    remaining = db.sql("SELECT count(*) AS n FROM readings")[0]["n"]
    assert remaining == 1500
    benchmark.pedantic(lambda: db.sql('SELECT count(*) AS n FROM readings'), rounds=1, iterations=1)


def test_pruning_via_partition_minmax(benchmark, db):
    """Partition separation keeps min/max pruning effective: a
    one-month query touches one month's containers."""
    from repro.execution.executor import DistributedExecutor
    from repro.optimizer import ScanNode

    def run():
        plan = ScanNode(
            "readings",
            ["cid"],
            predicate=ColumnRef("month_key") == Literal(201204),
        )
        executor = DistributedExecutor(db.cluster, db.latest_epoch)
        rows = executor.run(db.planner().plan(plan)).to_rows()
        return executor, rows

    executor, rows = run()
    assert len(rows) == 500
    assert executor.stats.rows_scanned == 500  # other months never read
    benchmark(lambda: run()[1])
