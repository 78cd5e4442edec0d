"""Ablation: Sideways Information Passing (section 6.1).

The paper: "SIP has been effective in improving join performance by
filtering data as early as possible in the plan."  This bench runs a
selective fact-dimension join with SIP on and off and reports the rows
that travel through the pipeline and the wall time.
"""

from __future__ import annotations

import time

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.execution import (
    ColumnRef,
    HashJoinOperator,
    JoinType,
    Literal,
    RowSource,
    ScanOperator,
    blocks_to_rows,
)

from conftest import print_table

C = ColumnRef
L = Literal

FACT_ROWS = 60_000
DIM_MATCHES = 5  # dims that actually join


@pytest.fixture(scope="module")
def manager(tmp_path_factory):
    db = Database(str(tmp_path_factory.mktemp("sip")), node_count=1)
    db.create_table(
        TableDefinition(
            "fact",
            [ColumnDef("f_id", types.INTEGER), ColumnDef("dim_id", types.INTEGER)],
        ),
        sort_order=["f_id"],
    )
    rows = [{"f_id": i, "dim_id": i % 1000} for i in range(FACT_ROWS)]
    db.load("fact", rows, direct_to_ros=True)
    db.run_tuple_movers()
    return db.cluster.nodes[0].manager, db.latest_epoch


def _join(manager, epoch, use_sip: bool):
    scan = ScanOperator(manager, "fact_super", epoch, ["f_id", "dim_id"])
    dims = [{"d_id": i, "d_name": str(i)} for i in range(DIM_MATCHES)]
    join = HashJoinOperator(
        scan,
        RowSource(dims, ["d_id", "d_name"]),
        [C("dim_id")],
        [C("d_id")],
        JoinType.INNER,
        left_columns=["f_id", "dim_id"],
        right_columns=["d_id", "d_name"],
    )
    if use_sip:
        sip = join.make_sip_filter([C("dim_id")])
        scan.sip_filters.append(sip)
    start = time.perf_counter()
    rows = blocks_to_rows(join.blocks())
    elapsed = (time.perf_counter() - start) * 1000
    return rows, scan, elapsed


def test_sip_ablation_report(benchmark, manager):
    manager, epoch = manager
    rows_off, scan_off, ms_off = _join(manager, epoch, use_sip=False)
    rows_on, scan_on, ms_on = _join(manager, epoch, use_sip=True)
    assert len(rows_on) == len(rows_off)  # same answer
    print_table(
        "Ablation — SIP on a selective fact-dim hash join "
        f"({FACT_ROWS} fact rows, {DIM_MATCHES}/1000 dims match)",
        ["configuration", "rows out of scan", "join output", "time (ms)"],
        [
            ["SIP off", scan_off.rows_produced, len(rows_off), f"{ms_off:.1f}"],
            ["SIP on", scan_on.rows_produced, len(rows_on), f"{ms_on:.1f}"],
        ],
    )
    # SIP eliminates ~99.5% of scan output before it enters the plan
    assert scan_on.rows_produced < scan_off.rows_produced / 50
    benchmark.pedantic(lambda: _join(manager, epoch, use_sip=True)[0], rounds=1, iterations=1)


def test_sip_join_benchmark_on(benchmark, manager):
    manager, epoch = manager
    benchmark(lambda: _join(manager, epoch, use_sip=True)[0])


def test_sip_join_benchmark_off(benchmark, manager):
    manager, epoch = manager
    benchmark(lambda: _join(manager, epoch, use_sip=False)[0])
