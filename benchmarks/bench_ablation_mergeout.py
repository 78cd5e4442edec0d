"""Ablation: stratified mergeout vs naive alternatives (section 4).

The tuple mover "must balance its moveout work so that it is not
overzealous ... but also not too lazy", and exponential strata bound
how many times a tuple is re-merged.  This bench trickle-loads many
small batches and compares three policies:

* **never merge** — container count explodes;
* **always merge everything** — container count stays at 1 but every
  tuple is rewritten on every batch (quadratic write amplification);
* **stratified (the paper's design)** — few containers *and* low
  rewrite amplification.
"""

from __future__ import annotations

import pytest

from repro import types
from repro.columnar import blocks_to_rows
from repro.core.schema import ColumnDef, TableDefinition
from repro.projections import super_projection
from repro.storage import StorageManager
from repro.tuple_mover import MergePolicy, TupleMover

from conftest import print_table

BATCHES = 60
BATCH_ROWS = 200


def _run(tmp_path, mode: str):
    table = TableDefinition(
        "t", [ColumnDef("k", types.INTEGER), ColumnDef("v", types.VARCHAR)]
    )
    projection = super_projection(table, sort_order=["k"])
    manager = StorageManager(str(tmp_path / mode))
    manager.register_projection(projection, table)
    mover = TupleMover(manager, MergePolicy(base_size=2048, multiplier=4, min_inputs=4))
    total_rows = 0
    for batch in range(BATCHES):
        rows = [
            {"k": batch * BATCH_ROWS + i, "v": f"v{i % 11}"}
            for i in range(BATCH_ROWS)
        ]
        total_rows += len(rows)
        manager.insert("t_super", rows, epoch=batch + 1, direct_to_ros=True)
        if mode == "stratified":
            mover.mergeout("t_super")
        elif mode == "merge_all":
            state = manager.storage("t_super")
            if len(state.containers) > 1:
                mover._merge_containers(
                    state, "t_super", sorted(state.containers), 0,
                    __import__("repro.tuple_mover.mover", fromlist=["MergeResult"]).MergeResult(),
                )
    # verify no data loss in any mode
    visible = blocks_to_rows(manager.scan("t_super", epoch=BATCHES))
    assert len(visible) == total_rows
    return {
        "containers": manager.container_count("t_super"),
        "rows_rewritten": mover.stats.rows_written,
        "amplification": mover.stats.rows_written / total_rows,
    }


def test_mergeout_ablation_report(benchmark, tmp_path):
    results = {mode: _run(tmp_path, mode) for mode in ("never", "merge_all", "stratified")}
    print_table(
        f"Ablation — mergeout policy under trickle load "
        f"({BATCHES} batches x {BATCH_ROWS} rows)",
        ["policy", "final containers", "rows rewritten", "write amplification"],
        [
            [
                mode,
                result["containers"],
                result["rows_rewritten"],
                f"{result['amplification']:.1f}x",
            ]
            for mode, result in results.items()
        ],
    )
    never, merge_all, stratified = (
        results["never"], results["merge_all"], results["stratified"],
    )
    assert never["containers"] == BATCHES  # explosion
    assert merge_all["containers"] == 1
    # stratified: order-of-log containers with far less rewriting
    assert stratified["containers"] < BATCHES / 6
    assert stratified["rows_rewritten"] < merge_all["rows_rewritten"] / 3
    # strata bound the per-tuple merge count logarithmically (well
    # below the quadratic merge-all policy)
    assert stratified["amplification"] < merge_all["amplification"] / 2
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_stratified_mergeout_benchmark(benchmark, tmp_path_factory):
    def cycle():
        return _run(tmp_path_factory.mktemp("bench"), "stratified")

    benchmark.pedantic(cycle, rounds=2, iterations=1)
