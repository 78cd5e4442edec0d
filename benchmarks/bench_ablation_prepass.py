"""Ablation: prepass (L1-sized) aggregation and its runtime shutoff.

Section 6.1: the prepass operator "cheaply reduce[s] the amount of
data before sending it through other operators", and "the EE will
decide at runtime to stop if it is not actually reducing the number of
rows which pass."  This bench shows both halves: massive row reduction
on a low-cardinality key, and automatic shutoff on a high-cardinality
key.
"""

from __future__ import annotations

import pytest

from repro.execution import (
    AggregateSpec,
    ColumnRef,
    GroupByHashOperator,
    PrepassGroupByOperator,
    RowSource,
    blocks_to_rows,
)

from conftest import print_table

C = ColumnRef
ROWS = 50_000


def _run(cardinality: int):
    rows = [{"g": i % cardinality, "v": 1} for i in range(ROWS)]
    aggregates = [AggregateSpec("COUNT", None, "n")]
    prepass = PrepassGroupByOperator(
        RowSource(rows, ["g", "v"], block_rows=2048),
        [C("g")], ["g"], aggregates, table_size=1024,
    )
    final = GroupByHashOperator(
        prepass, [C("g")], ["g"], aggregates, merge_partials=True
    )
    out = blocks_to_rows(final.blocks())
    assert len(out) == cardinality
    assert sum(row["n"] for row in out) == ROWS
    return prepass


def test_prepass_ablation_report(benchmark):
    results = []
    for cardinality in (4, 256, 4096, 40_000):
        prepass = _run(cardinality)
        results.append(
            [
                cardinality,
                prepass.rows_in,
                prepass.rows_out_partial,
                f"{prepass.rows_in / max(prepass.rows_out_partial, 1):.1f}x",
                "yes" if prepass.shut_off else "no",
            ]
        )
    print_table(
        f"Ablation — prepass aggregation over {ROWS} rows",
        ["group-by cardinality", "rows in", "partial rows out",
         "pipeline reduction", "shut off?"],
        results,
    )
    low = _run(4)
    high = _run(40_000)
    assert low.rows_out_partial < ROWS / 100  # big reduction
    assert not low.shut_off
    assert high.shut_off  # runtime decision to stop
    benchmark.pedantic(lambda: _run(16), rounds=1, iterations=1)


def test_prepass_benchmark_low_cardinality(benchmark):
    benchmark(lambda: _run(16))


def test_prepass_benchmark_high_cardinality(benchmark):
    benchmark(lambda: _run(40_000))
