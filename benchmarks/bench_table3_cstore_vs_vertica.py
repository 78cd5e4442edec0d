"""Table 3: Vertica vs. C-Store on the C-Store benchmark queries.

Regenerates the paper's head-to-head: per-query time for the
C-Store-2005-style baseline engine and the full Vertica-style stack,
the total query time, and the disk space each needs.  The paper's
absolute numbers came from a 2005 Pentium 4 and the real systems; the
*shape* to reproduce is: Vertica wins every query, roughly 2x total,
with roughly half the disk (949 MB vs 1987 MB).
"""

from __future__ import annotations

import time

import pytest

from repro import Database
from repro.cstore import CStoreDatabase, CStoreEngine
from repro.workloads import cstore_benchmark as bench

from conftest import env_float, print_table

SCALE = env_float("REPRO_T3_SCALE", 0.25)

#: The paper's Table 3 milliseconds, for side-by-side display.
PAPER_MS = {
    "Q1": (30, 14),
    "Q2": (360, 71),
    "Q3": (4900, 4833),
    "Q4": (2090, 280),
    "Q5": (310, 93),
    "Q6": (8500, 4143),
    "Q7": (2540, 161),
}


@pytest.fixture(scope="module")
def data():
    return bench.generate(scale=SCALE)


@pytest.fixture(scope="module")
def cstore(tmp_path_factory, data):
    db = CStoreDatabase(str(tmp_path_factory.mktemp("cstore")))
    db.create_table(bench.lineitem_table())
    db.create_table(bench.orders_table())
    db.load("lineitem", data.lineitem)
    db.load("orders", data.orders)
    return CStoreEngine(db)


@pytest.fixture(scope="module")
def vertica(tmp_path_factory, data):
    db = Database(str(tmp_path_factory.mktemp("vertica")), node_count=1)
    db.create_table(bench.lineitem_table())
    db.create_table(bench.orders_table())
    db.load("lineitem", data.lineitem, direct_to_ros=True)
    db.load("orders", data.orders, direct_to_ros=True)
    db.run_tuple_movers()
    db.analyze_statistics()
    return db


def _time_ms(fn, repeats: int = 3) -> float:
    fn()  # warm
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000


@pytest.mark.parametrize("spec", bench.queries(), ids=lambda s: s.name)
def test_query_vertica(benchmark, spec, vertica):
    """pytest-benchmark timing of the Vertica-style engine per query."""
    benchmark(lambda: vertica.sql(spec.sql))


@pytest.mark.parametrize("spec", bench.queries(), ids=lambda s: s.name)
def test_query_cstore(benchmark, spec, cstore):
    """pytest-benchmark timing of the C-Store baseline per query."""
    benchmark(lambda: cstore.run(spec))


def test_table3_report(benchmark, cstore, vertica, data):
    """Regenerate the full Table 3 (relative shape)."""
    rows = []
    total_cstore = 0.0
    total_vertica = 0.0
    wins = 0
    for spec in bench.queries():
        cstore_ms = _time_ms(lambda s=spec: cstore.run(s))
        vertica_ms = _time_ms(lambda s=spec: vertica.sql(s.sql))
        total_cstore += cstore_ms
        total_vertica += vertica_ms
        if vertica_ms < cstore_ms:
            wins += 1
        paper = PAPER_MS[spec.name]
        rows.append(
            [
                spec.name,
                f"{cstore_ms:.1f}",
                f"{vertica_ms:.1f}",
                f"{cstore_ms / vertica_ms:.2f}x",
                f"{paper[0]}",
                f"{paper[1]}",
                f"{paper[0] / paper[1]:.2f}x",
            ]
        )
    cstore_bytes = cstore.db.total_data_bytes()
    vertica_bytes = vertica.cluster.total_data_bytes()
    rows.append(
        [
            "Total",
            f"{total_cstore:.1f}",
            f"{total_vertica:.1f}",
            f"{total_cstore / total_vertica:.2f}x",
            "18700",
            "9600",
            "1.95x",
        ]
    )
    rows.append(
        [
            "Disk",
            f"{cstore_bytes / 1e6:.2f} MB",
            f"{vertica_bytes / 1e6:.2f} MB",
            f"{cstore_bytes / vertica_bytes:.2f}x",
            "1987 MB",
            "949 MB",
            "2.09x",
        ]
    )
    print_table(
        f"Table 3 — C-Store vs Vertica (scale={SCALE}: "
        f"{data.lineitem_rows} lineitem / {data.orders_rows} orders rows)",
        ["query", "cstore ms", "vertica ms", "speedup",
         "paper cstore", "paper vertica", "paper speedup"],
        rows,
    )
    # the shape assertions: Vertica wins the total and most queries,
    # and uses materially less disk.
    assert total_vertica < total_cstore
    assert wins >= 5
    assert vertica_bytes < cstore_bytes * 0.8
    benchmark.pedantic(lambda: vertica.sql(bench.queries()[0].sql), rounds=1, iterations=1)
