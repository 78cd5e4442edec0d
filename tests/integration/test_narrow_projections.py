"""A narrow projection answers what the super projection answers.

Since the optimizer prunes every scan to the columns a query names, a
projection holding only some of a table's columns is choosable whenever
it covers them — with its own sort order (so its own container runs,
seeks and sort prefix) and its own segmentation (so its own ring, its
own buddies and its own join distribution).  The oracle is the same
database without the narrow projections: two databases take identical
loads (into ROS, before and after the projection exists, and into the
WOS), an identical DELETE and a mover cycle, and then a seeded stream of
single-table and join queries over random column subsets and
predicates.  Every answer must equal the oracle's, as a multiset, on
1 node, on 3 nodes and on 3 nodes with one down; and the narrow
projections must actually be scanned.  ``REPRO_FUZZ_SEEDS``
(tools/check.sh) adds seeded runs.
"""

import os
import random

import pytest

from repro import Database

EXTRA_SEEDS = [int(s) for s in os.environ.get("REPRO_FUZZ_SEEDS", "").split(",") if s]
QUERIES = 30

F_COLUMNS = ["a", "b", "c", "x", "d"]
G_COLUMNS = ["gk", "gv", "gw"]
NARROW = (
    # c-major: a different sort, a different ring
    "CREATE PROJECTION f_narrow (c, b ENCODING RLE, x) AS SELECT c, b, x FROM f "
    "ORDER BY c, b SEGMENTED BY HASH(b) ALL NODES",
    "CREATE PROJECTION g_narrow (gv, gk) AS SELECT gv, gk FROM g "
    "ORDER BY gv SEGMENTED BY HASH(gk) ALL NODES",
)


def f_rows(rng, count, start):
    return [
        {
            "a": start + i,
            "b": rng.randrange(12),
            "c": None if rng.random() < 0.1 else f"s{rng.randrange(6)}",
            "x": None if rng.random() < 0.1 else round(rng.uniform(-5, 5), 2),
            "d": rng.randrange(5),
        }
        for i in range(count)
    ]


def build(path, node_count, narrow, seed):
    rng = random.Random(seed)
    db = Database(
        str(path), node_count=node_count, k_safety=1 if node_count > 1 else 0,
        durable=False,
    )
    db.sql("CREATE TABLE f (a INTEGER, b INTEGER, c VARCHAR, x FLOAT, d INTEGER)")
    db.sql("CREATE TABLE g (gk INTEGER, gv VARCHAR, gw FLOAT)")
    db.load("g", [
        {"gk": k, "gv": f"v{k % 4}", "gw": float(k)} for k in range(10)
    ], direct_to_ros=True)
    db.load("f", f_rows(rng, 300, 0), direct_to_ros=True)
    if narrow:  # refreshed from the rows already there
        for statement in NARROW:
            db.sql(statement)
    db.load("f", f_rows(rng, 200, 300), direct_to_ros=True)
    db.sql("DELETE FROM f WHERE d = 3 AND b < 6")
    db.cluster.run_tuple_movers()
    db.load("f", f_rows(rng, 60, 500))  # the WOS
    db.analyze_statistics()
    return db


def predicate(rng, columns):
    """A random conjunction over ``columns`` (None: no WHERE)."""
    forms = {
        "a": lambda: f"a < {rng.randrange(600)}",
        "b": lambda: rng.choice([f"b = {rng.randrange(12)}", f"b BETWEEN 2 AND {rng.randrange(3, 12)}"]),
        "c": lambda: rng.choice([f"c = 's{rng.randrange(6)}'", "c IS NULL", "c > 's2'"]),
        "x": lambda: f"x > {round(rng.uniform(-5, 5), 1)}",
        "d": lambda: f"d <> {rng.randrange(5)}",
        "gk": lambda: f"gk < {rng.randrange(10)}",
        "gv": lambda: f"gv = 'v{rng.randrange(4)}'",
        "gw": lambda: f"gw >= {float(rng.randrange(10))}",
    }
    chosen = rng.sample(columns, rng.randrange(0, 3))
    return " AND ".join(forms[name]() for name in chosen) or None


def query(rng):
    """A single-table or join statement over a random column subset,
    plain or grouped.  Sums are over integers and the extremes of x, so
    no answer depends on the order rows are added in."""
    joined = rng.random() < 0.4
    # lean towards what f_narrow holds, so it is often the cheapest cover
    pool = rng.choice([["c", "b", "x"], F_COLUMNS])
    columns = rng.sample(pool, rng.randrange(1, len(pool) + 1))
    source = "f"
    where = predicate(rng, pool)
    if joined:
        kind = rng.choice(["JOIN", "LEFT JOIN"])
        source = f"f {kind} g ON b = gk"
        columns += rng.sample(G_COLUMNS, rng.randrange(0, 3))
        extra = predicate(rng, ["gk", "gv"]) if kind == "JOIN" else None
        where = " AND ".join(part for part in (where, extra) if part) or None
    sql_where = f" WHERE {where}" if where else ""
    if rng.random() < 0.5:
        return f"SELECT {', '.join(columns)} FROM {source}{sql_where}"
    keys = [name for name in columns if name not in ("x", "gw")][:2] or ["b"]
    aggregates = rng.choice([
        "count(*) AS n",
        "count(*) AS n, min(x) AS lo, max(x) AS hi",
        "sum(a) AS s, count(c) AS nc",
    ])
    return (
        f"SELECT {', '.join(keys)}, {aggregates} FROM {source}{sql_where} "
        f"GROUP BY {', '.join(keys)}"
    )


def answer(db, sql):
    return sorted(repr(sorted(row.items())) for row in db.sql(sql))


CLUSTERS = {"1 node": (1, None), "3 nodes": (3, None), "3 nodes, one down": (3, 1)}


@pytest.mark.parametrize("cluster", CLUSTERS)
@pytest.mark.parametrize("seed", [0, 1, *EXTRA_SEEDS])
def test_a_narrow_projection_answers_what_the_super_answers(tmp_path, cluster, seed):
    node_count, down = CLUSTERS[cluster]
    narrow = build(tmp_path / "narrow", node_count, True, seed)
    oracle = build(tmp_path / "oracle", node_count, False, seed)
    if down is not None:
        narrow.fail_node(down)
        oracle.fail_node(down)
    rng = random.Random(seed * 7919 + node_count)
    scanned = set()
    for _ in range(QUERIES):
        sql = query(rng)
        plan = narrow.sql("EXPLAIN " + sql)
        scanned |= {name for name in ("f_narrow", "g_narrow") if f"Scan {name} " in plan}
        assert answer(narrow, sql) == answer(oracle, sql), (sql, plan)
    assert scanned == {"f_narrow", "g_narrow"}
