"""Counts, not timings: a filter and a one-key COUNT make no Python call
per row.

A comparison, BETWEEN or IN leaf over a NULL-free plain column — a
vector or a bare list, as a WOS batch is — is ``map`` passes of
operator functions: its scalar test runs zero times.  Over a dictionary
column the test runs once per entry.  Above the scan, the join pass of
the meter workloads (``COUNT(*) ... JOIN meter_sites ... GROUP BY
kind``) looks up a group id at most once per distinct key per block:
the key column's values are the histogram's labels, never runs of them.
"""

import random
from collections import Counter

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.columnar import DictVector, PlainVector, RowBlock
from repro.execution.expressions import (
    Between,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    Not,
)
from repro.execution.kernels import aggregate, predicates
from repro.execution.kernels.predicates import compile_kernel_predicate
from repro.execution.operators import groupby
from repro.workloads.meters import generate, meters_table, spec_for_rows

ROWS = 4096


@pytest.fixture
def tests_run(monkeypatch):
    """How many times the scalar tests of the leaves compiled from now
    on were called."""
    calls = Counter()
    make_leaf = predicates._make_leaf

    def spying(name, test, *rest):
        def counting(value):
            calls["test"] += 1
            return test(value)

        return make_leaf(name, counting, *rest)

    monkeypatch.setattr(predicates, "_make_leaf", spying)
    return calls


def _leaves(c, values):
    """Every leaf shape with a bulk form, and each negated."""
    low, high = sorted(random.Random(2).sample(values, 2))
    plain = [
        *(Comparison(op, c, Literal(low)) for op in ("=", "<>", "<", "<=", ">", ">=")),
        Comparison("<", Literal(high), c),
        Between(c, Literal(low), Literal(high)),
        InList(c, [low, high, values[0]]),
    ]
    return plain + [Not(expr) for expr in plain]


@pytest.mark.parametrize("numbers", ["ints", "floats with a NaN"])
def test_a_null_free_plain_block_calls_no_scalar_test(tests_run, numbers):
    rng = random.Random(1)
    values = [rng.randrange(1000) for _ in range(ROWS)]
    if numbers != "ints":
        values = [value / 7 for value in values]
        values[17] = float("nan")
    for column in (PlainVector(values, 0), list(values)):
        for expr in _leaves(ColumnRef("c"), values):
            got = compile_kernel_predicate(expr)({"c": column}, ROWS).positions()
            flags = expr.evaluate(RowBlock(columns={"c": values}, row_count=ROWS))
            assert got == [i for i, flag in enumerate(flags) if flag], repr(expr)
    assert tests_run["test"] == 0


def test_a_dictionary_block_calls_the_test_once_per_entry(tests_run):
    rng = random.Random(3)
    entries = [f"w{i:02d}" for i in range(16)]
    vector = DictVector([rng.randrange(16) for _ in range(ROWS)], entries)
    expr = Comparison("<", ColumnRef("c"), Literal("w07"))
    got = compile_kernel_predicate(expr)({"c": vector}, ROWS).positions()
    assert got == [i for i, value in enumerate(vector.values()) if value < "w07"]
    assert tests_run["test"] == len(entries)


@pytest.fixture(scope="module")
def meters_db(tmp_path_factory):
    rows = list(generate(spec_for_rows(6000, seed=3)))
    db = Database(str(tmp_path_factory.mktemp("filter") / "db"), node_count=3, k_safety=1)
    db.create_table(meters_table(), sort_order=["metric", "meter", "ts"])
    db.create_table(
        TableDefinition(
            "meter_sites",
            [
                ColumnDef("site_meter", types.INTEGER),
                ColumnDef("zone", types.INTEGER),
                ColumnDef("kind", types.VARCHAR),
            ],
        ),
        sort_order=["site_meter"],
    )
    meters = sorted({row["meter"] for row in rows})
    db.load(
        "meter_sites",
        [{"site_meter": m, "zone": m % 7, "kind": "abc"[m % 3]} for m in meters],
        direct_to_ros=True,
    )
    db.load("meter_readings", rows, direct_to_ros=True)
    return db, rows, meters


def test_a_count_over_the_join_pass_probes_once_per_key_per_block(meters_db, monkeypatch):
    db, rows, meters = meters_db
    cut = meters[len(meters) // 3]
    absorbed = []
    lookups = Counter()
    ids, kernel = aggregate.GroupTable.ids, aggregate.absorb_block_kernel

    def counting_ids(table, keys):
        keys = list(keys)
        lookups["n"] += len(keys)
        return ids(table, keys)

    def spying_kernel(core, table, block):
        before = lookups["n"]
        kernel(core, table, block)
        keys = set(core.key_columns(block)[0])
        absorbed.append((block.row_count, len(keys), lookups["n"] - before))

    monkeypatch.setattr(aggregate.GroupTable, "ids", counting_ids)
    monkeypatch.setattr(groupby, "absorb_block_kernel", spying_kernel)
    answer = db.sql(
        "SELECT kind, count(*) AS n FROM meter_readings "
        f"JOIN meter_sites ON meter = site_meter WHERE meter < {cut} GROUP BY kind"
    )
    want = Counter("abc"[row["meter"] % 3] for row in rows if row["meter"] < cut)
    assert {row["kind"]: row["n"] for row in answer} == want
    assert sum(count for count, _, _ in absorbed) >= sum(want.values())
    for count, keys, made in absorbed:
        assert made <= keys, f"{made} lookups for {keys} keys in a {count}-row block"
