"""Counts, not timings: a query reads only the columns it names.

The C-Store harness's scan and join specs (Table 3's Q1–Q7 and J3, the
perflab S6 and S7) and the meter workloads' scan and join passes, on
three nodes with every row in ROS containers.  Per statement:

* the columns whose blocks are decoded (``ColumnReader.vector_for_range``
  / ``block_values``) are exactly the columns the statement names — its
  select list, WHERE, GROUP BY and join keys; a bare ``count(*)`` decodes
  one column;
* every block a join emits carries exactly the columns its GroupBy reads
  — keys and aggregate arguments, not the join keys or the columns only
  a predicate tested;
* a Table 3 spec's answer is its reference.
"""

import random
from dataclasses import replace

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.execution.operators import join
from repro.lint import sanitizer
from repro.storage.column_file import ColumnReader
from repro.storage.ros import ROSContainer
from repro.workloads import cstore_benchmark as cb
from repro.workloads.meters import generate, meters_table, spec_for_rows

METRIC = "metric_0001"
SPECS = {spec.name: spec for spec in cb.queries()}
SPECS["J3"] = replace(
    SPECS["Q6"],
    name="J3",
    filters={
        "lineitem": lambda row: row["l_shipdate"] > 1200,
        "orders": lambda row: row["o_orderdate"] < 1500,
    },
    group_by=["o_shippriority"],
    sql=(
        "SELECT o_shippriority, count(*) AS agg FROM lineitem "
        "JOIN orders ON l_orderkey = o_orderkey "
        "WHERE l_shipdate > 1200 AND o_orderdate < 1500 GROUP BY o_shippriority"
    ),
)

#: name -> (sql, the columns it names, what its join's GroupBy reads)
STATEMENTS = {
    "Q1": (SPECS["Q1"].sql, {"l_shipdate"}, None),
    "Q2": (SPECS["Q2"].sql, {"l_shipdate", "l_suppkey"}, None),
    "Q3": (SPECS["Q3"].sql, {"l_shipdate", "l_suppkey"}, None),
    "Q4": (SPECS["Q4"].sql, {"o_orderdate"}, None),
    "Q5": (SPECS["Q5"].sql, {"l_shipdate", "l_returnflag", "l_quantity"}, None),
    "Q6": (SPECS["Q6"].sql, {"l_orderkey", "o_orderkey", "o_orderdate"}, {"o_orderdate"}),
    "Q7": (
        SPECS["Q7"].sql,
        {"l_orderkey", "l_suppkey", "o_orderkey", "o_orderdate"},
        {"l_suppkey"},
    ),
    "J3": (
        SPECS["J3"].sql,
        {"l_orderkey", "l_shipdate", "o_orderkey", "o_orderdate", "o_shippriority"},
        {"o_shippriority"},
    ),
    "S6": (
        "SELECT l_returnflag, count(*) AS n, sum(l_extendedprice) AS s "
        "FROM lineitem WHERE l_quantity < 25 GROUP BY l_returnflag",
        {"l_returnflag", "l_extendedprice", "l_quantity"},
        None,
    ),
    "S7": (
        "SELECT l_suppkey, sum(l_quantity) AS s FROM lineitem "
        "GROUP BY l_suppkey ORDER BY s DESC LIMIT 10",
        {"l_suppkey", "l_quantity"},
        None,
    ),
    "meters by metric": (
        "SELECT metric, count(*) AS n, sum(value) AS s FROM meter_readings "
        "WHERE value < 50 GROUP BY metric",
        {"metric", "value"},
        None,
    ),
    "meters by meter": (
        "SELECT meter, sum(ts) AS s FROM meter_readings "
        "GROUP BY meter ORDER BY s DESC LIMIT 10",
        {"meter", "ts"},
        None,
    ),
    "meters by zone": (
        "SELECT zone, count(*) AS n, sum(ts) AS s FROM meter_readings "
        f"JOIN meter_sites ON meter = site_meter WHERE metric = '{METRIC}' "
        "GROUP BY zone",
        {"zone", "ts", "meter", "site_meter", "metric"},
        {"zone", "ts"},
    ),
    "meters by kind": (
        "SELECT kind, count(*) AS n FROM meter_readings "
        "JOIN meter_sites ON meter = site_meter WHERE meter < 10 GROUP BY kind",
        {"kind", "meter", "site_meter"},
        {"kind"},
    ),
}


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    db = Database(str(tmp_path_factory.mktemp("named") / "db"), node_count=3, k_safety=1)
    readings = list(generate(spec_for_rows(6000, seed=3)))
    random.Random(1).shuffle(readings)
    db.create_table(
        meters_table(), sort_order=["metric", "meter", "ts"], encodings={"meter": "RLE"}
    )
    db.create_table(
        TableDefinition(
            "meter_sites",
            [ColumnDef("site_meter", types.INTEGER), ColumnDef("zone", types.INTEGER),
             ColumnDef("kind", types.VARCHAR)],
        ),
        sort_order=["site_meter"],
    )
    meters = sorted({row["meter"] for row in readings})
    sites = [{"site_meter": m, "zone": m % 7, "kind": "abc"[m % 3]} for m in meters]
    data = cb.generate(scale=0.2, seed=3)
    db.create_table(cb.lineitem_table(), encodings={"l_orderkey": "BLOCK_DICT"})
    db.create_table(cb.orders_table())
    for table, rows in (("meter_readings", readings), ("meter_sites", sites),
                        ("lineitem", data.lineitem), ("orders", data.orders)):
        half = len(rows) // 2
        db.load(table, rows[:half], direct_to_ros=True)
        db.load(table, rows[half:], direct_to_ros=True)
    return db, readings, data


@pytest.fixture
def spies(monkeypatch):
    """The columns decoded, and the column sets of the blocks joins emit."""
    seen = {"decoded": set(), "joined": []}
    names: dict[int, str] = {}
    column_reader = ROSContainer.column_reader
    vector_for_range, block_values = ColumnReader.vector_for_range, ColumnReader.block_values
    gather = join._gather

    def naming(self, name):
        reader = column_reader(self, name)
        names[id(reader)] = name
        return reader

    def decoding(method):
        def spy(self, *args):
            seen["decoded"].add(names[id(self)])
            return method(self, *args)

        return spy

    def gathering(*args):
        for block in gather(*args):
            seen["joined"].append(set(block.columns))
            yield block

    monkeypatch.setattr(ROSContainer, "column_reader", naming)
    monkeypatch.setattr(ColumnReader, "vector_for_range", decoding(vector_for_range))
    monkeypatch.setattr(ColumnReader, "block_values", decoding(block_values))
    monkeypatch.setattr(join, "_gather", gathering)
    # the sanitizer checks a container as it loads; what is counted here
    # is what the statement opens
    with sanitizer.override(False):
        yield seen


def _canonical(rows) -> list:
    return sorted(tuple(sorted(row.items())) for row in rows)


@pytest.mark.parametrize("name", STATEMENTS)
def test_a_statement_decodes_the_columns_it_names(loaded, spies, name):
    db, _, data = loaded
    sql, named, grouped = STATEMENTS[name]
    rows = db.sql(sql)
    assert rows
    if name in SPECS:
        assert _canonical(rows) == _canonical(cb.reference_answer(SPECS[name], data))
    assert spies["decoded"] - {"_epoch"} == named
    if grouped is None:
        assert spies["joined"] == []
    else:
        assert spies["joined"] and all(columns == grouped for columns in spies["joined"])


def test_a_bare_count_decodes_one_column(loaded, spies):
    db, readings, data = loaded
    assert db.sql("SELECT count(*) AS n FROM lineitem") == [{"n": len(data.lineitem)}]
    assert len(spies["decoded"] - {"_epoch"}) == 1
    spies["decoded"].clear()
    assert db.sql(
        "SELECT count(*) AS n FROM meter_readings JOIN meter_sites ON meter = site_meter"
    ) == [{"n": len(readings)}]
    assert spies["decoded"] - {"_epoch"} == {"meter", "site_meter"}
    assert spies["joined"] and all(len(columns) == 1 for columns in spies["joined"])
