"""Counts, not timings: a hash join is a gather, and builds no row.

Meter readings joined to their sites (the meter workloads' join pass)
and the C-Store harness's ``lineitem`` joined to ``orders`` (Table 3's
Q6 and Q7, and J3), on three nodes with rows in ROS containers and in
the WOS; the probe keys ``meter`` and ``l_orderkey`` are RLE- and
dictionary-coded in ROS.  Each is a broadcast hash join under a GroupBy.
Per statement:

* no block becomes row dicts — ``RowBlock.to_rows`` sees only the
  statement's result, once, and ``RowBlock.from_rows`` nothing;
* the broadcast inner is hashed once, though three fragments probe it;
* every probe block is a kernel block;
* the SIP filter makes at most one membership test per dictionary
  entry, RLE run or plain value of each block — never one per row of an
  encoded key;
* the answer is the reference;
* the build side's columns reach the operators above the join as
  vectors that promise no NULL (none of them holds one), not as lists
  of unknown NULL count.
"""

import random
from dataclasses import replace

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.columnar import DictVector, RleVector, RowBlock
from repro.columnar.vectors import null_count_of
from repro.execution.executor import DistributedExecutor
from repro.execution.operators import HashJoinOperator, join
from repro.execution.sip import SipFilter
from repro.workloads import cstore_benchmark as cb
from repro.workloads.meters import generate, meters_table, spec_for_rows


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    db = Database(str(tmp_path_factory.mktemp("joins") / "db"), node_count=3, k_safety=1)
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
    db.load(
        "meter_sites",
        [{"site_meter": m, "zone": m % 7, "kind": "abc"[m % 3]} for m in meters],
        direct_to_ros=True,
    )
    data = cb.generate(scale=0.2, seed=3)
    db.create_table(cb.lineitem_table(), encodings={"l_orderkey": "BLOCK_DICT"})
    db.create_table(cb.orders_table())
    for table, rows in (("meter_readings", readings), ("lineitem", data.lineitem),
                        ("orders", data.orders)):
        third = len(rows) // 3
        db.load(table, rows[:third], direct_to_ros=True)
        db.load(table, rows[third : 2 * third], direct_to_ros=True)
        db.load(table, rows[2 * third :])  # the WOS
    return db, readings, data


def _grouped(rows, key, column=None) -> dict:
    out: dict = {}
    for row in rows:
        out[row[key]] = out.get(row[key], 0) + (1 if column is None else row[column])
    return out


def _cstore(spec):
    return lambda readings, data: {
        tuple(row.values())[0]: row["agg"] for row in cb.reference_answer(spec, data)
    }


J3 = replace(
    next(spec for spec in cb.queries() if spec.name == "Q6"),
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
METRIC = "metric_0001"
STATEMENTS = {
    "meters by zone": (
        "SELECT zone, sum(ts) AS agg FROM meter_readings "
        f"JOIN meter_sites ON meter = site_meter WHERE metric = '{METRIC}' GROUP BY zone",
        lambda readings, data: _grouped(
            [dict(r, zone=r["meter"] % 7) for r in readings if r["metric"] == METRIC],
            "zone", "ts",
        ),
    ),
    "meters by kind": (
        "SELECT kind, count(*) AS agg FROM meter_readings "
        "JOIN meter_sites ON meter = site_meter WHERE meter < 10 GROUP BY kind",
        lambda readings, data: _grouped(
            [dict(r, kind="abc"[r["meter"] % 3]) for r in readings if r["meter"] < 10],
            "kind",
        ),
    ),
    **{
        spec.name: (spec.sql, _cstore(spec))
        for spec in [*(s for s in cb.queries() if s.join), J3]
    },
}


class _CountingKeys:
    """A published key view that counts its membership tests."""

    def __init__(self, keys):
        self.keys, self.tests = keys, 0

    def __contains__(self, key):
        self.tests += 1
        return key in self.keys


@pytest.fixture
def spies(monkeypatch):
    seen = {"roots": [], "to_rows": [], "from_rows": 0, "builds": 0, "sip": []}
    operator, init = DistributedExecutor.operator, join._HashBuild.__init__
    to_rows, from_rows = RowBlock.to_rows, RowBlock.from_rows.__func__
    publish, apply = SipFilter.publish, SipFilter.apply

    def spying_operator(self, plan):
        seen["roots"].append(operator(self, plan))
        return seen["roots"][-1]

    def counting_init(self, *args):
        seen["builds"] += 1
        init(self, *args)

    def spying_to_rows(self):
        seen["to_rows"].append(self)
        return to_rows(self)

    def counting_from_rows(cls, rows, names):
        seen["from_rows"] += 1
        return from_rows(cls, rows, names)

    def counting_publish(self, keys):
        publish(self, _CountingKeys(keys))

    def spying_apply(self, block):
        before = self.build_keys.tests if self.ready else 0
        out = apply(self, block)
        if self.ready and block.row_count:
            (column,) = [expr.evaluate(block) for expr in self.key_exprs]
            seen["sip"].append((column, block.row_count, self.build_keys.tests - before))
        return out

    monkeypatch.setattr(DistributedExecutor, "operator", spying_operator)
    monkeypatch.setattr(join._HashBuild, "__init__", counting_init)
    monkeypatch.setattr(RowBlock, "to_rows", spying_to_rows)
    monkeypatch.setattr(RowBlock, "from_rows", classmethod(counting_from_rows))
    monkeypatch.setattr(SipFilter, "publish", counting_publish)
    monkeypatch.setattr(SipFilter, "apply", spying_apply)
    return seen


def _values_tested(column, row_count: int) -> int:
    if isinstance(column, DictVector):
        return len(column.entries)
    if isinstance(column, RleVector):
        return len(column.runs)
    return row_count


@pytest.mark.parametrize("name", STATEMENTS)
def test_a_join_gathers_and_builds_no_row(loaded, spies, name):
    db, readings, data = loaded
    sql, reference = STATEMENTS[name]
    answer = {tuple(row.values())[0]: row["agg"] for row in db.sql(sql)}
    assert answer == reference(readings, data)

    (root,) = spies["roots"]
    joins = [op for op in root.walk() if isinstance(op, HashJoinOperator)]
    assert len(joins) == 3 and "broadcast_inner" in db.sql("EXPLAIN " + sql)
    assert spies["builds"] == 1, "the broadcast inner was hashed per fragment"
    assert sum(op.kernel_blocks for op in joins) == sum(
        op.children[0].blocks_produced for op in joins
    )
    assert spies["from_rows"] == 0
    assert len(spies["to_rows"]) == 1  # the result, pivoted once in Session.query
    for column, row_count, tests in spies["sip"]:
        assert tests <= _values_tested(column, row_count), (type(column), row_count)


def test_sip_tests_runs_and_entries_not_rows(loaded, spies):
    db, _, _ = loaded
    db.sql(STATEMENTS["meters by zone"][0])
    encoded = [
        (row_count, tests) for column, row_count, tests in spies["sip"]
        if isinstance(column, (DictVector, RleVector))
    ]
    assert encoded and all(2 * tests <= row_count for row_count, tests in encoded)


@pytest.mark.parametrize("name", STATEMENTS)
def test_an_inner_join_gathers_build_columns_that_promise_no_null(loaded, monkeypatch, name):
    db, readings, data = loaded
    sql, reference = STATEMENTS[name]
    gathered = []
    gather = join._gather

    def spying_gather(probe, rows, build, at):
        for block in gather(probe, rows, build, at):
            if build is not None:
                gathered.extend(block.columns[column] for column in build.column_names)
            yield block

    monkeypatch.setattr(join, "_gather", spying_gather)
    answer = {tuple(row.values())[0]: row["agg"] for row in db.sql(sql)}
    assert answer == reference(readings, data)
    # Q7 keeps none of the build side's columns above the join
    assert gathered or name == "Q7"
    assert [null_count_of(column) for column in gathered] == [0] * len(gathered)
