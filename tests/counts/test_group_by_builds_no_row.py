"""Counts, not timings: a GROUP BY folds runs and builds no row.

Meter readings sorted ``(metric, meter, ts)`` on three nodes, in three
direct-to-ROS loads plus rows still in the WOS.  The two scan-pass
statements of the meter workloads, a rollup and a join-aggregate must
run with no ``Sort`` under a GroupBy (a sort-prefix plan used to sort
every surviving row to find runs the storage already has), no block
turned into row dicts on its way into a group table, no object made per
group (a group is an id into flat state lists) — and, per block, no
more group-id lookups than its key runs: a lookup per run or per
distinct key, never per row.  The shapes that had a per-row path of
their own fold the same way: an expression key looks up each group once
per block, and a DISTINCT argument folds into its group's set once per
run or once per block.  A COUNT over an RLE column is one count per run.
"""

import random
from collections import Counter

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.columnar import RleVector, RowBlock, as_list
from repro.execution.executor import DistributedExecutor
from repro.execution.kernels import aggregate
from repro.execution.operators import (
    ExprEvalOperator,
    FilterOperator,
    HashJoinOperator,
    Operator,
    ScanOperator,
    SortOperator,
    SourceBlocks,
    UnionAllOperator,
    groupby,
)
from repro.workloads.meters import generate, meters_table, spec_for_rows

GROUP_BYS = (
    groupby.GroupByHashOperator,  # GroupByPipelined is one
    groupby.PrepassGroupByOperator,
)


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    rows = list(generate(spec_for_rows(6000, seed=3)))
    random.Random(1).shuffle(rows)
    db = Database(str(tmp_path_factory.mktemp("counts") / "db"), node_count=3, k_safety=1)
    db.create_table(meters_table(), sort_order=["metric", "meter", "ts"])
    db.create_table(
        TableDefinition(
            "meter_sites",
            [ColumnDef("site_meter", types.INTEGER), ColumnDef("zone", types.INTEGER)],
        ),
        sort_order=["site_meter"],
    )
    sites = [{"site_meter": m, "zone": m % 7} for m in {row["meter"] for row in rows}]
    db.load("meter_sites", sites, direct_to_ros=True)
    third = len(rows) // 3
    for start in range(0, 3 * third, third):
        db.load("meter_readings", rows[start : start + third], direct_to_ros=True)
    db.load("meter_readings", rows[3 * third :] + rows[:200])  # WOS, recurring keys
    containers = sum(
        len(node.manager.storage(name).containers)
        for node in db.cluster.nodes
        for name in node.manager.projection_names()
        if name.startswith("meter_readings")
    )
    assert containers >= 6
    return db, rows + rows[:200]


@pytest.fixture
def spies(monkeypatch):
    """What the statement did: the operator roots it ran, the blocks its
    group-bys absorbed with the table and the group-id lookups for each,
    every block that became row dicts, and which operator yielded which
    block."""
    seen = {"roots": [], "absorbed": [], "to_rows": [], "yielded": []}
    counted = {"lookups": 0}
    operator = DistributedExecutor.operator
    ids, kernel = aggregate.GroupTable.ids, aggregate.absorb_block_kernel
    to_rows = RowBlock.to_rows
    blocks = Operator.blocks

    def counting_ids(table, keys):
        keys = list(keys)
        counted["lookups"] += len(keys)
        return ids(table, keys)

    def counting_kernel(core, table, block):
        before = counted["lookups"]
        kernel(core, table, block)
        seen["absorbed"].append((core, table, block, counted["lookups"] - before))

    def spying_operator(self, plan):
        seen["roots"].append(operator(self, plan))
        return seen["roots"][-1]

    def spying_to_rows(self):
        seen["to_rows"].append(self)  # kept alive: ids stay unique
        return to_rows(self)

    def spying_blocks(self):
        for block in blocks(self):
            seen["yielded"].append((self, block))
            yield block

    monkeypatch.setattr(aggregate.GroupTable, "ids", counting_ids)
    monkeypatch.setattr(groupby, "absorb_block_kernel", counting_kernel)
    monkeypatch.setattr(DistributedExecutor, "operator", spying_operator)
    monkeypatch.setattr(RowBlock, "to_rows", spying_to_rows)
    monkeypatch.setattr(Operator, "blocks", spying_blocks)
    return seen


def _sum(rows, key, column):
    out: dict = {}
    for row in rows:
        out[row[key]] = out.get(row[key], 0) + row[column]
    return out


STATEMENTS = {
    "filtered, by the sort prefix": (
        "SELECT metric, count(*) AS n, sum(value) AS s FROM meter_readings "
        "WHERE value < 50 GROUP BY metric",
        lambda rows: _sum([r for r in rows if r["value"] < 50], "metric", "value"),
        "metric",
    ),
    "by the second sort column, top 10": (
        "SELECT meter, sum(ts) AS s FROM meter_readings "
        "GROUP BY meter ORDER BY s DESC LIMIT 10",
        lambda rows: dict(
            sorted(_sum(rows, "meter", "ts").items(), key=lambda kv: -kv[1])[:10]
        ),
        "meter",
    ),
    "rollup inside one metric": (
        "SELECT meter, avg(value) AS s FROM meter_readings "
        "WHERE metric = '{metric}' GROUP BY meter",
        lambda rows: {
            meter: total / sum(1 for r in rows if r["meter"] == meter)
            for meter, total in _sum(rows, "meter", "value").items()
        },
        "meter",
    ),
    "join, then aggregate": (
        "SELECT zone, count(*) AS n, sum(ts) AS s FROM meter_readings "
        "JOIN meter_sites ON meter = site_meter WHERE metric = '{metric}' GROUP BY zone",
        lambda rows: _sum([dict(r, zone=r["meter"] % 7) for r in rows], "zone", "ts"),
        "zone",
    ),
}


def _between(op):
    """The operators under a group-by, down to the Scans and group-bys
    nearest to it (those excluded) — through any join, both sides."""
    for child in op.children:
        if not isinstance(child, (ScanOperator, *GROUP_BYS)):
            yield child
            yield from _between(child)


@pytest.mark.parametrize("name", STATEMENTS)
def test_group_by_folds_runs_and_builds_no_row(loaded, spies, name):
    db, rows = loaded
    sql, expect, key = STATEMENTS[name]
    metric = rows[0]["metric"]
    if "{metric}" in sql:
        sql, rows = sql.format(metric=metric), [r for r in rows if r["metric"] == metric]
    answer = {row[key]: row["s"] for row in db.sql(sql)}
    want = expect(rows)
    assert answer.keys() == want.keys() and len(want) > 1
    assert all(abs(answer[k] - want[k]) <= 1e-6 * abs(want[k]) for k in want)

    (root,) = spies["roots"]
    operators = list(root.walk())
    group_bys = [op for op in operators if isinstance(op, GROUP_BYS)]
    assert group_bys and sum(op.rows_in for op in group_bys) > 500
    for op in group_bys:
        assert not any(isinstance(o, SortOperator) for o in list(op.walk())[1:])
        # what sits between a group table and the Scans that feed it
        # only renames, filters, unions or hash-joins columns (a
        # broadcast inner arrives as a Source), none of it by row, and
        # no block it hands on becomes row dicts
        between = list(_between(op))
        assert all(
            isinstance(o, (ExprEvalOperator, FilterOperator, UnionAllOperator,
                           HashJoinOperator, SourceBlocks))
            for o in between
        ), op.explain()
        handed_on = {id(b) for o, b in spies["yielded"] if o in between}
        assert not handed_on & {id(block) for block in spies["to_rows"]}
    assert sum(op.kernel_blocks for op in group_bys) == len(spies["absorbed"]) >= 2
    absorbed = {id(block) for _, _, block, _ in spies["absorbed"]}
    assert not absorbed & {id(block) for block in spies["to_rows"]}

    folded = 0
    for core, table, block, lookups in spies["absorbed"]:
        keys = list(zip(*[as_list(block.column(e.name)) for e in core.key_exprs]))
        runs = 1 + sum(1 for a, b in zip(keys, keys[1:]) if a != b)
        assert lookups <= runs, (
            f"{lookups} group-id lookups for a {block.row_count}-row block of "
            f"{runs} key runs and {len(set(keys))} keys"
        )
        folded += 2 * lookups <= block.row_count
        # a group is an id: its state is an item of each flat list
        for state in table.states:
            for held in vars(state).values():
                if isinstance(held, list):
                    assert len(held) == len(table.index)
                    assert all(isinstance(item, (int, float)) or item is None for item in held)
    assert folded, "no block was folded in fewer lookups than half its rows"


STATES = (
    aggregate._State, aggregate._Total, aggregate._Extreme,
    aggregate._Distinct, aggregate._User,
)


@pytest.fixture
def folds(monkeypatch):
    """Every block a group table absorbed: ``(core, block, calls)``, the
    calls being what the fold made into state columns, by method — an
    ``add_counts`` counted once per (group, rows) pair it was handed."""
    absorbed = []
    calls: Counter = Counter()
    for state in STATES:
        for name in ("add_counts", "fold", "fold_rows", "fold_weighted"):
            if name not in vars(state):
                continue

            def counting(self, *args, _name=name, _method=vars(state)[name]):
                if _name == "add_counts":
                    args = (list(args[0]),)
                calls[_name] += len(args[0]) if _name == "add_counts" else 1
                return _method(self, *args)

            monkeypatch.setattr(state, name, counting)
    absorb = groupby.absorb_block_kernel

    def spying(core, table, block):
        before = Counter(calls)
        absorb(core, table, block)
        absorbed.append((core, block, calls - before))

    monkeypatch.setattr(groupby, "absorb_block_kernel", spying)
    return absorbed


def _runs(columns) -> int:
    rows = list(zip(*columns))
    return sum(1 for index, row in enumerate(rows) if index == 0 or row != rows[index - 1])


def test_an_expression_key_folds_once_per_group_per_block(loaded, folds):
    db, rows = loaded
    sql = (
        "SELECT meter % 3 AS b, count(*) AS n, sum(value) AS s "
        "FROM meter_readings GROUP BY meter % 3"
    )
    answer = {row["b"]: (row["n"], row["s"]) for row in db.sql(sql)}
    want: dict = {}
    for row in rows:
        n, total = want.get(row["meter"] % 3, (0, 0.0))
        want[row["meter"] % 3] = (n + 1, total + row["value"])
    assert answer.keys() == want.keys() == {0, 1, 2}
    assert all(
        answer[b][0] == want[b][0] and abs(answer[b][1] - want[b][1]) <= 1e-6 * abs(want[b][1])
        for b in want
    )
    assert sum(block.row_count for _, block, _ in folds) > 500
    for core, block, calls in folds:
        groups = set(zip(*core.key_columns(block)))
        # a count per group per COUNT; the SUM one pass over the block
        assert calls["add_counts"] <= len(groups) * len(core.specs)
        assert calls["fold"] + calls["fold_rows"] <= len(groups) * len(core.specs), (
            f"{dict(calls)} fold calls for {len(groups)} groups of a "
            f"{block.row_count}-row block"
        )


def test_a_distinct_argument_adds_once_per_run(loaded, folds):
    db, rows = loaded
    sql = (
        "SELECT metric, count(DISTINCT meter) AS n FROM meter_readings GROUP BY metric"
    )
    want: dict = {}
    for row in rows:
        want.setdefault(row["metric"], set()).add(row["meter"])
    assert {row["metric"]: row["n"] for row in db.sql(sql)} == {
        metric: len(meters) for metric, meters in want.items()
    }
    assert sum(block.row_count for _, block, _ in folds) > 500
    for _, block, calls in folds:
        metrics = [as_list(block.column("metric"))]
        # a set update per run of the group key, or one pass per block
        assert calls["fold"] <= _runs(metrics) and calls["fold_rows"] <= 1, (
            f"{dict(calls)} fold calls for {_runs(metrics)} metric runs "
            f"of a {block.row_count}-row block"
        )


@pytest.fixture(scope="module")
def departments(tmp_path_factory):
    """40 departments of 300 rows, ``dept_id`` sorted and RLE-coded."""
    db = Database(str(tmp_path_factory.mktemp("rle") / "db"), node_count=1)
    db.create_table(
        TableDefinition(
            "departments",
            [ColumnDef("dept_id", types.INTEGER), ColumnDef("emp", types.VARCHAR)],
        ),
        sort_order=["dept_id"],
        encodings={"dept_id": "RLE"},
    )
    rows = [{"dept_id": d, "emp": f"e{e % 50}"} for d in range(40) for e in range(300)]
    db.load("departments", rows, direct_to_ros=True)
    return db


@pytest.mark.parametrize(
    "sql, want",
    [
        ("SELECT dept_id, count(*) AS n FROM departments GROUP BY dept_id",
         {d: 300 for d in range(40)}),
        ("SELECT count(dept_id) AS n FROM departments WHERE dept_id BETWEEN 5 AND 9",
         {None: 1500}),
    ],
    ids=["grouped", "global"],
)
def test_an_rle_count_folds_once_per_run(departments, folds, sql, want):
    """COUNT over an RLE column is one (group, count) pair per run of it
    (a run's length is its count), whatever the block's row count."""
    rows = departments.sql(sql)
    assert {row.get("dept_id"): row["n"] for row in rows} == want
    scanned = [fold for fold in folds if "dept_id" in fold[1].columns]  # not partials
    assert sum(block.row_count for _, block, _ in scanned) >= 1500
    for _, block, calls in scanned:
        column = block.column("dept_id")
        assert isinstance(column, RleVector), type(column)
        assert sum(calls.values()) <= len(column.runs), (
            f"{dict(calls)} fold calls for {len(column.runs)} runs of a "
            f"{block.row_count}-row block"
        )
