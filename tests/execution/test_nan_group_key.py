"""NaN group keys are one group — wherever the rows happen to live.

Found while sizing the key kernel, present before it: four rows whose
FLOAT key is NaN came back as one group of 4 while they sat in the WOS
(one shared NaN object, and a tuple finds an identical element before
it compares) and as four groups of 1 after moveout (every decoded NaN
is its own object, and NaN != NaN) — a GROUP BY answer that changed
when the tuple mover ran.  NaN keys are one group, as NULL keys are
(PostgreSQL's rule): the key kernel, the spill partitioner and SELECT
DISTINCT read keys through ``kernels.aggregate.key_values``, which
gives every NaN the same object and costs a vector that knows it holds
none (``ColumnVector.is_ordered``) nothing; a DISTINCT aggregate's
``seen`` set does the same to the values it keeps.
"""

import pytest

from repro import ColumnDef, Database, TableDefinition, types


#: name -> (statement, its keys, a group's rows -> the columns after the
#: keys, in the statement's order)
STATEMENTS = {
    "one key": (
        "SELECT g, COUNT(*) AS n, SUM(k) AS s FROM t GROUP BY g", ("g",),
        lambda rows: (len(rows), sum(row["k"] for row in rows)),
    ),
    "two keys": (
        "SELECT g, h, COUNT(*) AS n, SUM(k) AS s FROM t GROUP BY g, h",
        ("g", "h"), lambda rows: (len(rows), sum(row["k"] for row in rows)),
    ),
    "not mergeable": (
        "SELECT g, COUNT(*) AS n, AVG(k) AS s FROM t GROUP BY g", ("g",),
        lambda rows: (len(rows), sum(row["k"] for row in rows) / len(rows)),
    ),
    "distinct argument": (
        "SELECT g, COUNT(*) AS n, COUNT(DISTINCT k) AS s FROM t GROUP BY g",
        ("g",), lambda rows: (len(rows), len({row["k"] for row in rows})),
    ),
    "select distinct": ("SELECT DISTINCT g FROM t", ("g",), lambda rows: ()),
    "count distinct": (
        "SELECT COUNT(DISTINCT g) AS n FROM t", (),
        lambda rows: (len({_label(row["g"]) for row in rows}),),
    ),
}


def rows_of(first, count):
    """``g``: NaN on odd ``k``, else 1.0; ``h``: NaN, NULL, 2.0 in turn."""
    return [
        {"k": k, "g": float("nan") if k % 2 else 1.0,
         "h": (float("nan"), None, 2.0)[k % 3]}
        for k in range(first, first + count)
    ]


def _label(value):
    return "nan" if value is not None and value != value else value


def answers(db, loaded):
    """Every statement's rows, checked against a plain dict of lists."""
    out = {}
    for name, (sql, keys, fold) in STATEMENTS.items():
        groups: dict = {}
        for row in loaded:
            groups.setdefault(tuple(_label(row[key]) for key in keys), []).append(row)
        want = sorted((key + fold(rows) for key, rows in groups.items()), key=repr)
        out[name] = sorted(
            (tuple(_label(value) for value in row.values()) for row in db.sql(sql)),
            key=repr,
        )
        assert out[name] == want, name
    return out


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=1, k_safety=0)
    db.create_table(
        TableDefinition(
            "t",
            [ColumnDef("k", types.INTEGER), ColumnDef("g", types.FLOAT),
             ColumnDef("h", types.FLOAT)],
        ),
        sort_order=["k"],
    )
    return db


def test_a_group_by_answer_does_not_change_when_the_mover_runs(db):
    loaded = rows_of(0, 8)
    db.load("t", loaded)
    in_wos = answers(db, loaded)
    assert in_wos["one key"] == [("nan", 4, 16), (1.0, 4, 12)]
    assert in_wos["select distinct"] == [("nan",), (1.0,)]
    assert in_wos["count distinct"] == [(2,)]
    db.cluster.run_tuple_movers()  # moveout: every NaN decodes to its own object
    assert answers(db, loaded) == in_wos
    loaded += rows_of(8, 8)
    db.load("t", loaded[8:], direct_to_ros=True)
    db.load("t", rows_of(16, 4))  # ROS + ROS + WOS
    loaded += rows_of(16, 4)
    mixed = answers(db, loaded)
    db.cluster.run_tuple_movers()  # moveout + mergeout
    assert answers(db, loaded) == mixed


def test_nan_keys_stay_one_group_through_a_spill():
    """Partials are partitioned by ``hash(key)``, and a NaN hashes by
    identity: the partitioner reads keys through the same function."""
    from repro.execution import (
        AggregateSpec,
        ColumnRef,
        GroupByHashOperator,
        RowSource,
        blocks_to_rows,
    )

    rows = [
        {"g": float("nan") if i % 2 else float(i % 40), "v": 1} for i in range(400)
    ]
    for aggregates in (
        [AggregateSpec("SUM", ColumnRef("v"), "s")],  # partials by key hash
        [AggregateSpec("AVG", ColumnRef("v"), "a"),  # rows of unseen keys
         AggregateSpec("COUNT", None, "s")],
    ):
        operator = GroupByHashOperator(
            RowSource(rows, ["g", "v"], block_rows=50),
            [ColumnRef("g")], ["g"], aggregates, max_groups=5,
        )
        out = {_label(row["g"]): row["s"] for row in blocks_to_rows(operator.blocks())}
        assert operator.spilled
        assert len(out) == 21 and out["nan"] == 200
