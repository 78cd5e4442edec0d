"""MIN and MAX order NaN after every number, as ORDER BY does.

Found while sizing the column group table, present before it: the same
FLOAT rows {NaN, 0.0, 1.0} answered ``min = max = NaN`` when the NaN row
was moved out first and ``0.0 / 1.0`` when it came last — ``x < NaN``
is false, so whichever value a fold met first decided — and ``MAX(x)``
said 1.0 while ``ORDER BY x DESC LIMIT 1`` said NaN.  Under the one
ordering rule (``repro.types.NAN_LAST``) MIN skips NaN unless every
value is NaN and MAX is NaN if any value is, whatever the container
order, the grouping, the two-phase plan or the window.
"""

import math

import pytest

from repro import ColumnDef, Database, TableDefinition, types

NAN = float("nan")


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)


@pytest.fixture(params=["NaN moved out first", "NaN moved out last"])
def db(tmp_path, request):
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1)
    db.create_table(
        TableDefinition(
            "t", [ColumnDef("g", types.INTEGER), ColumnDef("x", types.FLOAT)]
        ),
        sort_order=["g"],
    )
    nans = [{"g": 1, "x": NAN}, {"g": 2, "x": NAN}]
    numbers = [{"g": 1, "x": 0.0}, {"g": 1, "x": 1.0}, {"g": 3, "x": 5.0}]
    loads = [nans, numbers] if request.param.endswith("first") else [numbers, nans]
    for rows in loads:
        db.load("t", rows, direct_to_ros=True)
    return db


@pytest.mark.parametrize(
    "sql, want",
    [
        ("SELECT min(x) AS lo, max(x) AS hi FROM t", [(None, 0.0, NAN)]),
        (
            "SELECT g, min(x) AS lo, max(x) AS hi FROM t GROUP BY g",
            # a group of NaN alone is NaN both ways
            [(1, 0.0, NAN), (2, NAN, NAN), (3, 5.0, 5.0)],
        ),
        (
            "SELECT g, min(DISTINCT x) AS lo, max(DISTINCT x) AS hi FROM t GROUP BY g",
            [(1, 0.0, NAN), (2, NAN, NAN), (3, 5.0, 5.0)],
        ),
    ],
    ids=["global", "grouped", "distinct"],
)
def test_min_skips_nan_and_max_is_nan(db, sql, want):
    got = sorted((row.get("g"), row["lo"], row["hi"]) for row in db.sql(sql))
    assert len(got) == len(want)
    assert all(all(map(_same, a, b)) for a, b in zip(got, want)), got


def test_max_agrees_with_the_sort(db):
    (top,) = db.sql("SELECT x FROM t ORDER BY x DESC LIMIT 1")
    (bottom,) = db.sql("SELECT x FROM t WHERE g = 1 ORDER BY x LIMIT 1")
    (row,) = db.sql("SELECT max(x) AS hi FROM t")
    (one,) = db.sql("SELECT min(x) AS lo FROM t WHERE g = 1")
    assert math.isnan(top["x"]) and math.isnan(row["hi"])
    assert bottom["x"] == one["lo"] == 0.0


def test_a_window_min_and_max_read_the_same_rule(db):
    rows = db.sql(
        "SELECT g, x, min(x) OVER (PARTITION BY g) AS lo, "
        "max(x) OVER (PARTITION BY g) AS hi FROM t"
    )
    want = {1: (0.0, NAN), 2: (NAN, NAN), 3: (5.0, 5.0)}
    assert len(rows) == 5
    assert all(_same(row["lo"], want[row["g"]][0]) for row in rows)
    assert all(_same(row["hi"], want[row["g"]][1]) for row in rows)
