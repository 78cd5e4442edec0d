"""A NaN in a sort column has a fixed place, and a seek never answers
from an unsorted list.

The ordering rule puts every NaN after every number (as NULL sits
before), so a FLOAT sort column holding NaN is stored totally ordered.
A container written before that rule held its NaNs wherever the
comparisons happened to leave them, and a binary search over it returned
rows that do not match (``x = 0.5`` gave the rows holding 3.0 and NaN),
so the seek still declines on a vector that holds a NaN; the block
bounds ignore NaN the way they ignore NULL.  The engine and a
plain-Python oracle agree.
"""

import math

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.storage.block import value_bounds

NAN = math.nan
XS = [3.0, NAN, 1.0, 2.0, NAN, 0.5, 4.0, 1.0]

PREDICATES = {
    "x = 0.5": lambda x, y: x == 0.5,
    "x < 2.5": lambda x, y: x < 2.5,
    "x >= 2.0": lambda x, y: x >= 2.0,
    "x BETWEEN 1.0 AND 3.0": lambda x, y: 1.0 <= x <= 3.0,
    "x = 1.0 AND y >= 3": lambda x, y: x == 1.0 and y >= 3,
    "x = 1.0 AND y = 7": lambda x, y: x == 1.0 and y == 7,
    "x > 0.5 AND x <= 3.0 AND y < 7": lambda x, y: 0.5 < x <= 3.0 and y < 7,
}


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(
        str(tmp_path_factory.mktemp("nan") / "db"), node_count=1, k_safety=0
    )
    db.create_table(
        TableDefinition(
            "t", [ColumnDef("x", types.FLOAT), ColumnDef("y", types.INTEGER)]
        ),
        sort_order=["x", "y"],
    )
    db.load("t", [{"x": x, "y": y} for y, x in enumerate(XS)])
    db.cluster.run_tuple_movers()
    return db


@pytest.mark.parametrize("where", PREDICATES)
def test_kernel_row_and_oracle_agree_over_a_nan_sort_column(db, where):
    sql = f"SELECT y FROM t WHERE {where}"
    oracle = [y for y, x in enumerate(XS) if PREDICATES[where](x, y)]
    assert sorted(row["y"] for row in db.sql(sql)) == oracle


def test_wos_rows_with_nan_answer_the_same(db):
    db.sql("INSERT INTO t VALUES (0.5, 100)")
    try:
        sql = "SELECT y FROM t WHERE x = 0.5"
        assert sorted(row["y"] for row in db.sql(sql)) == [5, 100]
    finally:
        db.sql("DELETE FROM t WHERE y = 100")


def test_block_bounds_ignore_nan_like_null():
    assert value_bounds([NAN, 3.0, 1.0]) == (1.0, 3.0)  # NaN first
    assert value_bounds([3.0, NAN, 1.0]) == (1.0, 3.0)
    assert value_bounds([NAN, NAN]) == (None, None)
    assert value_bounds([]) == (None, None)
    assert value_bounds(["b", "a"]) == ("a", "b")


def containers(db):
    """The table's containers: its integral and fractional values spread
    over the node's local segments, one container each."""
    return list(db.cluster.nodes[0].manager.storage("t_super").containers.values())


def test_container_pruning_with_nan_is_exact(db):
    lows, highs = [], []
    for container in containers(db):
        numbers = [x for x in container.read_column("x") if x == x]
        assert numbers, "a container of NaN alone"
        assert container.column_min_max("x") == (min(numbers), max(numbers))
        assert container.may_contain("x", 4.0, None) == (max(numbers) >= 4.0)
        assert not container.may_contain("x", 4.5, None)
        assert not container.may_contain("x", None, 0.25)
        lows.append(min(numbers))
        highs.append(max(numbers))
    assert (min(lows), max(highs)) == (0.5, 4.0)


def test_a_sort_column_holding_nan_is_totally_ordered(db):
    nans = 0
    for container in containers(db):
        stored = container.read_column("x")
        numbers = [x for x in stored if x == x]
        assert stored[: len(numbers)] == sorted(numbers)
        # every NaN after every number
        assert all(x != x for x in stored[len(numbers) :])
        nans += len(stored) - len(numbers)
    assert nans == 2
