"""Tests for the user-extension SDK (section 6)."""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro import sdk
from repro.errors import SqlAnalysisError
from repro.execution import (
    AggregateSpec,
    ColumnRef,
    FunctionCall,
    GroupByHashOperator,
    RowBlock,
    RowSource,
    blocks_to_rows,
)

C = ColumnRef


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=1)
    db.create_table(
        TableDefinition(
            "t", [ColumnDef("g", types.INTEGER), ColumnDef("x", types.FLOAT)]
        )
    )
    db.load("t", [{"g": i % 3, "x": float(i)} for i in range(30)])
    return db


@pytest.fixture(autouse=True)
def _cleanup():
    yield
    sdk.unregister_scalar_function("square")
    sdk.unregister_aggregate("second_largest")


class TestScalarFunctions:
    def test_register_and_call_from_expression(self):
        sdk.register_scalar_function("square", lambda v: v * v)
        block = RowBlock(columns={"x": [2, None, 3]}, row_count=3)
        assert FunctionCall("square", C("x")).evaluate(block) == [4, None, 9]

    def test_usable_from_sql(self, db):
        sdk.register_scalar_function("square", lambda v: v * v)
        rows = db.sql("SELECT square(x) AS sq FROM t WHERE g = 0 ORDER BY sq LIMIT 2")
        assert rows == [{"sq": 0.0}, {"sq": 9.0}]

    def test_unknown_function_still_rejected(self, db):
        with pytest.raises(Exception):
            db.sql("SELECT not_registered(x) FROM t")

    def test_invalid_name_rejected(self):
        with pytest.raises(SqlAnalysisError):
            sdk.register_scalar_function("bad name", lambda v: v)

    def test_builtin_cannot_be_unregistered(self):
        with pytest.raises(SqlAnalysisError):
            sdk.unregister_scalar_function("ABS")


class _SecondLargest(sdk.UserAggregate):
    def __init__(self):
        self.top: list = []

    def add(self, value) -> None:
        self.top.append(value)
        self.top = sorted(self.top, reverse=True)[:2]

    def final(self):
        return self.top[1] if len(self.top) > 1 else None


class TestUserAggregates:
    def test_register_and_group_by(self):
        sdk.register_aggregate("second_largest", _SecondLargest)
        rows = [{"g": i % 2, "v": i} for i in range(10)]
        out = blocks_to_rows(GroupByHashOperator(
            RowSource(rows, ["g", "v"]),
            [C("g")], ["g"],
            [AggregateSpec("SECOND_LARGEST", C("v"), "sl")],
        ).blocks())
        got = {row["g"]: row["sl"] for row in out}
        assert got == {0: 6, 1: 7}

    def test_usable_from_sql(self, db):
        sdk.register_aggregate("second_largest", _SecondLargest)
        rows = db.sql(
            "SELECT g, second_largest(x) AS sl FROM t GROUP BY g ORDER BY g"
        )
        # group g: values g, g+3, ..., g+27 -> second largest g+24
        assert [row["sl"] for row in rows] == [24.0, 25.0, 26.0]

    def test_not_mergeable(self):
        sdk.register_aggregate("second_largest", _SecondLargest)
        spec = AggregateSpec("SECOND_LARGEST", C("v"), "sl")
        assert spec.is_user_defined
        assert not spec.mergeable

    def test_builtin_name_collision_rejected(self):
        with pytest.raises(SqlAnalysisError):
            sdk.register_aggregate("SUM", _SecondLargest)

    def test_unsupported_after_unregister(self):
        sdk.register_aggregate("second_largest", _SecondLargest)
        sdk.unregister_aggregate("second_largest")
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            AggregateSpec("SECOND_LARGEST", C("v"), "sl")
