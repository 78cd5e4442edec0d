"""Tests for the type system, schema objects and the catalog."""

import datetime
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import types
from repro.core.catalog import Catalog
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import (
    DuplicateObjectError,
    LoadError,
    SqlAnalysisError,
    UnknownObjectError,
)
from repro.execution import Arithmetic, ColumnRef, Literal
from repro.projections import ProjectionFamily, super_projection


class TestTypes:
    def test_lookup_aliases(self):
        assert types.type_from_name("int") is types.INTEGER
        assert types.type_from_name("BIGINT") is types.INTEGER
        assert types.type_from_name("double") is types.FLOAT
        assert types.type_from_name("text") is types.VARCHAR
        with pytest.raises(SqlAnalysisError):
            types.type_from_name("BLOB")

    def test_validate(self):
        assert types.INTEGER.validate(5) == 5
        assert types.INTEGER.validate(None) is None
        assert types.FLOAT.validate(3) == 3.0  # int promotes
        with pytest.raises(SqlAnalysisError):
            types.INTEGER.validate("5")
        with pytest.raises(SqlAnalysisError):
            types.INTEGER.validate(True)  # bool is not an int here
        with pytest.raises(SqlAnalysisError):
            types.INTEGER.validate(2**63)  # out of 64-bit range

    def test_parse_text(self):
        assert types.INTEGER.parse_text("42") == 42
        assert types.FLOAT.parse_text("1.5") == 1.5
        assert types.VARCHAR.parse_text("abc") == "abc"
        assert types.BOOLEAN.parse_text("true") is True
        assert types.BOOLEAN.parse_text("0") is False
        assert types.INTEGER.parse_text("") is None
        assert types.INTEGER.parse_text("NULL") is None
        with pytest.raises(LoadError):
            types.INTEGER.parse_text("4x")
        with pytest.raises(LoadError):
            types.BOOLEAN.parse_text("maybe")
        assert types.INTEGER.parse_text(str(2**63 - 1)) == 2**63 - 1
        with pytest.raises(LoadError, match="out of 64-bit range"):
            types.INTEGER.parse_text(str(2**63))

    def test_parse_column_is_parse_text_a_column_at_a_time(self):
        assert types.INTEGER.parse_column(("1", " 2 ", "-3")) == ([1, 2, -3], [])
        assert types.INTEGER.parse_column(("1", "", "x", str(-(2**63) - 1), "null")) == (
            [1, None, None, None, None],
            [2, 3],
        )
        assert types.FLOAT.parse_column(("nan", "1e400"))[0][1] == float("inf")
        assert types.VARCHAR.parse_column(("a", " NULL", "Null")) == (["a", " NULL", None], [])
        assert types.BOOLEAN.parse_column(("t", "no", "maybe")) == ([True, False, None], [2])

    def test_date_helpers_roundtrip(self):
        day = datetime.date(2012, 8, 27)
        assert types.days_to_date(types.date_to_days(day)) == day
        moment = datetime.datetime(2012, 8, 27, 10, 30)
        assert types.seconds_to_timestamp(
            types.timestamp_to_seconds(moment)
        ) == moment

    def test_date_parse(self):
        days = types.DATE.parse_text("2000-01-11")
        assert days == 10

    def test_null_sorts_first(self):
        values = [3, None, 1, None, 2]
        ordered = sorted(values, key=types.sort_key)
        assert ordered[:2] == [None, None]
        assert ordered[2:] == [1, 2, 3]

    def test_null_sentinel_comparisons(self):
        assert types.NULL_FIRST == types.NULL_FIRST
        assert types.NULL_FIRST < 0
        assert not (types.NULL_FIRST > "z")

    def test_nan_sorts_after_every_number(self):
        nan = float("nan")
        values = [nan, 3.0, None, float("inf"), nan, -1.0]
        ordered = sorted(values, key=types.sort_key)
        assert ordered[:4] == [None, -1.0, 3.0, float("inf")]
        assert all(value != value for value in ordered[4:])
        assert types.sort_key(nan) == types.sort_key(float("nan"))
        assert types.NULL_FIRST < types.NAN_LAST and not types.NAN_LAST < 1e308


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([types.INTEGER, types.FLOAT, types.VARCHAR, types.BOOLEAN]),
    st.lists(
        st.one_of(
            st.none(),
            st.integers(-(2**64), 2**64),
            st.floats(allow_nan=True),
            st.booleans(),
            st.text(max_size=2),
        ),
        max_size=8,
    ),
)
def test_validate_column_is_validate_value_by_value(dtype, values):
    def outcome(check):
        try:
            return "ok", repr(check())
        except SqlAnalysisError as exc:
            return "error", str(exc)

    assert outcome(lambda: dtype.validate_column(values)) == outcome(
        lambda: list(map(dtype.validate, values))
    )


def _rank(value):
    """Plain-Python ordering: NULL, then numbers, then NaN."""
    if value is None:
        return (0, 0)
    return (2, 0) if value != value else (1, value)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 3).flatmap(
        lambda width: st.tuples(
            st.lists(
                st.tuples(*[
                    st.sampled_from([None, float("nan"), -1, 0, 0.0, -0.0, 1, 2.5, True])
                    for _ in range(width + 1)
                ]),
                max_size=40,
            ),
            st.lists(st.booleans(), min_size=width + 1, max_size=width + 1),
        )
    )
)
def test_sort_permutation_is_a_stable_sort_by_the_rule(case):
    rows, descending = case
    columns = [list(column) for column in zip(*rows)] or [[]]

    def compare(i, j):
        for values, desc in zip(columns, descending):
            a, b = _rank(values[i]), _rank(values[j])
            if a != b:
                return (1 if a > b else -1) * (-1 if desc else 1)
        return -1 if i < j else (1 if i > j else 0)

    want = sorted(range(len(rows)), key=functools.cmp_to_key(compare))
    assert types.sort_permutation(columns, descending) == want


class TestTableDefinition:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SqlAnalysisError):
            TableDefinition(
                "t",
                [ColumnDef("a", types.INTEGER), ColumnDef("a", types.FLOAT)],
            )

    def test_primary_key_must_exist(self):
        with pytest.raises(SqlAnalysisError):
            TableDefinition(
                "t", [ColumnDef("a", types.INTEGER)], primary_key=("b",)
            )

    def test_validate_columns(self):
        table = TableDefinition(
            "t", [ColumnDef("a", types.INTEGER), ColumnDef("b", types.FLOAT)]
        )
        columns = table.validate_columns({"b": [2, None], "a": [1, None]})
        assert columns == {"a": [1, None], "b": [2.0, None]}
        assert list(columns) == ["a", "b"] and type(columns["b"][0]) is float
        with pytest.raises(SqlAnalysisError, match="do not match"):
            table.validate_columns({"a": [1]})  # missing column
        # the first bad value in row order, not in column order
        with pytest.raises(SqlAnalysisError, match="'x'"):
            table.validate_columns({"a": [1, 2**63], "b": ["x", 1.0]})
        with pytest.raises(SqlAnalysisError, match="out of 64-bit range"):
            table.validate_columns({"a": [1, 2**63], "b": [1.0, "x"]})

    def test_partition_key(self):
        table = TableDefinition(
            "t",
            [ColumnDef("m", types.INTEGER)],
            partition_by=Arithmetic("%", ColumnRef("m"), Literal(12)),
        )
        assert table.partition_keys({"m": [25, 12, None]}, 3) == [1, 0, None]
        assert table.partition_columns() == ["m"]
        unpartitioned = TableDefinition("u", [ColumnDef("m", types.INTEGER)])
        assert unpartitioned.partition_keys({"m": [25]}, 1) == [None]
        with pytest.raises(TypeError, match="partition expression is an Expr"):
            TableDefinition(
                "v", [ColumnDef("m", types.INTEGER)], partition_by=lambda row: 0
            )


class TestCatalog:
    def _table(self, name="t"):
        return TableDefinition(name, [ColumnDef("a", types.INTEGER)])

    def test_add_and_lookup(self):
        catalog = Catalog()
        catalog.add_table(self._table())
        assert catalog.table("t").name == "t"
        with pytest.raises(UnknownObjectError):
            catalog.table("missing")

    def test_duplicates_rejected(self):
        catalog = Catalog()
        catalog.add_table(self._table())
        with pytest.raises(DuplicateObjectError):
            catalog.add_table(self._table())

    def test_family_registration(self):
        catalog = Catalog()
        table = self._table()
        catalog.add_table(table)
        family = ProjectionFamily(super_projection(table), [])
        catalog.add_family(family)
        assert catalog.family("t_super") is family
        assert catalog.families_for_table("t") == [family]
        assert catalog.super_projection_for("t") is family
        assert catalog.check_super_projection_invariant("t")

    def test_family_requires_table(self):
        catalog = Catalog()
        family = ProjectionFamily(super_projection(self._table()), [])
        with pytest.raises(UnknownObjectError):
            catalog.add_family(family)

    def test_drop_table_returns_projections(self):
        catalog = Catalog()
        table = self._table()
        catalog.add_table(table)
        catalog.add_family(ProjectionFamily(super_projection(table), []))
        removed = catalog.drop_table("t")
        assert [p.name for p in removed] == ["t_super"]
        assert catalog.table_names() == []
        assert catalog.families == {}

    def test_no_super_projection_detected(self):
        catalog = Catalog()
        table = TableDefinition(
            "t", [ColumnDef("a", types.INTEGER), ColumnDef("b", types.INTEGER)]
        )
        catalog.add_table(table)
        with pytest.raises(UnknownObjectError):
            catalog.super_projection_for("t")
        assert not catalog.check_super_projection_invariant("t")
