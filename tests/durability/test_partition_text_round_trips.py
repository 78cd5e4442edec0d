"""The journal's text of a partition expression reads back as itself.

The journal keeps ``repr`` of a table's partition ``Expr`` and a reopen
rebuilds it through the parser and analyzer, so every expression class
must print SQL that parses back to the same expression, column names
that are keywords or not identifiers included.  What cannot (a float
``inf``, a name holding a double quote) is refused when the table is
created, before anything is journalled: a reopen has nothing else to
go on.  Text that does not read back is refused by a typed error when
it is decoded, never reopened as an unpartitioned table.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, types
from repro.core.schema import ColumnDef, TableDefinition
from repro.durability import decode_table, encode_table
from repro.errors import CatalogError, SqlAnalysisError
from repro.execution import expressions as ex

NAMES = ["a", "key", "count", "date", "My Col", "_x9", "Été"]

LITERALS = (
    st.integers(-(10**12), 10**12)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.booleans()
    | st.none()
)


def extend(children):
    two = st.tuples(children, children)
    return st.one_of(
        st.builds(ex.Comparison, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), children, children),
        st.builds(ex.Between, children, children, children),
        st.builds(ex.InList, children, st.lists(LITERALS, min_size=1, max_size=3)),
        st.builds(ex.IsNull, children, st.booleans()),
        st.builds(lambda pair: ex.And(*pair), two),
        st.builds(lambda pair: ex.Or(*pair), two),
        st.builds(ex.Not, children),
        st.builds(ex.Arithmetic, st.sampled_from(["+", "-", "*", "/", "%"]), children, children),
        st.builds(ex.FunctionCall, st.sampled_from(sorted(ex._SCALAR_FUNCTIONS)), children),
        st.builds(ex.Like, children, st.text(max_size=4), st.booleans()),
        st.builds(
            ex.CaseWhen,
            st.lists(two, min_size=1, max_size=2),
            st.none() | children,
        ),
    )


LEAVES = st.builds(ex.ColumnRef, st.sampled_from(NAMES)) | st.builds(ex.Literal, LITERALS)
EXPRESSIONS = st.recursive(LEAVES, extend, max_leaves=6)
#: every class the strategy builds; a new Expr class must join it
BUILT = {
    ex.ColumnRef, ex.Literal, ex.Comparison, ex.Between, ex.InList, ex.IsNull, ex.And,
    ex.Or, ex.Not, ex.Arithmetic, ex.FunctionCall, ex.Like, ex.CaseWhen,
}


def table(partition_by, names=NAMES):
    return TableDefinition("t", [ColumnDef(n, types.INTEGER) for n in names], partition_by)


def test_the_strategy_builds_every_expression_class():
    assert BUILT == set(ex.Expr.__subclasses__())


def shape(node):
    """An expression's whole structure, every value by ``repr`` (an IN
    list's options as a multiset): two equal shapes evaluate alike."""
    if isinstance(node, ex.Expr):
        fields = {name: shape(v) for name, v in vars(node).items() if name != "_compiled"}
        if isinstance(node, ex.InList):
            fields["options"] = sorted(fields["options"])
        return type(node).__name__, fields
    if isinstance(node, (list, tuple)):
        return [shape(v) for v in node]
    return repr(node)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS)
def test_every_expression_reads_back_as_itself(expr):
    """Not only the same text: the same tree, so a ``__repr__`` that
    drops something (``IS NOT NULL`` printed ``IS NULL``) fails here."""
    decoded = decode_table(encode_table(table(expr))).partition_by
    assert repr(decoded) == repr(expr)
    assert shape(decoded) == shape(expr)


@pytest.mark.parametrize(
    "expr, names",
    [
        (ex.Arithmetic("+", ex.ColumnRef("a"), ex.Literal(float("inf"))), ["a"]),
        (ex.Comparison("=", ex.ColumnRef("a"), ex.Literal(float("nan"))), ["a"]),
        (ex.ColumnRef('say "hi"'), ['say "hi"']),
    ],
    ids=["inf", "nan", "double-quote"],
)
def test_what_would_not_read_back_is_refused_before_the_journal(tmp_path, expr, names):
    db = Database(str(tmp_path / "db"))
    before = db.cluster.journal.record_count()
    with pytest.raises(CatalogError, match="does not read back"):
        db.create_table(table(expr, names))
    assert db.cluster.journal.record_count() == before
    assert "t" not in db.cluster.catalog.tables
    del db
    assert "t" not in Database.open(str(tmp_path / "db")).cluster.catalog.tables


def test_a_partition_expression_over_a_missing_column_is_refused():
    with pytest.raises(SqlAnalysisError, match=r"reads \['b'\]"):
        table(ex.ColumnRef("b"), ["a"])


def partition_keys(db, name):
    primary = db.cluster.catalog.super_projection_for(name).primary.name
    return {key for node in db.cluster.nodes for key in node.manager.partition_keys(primary)}


def test_a_table_partitioned_on_quoted_keyword_columns_reopens_partitioned(tmp_path):
    path = str(tmp_path / "db")
    db = Database(path, node_count=3, k_safety=1)
    db.sql('CREATE TABLE t ("key" INTEGER, "My Col" INTEGER) PARTITION BY "key" % 3')
    db.sql('CREATE TABLE d ("date" DATE, v INTEGER) PARTITION BY MONTH("date")')
    db.load("t", [{"key": i, "My Col": i} for i in range(30)], direct_to_ros=True)
    db.sql("INSERT INTO d VALUES (DATE '2024-01-05', 1), (DATE '2024-03-09', 2)")
    db.cluster.run_tuple_movers()
    before = (partition_keys(db, "t"), partition_keys(db, "d"))
    assert before == ({0, 1, 2}, {1, 3})
    del db

    db = Database.open(path)
    assert repr(db.cluster.catalog.table("t").partition_by) == '("key" % 3)'
    assert repr(db.cluster.catalog.table("d").partition_by) == 'MONTH("date")'
    assert (partition_keys(db, "t"), partition_keys(db, "d")) == before
    db.load("t", [{"key": i, "My Col": i} for i in range(30, 33)], direct_to_ros=True)
    assert partition_keys(db, "t") == {0, 1, 2}


@pytest.mark.parametrize(
    "text", ["EXTRACT MONTH, YEAR FROM TIMESTAMP (as month_key)", "foo(a)", "DATE 'June'", "-'x'"]
)
def test_display_text_is_refused_by_a_typed_error(text):
    payload = {**encode_table(table(None, ["a"])), "partition_by_text": text}
    with pytest.raises(CatalogError, match="does not read back"):
        decode_table(payload)


def test_display_text_in_the_journal_refuses_the_open(tmp_path, monkeypatch):
    """The Python API once took a callable plus free display text, such
    as ``EXTRACT MONTH, YEAR FROM TIMESTAMP (as month_key)``.  A table
    journalled with text that does not read is not reopened unpartitioned
    (its rows would route differently): the open raises a typed error."""
    path = str(tmp_path / "db")
    db = Database(path, node_count=3, k_safety=1)

    def as_written_before(definition):
        text = "EXTRACT MONTH, YEAR FROM TIMESTAMP (as month_key)"
        return {**encode_table(definition), "partition_by_text": text}

    monkeypatch.setattr("repro.durability.encode_table", as_written_before)
    db.sql("CREATE TABLE p (a INTEGER, b INTEGER) PARTITION BY a % 3")
    monkeypatch.undo()
    db.load("p", [{"a": a, "b": a} for a in range(30)], direct_to_ros=True)
    del db

    with pytest.raises(CatalogError, match="does not read back"):
        Database.open(path)
