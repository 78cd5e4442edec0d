"""Counts, not timings: the coordinator reads a table a column at a time.

Four coordinator-side reads used to materialise every visible row as a
dict (``Cluster.read_table``) or turn a run back into rows
(``HistoryRun.rows``) and pivot the result again
(``HistoryRun.from_rows``):

* statistics (``Database.analyze_statistics``);
* the Designer's encoding sample (``DatabaseDesigner.choose_encodings``);
* prejoin expansion, on refresh and on every commit into the fact table;
* a transaction's read of its own uncommitted inserts.

Each now reads columns (``Cluster.read_columns``) and gathers, so none
of them builds a row: the spies below must stay at zero, while the
answers equal a row-at-a-time computation done here.
"""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.columnar import RowBlock
from repro.designer import DatabaseDesigner
from repro.projections import (
    HashSegmentation,
    PrejoinSpec,
    ProjectionColumn,
    ProjectionDefinition,
    Replicated,
)
from repro.storage import HistoryRun
from repro.storage.encodings import choose_encoding
from storage_helpers import read_table

ROW_BUILDERS = [
    (HistoryRun, "rows"),
    (HistoryRun, "from_rows"),
    (RowBlock, "from_rows"),
]


@pytest.fixture
def rows_built(monkeypatch):
    """Calls of everything that turns columns into row dicts or back;
    a test zeroes them (``zero``) once its database is loaded."""
    seen = {}
    for owner, name in ROW_BUILDERS:
        key = f"{owner.__name__}.{name}"
        seen[key] = 0

        def counting(*args, _original=getattr(owner, name), _key=key, **kwargs):
            seen[_key] += 1
            return _original(*args, **kwargs)

        if isinstance(owner.__dict__[name], classmethod):
            counting = staticmethod(counting)  # the original is bound already
        monkeypatch.setattr(owner, name, counting)
    return seen


def zero(seen: dict) -> None:
    seen.update(dict.fromkeys(seen, 0))


def star(path, node_count=3):
    """A replicated dimension ``z_customers``, a fact table ``a_orders``
    holding rows in ROS and in the WOS, and a prejoin projection of the
    facts onto the dimension."""
    db = Database(str(path), node_count=node_count, durable=False)
    db.create_table(
        TableDefinition(
            "z_customers",
            [ColumnDef("cid", types.INTEGER), ColumnDef("name", types.VARCHAR)],
        ),
        segmentation=Replicated(),
    )
    db.create_table(
        TableDefinition(
            "a_orders",
            [
                ColumnDef("oid", types.INTEGER),
                ColumnDef("cid", types.INTEGER),
                ColumnDef("amount", types.FLOAT),
            ],
            primary_key=("oid",),
        ),
        sort_order=["oid"],
    )
    db.load("z_customers", [{"cid": c, "name": f"name{c % 4}"} for c in range(20)])
    facts = [{"oid": o, "cid": o % 20, "amount": float(o % 13)} for o in range(600)]
    db.load("a_orders", facts[:500], direct_to_ros=True)
    db.load("a_orders", facts[500:])
    return db


PREJOIN = ProjectionDefinition(
    name="a_orders_with_customer",
    anchor_table="a_orders",
    columns=[
        ProjectionColumn("oid", types.INTEGER),
        ProjectionColumn("cid", types.INTEGER),
        ProjectionColumn("cust_name", types.VARCHAR),
    ],
    sort_order=["cust_name", "oid"],
    segmentation=HashSegmentation(("oid",)),
    prejoin=PrejoinSpec("z_customers", "cid", "cid", {"name": "cust_name"}),
)


def test_statistics_read_columns(tmp_path, rows_built):
    db = star(tmp_path / "db")
    zero(rows_built)
    db.analyze_statistics()
    assert set(rows_built.values()) == {0}, rows_built
    stats = db.stats.get("a_orders")
    assert stats.row_count == 600
    rows = read_table(db.cluster, "a_orders", db.latest_epoch)
    for name in ("oid", "cid", "amount"):
        column = stats.column(name)
        values = [row[name] for row in rows]
        assert (column.min_value, column.max_value) == (min(values), max(values))
        assert column.ndv == len(set(values))


def test_the_designer_samples_columns(tmp_path, rows_built):
    db = star(tmp_path / "db")
    definition = ProjectionDefinition(
        name="a_orders_by_cid",
        anchor_table="a_orders",
        columns=[
            ProjectionColumn("cid", types.INTEGER),
            ProjectionColumn("amount", types.FLOAT),
        ],
        sort_order=["cid", "amount"],
        segmentation=HashSegmentation(("cid",)),
    )
    zero(rows_built)
    encodings = DatabaseDesigner(db).choose_encodings(definition)
    assert set(rows_built.values()) == {0}, rows_built
    # the row way: the first rows, sorted by the proposed order
    rows = read_table(db.cluster, "a_orders", db.latest_epoch)
    sample = definition.sorted_rows(rows[:4096])
    assert encodings == {
        column.name: choose_encoding(
            column.dtype, [row[column.name] for row in sample]
        ).name
        for column in definition.columns
    }


def test_prejoin_refresh_and_commit_gather_columns(tmp_path, rows_built):
    db = star(tmp_path / "db")
    zero(rows_built)
    db.add_projection(PREJOIN)
    db.sql("INSERT INTO z_customers VALUES (20, 'new')")
    db.sql("INSERT INTO a_orders VALUES (600, 20, 1.5), (601, 3, 2.5)")
    assert set(rows_built.values()) == {0}, rows_built
    names = {
        row["oid"]: row["cust_name"]
        for node in db.cluster.nodes
        for copy in db.cluster.catalog.family(PREJOIN.name).all_copies
        for row, _, _ in node.manager.history(copy.name).records()
    }
    want = {o: f"name{o % 20 % 4}" for o in range(600)}
    assert names == {**want, 600: "new", 601: "name3"}


@pytest.mark.parametrize("node_count", [1, 3])
def test_a_transaction_reads_its_own_inserts_as_columns(tmp_path, rows_built, node_count):
    db = star(tmp_path / "db", node_count=node_count)
    db.add_projection(PREJOIN)
    session = db.session()
    session.sql("INSERT INTO z_customers VALUES (20, 'new')")
    session.sql(
        "INSERT INTO a_orders VALUES "
        + ", ".join(f"({o}, {o % 21}, 0.5)" for o in range(600, 660))
    )
    zero(rows_built)
    everything = session.sql("SELECT count(*) AS n FROM a_orders")
    new_customer = session.sql("SELECT oid FROM a_orders WHERE cid = 20 ORDER BY oid")
    customers = session.sql("SELECT count(*) AS n FROM z_customers")
    assert set(rows_built.values()) == {0}, rows_built
    # every own row once, whichever node's fragment it falls to
    assert everything == [{"n": 660}]
    assert new_customer == [{"oid": 608}, {"oid": 629}, {"oid": 650}]
    assert customers == [{"n": 21}]
    session.rollback()
