"""A run's lists are shared; the WOS's are its own.

``route_rows`` hands a replicated projection's run to every node as the
same object, and a segmented run whose rows all land on one node to
that node as it is — for the buddy copy too.  A WOS that kept those
lists instead of copying them would see the next commit appended once
per holder: the second commit's rows twice on the other nodes.
"""

from collections import Counter

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.columnar import blocks_to_rows
from repro.projections import HashSegmentation, Replicated
from storage_helpers import nodes_of

COMMITS = (range(0, 6), range(6, 10))


def rows(keys):
    # one segmentation key per commit: every row of it lands on one node
    return [{"g": f"g{min(keys)}", "k": k} for k in keys]


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1)
    columns = [ColumnDef("g", types.VARCHAR), ColumnDef("k", types.INTEGER)]
    db.create_table(
        TableDefinition("r", columns), sort_order=["k"], segmentation=Replicated()
    )
    db.create_table(
        TableDefinition("s", list(columns)),
        sort_order=["k"],
        segmentation=HashSegmentation(("g",)),
    )
    return db


def check_every_copy_holds_exactly_its_rows(db, committed):
    node_count = db.cluster.node_count
    for copy in db.cluster.catalog.all_projections():
        for node in db.cluster.nodes:
            if copy.segmentation.replicated:
                expected = committed
            else:
                placed = nodes_of(copy.segmentation, committed, node_count)
                expected = [
                    row for row, at in zip(committed, placed) if at == node.index
                ]
            held = node.manager.history(copy.name)
            assert Counter(row["k"] for row in held.rows()) == Counter(
                row["k"] for row in expected
            ), (copy.name, node.index)
            assert blocks_to_rows(node.manager.scan(copy.name, db.latest_epoch)) == sorted(
                expected, key=lambda row: row["k"]
            )


def test_two_commits_and_a_moveout_leave_every_copy_its_own_rows(db):
    committed = []
    for keys in COMMITS:
        session = db.session()
        session.insert("r", rows(keys))
        session.insert("s", rows(keys))
        session.commit()
        committed += rows(keys)
        check_every_copy_holds_exactly_its_rows(db, committed)
    assert any(
        node.manager.wos_row_count(name)
        for node in db.cluster.nodes
        for name in node.manager.projection_names()
    )
    db.cluster.run_tuple_movers()
    check_every_copy_holds_exactly_its_rows(db, committed)
    for table in "rs":
        assert db.sql(f"SELECT count(*) AS n FROM {table}") == [{"n": len(committed)}]
