"""A partitioned table stays partitioned across a reopen.

``TableDefinition.partition_by`` is an ``Expr``; the journal keeps its
SQL text and a reopen rebuilds it through the parser and analyzer that
``CREATE TABLE ... PARTITION BY`` runs.  When it was a Python callable
the codec could not journal it, and a reopened table was silently
unpartitioned: the replayed load came back as containers keyed
``None``, ``drop_partition`` found nothing to drop, and a projection
without the partition column was accepted.
"""

import pytest

from repro import Database
from repro.errors import CatalogError

NARROW = (
    "CREATE PROJECTION t_narrow (b, c) AS SELECT b, c FROM t "
    "ORDER BY b SEGMENTED BY HASH(b) ALL NODES"
)


def rows(start, stop):
    return [{"a": i, "b": i * 7, "c": float(i)} for i in range(start, stop)]


def keys(db):
    """Every container's partition key, on every node and copy."""
    return sorted(
        {
            key
            for node in db.cluster.nodes
            for copy in db.cluster.catalog.all_projections()
            for key in node.manager.partition_keys(copy.name)
        },
        key=repr,
    )


def containers_hold_one_key(db):
    """Each container's rows all carry the key in its metadata."""
    for node in db.cluster.nodes:
        for copy in db.cluster.catalog.all_projections():
            state = node.manager.storage(copy.name)
            for container_id, container in state.containers.items():
                run = node.manager.container_run(copy.name, container_id)
                assert {a % 3 for a in run.columns["a"]} == {container.meta.partition_key}


def test_a_reopened_table_keeps_its_partition_expression(tmp_path):
    path = str(tmp_path / "db")
    db = Database(path, node_count=3, k_safety=1)
    db.sql("CREATE TABLE t (a INTEGER, b INTEGER, c FLOAT) PARTITION BY a % 3")
    db.load("t", rows(0, 30), direct_to_ros=True)
    assert keys(db) == [0, 1, 2]
    del db

    db = Database.open(path)
    assert repr(db.cluster.catalog.table("t").partition_by) == "(a % 3)"
    assert keys(db) == [0, 1, 2]
    containers_hold_one_key(db)
    # a load after the reopen is partitioned too
    db.load("t", rows(30, 60), direct_to_ros=True)
    assert keys(db) == [0, 1, 2]
    containers_hold_one_key(db)
    # dropping partition 0 from the primary copies reclaims every a % 3 = 0 row
    matching = db.sql("SELECT count(*) AS n FROM t WHERE a % 3 = 0")[0]["n"]
    assert matching == 20
    primary = db.cluster.catalog.super_projection_for("t").primary.name
    assert sum(node.manager.drop_partition(primary, 0) for node in db.cluster.nodes) == 20
    # and a projection without the partition column is still refused
    with pytest.raises(CatalogError, match=r"omits \['a'\]"):
        db.sql(NARROW)
