"""Counts, not timings: a lookup opens only the containers that can hold
its key.

A table sorted ``(a, b, c)`` loaded as 32 one-block containers.  Load
``j`` holds ``a = j`` with even ``b`` and ``a = j + 2`` with odd ``b``,
so the min/max of ``a`` admits three loads for every key and the min/max
of ``b`` admits every load, yet only one or two hold the key.  The sort
prefix is answered by a binary search over each candidate's cached
block before the container is opened: no batch is built for a container
whose window is empty, and a two-column lookup decodes at most
⌈log₂ blocks⌉ + 1 blocks.  Before the search every container the
min/max admitted was opened, its columns decoded and sliced, and the
kernel found the window empty.
"""

from math import ceil, log2

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.monitor import METRICS
from repro.storage.manager import StorageManager

LOADS = 32
EVEN, ODD = range(0, 16, 2), range(1, 16, 2)


def load_rows(j):
    rows = [{"a": j, "b": b} for b in EVEN] + [{"a": j + 2, "b": b} for b in ODD]
    return [dict(row, c=j * 100 + k) for k, row in enumerate(rows * 2)]


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(
        str(tmp_path_factory.mktemp("counts") / "db"),
        node_count=1, k_safety=0, segments_per_node=1,
    )
    db.create_table(
        TableDefinition(
            "t",
            [ColumnDef("a", types.INTEGER), ColumnDef("b", types.INTEGER),
             ColumnDef("c", types.INTEGER)],
        ),
        sort_order=["a", "b", "c"],
    )
    for j in range(LOADS):
        db.load("t", load_rows(j), direct_to_ros=True)
    assert len(containers(db)) == LOADS
    return db


def containers(db):
    return db.cluster.nodes[0].manager.storage("t_super").containers


def holders(db, where):
    """Ids of the containers holding a row ``where`` accepts."""
    manager = db.cluster.nodes[0].manager
    return sorted(
        container_id
        for container_id in containers(db)
        if any(map(where, manager.container_run("t_super", container_id).rows()))
    )


def cold(db):
    for container in containers(db).values():
        container.release()


@pytest.fixture
def opened(monkeypatch):
    """Ids of the containers the scan builds batches for."""
    ids = []
    scan_container = StorageManager._scan_container

    def spy(self, state, container, *rest):
        ids.append(container.container_id)
        return scan_container(self, state, container, *rest)

    monkeypatch.setattr(StorageManager, "_scan_container", spy)
    return ids


@pytest.mark.parametrize(
    "sql, where",
    [
        ("a = 9", lambda r: r["a"] == 9),
        ("a = 9 AND b = 5", lambda r: r["a"] == 9 and r["b"] == 5),
        ("a = 9 AND b BETWEEN 3 AND 4", lambda r: r["a"] == 9 and 3 <= r["b"] <= 4),
        ("a = 20 AND b <= 0", lambda r: r["a"] == 20 and r["b"] <= 0),
    ],
)
def test_a_lookup_builds_batches_only_where_its_key_is(db, opened, sql, where):
    rows = db.sql(f"SELECT c FROM t WHERE {sql}")
    expected = holders(db, where)
    assert rows and expected
    assert sorted(opened) == expected


def test_a_two_column_lookup_decodes_log_blocks(db):
    cold(db)
    before = METRICS.counter("storage.blocks_decoded") + METRICS.counter(
        "storage.blocks_vectorized"
    )
    rows = db.sql("SELECT c FROM t WHERE a = 13 AND b = 7")
    decoded = (
        METRICS.counter("storage.blocks_decoded")
        + METRICS.counter("storage.blocks_vectorized")
        - before
    )
    assert sorted(row["c"] for row in rows) == sorted(
        row["c"]
        for j in range(LOADS)
        for row in load_rows(j)
        if row["a"] == 13 and row["b"] == 7
    )
    # one block per column per container
    assert decoded <= ceil(log2(LOADS)) + 1
