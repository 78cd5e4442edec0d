"""Counts, not timings: a container is read one way.

* Storage yields the columnar blocks execution computes over, from the
  one package both import (``repro.columnar``): no module under
  ``repro/storage/`` imports ``repro.execution``, at module level or
  inside a function.
* ``StorageManager.scan`` and ``StorageManager.delete_where`` (live and
  replayed) pick their containers through one walk
  (``StorageManager._walk``), entered once per call, and nothing on
  that path asks whether a column is row-grouped
  (``ROSContainer._group_of``).
* A row-grouped column is read like any other, so its sort prefix is
  searched too: a two-column lookup whose leading sort column is
  stored row-grouped, over 32 one-block containers, opens only the
  containers holding its key and decodes at most ⌈log₂ 32⌉ + 1 blocks
  (``test_a_lookup_opens_what_holds_its_key.py`` with the column
  grouped).  Before, the search stopped at a grouped column and every
  container its min/max admitted was opened.
"""

import ast
import pathlib
from math import ceil, log2

import pytest

import repro.storage
from repro import ColumnDef, Database, TableDefinition, types
from repro.monitor import METRICS
from repro.storage import ROSContainer, StorageManager
from repro.storage.ros import ContainerImage

LOADS = 32
EVEN, ODD = range(0, 16, 2), range(1, 16, 2)
DECODED = ("storage.blocks_decoded", "storage.blocks_vectorized")


def imported_modules(path: pathlib.Path, package: str):
    """Every module an import statement anywhere in ``path`` names,
    relative imports resolved against ``package``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = node.module or ""
            if node.level:
                base = ".".join(parts[: len(parts) - node.level + 1] + [base]).rstrip(".")
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_storage_imports_nothing_of_execution():
    root = pathlib.Path(repro.storage.__file__).parent
    seen = set()
    for path in sorted(root.rglob("*.py")):
        package = ".".join(("repro",) + path.relative_to(root.parent).parent.parts)
        modules = set(imported_modules(path, package))
        assert not [
            module for module in modules
            if module == "repro.execution" or module.startswith("repro.execution.")
        ], path
        seen |= modules
    # the resolution is not vacuous: storage's columnar imports are found
    assert {"repro.columnar.selection", "repro.columnar.vectors.seek"} <= seen


def load_rows(j):
    rows = [{"a": j, "b": b} for b in EVEN] + [{"a": j + 2, "b": b} for b in ODD]
    return [dict(row, c=j * 100 + k) for k, row in enumerate(rows * 2)]


def grouped_database(path, loads):
    """A table sorted ``(a, b, c)`` loaded as ``loads`` one-block
    containers whose leading sort column ``a`` is stored row-grouped."""
    db = Database(str(path), node_count=1, k_safety=0, segments_per_node=1)
    db.create_table(
        TableDefinition(
            "t",
            [ColumnDef("a", types.INTEGER), ColumnDef("b", types.INTEGER),
             ColumnDef("c", types.INTEGER)],
        ),
        sort_order=["a", "b", "c"],
    )
    image = ContainerImage.build.__func__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            ContainerImage, "build",
            classmethod(lambda cls, projection, run: image(cls, projection, run, [["a"]])),
        )
        for j in range(loads):
            db.load("t", load_rows(j), direct_to_ros=True)
    assert len(containers(db)) == loads
    assert all(c.meta.column_groups == [["a"]] for c in containers(db).values())
    return db


def containers(db):
    return db.cluster.nodes[0].manager.storage("t_super").containers


@pytest.fixture
def calls(monkeypatch):
    """Calls of the walk, of its two callers and of ``_group_of``."""
    seen = {"_walk": 0, "scan": 0, "delete_where": 0, "_group_of": 0}
    for owner, name in [
        (StorageManager, "_walk"), (StorageManager, "scan"),
        (StorageManager, "delete_where"), (ROSContainer, "_group_of"),
    ]:
        def counting(*args, _original=getattr(owner, name), _name=name, **kwargs):
            seen[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return seen


def test_scan_and_delete_enter_one_walk_and_never_ask_for_groups(tmp_path, calls):
    path = tmp_path / "db"
    db = grouped_database(path, 4)
    for container in containers(db).values():
        container.release()
    for name in calls:
        calls[name] = 0
    assert len(db.sql("SELECT c FROM t WHERE a = 3 AND b = 4")) == 2
    db.sql("DELETE FROM t WHERE a = 3 AND b = 4")
    assert db.sql("SELECT count(*) AS n FROM t")[0]["n"] == 4 * 32 - 2
    assert calls["scan"] == 3 and calls["delete_where"] == 1, calls
    assert calls["_walk"] == calls["scan"] + calls["delete_where"], calls
    assert calls["_group_of"] == 0, calls
    del db

    for name in calls:
        calls[name] = 0
    db = Database.open(str(path))  # the DELETE is replayed: by value, through the walk
    assert calls["delete_where"] >= 1, calls
    assert calls["_walk"] == calls["scan"] + calls["delete_where"], calls
    assert calls["_group_of"] == 0, calls
    assert db.sql("SELECT count(*) AS n FROM t")[0]["n"] == 4 * 32 - 2


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    return grouped_database(tmp_path_factory.mktemp("counts") / "db", LOADS)


def holders(db, where):
    """Ids of the containers holding a row ``where`` accepts."""
    manager = db.cluster.nodes[0].manager
    return sorted(
        container_id
        for container_id in containers(db)
        if any(map(where, manager.container_run("t_super", container_id).rows()))
    )


@pytest.fixture
def opened(monkeypatch):
    """Ids of the containers the scan builds blocks for."""
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
        ("a = 20 AND b <= 0", lambda r: r["a"] == 20 and r["b"] <= 0),
    ],
)
def test_a_grouped_lookup_opens_only_where_its_key_is(db, opened, sql, where):
    rows = db.sql(f"SELECT c FROM t WHERE {sql}")
    expected = holders(db, where)
    assert rows and expected
    assert sorted(opened) == expected


def test_a_grouped_two_column_lookup_decodes_log_blocks(db):
    for container in containers(db).values():
        container.release()
    before = sum(map(METRICS.counter, DECODED))
    rows = db.sql("SELECT c FROM t WHERE a = 13 AND b = 7")
    decoded = sum(map(METRICS.counter, DECODED)) - before
    assert sorted(row["c"] for row in rows) == sorted(
        row["c"]
        for j in range(LOADS)
        for row in load_rows(j)
        if row["a"] == 13 and row["b"] == 7
    )
    # one block per column per container; a group file decoded counts
    # its column's block
    assert decoded <= ceil(log2(LOADS)) + 1
