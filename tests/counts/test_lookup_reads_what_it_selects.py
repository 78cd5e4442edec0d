"""Counts, not timings: a point lookup reads what it selects.

A table sorted ``(a, b, c)`` in three containers (one of them three
storage blocks long).  ``a = ? AND b = ?`` — and the same with ``c
BETWEEN`` — must cost, per block the predicate is handed, no more
scalar tests plus mask elements than twice the rows it returns there:
the sort prefix is searched, not filtered.  Before the sort-prefix seek
the same lookup tested ``b`` on every row of every block it opened and
built two block-length masks.  The blocks it decodes are what pruning
leaves, no more than before; and the WOS half of the scan sorts its
rows once per mutation, not once per lookup.
"""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.columnar import Selection
from repro.execution.kernels import predicates
from repro.monitor import METRICS
from repro.storage.block import BLOCK_ROWS
from repro.storage.wos import SortedView

B_VALUES = 64
LOADS = (2 * BLOCK_ROWS + 500, 3000, 2500)


def make_rows(first, count):
    """``a`` in 4 long runs, ``b`` in 64 runs inside each, ``c`` unique."""
    return [
        {"a": k * 4 // count, "b": k * 4 * B_VALUES // count % B_VALUES,
         "c": first + k, "v": float(k % 97)}
        for k in range(count)
    ]


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
             ColumnDef("c", types.INTEGER), ColumnDef("v", types.FLOAT)],
        ),
        sort_order=["a", "b", "c"],
    )
    first = 0
    for count in LOADS:
        db.load("t", make_rows(first, count), direct_to_ros=True)
        first += count
    containers = db.cluster.nodes[0].manager.storage("t_super").containers
    assert sorted(c.row_count for c in containers.values()) == sorted(LOADS)
    return db


@pytest.fixture
def work(monkeypatch):
    """Per kernel-predicate call: ``(block rows, scalar tests + mask
    elements, rows selected)``."""
    counted = {"n": 0}
    calls = []
    make_leaf, from_mask = predicates._make_leaf, Selection.from_mask.__func__
    call = predicates.KernelPredicate.__call__

    def counting_leaf(name, test, *rest):
        def counted_test(value):
            counted["n"] += 1
            return test(value)

        return make_leaf(name, counted_test, *rest)

    def counting_mask(cls, mask):
        counted["n"] += len(mask)
        return from_mask(cls, mask)

    def counting_call(self, columns, row_count, sorted_by=(), seeks=None):
        before = counted["n"]
        selection = call(self, columns, row_count, sorted_by, seeks)
        calls.append((row_count, counted["n"] - before, selection.count))
        return selection

    monkeypatch.setattr(predicates, "_make_leaf", counting_leaf)
    monkeypatch.setattr(Selection, "from_mask", classmethod(counting_mask))
    monkeypatch.setattr(predicates.KernelPredicate, "__call__", counting_call)
    return calls


def expected(where):
    rows = []
    first = 0
    for count in LOADS:
        rows += [row for row in make_rows(first, count) if where(row)]
        first += count
    return sorted(row["c"] for row in rows)


@pytest.mark.parametrize(
    "sql, where",
    [
        ("a = 1 AND b = 17", lambda r: r["a"] == 1 and r["b"] == 17),
        (
            "a = 2 AND b = 40 AND c BETWEEN 5 AND 20000",
            lambda r: r["a"] == 2 and r["b"] == 40 and 5 <= r["c"] <= 20000,
        ),
    ],
)
def test_work_per_block_is_bounded_by_rows_returned(db, work, sql, where):
    decoded = METRICS.counter("storage.blocks_decoded")
    pruned = METRICS.counter("storage.containers_pruned")
    rows = db.sql(f"SELECT c FROM t WHERE {sql}")
    decoded = METRICS.counter("storage.blocks_decoded") - decoded
    pruned = METRICS.counter("storage.containers_pruned") - pruned
    assert sorted(row["c"] for row in rows) == expected(where) != []
    # each container is handed to the kernel or, holding no row of the
    # sort prefix's window, counted pruned
    assert len(work) + pruned >= 3 and max(block for block, _, _ in work) == BLOCK_ROWS
    for block_rows, tested, selected in work:
        assert tested <= 2 * selected, (
            f"a {block_rows}-row block cost {tested} scalar tests + mask "
            f"elements to select {selected} rows"
        )
    # the blocks pruning leaves, as before the seek: measured at its
    # parent commit this fixture decodes 12 cold (3 columns x 4 blocks)
    # and 0 once they are cached, for either lookup
    assert decoded <= 12


def test_the_wos_is_sorted_once_per_mutation_not_per_lookup(db, monkeypatch):
    session = db.session()
    session.insert(
        "t", [{"a": 9, "b": k % 10, "c": 10**6 + k, "v": 0.0} for k in range(1000)]
    )
    session.commit()
    sorted_rows = []
    original = SortedView.__init__
    monkeypatch.setattr(
        SortedView,
        "__init__",
        lambda self, run, sort_order: sorted_rows.append(len(run))
        or original(self, run, sort_order),
    )
    lookup = "SELECT c FROM t WHERE a = 9 AND b = 3"
    first = db.sql(lookup)
    assert len(first) == 100 and sum(sorted_rows) == 1000
    assert db.sql(lookup) == first
    assert sum(sorted_rows) == 1000  # the second lookup sorted no row
