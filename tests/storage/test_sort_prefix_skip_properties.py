"""Property: the sort-prefix skip changes no scan's answer.

``StorageManager.scan`` answers the sort prefix of its ``prune`` bounds
by a binary search over each container's cached block before it opens
the container, and skips a container whose window is empty
(``StorageManager._prefix_window``).  Over random tables — sort orders of
1–3 columns over INTEGER, VARCHAR and FLOAT (NaN among the values), with
and without NULLs, each column PLAIN, RLE, BLOCK_DICT or AUTO, blocks of
six rows so a few dozen rows make multi-block containers, any of them,
sort columns included, maybe stored row-grouped — and random
histories (containers holding rows deleted or inserted after the
snapshot, rows still in the WOS), a conjunction of ``=``, BETWEEN, ``<``
and ``>`` on the prefix (literals of another type among them: ``1.0``
and ``TRUE`` on an integer column, ``'7'``, ``7``) returns through the
scan and the kernel exactly what it returns with the skip switched off:
the same rows in the same order, or the same error.  A by-value DELETE
(``StorageManager.delete_where``, live and at replay) walks only that
window: over the same tables and histories, victims drawn from the
stored rows (duplicates, NULL and NaN among them) mark the same rows
as with the window switched off.

``REPRO_FUZZ_SEEDS`` (tools/check.sh) adds seeded runs.
"""

import math
import os

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from repro import types
from repro.columnar import as_list
from repro.core.schema import ColumnDef, TableDefinition
from repro.execution.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Literal,
    column_range_from_predicate,
)
from repro.execution.kernels.predicates import compile_kernel_predicate
from repro.monitor import METRICS
from repro.projections import super_projection
from repro.storage import HistoryRun, StorageManager
from repro.storage.column_file import ColumnWriter
from repro.storage.ros import ContainerImage

NAME = "t_super"
#: Rows per storage block while the property runs.
BLOCK = 6
KINDS = {"i": types.INTEGER, "s": types.VARCHAR, "f": types.FLOAT}
#: Stored values; the leading sort column draws from the first three
#: alone, so its runs hold several values of the columns after it.
VALUES = {
    "i": list(range(10)),
    "s": list("abcdefghij"),
    "f": [0.5, math.nan, 1.0, 0.0, 2.5, 4.0, -0.0],
}
LITERALS = {
    "i": st.integers(-1, 10) | st.sampled_from([1.0, 2.5, True, "7"]),
    "s": st.sampled_from("abcdefghijk") | st.just(7),
    "f": st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.5]) | st.sampled_from([1, math.nan]),
}
ENCODINGS = ["AUTO", "PLAIN", "RLE", "BLOCK_DICT"]


@st.composite
def tables(draw):
    """``(kinds, nullable, encodings, sort width, column groups)`` of
    columns c0..c2 (and ``k``, which a group may hold too)."""
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=3, max_size=3))
    nullable = draw(st.lists(st.sampled_from([False, False, True]), min_size=3, max_size=3))
    encodings = draw(st.lists(st.sampled_from(ENCODINGS), min_size=3, max_size=3))
    width = draw(st.sampled_from([1, 2, 2, 3, 3]))
    slots = draw(st.lists(st.sampled_from([None, None, 0, 1]), min_size=4, max_size=4))
    groups = [[n for n, s in zip(["c0", "c1", "c2", "k"], slots) if s == g] for g in (0, 1)]
    return kinds, nullable, encodings, width, [group for group in groups if group]


@st.composite
def histories(draw, kinds, nullable):
    """Batches of rows, each for a container or for the WOS, every row
    with its insert epoch and maybe a delete epoch."""
    columns = [
        st.sampled_from(VALUES[kind][: None if index else 3])
        for index, kind in enumerate(kinds)
    ]
    columns = [
        column | st.none() if null else column
        for column, null in zip(columns, nullable)
    ]
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        rows = draw(st.lists(st.tuples(*columns), min_size=1, max_size=24))
        epochs = draw(st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows)))
        deletes = draw(
            st.lists(st.none() | st.integers(1, 5), min_size=len(rows), max_size=len(rows))
        )
        batches.append((draw(st.sampled_from(["ros", "ros", "wos"])), rows, epochs, deletes))
    return batches


@st.composite
def predicates(draw, kinds, width, batches):
    """A conjunction of bounds on the leading sort columns: mostly a
    stored row's key, an equality on each column but the last."""
    key = draw(st.sampled_from([row for _, rows, _, _ in batches for row in rows]))
    leaves = []
    count = draw(st.integers(1, width))
    for index in range(count):
        column = ColumnRef(f"c{index}")
        literal = LITERALS[kinds[index]]
        if key[index] is not None:
            literal = st.one_of(*[st.just(key[index])] * 3, literal)
        ops = ["=", "between", "<", ">"]
        if index < count - 1:
            ops = ["="] * 6 + ops
        for _ in range(draw(st.sampled_from([1, 1, 2]))):
            op = draw(st.sampled_from(ops))
            if op == "between":
                leaves.append(
                    Between(column, Literal(draw(literal)), Literal(draw(literal)))
                )
            else:
                leaves.append(Comparison(op, column, Literal(draw(literal))))
    return leaves[0] if len(leaves) == 1 else And(*leaves)


def build(root, kinds, nullable, encodings, width, groups, batches):
    names = ["c0", "c1", "c2", "k"]
    table = TableDefinition(
        "t",
        [ColumnDef(f"c{i}", KINDS[kind]) for i, kind in enumerate(kinds)]
        + [ColumnDef("k", types.INTEGER)],
    )
    projection = super_projection(
        table,
        sort_order=names[:width],
        encodings={f"c{i}": encoding for i, encoding in enumerate(encodings)},
    )
    manager = StorageManager(root)
    manager.register_projection(projection, table)
    image = ContainerImage.build.__func__
    k = 0
    with pytest.MonkeyPatch.context() as patch:
        # every container the manager writes stores ``groups`` row-grouped
        patch.setattr(
            ContainerImage, "build",
            classmethod(lambda cls, projection, run: image(cls, projection, run, groups)),
        )
        for target, rows, epochs, deletes in batches:
            columns = {name: list(values) for name, values in zip(names, zip(*rows))}
            columns["k"] = list(range(k, k + len(rows)))
            k += len(rows)
            run = HistoryRun(columns, epochs, deletes)
            if target == "ros":
                list(manager.write_run(NAME, run))
            else:
                manager.storage(NAME).wos.insert(run)
    return manager, names


def answer(manager, names, epoch, predicate):
    """The rows the scan and the kernel keep (as their repr, NaN being
    unequal to itself), or the error they raise."""
    kernel = compile_kernel_predicate(predicate)
    rows = []
    try:
        prune = column_range_from_predicate(predicate)
        for block in manager.scan(NAME, epoch, prune=prune or None):
            kept = kernel(block.columns, block.row_count, block.sorted_by or ())
            rows += zip(*(as_list(kept.apply(block.columns[n])) for n in names))
    except TypeError as error:
        return type(error).__name__
    return repr(rows)


def check(root, table, batches, epoch, predicate):
    manager, names = build(root, *table, batches)
    pruned = METRICS.counter("storage.containers_pruned")
    skipping = answer(manager, names, epoch, predicate)
    pruned = METRICS.counter("storage.containers_pruned") - pruned
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            StorageManager,
            "_prefix_window",
            staticmethod(lambda container, prefix, span: span),
        )
        opening = answer(manager, names, epoch, predicate)
    assert skipping == opening, f"{predicate!r} at epoch {epoch}"
    return pruned


@st.composite
def cases(draw):
    kinds, nullable, encodings, width, _ = table = draw(tables())
    batches = draw(histories(kinds, nullable))
    return table, batches, draw(st.integers(0, 5)), draw(predicates(kinds, width, batches))


#: ``c1`` is sorted only inside ``c0 = 1``: searched over its whole
#: block, ``c1 = 3`` finds nothing.
SEARCHED_IN_ITS_WINDOW = (
    (["i", "i", "f"], [False] * 3, ["PLAIN"] * 3, 2, []),
    [("ros", [(0, 1, 0.5), (0, 2, 0.5), (0, 9, 0.5), (1, 3, 0.5)], [1] * 4, [None] * 4)],
    1,
    And(
        Comparison("=", ColumnRef("c0"), Literal(1)),
        Comparison("=", ColumnRef("c1"), Literal(3)),
    ),
)

EXTRA_SEEDS = [int(s) for s in os.environ.get("REPRO_FUZZ_SEEDS", "").split(",") if s]


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of ``BLOCK`` rows for every column writer."""
    defaults = ColumnWriter.__init__.__defaults__
    monkeypatch.setattr(ColumnWriter.__init__, "__defaults__", (defaults[0], BLOCK))


@pytest.mark.parametrize("seed_index", range(len(EXTRA_SEEDS) + 1))
def test_the_skip_returns_what_opening_every_container_returns(
    tmp_path_factory, small_blocks, seed_index
):
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(cases())
    @example(SEARCHED_IN_ITS_WINDOW)
    def run(case):
        table, batches, epoch, predicate = case
        check(str(tmp_path_factory.mktemp("skip")), table, batches, epoch, predicate)

    if seed_index:
        run = seed(EXTRA_SEEDS[seed_index - 1])(run)
    run()


def test_the_skip_fires_on_a_two_column_prefix(tmp_path_factory, small_blocks):
    """The property is not vacuous: a key whose first column's window
    holds no row of its second column is skipped, in a multi-block
    container and in one-block ones."""
    blocks = [(a, b, 0.5) for a in range(3) for b in range(0, 2 * BLOCK, 2)]
    one = [(0, 0, 0.5), (1, 0, 0.5), (1, 2, 0.5), (2, 6, 0.5)]
    key = [(1, 1, 0.5), (1, 3, 0.5)]
    batches = [("ros", rows, [1] * len(rows), [None] * len(rows)) for rows in (blocks, one, key)]
    predicate = And(
        Comparison("=", ColumnRef("c0"), Literal(1)),
        Comparison("=", ColumnRef("c1"), Literal(3)),
    )
    table = (["i", "i", "f"], [False] * 3, ["RLE", "BLOCK_DICT", "AUTO"], 2, [])
    pruned = check(str(tmp_path_factory.mktemp("skip")), table, batches, 1, predicate)
    assert pruned == 2


@st.composite
def deletes(draw):
    kinds, nullable, _, _, _ = table = draw(tables())
    batches = draw(histories(kinds, nullable))
    stored = [row for _, rows, _, _ in batches for row in rows]
    victims = draw(st.lists(st.sampled_from(stored), min_size=1, max_size=8))
    return table, batches, draw(st.integers(0, 5)), victims


def marked(root, table, batches, epoch, victims):
    """What ``delete_where`` of ``victims`` (their c0..c2) marks."""
    manager, _ = build(root, *table, batches)
    columns = {f"c{i}": [row[i] for row in victims] for i in range(3)}
    count = manager.delete_where(NAME, columns, 6, epoch)
    state = manager.storage(NAME)
    return count, state.wos.run.delete_epochs, {
        container: sorted(zip(vector.positions, vector.epochs))
        for container, vector in state.pending_ros_deletes.items()
    }


@pytest.mark.parametrize("seed_index", range(len(EXTRA_SEEDS) + 1))
def test_a_delete_marks_what_searching_every_row_marks(
    tmp_path_factory, small_blocks, seed_index
):
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(deletes())
    def run(case):
        table, batches, epoch, victims = case
        windowed = marked(str(tmp_path_factory.mktemp("window")), table, batches, epoch, victims)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                StorageManager,
                "_prefix_window",
                staticmethod(lambda container, prefix, span: span),
            )
            searched = marked(str(tmp_path_factory.mktemp("all")), table, batches, epoch, victims)
        assert windowed == searched

    if seed_index:
        run = seed(EXTRA_SEEDS[seed_index - 1])(run)
    run()
