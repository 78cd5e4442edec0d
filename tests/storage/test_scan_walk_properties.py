"""Property test for the one columnar walk of a container.

``StorageManager.scan`` reads every container through one walk —
position-index pruning, pieces cut at storage blocks, MVCC visibility
as a selection over each piece — whatever the container carries: delete
markers in memory or on disk, rows past the snapshot epoch, encoded
columns, a row-grouped column.  Random histories of
multi-epoch WOS and direct inserts, by-value deletes,
``persist_delete_vectors``, moveout and mergeout run on top of a fixed
three-block base container, and then, for **every** epoch of the
history, a random ``prune``:

* the scan's rows inside the exact pruned range are the model's — the
  row-shaped readers ``container_run`` + ``WOS.run`` (as records) filtered by
  ``insert_epoch <= e and not delete_epoch <= e`` — container by
  container in position order, then the WOS in sort order;
* every batch is a sorted run out of one storage block of one container
  (or out of the WOS);
* asking for the row-grouped column alone walks the same pieces.

``REPRO_FUZZ_SEEDS`` (tools/check.sh) adds seeded runs.
"""

import os

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro import types
from repro.core.schema import ColumnDef, TableDefinition
from repro.projections import super_projection
from repro.storage import ROSContainer, StorageManager
from repro.storage.block import BLOCK_ROWS
from repro.tuple_mover import MergePolicy, TupleMover
from storage_helpers import delete_matching, run_of

NAME = "t_super"
BASE_ROWS = 2 * BLOCK_ROWS + 700
#: ``r`` is the RLE column, ``d`` the dictionary column, ``n`` carries
#: NULLs, ``g`` is stored row-grouped in the base container, ``k`` is
#: unique — it names a row's (container, position) for the block check.
NAMES = ["r", "k", "d", "n", "g"]
TABLE = TableDefinition(
    "t",
    [
        ColumnDef("r", types.INTEGER),
        ColumnDef("k", types.INTEGER),
        ColumnDef("d", types.VARCHAR),
        ColumnDef("n", types.INTEGER),
        ColumnDef("g", types.INTEGER),
    ],
)
PROJECTION = super_projection(
    TABLE, sort_order=["r", "k"], encodings={"r": "RLE", "d": "BLOCK_DICT"}
)


def make_row(k: int, r: int) -> dict:
    return {
        "r": r,
        "k": k,
        "d": f"d{k % 5}",
        "n": None if k % 7 == 0 else k % 100,
        "g": k % 11,
    }


@pytest.fixture(scope="module")
def base_container(tmp_path_factory) -> str:
    """Three blocks, two epochs interleaved, ``g`` row-grouped: written
    once, adopted (copied) by every example."""
    path = os.path.join(tmp_path_factory.mktemp("walk_base"), "ros_000001")
    rows = [make_row(k, k * 6 // BASE_ROWS) for k in range(BASE_ROWS)]
    epochs = [2 if k % 3 == 0 else 1 for k in range(BASE_ROWS)]
    ROSContainer.write(
        path, 1, PROJECTION, run_of(PROJECTION, rows, epochs), column_groups=[["g"]]
    )
    return path


def bounds(domain):
    return st.tuples(st.none() | domain, st.none() | domain)


prunes = st.fixed_dictionaries(
    {},
    optional={
        "r": bounds(st.integers(0, 5)),
        "k": bounds(st.integers(0, BASE_ROWS + 60)),
        "d": bounds(st.sampled_from([f"d{i}" for i in range(5)])),
        "n": bounds(st.integers(0, 99)),
        "g": bounds(st.integers(0, 10)),
    },
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("wos"), st.integers(1, 5)),
        st.tuples(st.just("direct"), st.integers(1, 8)),
        st.tuples(st.just("delete"), st.integers(0, 96)),
        st.tuples(st.just("delete"), st.integers(0, 96)),
        st.tuples(st.just("persist"), st.just(0)),
        st.tuples(st.just("moveout"), st.just(0)),
        st.tuples(st.just("mergeout"), st.just(0)),
    ),
    min_size=3,
    max_size=8,
)


def in_range(prune):
    """Row-tuple predicate: inside every exact [low, high] of ``prune``
    (a NULL is inside no range)."""
    checks = [(NAMES.index(name), low, high) for name, (low, high) in prune.items()]

    def inside(row):
        return all(
            row[index] is not None
            and (low is None or row[index] >= low)
            and (high is None or row[index] <= high)
            for index, low, high in checks
        )

    return inside


def difference(scanned: list, model: list) -> str | None:
    """None when equal, else where the two first differ (pytest's own
    diff of two 17k-row lists takes minutes under shrinking)."""
    if scanned == model:
        return None
    for index, (got, expected) in enumerate(zip(scanned, model)):
        if got != expected:
            return f"row {index}: scanned {got}, model {expected}"
    return f"{len(scanned)} rows scanned, the model has {len(model)}"


EXTRA_SEEDS = [int(s) for s in os.environ.get("REPRO_FUZZ_SEEDS", "").split(",") if s]


def test_scan_is_the_model_at_every_epoch(tmp_path_factory, base_container):
    @given(ops=operations, data=st.data())
    @settings(max_examples=15, deadline=None)
    def run(ops, data):
        check(tmp_path_factory, base_container, ops, data)

    run()
    for extra in EXTRA_SEEDS:
        seed(extra)(run)()


def check(tmp_path_factory, base_container, ops, data):
    manager = StorageManager(str(tmp_path_factory.mktemp("walk")), wos_capacity=16)
    manager.register_projection(PROJECTION, TABLE)
    manager.adopt_container(NAME, base_container)
    mover = TupleMover(manager, MergePolicy(min_inputs=2))
    epoch, next_k = 2, BASE_ROWS
    for op, arg in ops:
        if op in ("wos", "direct"):
            epoch += 1
            rows = [make_row(k, k % 6) for k in range(next_k, next_k + arg)]
            next_k += arg
            manager.insert(NAME, rows, epoch, direct_to_ros=op == "direct")
        elif op == "delete":
            epoch += 1
            delete_matching(
                manager, NAME, lambda row, a=arg: row["k"] % 97 == a, epoch, epoch - 1
            )
        elif op == "persist":
            manager.persist_delete_vectors(NAME)
        elif op == "moveout":
            mover.moveout(NAME)
        else:
            mover.mergeout(NAME, ahm=0)

    state = manager.storage(NAME)
    # the model: every stored record, in the order a scan must yield it
    records = []  # (row tuple, insert epoch, delete epoch, home)
    for container_id in sorted(state.containers):
        for position, (row, inserted, deleted) in enumerate(
            manager.container_run(NAME, container_id).records()
        ):
            # all ungrouped columns cut blocks every BLOCK_ROWS rows
            home = (container_id, position // BLOCK_ROWS)
            records.append((tuple(row[n] for n in NAMES), inserted, deleted, home))
    wos = sorted(
        state.wos.run.records(), key=lambda r: PROJECTION.sort_key_for(r[0])
    )
    for row, inserted, deleted in wos:
        records.append((tuple(row[n] for n in NAMES), inserted, deleted, "wos"))
    home_of = {row[1]: home for row, _, _, home in records}
    assert len(home_of) == len(records)

    for at in range(epoch + 1):
        prune = data.draw(prunes, label=f"prune at epoch {at}")
        inside = in_range(prune)
        expected = [
            row
            for row, inserted, deleted, _ in records
            if inserted <= at and not (deleted is not None and deleted <= at)
            and inside(row)
        ]
        scanned = []
        for batch in manager.scan(NAME, at, prune=prune or None):
            assert list(batch.columns) == NAMES
            rows = list(zip(*(list(batch.columns[n]) for n in NAMES)))
            assert 0 < batch.row_count == len(rows) <= BLOCK_ROWS
            assert len({home_of[row[1]] for row in rows}) == 1, (
                "a batch crosses a storage block"
            )
            keys = [(row[0], row[1]) for row in rows]
            assert all(a <= b for a, b in zip(keys, keys[1:])), (
                "a batch is not a sorted run"
            )
            scanned.extend(rows)
        wrong = difference([row for row in scanned if inside(row)], expected)
        assert wrong is None, f"epoch {at}, prune {prune}: {wrong}"
        # the row-grouped column alone: the same pieces
        alone = []
        for batch in manager.scan(NAME, at, columns=["g"], prune=prune or None):
            assert 0 < batch.row_count == len(batch.columns["g"]) <= BLOCK_ROWS
            alone.extend(batch.columns["g"])
        wrong = difference(alone, [row[NAMES.index("g")] for row in scanned])
        assert wrong is None, f"g alone, epoch {at}, prune {prune}: {wrong}"
