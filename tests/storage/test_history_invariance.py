"""History-invariance property test for one node's storage.

The physical history of a projection is a multiset of ``(row,
insert_epoch, delete_epoch)`` records (section 5.2: "the data+epoch
itself serves as a log of past system activity").  Random interleavings
of logical steps (insert to the WOS, direct or overflow insert to ROS,
``delete_where``) and physical reorganisations (moveout, mergeout with
``ahm=0``, ``persist_delete_vectors``) run against one
:class:`StorageManager` and a list-of-triples model:

* every physical reorganisation leaves the sorted ``history()``
  multiset exactly as it was;
* after every logical step it equals the model;
* ``truncate_after_epoch`` and ``drop_partition`` filter it exactly as
  specified;
* ``load_history(history())`` into a fresh manager reproduces it, and
  the rows visible at every epoch.

This is what holds the recovery-side reader and writer — paths no
benchmark workload runs.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import types
from repro.columnar import blocks_to_rows
from repro.core.schema import ColumnDef, TableDefinition
from repro.execution import ColumnRef
from repro.projections import super_projection
from repro.storage import StorageManager
from repro.tuple_mover import MergePolicy, TupleMover
from storage_helpers import delete_matching

NAME = "t_super"
PARTITIONS = 3


def make_manager(root) -> StorageManager:
    table = TableDefinition(
        "t",
        [
            ColumnDef("part", types.INTEGER),
            ColumnDef("k", types.INTEGER),
            ColumnDef("pad", types.VARCHAR),
        ],
        partition_by=ColumnRef("part"),
    )
    # tiny WOS: a handful of small inserts fill it and the next spills
    manager = StorageManager(str(root), wos_capacity=8)
    manager.register_projection(super_projection(table, sort_order=["k"]), table)
    return manager


def record_key(record):
    row, insert_epoch, delete_epoch = record
    return (row["k"], insert_epoch, delete_epoch or 0)


def history(manager) -> list:
    return sorted(manager.history(NAME).records(), key=record_key)


def visible(records, epoch) -> list[int]:
    return sorted(
        row["k"]
        for row, insert_epoch, delete_epoch in records
        if insert_epoch <= epoch and (delete_epoch is None or delete_epoch > epoch)
    )


def stored_visible(manager, epoch) -> list[int]:
    return sorted(row["k"] for row in blocks_to_rows(manager.scan(NAME, epoch)))


# WOS inserts are listed twice: half of all steps buffer rows, so the
# WOS fills (the next insert spills to ROS), deletes find WOS rows to
# mark, and moveout / drop_partition / truncate meet WOS markers.
wos_insert = st.tuples(st.just("insert"), st.integers(min_value=2, max_value=6))
operations = st.lists(
    st.one_of(
        wos_insert,
        wos_insert,
        st.tuples(st.just("direct"), st.integers(min_value=1, max_value=12)),
        st.tuples(st.just("delete"), st.integers(min_value=2, max_value=4)),
        st.tuples(st.just("moveout"), st.just(0)),
        st.tuples(st.just("mergeout"), st.just(0)),
        st.tuples(st.just("persist"), st.just(0)),
    ),
    min_size=4,
    max_size=20,
)


@given(
    ops=operations,
    truncate_at=st.integers(min_value=0, max_value=12),
    dropped_partition=st.integers(min_value=0, max_value=PARTITIONS - 1),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_history_survives_every_reorganisation(
    tmp_path_factory, ops, truncate_at, dropped_partition
):
    manager = make_manager(tmp_path_factory.mktemp("history"))
    mover = TupleMover(manager, MergePolicy(min_inputs=2))
    model: list[tuple[dict, int, int | None]] = []
    epoch = 0

    for op, arg in ops:
        if op in ("insert", "direct"):
            epoch += 1
            rows = [
                {"part": k % PARTITIONS, "k": k, "pad": f"p{k % 5}"}
                for k in range(len(model), len(model) + arg)
            ]
            manager.insert(NAME, rows, epoch, direct_to_ros=op == "direct")
            model.extend((row, epoch, None) for row in rows)
        elif op == "delete":
            epoch += 1
            snapshot = epoch - 1
            victims = set(visible(model, snapshot))
            marked = delete_matching(
                manager, NAME, lambda row, m=arg: row["k"] % m == 0, epoch, snapshot
            )
            model = [
                (row, ins, epoch)
                if row["k"] in victims and row["k"] % arg == 0
                else (row, ins, dele)
                for row, ins, dele in model
            ]
            assert marked == sum(1 for k in victims if k % arg == 0)
        else:
            before = history(manager)
            if op == "moveout":
                mover.moveout(NAME)
                assert manager.wos_row_count(NAME) == 0
            elif op == "mergeout":
                mover.mergeout(NAME, ahm=0)
            else:
                manager.persist_delete_vectors(NAME)
            assert history(manager) == before, f"{op} changed the history"
        assert history(manager) == sorted(model, key=record_key)
        for at in range(epoch + 1):
            assert stored_visible(manager, at) == visible(model, at)

    # load_history(history()) into a fresh manager is the same history
    copy = make_manager(tmp_path_factory.mktemp("copy"))
    copy.load_history(NAME, manager.history(NAME))
    assert copy.wos_row_count(NAME) == 0
    assert history(copy) == history(manager)
    for at in range(epoch + 1):
        assert stored_visible(copy, at) == visible(model, at)

    # incremental dump: exactly what happened past an epoch
    assert sorted(
        manager.history(NAME, after_epoch=truncate_at).records(), key=record_key
    ) == sorted(
        (r for r in model if max(r[1], r[2] or 0) > truncate_at), key=record_key
    )

    # drop_partition (on the copy) removes that partition's records only
    survivors = [r for r in model if r[0]["part"] != dropped_partition]
    reclaimed = len(model) - len(survivors)
    assert copy.drop_partition(NAME, dropped_partition) == reclaimed
    assert history(copy) == sorted(survivors, key=record_key)

    # ... and on the original, whose WOS may hold rows and markers
    assert manager.drop_partition(NAME, dropped_partition) == reclaimed
    assert history(manager) == sorted(survivors, key=record_key)

    # truncate_after_epoch drops later rows and clears later markers
    truncated = [
        (row, ins, dele if dele is not None and dele <= truncate_at else None)
        for row, ins, dele in survivors
        if ins <= truncate_at
    ]
    discarded = len(survivors) - len(truncated)
    assert manager.truncate_after_epoch(NAME, truncate_at) == discarded
    assert history(manager) == sorted(truncated, key=record_key)
    for at in range(epoch + 1):
        assert stored_visible(manager, at) == visible(truncated, at)
