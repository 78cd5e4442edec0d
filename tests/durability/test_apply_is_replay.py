"""Apply is replay: a reopened database holds, copy for copy, what the
live one held.

``Cluster.apply_commit`` is the one code path that turns a commit
record into storage changes — at commit time from the record just
journalled, at cold start from the same record read back.  Random
transactions run against a durable star schema whose dimension sorts
*after* its fact table (the journal keeps no statement order):

* ``z_dim`` — replicated dimension;
* ``a_fact`` — super projection + buddy, a narrow projection (column
  subset, its own sort key and segmentation) and a prejoin projection
  onto ``z_dim``.

WOS and direct inserts (duplicate rows, NULLs, ints into the FLOAT
column), DELETE on the sort key and on ``k % m`` (the kernels' generic
leaf), UPDATE, commits that span both tables and mover cycles
interleave; then the database is
dropped and reopened, and for **every node x projection copy** the
sorted ``history()`` records — rows, insert epochs, delete epochs —
must equal the live database's.  This is what holds the narrow and
prejoin apply paths, which no benchmark workload and no other
durability test runs.

Predicates read only ``k``, which every projection stores, so rows a
narrow copy cannot tell apart are always victims together.  Otherwise
which of two equal narrow rows takes the delete marker would depend on
scan order (the by-value matcher marks the first it meets): invisible
to every query at every epoch, but not to ``history``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import types
from repro.core.database import Database
from repro.core.schema import ColumnDef, TableDefinition
from repro.execution import Arithmetic, ColumnRef, Literal
from repro.projections import (
    HashSegmentation,
    PrejoinSpec,
    ProjectionColumn,
    ProjectionDefinition,
    Replicated,
)

FACT = "a_fact"
DIM = "z_dim"


def build(path) -> Database:
    # tiny WOS: a few inserts fill it and the next spills to ROS
    db = Database(
        str(path), node_count=3, k_safety=1, wos_capacity=6,
        journal_checkpoint_interval=4,
    )
    db.create_table(
        TableDefinition(
            DIM,
            [ColumnDef("d", types.INTEGER), ColumnDef("label", types.VARCHAR)],
            primary_key=("d",),
        ),
        segmentation=Replicated(),
    )
    db.create_table(
        TableDefinition(
            FACT,
            [
                ColumnDef("k", types.INTEGER),
                ColumnDef("d", types.INTEGER),
                ColumnDef("x", types.FLOAT),
                ColumnDef("s", types.VARCHAR),
            ],
        ),
        sort_order=["k", "d"],
        segmentation=HashSegmentation(("k",)),
    )
    db.add_projection(
        ProjectionDefinition(
            name="a_fact_narrow",
            anchor_table=FACT,
            columns=[
                ProjectionColumn("s", types.VARCHAR),
                ProjectionColumn("k", types.INTEGER),
            ],
            sort_order=["s", "k"],
            segmentation=HashSegmentation(("s",)),
        )
    )
    db.add_projection(
        ProjectionDefinition(
            name="a_fact_with_dim",
            anchor_table=FACT,
            columns=[
                ProjectionColumn("k", types.INTEGER),
                ProjectionColumn("d", types.INTEGER),
                ProjectionColumn("d_label", types.VARCHAR),
            ],
            sort_order=["d_label", "k"],
            segmentation=HashSegmentation(("d",)),
            prejoin=PrejoinSpec(DIM, "d", "d", {"label": "d_label"}),
        )
    )
    return db


def copy_histories(db) -> dict:
    """(node, projection copy) -> its sorted history, values by ``repr``
    so an int where a float belongs is a difference."""
    return {
        (node.index, copy.name): sorted(
            (
                sorted((name, repr(value)) for name, value in row.items()),
                insert_epoch,
                delete_epoch or 0,
            )
            for row, insert_epoch, delete_epoch in node.manager.history(copy.name).records()
        )
        for node in db.cluster.nodes
        for copy in db.cluster.catalog.all_projections()
    }


fact_values = st.tuples(
    st.integers(min_value=0, max_value=5),  # k: few values, so duplicates
    st.one_of(st.none(), st.integers(-2, 2), st.floats(-2, 2, width=16)),
    st.sampled_from([None, "a", "b"]),
)
statements = st.one_of(
    # insert fact rows; with new_dim, onto a dimension row the same
    # transaction inserts (the two-table commit)
    st.tuples(
        st.just("fact"),
        st.lists(fact_values, min_size=1, max_size=5),
        st.booleans(),  # direct to ROS
        st.booleans(),  # new_dim
    ),
    st.tuples(st.just("delete_expr"), st.integers(0, 5)),
    st.tuples(st.just("delete_fn"), st.integers(2, 3), st.integers(0, 2)),
    st.tuples(st.just("update"), st.integers(0, 5)),
)
steps = st.lists(
    st.one_of(
        st.lists(statements, min_size=1, max_size=3),
        st.lists(statements, min_size=1, max_size=3),
        st.just("movers"),
    ),
    min_size=2,
    max_size=8,
)


def run_transaction(db, transaction, dims: list[int]) -> None:
    session = db.session()
    for statement in transaction:
        kind = statement[0]
        if kind == "fact":
            _, values, direct, new_dim = statement
            if new_dim or not dims:
                dims.append(len(dims))
                label = None if dims[-1] % 4 == 3 else f"L{dims[-1] % 3}"
                session.insert(DIM, [{"d": dims[-1], "label": label}])
            session.insert(
                FACT,
                [
                    {"k": k, "d": dims[-1 - k % min(len(dims), 3)], "x": x, "s": s}
                    for k, x, s in values
                ],
                direct_to_ros=direct,
            )
        elif kind == "delete_expr":
            session.delete(FACT, ColumnRef("k") == statement[1])
        elif kind == "delete_fn":
            _, modulus, rest = statement
            session.delete(
                FACT, Arithmetic("%", ColumnRef("k"), Literal(modulus)) == rest
            )
        else:
            session.update(
                FACT,
                {"s": "u", "x": ColumnRef("x") + 1},
                ColumnRef("k") == statement[1],
            )
    session.commit()


@given(steps=steps)
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_reopened_copies_equal_live_copies(tmp_path_factory, steps):
    path = tmp_path_factory.mktemp("apply") / "db"
    db = build(path)
    dims: list[int] = []
    for step in steps:
        if step == "movers":
            db.run_tuple_movers()
        else:
            run_transaction(db, step, dims)
    live = copy_histories(db)
    epoch = db.latest_epoch
    assert len(live) == 3 * 7  # 1 replicated + 3 fact families x 2 copies

    del db
    reopened = Database.open(str(path))
    assert reopened.latest_epoch == epoch
    assert copy_histories(reopened) == live
