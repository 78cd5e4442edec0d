"""A by-value DELETE on a copy that cannot tell two rows apart stays
replica-safe across node loss and recovery.

``t(k, g, v)`` has a narrow projection on ``(g)`` alone, segmented by
``g``: the rows ``(1, 2, 'x')`` and ``(5, 2, 'y')`` are the same row
there, so ``DELETE ... WHERE g = 2 AND v = 'x'`` marks whichever twin
the copy's walk meets first — and a copy rebuilt from its buddy walks
other containers.  Hypothesis draws inserts (WOS and direct), such
ambiguous DELETEs, mover cycles, node loss (with and without a process
restart) and recovery, then further DELETEs.  At the end, with every
node back, the rows each projection copy shows — summed over the nodes
that hold it — must equal the reference's rows of that copy's columns
at **every** epoch.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ColumnDef, Database, TableDefinition, types
from repro.columnar import blocks_to_rows
from repro.projections import HashSegmentation, ProjectionColumn, ProjectionDefinition

VALUES = "xyz"
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(1, 8), st.booleans()),
        st.tuples(st.just("delete"), st.integers(0, 3), st.sampled_from(VALUES)),
        st.tuples(st.just("movers")),
        st.tuples(st.just("fail"), st.integers(0, 2)),
        st.tuples(st.just("recover"), st.booleans()),
    ),
    min_size=3,
    max_size=12,
)


def build(path) -> Database:
    db = Database(str(path), node_count=3, k_safety=1, durable=False)
    db.create_table(
        TableDefinition(
            "t",
            [
                ColumnDef("k", types.INTEGER),
                ColumnDef("g", types.INTEGER),
                ColumnDef("v", types.VARCHAR),
            ],
        ),
        sort_order=["k"],
        segmentation=HashSegmentation(("k",)),
    )
    db.add_projection(
        ProjectionDefinition(
            name="t_by_g",
            anchor_table="t",
            columns=[ProjectionColumn("g", types.INTEGER)],
            sort_order=["g"],
            segmentation=HashSegmentation(("g",)),
        )
    )
    return db


def visible(history, epoch, names):
    """The reference's rows of ``names`` visible at ``epoch``."""
    return Counter(
        tuple(row[name] for name in names)
        for row, inserted, deleted in history
        if inserted <= epoch and (deleted is None or deleted > epoch)
    )


@given(steps=STEPS)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_every_copy_shows_the_reference_rows_at_every_epoch(tmp_path_factory, steps):
    db = build(tmp_path_factory.mktemp("ambiguous") / "db")
    cluster = db.cluster
    history: list[list] = []  # [row, insert epoch, delete epoch]
    serial = 0

    def delete(g, v):
        snapshot = db.latest_epoch
        db.sql(f"DELETE FROM t WHERE g = {g} AND v = '{v}'")
        epoch = db.latest_epoch
        for record in history:
            row, inserted, deleted = record
            if (row["g"], row["v"]) == (g, v) and inserted <= snapshot and deleted is None:
                record[2] = epoch

    for step in steps:
        down = cluster.membership.down_nodes()
        if step[0] == "insert":
            _, count, direct = step
            # k spreads rows over the ring; g and v repeat, so the narrow
            # copy holds twins with different insert epochs
            rows = [
                {"k": serial + i, "g": (serial + i) % 4, "v": VALUES[(serial + i) % 3]}
                for i in range(count)
            ]
            serial += count
            epoch = db.load("t", rows, direct_to_ros=direct)
            history += [[row, epoch, None] for row in rows]
        elif step[0] == "delete":
            delete(step[1], step[2])
        elif step[0] == "movers":
            cluster.run_tuple_movers(advance_ahm=False)
        elif step[0] == "fail" and not down:
            db.fail_node(step[1])
        elif step[0] == "recover" and down:
            if step[1]:
                cluster.restart_node(down[0])
            db.recover_node(down[0])
    for node in cluster.membership.down_nodes():
        db.recover_node(node)
    for g in range(4):  # further deletes, every node back
        delete(g, VALUES[g % 3])

    for epoch in range(db.latest_epoch + 1):
        for copy in cluster.catalog.all_projections():
            names = copy.column_names
            shown = Counter(
                tuple(row[name] for name in names)
                for node in cluster.nodes
                for row in blocks_to_rows(node.manager.scan(copy.name, epoch))
            )
            assert shown == visible(history, epoch, names), (copy.name, epoch)
