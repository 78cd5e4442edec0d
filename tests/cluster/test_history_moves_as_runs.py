"""History moves between nodes as columnar runs — and lands exactly
where the triple-at-a-time mover put it.

Two clusters take the same Hypothesis-drawn history: inserts (WOS and
direct), by-value deletes (the narrow projection holds rows it cannot
tell apart), a dimension rename, mover cycles with mergeout, node loss.
Wherever history moves — ``recover_node``, ``repair_node_projection``,
``refresh_projection`` (a narrow and a prejoin projection),
``rebalance`` — one cluster runs the product and the other
``tests/reference_recovery.py``.  After every such step and at the end,
every copy on every node must hold the same records in the same order
in every container (by ascending id) and in the WOS, under the same
delete markers: the stable-sort tie order — which twin a later by-value
DELETE marks — is part of the contract.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_recovery as reference
from repro import types
from repro.cluster import Cluster, rebalance, recover_node
from repro.cluster.recovery import repair_node_projection
from repro.core.schema import ColumnDef, TableDefinition
from repro.projections import (
    HashSegmentation,
    PrejoinSpec,
    ProjectionColumn,
    ProjectionDefinition,
    Replicated,
)
from repro.tuple_mover import MergePolicy
from storage_helpers import read_table, rows_where

GROUPS = 4
FACTS = TableDefinition(
    "facts",
    [
        ColumnDef("k", types.INTEGER),
        ColumnDef("g", types.INTEGER),
        ColumnDef("v", types.VARCHAR),
    ],
    primary_key=("k",),
)
GROUP_NAMES = TableDefinition(
    "z_groups",
    [ColumnDef("g", types.INTEGER), ColumnDef("name", types.VARCHAR)],
    primary_key=("g",),
)
#: added by "refresh" steps, in this order
NEW_PROJECTIONS = (
    ProjectionDefinition(
        name="facts_narrow",
        anchor_table="facts",
        columns=[ProjectionColumn("g", types.INTEGER), ProjectionColumn("v", types.VARCHAR)],
        sort_order=["g"],
        segmentation=HashSegmentation(("g",)),
    ),
    ProjectionDefinition(
        name="facts_with_name",
        anchor_table="facts",
        columns=[
            ProjectionColumn("k", types.INTEGER),
            ProjectionColumn("g", types.INTEGER),
            ProjectionColumn("group_name", types.VARCHAR),
        ],
        sort_order=["group_name", "g"],
        segmentation=HashSegmentation(("k",)),
        prejoin=PrejoinSpec("z_groups", "g", "g", {"name": "group_name"}),
    ),
)

STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("insert", "insert", "insert", "delete", "delete", "rename", "movers",
             "fail", "recover", "recover", "repair", "refresh", "rebalance")
        ),
        st.integers(0, 40),
        st.integers(0, 40),
    ),
    min_size=3,
    max_size=14,
)


class Side:
    """One of the two clusters and who moves its history."""

    def __init__(self, root, product: bool):
        self.product = product
        self.cluster = Cluster(
            str(root), node_count=3, k_safety=1, segments_per_node=2,
            merge_policy=MergePolicy(min_inputs=2),
        )
        self.cluster.create_table(GROUP_NAMES, segmentation=Replicated())
        self.cluster.create_table(FACTS, sort_order=["g", "k"])
        self.commit(
            {"z_groups": [{"g": g, "name": f"group{g}"} for g in range(GROUPS)]}
        )

    def commit(self, inserts, deletes=(), direct_to_ros=False):
        cluster = self.cluster
        epoch = cluster.epochs.latest_queryable_epoch
        victims = [
            (table, rows_where(cluster, table, predicate, epoch))
            for table, predicate in deletes
        ]
        cluster.commit_dml(inserts, victims, epoch, direct_to_ros)

    def recover(self, node, lag):
        if self.product:
            recover_node(self.cluster, node, historical_lag=lag)
        else:
            reference.recover_node(self.cluster, node, historical_lag=lag)

    def repair(self, node, name):
        mover = repair_node_projection if self.product else reference.repair_node_projection
        mover(self.cluster, node, name)

    def refresh(self, projection):
        family = self.cluster.add_projection_family(projection, populate=self.product)
        if not self.product:
            reference.refresh_projection(self.cluster, family)

    def rebalance(self, node_count):
        (rebalance if self.product else reference.rebalance)(self.cluster, node_count)

    def layout(self):
        """node x copy -> its containers' records by ascending id, then
        the WOS's, each in stored order."""
        return {
            (node.index, copy.name): [
                reference.container_records(node.manager, copy.name, container_id)
                for container_id in sorted(node.manager.storage(copy.name).containers)
            ]
            + [reference.wos_records(node.manager, copy.name)]
            for node in self.cluster.nodes
            for copy in self.cluster.catalog.all_projections()
        }


def run_history(sides, steps):
    """Apply ``steps`` to both sides in lockstep; yields after each step
    that moved history between nodes."""
    cluster = sides[0].cluster  # membership and catalog evolve alike
    serial = added = 0
    for op, a, b in steps:
        down = cluster.membership.down_nodes()
        if op == "insert":
            rows = [
                {"k": serial + i, "g": (a + i) % GROUPS, "v": "xyz"[(b + i) % 3]}
                for i in range(1 + a % 12)
            ]
            serial += len(rows)
            for side in sides:
                side.commit(
                    {"facts": [dict(row) for row in rows]}, direct_to_ros=b % 3 == 0
                )
        elif op == "delete":
            for side in sides:
                side.commit({}, [("facts", lambda row: row["k"] % 5 == a % 5)])
        elif op == "rename":
            group = a % GROUPS
            for side in sides:
                side.commit(
                    {"z_groups": [{"g": group, "name": f"renamed{b}"}]},
                    [("z_groups", lambda row: row["g"] == group)],
                )
        elif op == "movers":
            for side in sides:
                side.cluster.run_tuple_movers()
        elif op == "fail" and not down:
            for side in sides:
                side.cluster.fail_node(a % cluster.node_count)
        elif op == "recover" and down:
            for side in sides:
                if b % 2:
                    side.cluster.restart_node(down[0])
                side.recover(down[0], lag=a % 2)
            yield
        elif op == "repair" and not down:
            names = [copy.name for copy in cluster.catalog.all_projections()]
            for side in sides:
                side.repair(a % cluster.node_count, names[b % len(names)])
            yield
        elif op == "refresh" and added < len(NEW_PROJECTIONS):
            for side in sides:
                side.refresh(NEW_PROJECTIONS[added])
            added += 1
            yield
        elif op == "rebalance" and not down:
            target = [n for n in (3, 4, 5) if n != cluster.node_count][a % 2]
            for side in sides:
                side.rebalance(target)
            yield
    for node in cluster.membership.down_nodes():
        for side in sides:
            side.recover(node, lag=0)
    yield


@settings(max_examples=60, deadline=None)
@given(STEPS)
def test_moved_history_equals_the_triple_at_a_time_reference(tmp_path_factory, steps):
    root = tmp_path_factory.mktemp("moves")
    sides = [Side(root / "product", True), Side(root / "reference", False)]
    for _ in run_history(sides, steps):
        product, expected = (side.layout() for side in sides)
        assert product.keys() == expected.keys()
        for key in expected:
            assert product[key] == expected[key], key
    # and the table answers the same on both, at every epoch
    for epoch in range(sides[0].cluster.epochs.latest_queryable_epoch + 1):
        answers = [
            sorted(map(repr, read_table(side.cluster, "facts", epoch))) for side in sides
        ]
        assert answers[0] == answers[1]
