"""Model-based MVCC property test.

Random interleavings of inserts, deletes, moveouts, mergeouts, AHM
advances and node failures/recoveries are applied both to the real
system and to a trivial reference model (a list of (row, insert_epoch,
delete_epoch) triples).  After every step, the visible snapshot at
*every* epoch since the AHM must match the model — the paper's central
correctness claim: "an epoch boundary represents a globally consistent
snapshot" no matter what the tuple mover or recovery did in between.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ColumnDef, Database, TableDefinition, types
from repro.execution import Arithmetic, ColumnRef, Literal
from storage_helpers import read_table


def k_mod(modulus: int):
    """``k % modulus`` as an expression."""
    return Arithmetic("%", ColumnRef("k"), Literal(modulus))


class Model:
    """Reference implementation of epoch-visibility semantics."""

    def __init__(self):
        self.records: list[tuple[int, int, int | None]] = []  # (key, ins, del)
        self._next_key = 0

    def insert(self, count: int, epoch: int) -> None:
        for _ in range(count):
            self.records.append((self._next_key, epoch, None))
            self._next_key += 1

    def delete_where_mod(self, modulus: int, commit_epoch: int, snapshot: int):
        out = []
        for key, ins, dele in self.records:
            visible = ins <= snapshot and (dele is None or dele > snapshot)
            if visible and key % modulus == 0:
                out.append((key, ins, commit_epoch))
            else:
                out.append((key, ins, dele))
        self.records = out

    def visible(self, epoch: int) -> set[int]:
        return {
            key
            for key, ins, dele in self.records
            if ins <= epoch and (dele is None or dele > epoch)
        }


operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(min_value=1, max_value=30)),
        st.tuples(st.just("delete"), st.integers(min_value=2, max_value=5)),
        st.tuples(st.just("moveout"), st.just(0)),
        st.tuples(st.just("mergeout"), st.just(0)),
        st.tuples(st.just("ahm"), st.just(0)),
        st.tuples(st.just("failover"), st.integers(min_value=1, max_value=2)),
    ),
    min_size=3,
    max_size=12,
)


@given(ops=operations)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_every_epoch_is_a_consistent_snapshot(tmp_path_factory, ops):
    root = str(tmp_path_factory.mktemp("mvcc"))
    db = Database(root, node_count=3, k_safety=1, wos_capacity=20)
    db.create_table(
        TableDefinition(
            "t",
            [ColumnDef("k", types.INTEGER), ColumnDef("pad", types.VARCHAR)],
            primary_key=("k",),
        ),
        sort_order=["k"],
    )
    model = Model()
    checkpoints: list[int] = []

    def check_all_epochs():
        low = max(db.cluster.epochs.ahm, 0)
        for epoch in [e for e in checkpoints if e >= low] + [db.latest_epoch]:
            got = {
                row["k"] for row in read_table(db.cluster, "t", epoch)
            }
            assert got == model.visible(epoch), f"divergence at epoch {epoch}"

    for op, arg in ops:
        if op == "insert":
            rows = [
                {"k": model._next_key + i, "pad": f"p{i % 3}"}
                for i in range(arg)
            ]
            session = db.session()
            session.insert("t", rows)
            epoch = session.commit()
            model.insert(arg, epoch)
            checkpoints.append(epoch)
        elif op == "delete":
            session = db.session()
            snapshot = session.begin().snapshot_epoch
            session.delete("t", k_mod(arg) == 0)
            epoch = session.commit()
            model.delete_where_mod(arg, epoch, snapshot)
            checkpoints.append(epoch)
        elif op == "moveout":
            for node_index in db.cluster.membership.up_nodes():
                node = db.cluster.nodes[node_index]
                for name in node.manager.projection_names():
                    node.mover.moveout(name)
                    node.manager.persist_delete_vectors(name)
        elif op == "mergeout":
            for node_index in db.cluster.membership.up_nodes():
                node = db.cluster.nodes[node_index]
                for name in node.manager.projection_names():
                    node.mover.mergeout(name, db.cluster.epochs.ahm)
        elif op == "ahm":
            db.cluster.run_tuple_movers()  # advances LGE, then AHM
            db.cluster.epochs.advance_ahm()
        elif op == "failover":
            node_index = arg
            if db.cluster.membership.is_up(node_index):
                # only fail when durable: run movers so nothing is
                # WOS-only, exactly like an operator would
                db.cluster.run_tuple_movers()
                db.fail_node(node_index)
                check_all_epochs()
                db.recover_node(node_index)
        check_all_epochs()


def test_single_long_scenario(tmp_path):
    """A deterministic long interleaving (fast regression guard)."""
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1, wos_capacity=10)
    db.create_table(
        TableDefinition(
            "t", [ColumnDef("k", types.INTEGER), ColumnDef("pad", types.VARCHAR)]
        ),
        sort_order=["k"],
    )
    model = Model()
    epochs = []
    for round_index in range(6):
        rows = [
            {"k": model._next_key + i, "pad": "x"} for i in range(25)
        ]
        session = db.session()
        session.insert("t", rows)
        epoch = session.commit()
        model.insert(25, epoch)
        epochs.append(epoch)
        if round_index % 2:
            session = db.session()
            snapshot = session.begin().snapshot_epoch
            session.delete("t", k_mod(3) == 0)
            depoch = session.commit()
            model.delete_where_mod(3, depoch, snapshot)
            epochs.append(depoch)
        db.cluster.run_tuple_movers()
    for epoch in epochs:
        got = {row["k"] for row in read_table(db.cluster, "t", epoch)}
        assert got == model.visible(epoch)
