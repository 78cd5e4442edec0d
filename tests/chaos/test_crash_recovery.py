"""Randomized crash-recovery property test (``pytest -m chaos``).

Each scenario derives an operation stream and one armed fault from a
seed, runs it against a 3-node K=1 cluster, then heals the cluster
(restart + recover + scrub) and asserts the visible rows equal a
fault-free single-node oracle that applied the same logical stream.

The property under test is the PR's acceptance criterion: **with any
single injected fault, queries never return wrong rows** — corruption
is detected via checksums and quarantined, crashes are ejected and
recovered from buddies, torn writes never publish.
"""

import random

import pytest

from repro import types
from repro.cluster import Cluster, recover_node
from repro.core.schema import ColumnDef, TableDefinition
from repro.faults import REGISTRY, FaultPlan
from storage_helpers import read_table, rows_where

pytestmark = pytest.mark.chaos


def table():
    return TableDefinition(
        "t",
        [ColumnDef("k", types.INTEGER), ColumnDef("v", types.VARCHAR)],
        primary_key=("k",),
    )


def build_cluster(root, node_count):
    cluster = Cluster(
        str(root), node_count=node_count, k_safety=1 if node_count > 1 else 0
    )
    cluster.create_table(table(), sort_order=["k"])
    return cluster


def make_ops(rng, steps=6):
    """A seed-determined stream of logical operations.

    Each op is a pure description; :func:`apply_op` executes it against
    any cluster, so the oracle and the system under test replay the
    exact same stream.
    """
    ops = []
    next_k = 0
    for _ in range(steps):
        kind = rng.choice(["insert", "insert", "insert", "delete", "move"])
        if kind == "insert":
            count = rng.randrange(5, 25)
            ops.append(
                ("insert", next_k, count, rng.random() < 0.5)
            )
            next_k += count
        elif kind == "delete":
            ops.append(("delete", rng.randrange(2, 5), rng.randrange(5)))
        else:
            ops.append(("move",))
    return ops


def apply_op(cluster, epoch, op):
    """Execute one op; returns the new snapshot epoch."""
    if op[0] == "insert":
        _, start, count, direct = op
        rows = [{"k": i, "v": f"v{i % 7}"} for i in range(start, start + count)]
        return cluster.commit_dml(
            {"t": rows}, [], epoch, direct_to_ros=direct
        )
    if op[0] == "delete":
        _, mod, rem = op
        victims = rows_where(cluster, "t", lambda row: row["k"] % mod == rem, epoch)
        return cluster.commit_dml({}, [("t", victims)], epoch)
    cluster.run_tuple_movers()
    return epoch


def pick_fault(rng):
    """One (point, action) pair drawn from the registered catalog."""
    point = rng.choice(sorted(REGISTRY))
    action = rng.choice(sorted(REGISTRY[point].allowed_actions()))
    return point, action


def heal(cluster):
    """Post-scenario repair: restart + recover crashed nodes, scrub."""
    for node_index in cluster.membership.down_nodes():
        cluster.restart_node(node_index)
        recover_node(cluster, node_index)
    cluster.scrub()


def visible(cluster, epoch):
    return sorted(
        (row["k"], row["v"]) for row in read_table(cluster, "t", epoch)
    )


@pytest.mark.parametrize("seed", range(12))
def test_single_fault_never_yields_wrong_rows(seed, tmp_path):
    rng = random.Random(seed)
    ops = make_ops(rng)
    point, action = pick_fault(rng)
    fault_step = rng.randrange(len(ops))
    skip = rng.randrange(3)

    oracle = build_cluster(tmp_path / "oracle", 1)
    oracle_epoch = 0
    for op in ops:
        oracle_epoch = apply_op(oracle, oracle_epoch, op)

    sut = build_cluster(tmp_path / "sut", 3)
    plan = FaultPlan(seed=seed).arm(point, action, skip=skip)
    sut_epoch = 0
    for index, op in enumerate(ops):
        if index == fault_step:
            with plan:
                sut_epoch = apply_op(sut, sut_epoch, op)
        else:
            sut_epoch = apply_op(sut, sut_epoch, op)

    heal(sut)
    assert visible(sut, sut_epoch) == visible(oracle, oracle_epoch), (
        f"seed={seed} fault={point}/{action} at step {fault_step} "
        f"(fired: {plan.fired})"
    )
    # the healed cluster also answers identically from any 2-node view
    for down in range(3):
        sut.fail_node(down)
        assert visible(sut, sut_epoch) == visible(oracle, oracle_epoch)
        sut.restart_node(down)
        recover_node(sut, down)


def test_scrub_smoke_after_chaos(tmp_path):
    """Scrub on a healed cluster is clean — no latent damage left."""
    rng = random.Random(99)
    sut = build_cluster(tmp_path / "sut", 3)
    epoch = 0
    for op in make_ops(rng, steps=4):
        epoch = apply_op(sut, epoch, op)
    with FaultPlan(seed=99).arm("ros.published", "bitflip"):
        epoch = apply_op(sut, epoch, ("insert", 1000, 20, True))
    heal(sut)
    report = sut.scrub()
    assert report.clean()
