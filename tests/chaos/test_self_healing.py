"""Seeded chaos tests for the self-healing cluster runtime
(``pytest -m chaos``).

Four scenario families, all deterministic per seed:

* a node killed **mid-query** fails over to buddy copies at the same
  snapshot epoch and returns exactly the fault-free oracle's rows,
  with the retry visible in ``v_monitor.dc_node_events``;
* a node killed repeatedly **during recovery** is retried with
  exponential backoff until it heals;
* **quorum loss** rejects writes with :class:`QuorumLossError` while
  reads keep answering from the surviving copies;
* a randomized kill schedule converges back to every-node-UP and the
  oracle's rows through :meth:`ClusterSupervisor.tick` **alone** — no
  test here calls ``restart_node``/``recover_node`` directly.

``tools/check.sh`` re-runs the convergence family on two fixed seeds
plus one derived from the git SHA via ``REPRO_CHAOS_SEEDS``.
"""

import os
import random

import pytest

from repro import types
from repro.core.database import Database
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import QuorumLossError
from repro.faults import FaultPlan

pytestmark = pytest.mark.chaos

SELECT = (
    "SELECT cid, COUNT(*) AS n, SUM(price) AS total "
    "FROM sales GROUP BY cid ORDER BY cid"
)


def chaos_seeds(default):
    """Seeds to run: ``REPRO_CHAOS_SEEDS`` (comma-separated) overrides
    the built-in list, so CI can pin two fixed seeds and add a fresh
    one derived from the commit SHA."""
    raw = os.environ.get("REPRO_CHAOS_SEEDS", "")
    picked = [int(part) for part in raw.split(",") if part.strip()]
    return picked or default


def build_db(root, node_count, k_safety):
    db = Database(str(root), node_count=node_count, k_safety=k_safety)
    db.create_table(
        TableDefinition(
            "sales",
            [
                ColumnDef("sale_id", types.INTEGER),
                ColumnDef("cid", types.INTEGER),
                ColumnDef("price", types.FLOAT),
            ],
            primary_key=("sale_id",),
        ),
        sort_order=["sale_id"],
    )
    return db


def seed_rows(rng, count=150):
    return [
        {"sale_id": i, "cid": rng.randrange(12), "price": float(rng.randrange(100))}
        for i in range(count)
    ]


def loaded_pair(tmp_path, rng, sut_nodes, k_safety):
    """(oracle, sut) with identical data, movers run on both."""
    rows = seed_rows(rng)
    oracle = build_db(tmp_path / "oracle", 1, 0)
    sut = build_db(tmp_path / "sut", sut_nodes, k_safety)
    for db in (oracle, sut):
        db.load("sales", rows)
        db.run_tuple_movers()
    return oracle, sut


def supervisor_only_heal(sut, max_ticks=64):
    """The acceptance discipline: the supervisor's tick loop is the
    only thing allowed to restart/recover nodes."""
    return sut.cluster.supervisor.run_until_converged(max_ticks=max_ticks)


@pytest.mark.parametrize("seed", chaos_seeds(list(range(6))))
def test_kill_mid_query_fails_over_and_self_heals(seed, tmp_path):
    rng = random.Random(seed)
    oracle, sut = loaded_pair(tmp_path, rng, sut_nodes=3, k_safety=1)
    expected = oracle.sql(SELECT)
    victim = rng.randrange(3)
    plan = FaultPlan(seed=seed).arm(
        "executor.scan", "crash", node=victim, skip=rng.randrange(2)
    )
    with plan:
        got = sut.sql(SELECT)
    assert got == expected, f"seed={seed} victim={victim}"
    assert [f.point for f in plan.fired] == ["executor.scan"]
    assert not sut.cluster.membership.is_up(victim)

    retries = sut.sql(
        "SELECT node_index, attempt FROM v_monitor.dc_node_events "
        "WHERE kind = 'query_retry'"
    )
    assert retries == [{"node_index": victim, "attempt": 1}]
    ejections = sut.sql(
        "SELECT node_index FROM v_monitor.dc_node_events "
        "WHERE kind = 'ejection'"
    )
    assert {"node_index": victim} in ejections

    ticks = supervisor_only_heal(sut)
    assert ticks <= 3
    assert sut.cluster.membership.is_up(victim)
    states = sut.sql(
        "SELECT node_index, is_up, supervisor_state FROM "
        "v_monitor.node_states ORDER BY node_index"
    )
    assert states == [
        {"node_index": i, "is_up": True, "supervisor_state": "UP"}
        for i in range(3)
    ]
    assert sut.sql(SELECT) == expected


@pytest.mark.parametrize("seed", chaos_seeds([3, 11]))
def test_kill_during_recovery_backs_off_until_healed(seed, tmp_path):
    rng = random.Random(seed)
    oracle, sut = loaded_pair(tmp_path, rng, sut_nodes=3, k_safety=1)
    victim = rng.randrange(3)
    sut.fail_node(victim)
    # rows committed while the victim is down give recovery a real
    # replay window — the armed crash fires when the replayed
    # containers publish on the recovering node.
    extra = [
        {"sale_id": 1000 + i, "cid": rng.randrange(12),
         "price": float(rng.randrange(100))}
        for i in range(25)
    ]
    for db in (oracle, sut):
        db.load("sales", extra)
    expected = oracle.sql(SELECT)
    crashes = 1 + rng.randrange(2)
    plan = FaultPlan(seed=seed).arm("ros.publish", "crash", count=crashes)
    with plan:
        supervisor_only_heal(sut, max_ticks=32)
    assert len(plan.fired) == crashes
    assert sut.cluster.membership.is_up(victim)
    assert sut.cluster.supervisor.node_state(victim).state == "UP"
    failures = [
        event
        for event in sut.cluster.dc.rows("node_events")
        if event["kind"] == "recovery_transition"
        and event["detail"] == "RECOVERING->DOWN"
    ]
    assert len(failures) == crashes
    assert sut.sql(SELECT) == expected
    assert sut.cluster.scrub().clean()


def kill_nodes_mid_query(sut, victims, seed):
    """Take ``victims`` down through the executor's failover path (the
    read path never raises on quorum loss, unlike ``fail_node``)."""
    plan = FaultPlan(seed=seed)
    for victim in victims:
        plan.arm("executor.scan", "crash", node=victim)
    with plan:
        rows = sut.sql(SELECT)
    assert len(plan.fired) == len(victims)
    return rows


@pytest.mark.parametrize("seed", chaos_seeds([5]))
def test_quorum_loss_rejects_writes_but_answers_reads(seed, tmp_path):
    rng = random.Random(seed)
    oracle, sut = loaded_pair(tmp_path, rng, sut_nodes=5, k_safety=2)
    expected = oracle.sql(SELECT)

    # 3 of 5 nodes die mid-query: below quorum (3 needed), but with
    # K=2 every ring segment still has a copy on nodes {1, 3}.
    got = kill_nodes_mid_query(sut, victims=(0, 2, 4), seed=seed)
    assert got == expected
    assert not sut.cluster.membership.has_quorum()
    assert sut.cluster.check_data_available()

    # degraded mode: writes rejected...
    with pytest.raises(QuorumLossError):
        sut.load("sales", [{"sale_id": 9000, "cid": 1, "price": 1.0}])
    with pytest.raises(QuorumLossError):
        sut.sql("DELETE FROM sales WHERE cid = 1")
    # ...while reads keep answering, and the mode change is logged.
    assert sut.sql(SELECT) == expected
    degraded = sut.sql(
        "SELECT detail FROM v_monitor.dc_node_events "
        "WHERE kind = 'degraded_mode'"
    )
    assert any("quorum lost" in row["detail"] for row in degraded)

    # the supervisor restores quorum, then writes flow again.
    supervisor_only_heal(sut)
    assert sut.cluster.membership.has_quorum()
    sut.load("sales", [{"sale_id": 9000, "cid": 1, "price": 1.0}])
    oracle.load("sales", [{"sale_id": 9000, "cid": 1, "price": 1.0}])
    assert sut.sql(SELECT) == oracle.sql(SELECT)
    healthy = sut.sql(
        "SELECT detail FROM v_monitor.dc_node_events "
        "WHERE kind = 'degraded_mode' ORDER BY record_id DESC LIMIT 1"
    )
    assert "healthy" in healthy[0]["detail"]


@pytest.mark.parametrize("seed", chaos_seeds([7, 19]))
def test_random_kill_schedule_converges_to_oracle(seed, tmp_path):
    """Interleave commits with seed-chosen node kills (process death,
    heartbeat loss, mid-query crash); after each incident the
    supervisor alone must drive the cluster back to every-node-UP with
    exactly the fault-free oracle's rows."""
    rng = random.Random(seed)
    oracle = build_db(tmp_path / "oracle", 1, 0)
    sut = build_db(tmp_path / "sut", 3, 1)
    next_id = 0
    for round_index in range(4):
        rows = [
            {
                "sale_id": next_id + i,
                "cid": rng.randrange(12),
                "price": float(rng.randrange(100)),
            }
            for i in range(rng.randrange(10, 40))
        ]
        next_id += len(rows)
        for db in (oracle, sut):
            db.load("sales", rows)
            db.run_tuple_movers()

        incident = rng.choice(["crash", "heartbeat", "mid_query", "none"])
        victim = rng.randrange(3)
        if incident == "crash":
            sut.fail_node(victim)
        elif incident == "heartbeat":
            timeout = sut.cluster.membership.heartbeat_timeout
            plan = FaultPlan(seed=seed + round_index).arm(
                "membership.heartbeat", "drop", node=victim, count=timeout
            )
            with plan:
                for _ in range(timeout):
                    sut.cluster.supervisor.tick()
            assert not sut.cluster.membership.is_up(victim)
        elif incident == "mid_query":
            plan = FaultPlan(seed=seed + round_index).arm(
                "executor.scan", "crash", node=victim
            )
            with plan:
                sut.sql(SELECT)

        supervisor_only_heal(sut)
        assert sut.cluster.membership.down_nodes() == []
        assert sut.sql(SELECT) == oracle.sql(SELECT), (
            f"seed={seed} round={round_index} incident={incident} "
            f"victim={victim}"
        )
    assert sut.cluster.scrub().clean()
    assert sut.cluster.supervisor.converged()
