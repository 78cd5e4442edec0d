"""Tests for the simulated clock, the deterministic failure detector
and the auto-recovery supervisor (section 5.2-5.3).

Everything here drives failed nodes back through the supervisor's
state machine only — no test calls ``restart_node``/``recover_node``
directly once the supervisor owns the node.
"""

import pytest

from repro import types
from repro.cluster import Cluster, SimulatedClock
from repro.cluster.supervisor import DOWN, QUARANTINED, SCAVENGED, UP
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import ClusterError
from repro.faults import FaultPlan
from storage_helpers import read_table


def sales_table():
    return TableDefinition(
        "sales",
        [
            ColumnDef("sale_id", types.INTEGER),
            ColumnDef("cid", types.INTEGER),
            ColumnDef("price", types.FLOAT),
        ],
        primary_key=("sale_id",),
    )


def sales_rows(n, start=0):
    return [
        {"sale_id": i, "cid": i % 10, "price": float(i)}
        for i in range(start, start + n)
    ]


@pytest.fixture
def cluster(tmp_path):
    cluster = Cluster(str(tmp_path / "cluster"), node_count=3, k_safety=1)
    cluster.create_table(sales_table(), sort_order=["sale_id"])
    cluster.commit_dml({"sales": sales_rows(120)}, [], 0)
    cluster.run_tuple_movers()
    return cluster


def visible_ids(cluster, epoch=1):
    return sorted(row["sale_id"] for row in read_table(cluster, "sales", epoch))


def node_events(cluster, kind=None):
    """The cluster's failover history: its collector's node_events ring."""
    return [
        event
        for event in cluster.dc.rows("node_events")
        if kind is None or event["kind"] == kind
    ]


def transitions(cluster, node_index):
    return [
        event["detail"]
        for event in node_events(cluster, "recovery_transition")
        if event["node_index"] == node_index
    ]


class TestSimulatedClock:
    def test_starts_at_zero_and_advances(self):
        clock = SimulatedClock()
        assert clock.now == 0
        assert clock.advance() == 1
        assert clock.advance(5) == 6
        assert clock.elapsed_since(2) == 4

    def test_rejects_non_positive_advance(self):
        clock = SimulatedClock()
        with pytest.raises(ClusterError):
            clock.advance(0)


class TestHeartbeatDetector:
    def test_missed_beats_below_timeout_keep_node_up(self, cluster):
        timeout = cluster.membership.heartbeat_timeout
        plan = FaultPlan(seed=1).arm(
            "membership.heartbeat", "drop", node=2, count=timeout - 1
        )
        with plan:
            for _ in range(timeout - 1):
                cluster.supervisor.tick()
        assert cluster.membership.is_up(2)
        assert cluster.membership.missed_heartbeats[2] == timeout - 1

    def test_received_beat_resets_missed_count(self, cluster):
        timeout = cluster.membership.heartbeat_timeout
        plan = FaultPlan(seed=1).arm(
            "membership.heartbeat", "drop", node=2, count=timeout - 1
        )
        with plan:
            for _ in range(timeout - 1):
                cluster.supervisor.tick()
        cluster.supervisor.tick()  # heartbeat delivered again
        assert cluster.membership.is_up(2)
        assert cluster.membership.missed_heartbeats[2] == 0
        assert cluster.membership.heartbeat_age(2, cluster.clock.now) == 0

    def test_timeout_ejects_then_supervisor_heals(self, cluster):
        timeout = cluster.membership.heartbeat_timeout
        before = visible_ids(cluster)
        plan = FaultPlan(seed=1).arm(
            "membership.heartbeat", "drop", node=2, count=timeout
        )
        with plan:
            for _ in range(timeout):
                cluster.supervisor.tick()
            assert not cluster.membership.is_up(2)
            node, reason = cluster.membership.ejections[-1]
            assert node == 2
            assert "heartbeat" in reason
            cluster.supervisor.run_until_converged()
        assert cluster.membership.is_up(2)
        assert cluster.supervisor.node_state(2).state == UP
        assert visible_ids(cluster) == before

    def test_delay_verdict_counts_as_missed(self, cluster):
        plan = FaultPlan(seed=1).arm(
            "membership.heartbeat", "delay", node=1, count=1
        )
        with plan:
            cluster.supervisor.tick()
        assert cluster.membership.missed_heartbeats[1] == 1


class TestSupervisorRecovery:
    def test_adopts_external_failure_and_heals(self, cluster):
        before = visible_ids(cluster)
        cluster.fail_node(1)
        spent = cluster.supervisor.run_until_converged()
        assert spent <= 3
        assert cluster.membership.is_up(1)
        assert cluster.supervisor.node_state(1).state == UP
        assert visible_ids(cluster) == before

    def test_full_lifecycle_recorded(self, cluster):
        cluster.fail_node(1)
        cluster.supervisor.run_until_converged()
        assert transitions(cluster, 1) == [
            "UP->DOWN",
            "DOWN->RESTARTING",
            "RESTARTING->SCAVENGED",
            "SCAVENGED->RECOVERING",
            "RECOVERING->CURRENT",
            "CURRENT->UP",
        ]

    def test_one_phase_per_tick(self, cluster):
        cluster.fail_node(1)
        cluster.supervisor.tick()
        assert cluster.supervisor.node_state(1).state == SCAVENGED
        assert not cluster.membership.is_up(1)
        cluster.supervisor.tick()
        assert cluster.supervisor.node_state(1).state == UP
        assert cluster.membership.is_up(1)

    def test_healthy_cluster_ticks_are_quiet(self, cluster):
        for _ in range(5):
            cluster.supervisor.tick()
        assert cluster.supervisor.converged()
        assert node_events(cluster) == []
        assert cluster.clock.now == 5

    def test_externally_recovered_node_adopted_up(self, cluster):
        from repro.cluster import recover_node

        cluster.fail_node(2)
        cluster.restart_node(2)
        recover_node(cluster, 2)
        cluster.supervisor.tick()
        assert cluster.supervisor.node_state(2).state == UP


def fail_with_replay_window(cluster, node_index):
    """Take a node down, then commit more rows so recovery has a
    non-empty replay window (the ``ros.publish`` crash targets below
    fire when the replayed containers publish on the recovering node).
    Returns the sorted sale_ids visible at the new epoch."""
    cluster.fail_node(node_index)
    epoch = cluster.commit_dml({"sales": sales_rows(40, start=200)}, [], 0)
    return sorted(list(range(120)) + list(range(200, 240))), epoch


class TestBackoffAndQuarantine:
    def test_failed_recoveries_back_off_exponentially(self, cluster):
        expected, epoch = fail_with_replay_window(cluster, 1)
        # the first two recovery attempts die publishing replayed
        # containers on the recovering node; the third succeeds.
        plan = FaultPlan(seed=3).arm("ros.publish", "crash", count=2)
        with plan:
            cluster.supervisor.run_until_converged(max_ticks=32)
        assert [f.point for f in plan.fired] == ["ros.publish"] * 2
        assert cluster.supervisor.node_state(1).state == UP
        assert cluster.supervisor.node_state(1).recovery_attempts == 0
        path = transitions(cluster, 1)
        assert path.count("RECOVERING->DOWN") == 2
        # each retry waits backoff_base * 2**(attempts-1) ticks, so the
        # gaps between successive restart attempts must grow.
        restart_ticks = [
            event["tick"]
            for event in node_events(cluster, "recovery_transition")
            if event["node_index"] == 1
            and event["detail"] == "DOWN->RESTARTING"
        ]
        gaps = [b - a for a, b in zip(restart_ticks, restart_ticks[1:])]
        assert len(gaps) == 2
        assert gaps[1] > gaps[0]
        assert visible_ids(cluster, epoch) == expected

    def test_repeated_failure_quarantines_node(self, cluster):
        expected, epoch = fail_with_replay_window(cluster, 1)
        plan = FaultPlan(seed=3).arm("ros.publish", "crash", count=64)
        with plan:
            cluster.supervisor.run_until_converged(max_ticks=64)
        record = cluster.supervisor.node_state(1)
        assert record.state == QUARANTINED
        assert (
            record.recovery_attempts
            == cluster.supervisor.max_recovery_attempts
        )
        assert "failed" in record.last_error
        quarantines = node_events(cluster, "quarantine")
        assert len(quarantines) == 1
        assert quarantines[0]["node_index"] == 1
        # a quarantined node is terminal: more ticks change nothing.
        tick_count = cluster.clock.now
        cluster.supervisor.tick()
        assert cluster.supervisor.node_state(1).state == QUARANTINED
        assert cluster.clock.now == tick_count + 1
        # K-safety still covers the data through the buddy.
        assert visible_ids(cluster, epoch) == expected

    def test_backoff_skips_ticks_before_retry(self, cluster):
        fail_with_replay_window(cluster, 1)
        plan = FaultPlan(seed=3).arm("ros.publish", "crash", count=1)
        with plan:
            cluster.supervisor.tick()  # restart -> SCAVENGED
            cluster.supervisor.tick()  # recover fails -> DOWN, backoff
            record = cluster.supervisor.node_state(1)
            assert record.state == DOWN
            assert record.recovery_attempts == 1
            assert record.next_attempt_tick == cluster.clock.now + 1

    def test_both_buddies_down_heal_from_own_disks(self, cluster):
        """Losing BOTH hosts of a ring segment loses no data (their
        disks are intact) and blocks all commits (no quorum at 1/3), so
        each node's replay window is empty and recovery must rejoin it
        from its own disk instead of deadlocking on the other dead
        buddy — neither node may end up QUARANTINED."""
        before = visible_ids(cluster)
        cluster.note_node_failure(0, "test: buddy pair lost")
        cluster.note_node_failure(2, "test: buddy pair lost")
        assert not cluster.membership.has_quorum()
        cluster.supervisor.run_until_converged()
        assert cluster.membership.down_nodes() == []
        for index in (0, 2):
            assert cluster.supervisor.node_state(index).state == UP
        assert visible_ids(cluster) == before
        assert cluster.scrub().clean()
