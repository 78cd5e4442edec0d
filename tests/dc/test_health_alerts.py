"""Health engine tests: rule values, raise/clear hysteresis, history.

The alert engine is deterministic: every rule reads either the Data
Collector's rings or the metrics registry, thresholds come from
:class:`repro.dc.HealthConfig`, and transitions are stamped with the
simulated clock — so these tests drive it tick by tick.
"""

import pytest

from repro.core.database import Database
from repro.dc import HealthConfig, HealthMonitor
from repro.monitor import METRICS, reset_all

pytestmark = pytest.mark.dc


@pytest.fixture
def db(tmp_path):
    reset_all()
    return Database(str(tmp_path / "db"), node_count=3, durable=False)


def queue_waits(db, ticks_list):
    for i, ticks in enumerate(ticks_list):
        db.cluster.dc.record(
            "resource_acquisitions",
            "granted",
            pool_name="general",
            session_id=1,
            ticket_id=i,
            memory_rows=0,
            queued_ticks=ticks,
            detail="",
        )


class TestHysteresis:
    def test_queue_wait_raises_then_clears(self, db):
        health = db.health
        assert health.evaluate() == []
        assert health.state_of("queue_wait_p99").state == "ok"

        queue_waits(db, [20] * 10)  # p99 = 20 > raise_above 8
        assert "queue_wait_p99" in health.evaluate()
        state = health.state_of("queue_wait_p99")
        assert state.state == "firing"
        assert state.times_raised == 1
        assert state.raised_tick == db.cluster.clock.now

        # between clear (4) and raise (8): firing holds, no re-raise
        db.cluster.dc.reset()
        queue_waits(db, [6] * 10)
        assert "queue_wait_p99" in health.evaluate()
        assert health.state_of("queue_wait_p99").times_raised == 1

        # at/below the clear threshold: the alert clears
        db.cluster.dc.reset()
        queue_waits(db, [1] * 10)
        db.cluster.clock.advance(3)
        assert "queue_wait_p99" not in health.evaluate()
        state = health.state_of("queue_wait_p99")
        assert state.state == "ok"
        assert state.cleared_tick == db.cluster.clock.now

    def test_transitions_land_in_dc_errors(self, db):
        queue_waits(db, [20] * 10)
        db.health.evaluate()
        kinds = [r["kind"] for r in db.cluster.dc.rows("errors")]
        assert "alert_raised" in kinds
        db.cluster.dc.reset()
        queue_waits(db, [0] * 10)
        db.health.evaluate()
        kinds = [r["kind"] for r in db.cluster.dc.rows("errors")]
        assert "alert_cleared" in kinds

    def test_ok_band_never_raises(self, db):
        queue_waits(db, [6] * 10)  # above clear, below raise: stays ok
        assert "queue_wait_p99" not in db.health.evaluate()
        assert db.health.state_of("queue_wait_p99").state == "ok"


class TestRuleValues:
    def test_crc_failures_window(self, db):
        health = db.health
        METRICS.inc("storage.crc_failures", 3)  # > raise_count 2
        assert "crc_failures" in health.evaluate()
        # past the sliding window with no new failures: clears
        db.cluster.clock.advance(
            health.config.crc_failure_window_ticks + 1
        )
        assert "crc_failures" not in health.evaluate()

    def test_node_down_follows_membership(self, db):
        db.cluster.fail_node(2)
        assert "node_down" in db.health.evaluate()
        db.cluster.restart_node(2)
        supervisor = db.cluster.supervisor
        for _ in range(50):
            supervisor.tick()
            if not db.cluster.membership.down_nodes():
                break
        assert "node_down" not in db.health.evaluate()

    def test_config_thresholds_are_respected(self, db):
        config = HealthConfig(queue_wait_p99_budget_ticks=100.0)
        health = HealthMonitor(db, config=config)
        queue_waits(db, [20] * 10)  # would fire with the default budget
        assert "queue_wait_p99" not in health.evaluate()


class TestRows:
    def test_rows_shape(self, db):
        rows = db.health.rows()
        names = [r["alert"] for r in rows]
        assert names == [
            "crc_failures",
            "node_down",
            "node_quarantined",
            "queue_wait_p99",
        ]
        for row in rows:
            assert row["state"] == "ok"
            assert row["severity"] in ("warning", "critical")
            assert row["raise_above"] > row["clear_below"] or (
                row["raise_above"] == 0.0 and row["clear_below"] == 0.0
            )
