"""Retention regression: the history rings hold steady-state size.

A 10k-statement loop must not grow any Data Collector ring beyond its
bound — operational history is a ring, not a leak.  The memory-only
``profiles`` ring holds 256 query profiles whatever the shared record
retention is; every other ring holds ``retention.max_records``.
"""

import pytest

from repro.cluster.clock import SimulatedClock
from repro.dc import DataCollector
from repro.dc.collector import PROFILE_CAPACITY
from repro.monitor.retention import RetentionPolicy

pytestmark = pytest.mark.dc

N = 10_000


def collector(tmp_path, **kwargs):
    return DataCollector(str(tmp_path / "dc"), clock=SimulatedClock(), **kwargs)


def test_profile_log_steady_state_over_10k_statements(tmp_path):
    dc = collector(tmp_path)
    assert dc.retention.max_records > PROFILE_CAPACITY == 256
    for i in range(N):
        dc.record("profiles", "select", sql=f"SELECT {i}", operators=[])
        assert dc.counts()["profiles"] <= PROFILE_CAPACITY
    kept = [row["record_id"] for row in dc.rows("profiles")]
    # newest survives, oldest evicted in order
    assert kept == list(range(N - PROFILE_CAPACITY + 1, N + 1))


def test_event_log_steady_state_over_10k_events(tmp_path):
    dc = collector(tmp_path, retention=RetentionPolicy(max_records=128))
    for i in range(N):
        dc.record("tuple_mover", "moveout", node_index=0, rows_in=i)
    kept = [row["record_id"] for row in dc.rows("tuple_mover")]
    assert kept == list(range(N - 128 + 1, N + 1))
    # a tighter shared bound also bounds the profiles ring
    for i in range(200):
        dc.record("profiles", "select", sql=f"SELECT {i}", operators=[])
    assert dc.counts()["profiles"] == 128


def test_collector_rings_steady_state_over_10k_records(tmp_path):
    dc = collector(tmp_path, retention=RetentionPolicy(max_records=256))
    for i in range(N):
        dc.record("requests", "select", sql=f"q{i}")
    rows = dc.rows("requests")
    assert len(rows) == 256
    assert rows[-1]["record_id"] == N
