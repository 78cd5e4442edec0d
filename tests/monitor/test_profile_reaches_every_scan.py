"""Every Scan an attempt runs is in its profile, including a broadcast
join's inner side.

The executor drains a broadcast inner while it builds the plan, and each
probe fragment replays the blocks through a ``Source``.  That Source is
the inner's parent, so ``EXPLAIN ANALYZE``, ``v_monitor.query_profiles``
and the operator spans reach the inner's operators (once: the walks
dedupe a shared subtree), and under tracing the inner's spans nest in
the ``exchange.broadcast`` span, the time they actually ran.
"""

from collections import Counter

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.trace import TRACER, TraceSink
from repro.workloads import meters

JOIN = (
    "SELECT zone, count(*) AS n FROM meter_readings "
    "JOIN meter_sites ON meter = site_meter "
    "WHERE metric = 'metric_0004' GROUP BY zone"
)


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(str(tmp_path_factory.mktemp("profile") / "db"), node_count=3, k_safety=1)
    db.create_table(meters.meters_table(), sort_order=["metric", "meter", "ts"])
    db.create_table(
        TableDefinition(
            "meter_sites",
            [ColumnDef("site_meter", types.INTEGER), ColumnDef("zone", types.INTEGER)],
        ),
        sort_order=["site_meter"],
    )
    db.load("meter_readings", list(meters.generate(meters.MeterDataSpec(6, 40, 20, seed=7))))
    db.load("meter_sites", [{"site_meter": m, "zone": m % 4} for m in range(40)])
    db.analyze_statistics()
    return db


def run_join(db):
    session = db.session()
    rows = session.sql(JOIN)
    assert sum(row["n"] for row in rows) == 40 * 20
    return session


def test_every_scan_an_attempt_runs_is_in_its_profile(db):
    session = run_join(db)
    scans = session.last_stats._scans
    assert {scan.projection_name for scan in scans} == {
        "meter_readings_super", "meter_sites_super",
    }
    ran = Counter((scan.label(), scan.rows_produced) for scan in scans)
    profile = session.last_profile
    profiled = Counter(
        (op.label, op.rows_produced) for op in profile.operators if op.op_name == "Scan"
    )
    assert profiled == ran
    rows = db.sql(
        "SELECT label, rows_produced FROM v_monitor.query_profiles "
        f"WHERE query_id = {profile.query_id} AND operator_name = 'Scan'"
    )
    assert Counter((row["label"], row["rows_produced"]) for row in rows) == ran
    rendered = db.sql("EXPLAIN ANALYZE " + JOIN)
    assert "Source" in rendered  # the inner was broadcast
    assert sum("Scan(" in line for line in rendered.splitlines()) == len(scans)


def test_the_inner_side_spans_nest_in_the_broadcast(db):
    TRACER.reset()
    TRACER.configure(sample_rate=1.0)
    try:
        with TRACER.enabled_scope(True):
            session = run_join(db)
        trace = TraceSink().latest()
    finally:
        TRACER.reset()
    by_id = {span.span_id: span for span in trace.spans}

    def ancestors(span):
        while span.parent_id is not None:
            span = by_id[span.parent_id]
            yield span.name

    scan_spans = [span for span in trace.spans if span.name == "op.Scan"]
    assert len(scan_spans) == len(session.last_stats._scans)
    inner = [span for span in scan_spans if "meter_sites" in span.attrs["label"]]
    assert inner
    assert all("exchange.broadcast" in ancestors(span) for span in inner)
