"""Span parent/child integrity under a resegmented (DAG-shaped) plan.

A resegment join shares each Send operator across every Recv
destination, so the executed plan is a DAG.  The trace must stay a
tree: each shared Send contributes exactly one ``exchange.send`` span
(its first run — subsequent pulls hit the operator's idempotence
guard), Recv spans re-attach under the executor's span via the
cross-node TraceHandle, and every span closes and nests inside its
parent even though exchange work drains lazily on other "nodes"."""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.errors import InvariantViolation
from repro.execution import ColumnRef
from repro.execution.executor import DistributedExecutor
from repro.execution.operators.exchange import RecvOperator, SendOperator
from repro.execution.operators.join import JoinType
from repro.lint import sanitizer
from repro.optimizer import JoinNode, PhysJoin, ScanNode
from repro.optimizer import physical as P
from repro.trace import TraceSink

C = ColumnRef


@pytest.fixture
def db(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1)
    db.create_table(
        TableDefinition(
            "fact",
            [ColumnDef("f_id", types.INTEGER), ColumnDef("dim_id", types.INTEGER)],
            primary_key=("f_id",),
        )
    )
    db.create_table(
        TableDefinition(
            "fact2",
            [ColumnDef("g_id", types.INTEGER), ColumnDef("link", types.INTEGER)],
            primary_key=("g_id",),
        )
    )
    db.load("fact", [{"f_id": i, "dim_id": i % 20} for i in range(600)])
    db.load("fact2", [{"g_id": i, "link": i % 300} for i in range(600)])
    db.analyze_statistics()
    return db


def _run_resegmented(db):
    """Force the resegment strategy (the cost model would otherwise
    pick broadcast and hide the shared Sends)."""
    plan = JoinNode(
        ScanNode("fact", ["f_id", "dim_id"]),
        ScanNode("fact2", ["g_id", "link"]),
        JoinType.INNER,
        condition=C("f_id") == C("link"),
    )
    physical = db.planner().plan(plan)
    join = next(n for n in physical.walk() if isinstance(n, PhysJoin))
    join.strategy = P.RESEGMENT
    join.sip = False
    executor = DistributedExecutor(db.cluster, db.latest_epoch)
    rows = executor.run(physical).to_rows()
    assert len(rows) == 600
    root = executor.root_operator
    assert root is not None
    return root


@pytest.fixture
def resegmented_trace(db, tracing):
    trace = tracing.start_trace("resegment-test")
    root = _run_resegmented(db)
    tracing.end_trace(trace)
    return root, TraceSink().latest()


def test_shared_sends_traced_once(resegmented_trace):
    root, trace = resegmented_trace
    walked = list(root.walk())
    senders = [op for op in walked if isinstance(op, SendOperator)]
    recvs = [op for op in walked if isinstance(op, RecvOperator)]
    # the DAG really shares: 2 join sides x 3 fragments feed 6 Recvs,
    # and each Send fans out to every destination.
    assert len(senders) == 6
    assert len(recvs) == 6

    send_spans = [s for s in trace.spans if s.name == "exchange.send"]
    recv_spans = [s for s in trace.spans if s.name == "exchange.recv"]
    assert len(send_spans) == len(senders)  # one span per Send, no dupes
    assert len(recv_spans) == len(recvs)
    assert {s.trace_span_id for s in senders} == {
        s.span_id for s in send_spans
    }
    # every Recv span names a distinct destination segment.
    assert sorted(s.attrs["destination"] for s in recv_spans) == [
        0, 0, 1, 1, 2, 2,
    ]
    for span in send_spans:
        assert span.attrs["rows_sent"] >= 0
        assert span.attrs["bytes_sent"] >= 0


def test_exchange_spans_reattach_under_executor(resegmented_trace):
    _, trace = resegmented_trace
    by_id = {s.span_id: s for s in trace.spans}
    for span in trace.spans:
        if span.category != "exchange":
            continue
        # the TraceHandle stamped at plan-build time re-attached the
        # exchange work under the span that requested it, not wherever
        # the open-span stack happened to point when it drained.
        parent = by_id[span.parent_id]
        assert parent.name == "executor.attempt"
        assert span.node_index is not None


def test_operator_spans_cover_dag_once(resegmented_trace):
    root, trace = resegmented_trace
    walked = list(root.walk())
    live_exchanges = [
        op
        for op in walked
        if isinstance(op, (SendOperator, RecvOperator))
        and op.trace_span_id is not None
    ]
    op_spans = [s for s in trace.spans if s.category == "operator"]
    # synthesized operator spans cover each walked operator exactly
    # once, minus the exchanges that already traced themselves live.
    assert len(op_spans) == len(walked) - len(live_exchanges)
    assert len({s.span_id for s in trace.spans}) == len(trace.spans)


def test_all_spans_closed_and_nested(resegmented_trace):
    _, trace = resegmented_trace
    assert all(s.closed for s in trace.spans)
    assert not trace.open_spans()
    # the sanitizer checks already ran in end_trace (conftest enables
    # them); re-run explicitly so a regression fails here by name.
    sanitizer.check_trace_spans_closed(trace)
    sanitizer.check_trace_nesting(trace)


def test_sanitizer_rejects_unclosed_span(resegmented_trace):
    _, trace = resegmented_trace
    span = trace.spans[-1]
    saved = span.duration_seconds
    span.duration_seconds = None
    try:
        with pytest.raises(InvariantViolation, match="never closed"):
            sanitizer.check_trace_spans_closed(trace)
    finally:
        span.duration_seconds = saved


def test_sanitizer_rejects_escaping_interval(resegmented_trace):
    _, trace = resegmented_trace
    span = next(s for s in trace.spans if s.parent_id is not None)
    saved = span.start_offset
    span.start_offset = -5.0
    try:
        with pytest.raises(InvariantViolation, match="escapes parent"):
            sanitizer.check_trace_nesting(trace)
    finally:
        span.start_offset = saved


def test_sanitizer_rejects_escaping_ticks(resegmented_trace):
    _, trace = resegmented_trace
    span = next(s for s in trace.spans if s.parent_id is not None)
    saved = span.start_tick
    span.start_tick = -1
    try:
        with pytest.raises(InvariantViolation, match="escape parent"):
            sanitizer.check_trace_nesting(trace)
    finally:
        span.start_tick = saved
