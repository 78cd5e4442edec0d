"""A traced 3-node aggregate, end to end: one statement trace whose
spans cover parse -> plan -> execute on every participating node,
exported as valid Chrome trace-event JSON (one pid per node plus the
coordinator) and queryable back through ``v_monitor.trace_spans``."""

import json

from repro import ColumnDef, Database, TableDefinition, types
from repro.trace import TraceSink


def test_a_distributed_query_traces_every_node_and_exports(tmp_path, tracing):
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1)
    db.create_table(
        TableDefinition(
            "t",
            [ColumnDef("a", types.INTEGER), ColumnDef("b", types.INTEGER)],
            primary_key=("a",),
        )
    )
    db.load("t", [{"a": i, "b": i % 5} for i in range(300)])
    db.analyze_statistics()
    db.sql("SELECT b, COUNT(*) AS n FROM t GROUP BY b ORDER BY b")
    sink = TraceSink()
    trace = sink.latest()
    assert trace.root.name == "statement"
    names = {span.name for span in trace.spans}
    assert {"sql.parse", "optimizer.plan", "executor.attempt"} <= names, sorted(names)
    assert trace.nodes() == [0, 1, 2]
    doc = json.loads(json.dumps(sink.to_chrome_trace([trace.trace_id])))
    assert {event["pid"] for event in doc["traceEvents"]} == {0, 1, 2, 3}
    spans = db.sql(
        f"SELECT span_id FROM v_monitor.trace_spans WHERE trace_id = '{trace.trace_id}'"
    )
    assert len(spans) == len(trace.spans)
