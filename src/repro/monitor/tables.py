"""``v_monitor`` virtual system tables, queryable through SQL.

Vertica ships its monitoring as ordinary tables in the ``v_monitor``
schema so operators can use plain SQL against them.  This module does
the same for the reproduction's tables:

* ``v_monitor.query_profiles`` — one row per operator per profiled
  query (the tabular twin of ``EXPLAIN ANALYZE``), fanned out of the
  collector's memory-only ``profiles`` ring;
* ``v_monitor.projection_storage`` — per-(node, projection) storage
  accounting and the copy's last good epoch (LGE);
* ``v_monitor.storage_containers`` — one row per ROS container
  (Figure 2's content, live);
* ``v_monitor.epochs`` — the epoch clock: current, latest queryable,
  the ancient history mark (AHM) and whether any node is down;
* ``v_monitor.locks`` — currently granted table locks;
* ``v_monitor.node_states`` — per-node view of the self-healing
  runtime: membership, supervisor state machine, heartbeat age and
  recovery backoff/attempt bookkeeping;
* ``v_monitor.sessions`` — live service sessions (state, pool,
  transaction, current statement) when a
  :class:`repro.service.SqlService` wraps the database;
* ``v_monitor.resource_pools`` — per-pool admission accounting from
  the resource governor (budget, running, queued, reject/timeout
  totals);
* ``v_monitor.metrics`` — the raw MetricsRegistry, one row per
  counter/gauge/histogram, so new instrumentation is queryable the
  moment it exists without a curated table;
* ``v_monitor.query_traces`` / ``v_monitor.trace_spans`` — the
  distributed tracer's retained traces (``REPRO_TRACE=1``): one row
  per trace, and one row per span with parent ids, node attribution
  and both clocks (simulated ticks + wall durations);
* ``v_monitor.journal`` — one row per on-disk write-ahead journal
  segment (record/byte counts, LSN range, active flag) plus the
  durable floor and newest checkpoint LSN; empty when the database
  was opened with ``durable=False``;
* the Data Collector tables — ``dc_requests_completed``,
  ``dc_resource_acquisitions``, ``dc_lock_waits``, ``dc_node_events``,
  ``dc_tuple_mover``, ``dc_errors`` — serving
  :class:`repro.dc.DataCollector`'s retention-bounded (and, for
  durable databases, crash-recoverable) operational history.  The
  collector (``db.cluster.dc``) is the only history store and each
  ring has one table: the six are entries of one ring → column map
  (:data:`_RING_TABLES`), and all are empty when the collector is
  disabled.  ``dc_node_events`` holds ejections, mid-query retries,
  recovery transitions, quarantines, degraded-mode changes, heartbeat
  misses and journal checkpoints; ``dc_tuple_mover`` the completed
  moveouts and mergeouts (join ``node_states`` on ``node_index`` for
  the node's name);
* ``v_monitor.slow_queries`` — the requests history filtered to
  statements at or above ``db.health.config.slow_query_ms``;
* ``v_monitor.alerts`` — the health engine's rules
  (:class:`repro.dc.HealthMonitor`), re-evaluated on every read, one
  row per rule with its firing state and raise/clear history.

A virtual table is a leaf of the one plan: the analyzer resolves its
columns here (:func:`columns_of`), the planner gives it a scan with no
projection family and a replicated distribution, and the executor
makes its rows (:func:`table_rows`) once per leaf at the coordinator,
so joins, grouping, windows and EXPLAIN work as over any table.
Whether a table is virtual is :func:`is_monitor_table`'s decision
alone.  Reading one takes no lock, writes no history
(:func:`reads_monitor`) and answers while user data is unavailable.
"""

from __future__ import annotations

from ..errors import UnknownObjectError

#: Schema name all virtual tables live under.
SCHEMA = "v_monitor"
_PREFIX = SCHEMA + "."

_COLUMNS = {
    "query_profiles": [
        "query_id",
        "sql",
        "epoch",
        "rows_returned",
        "query_ms",
        "operator_id",
        "parent_id",
        "depth",
        "operator_name",
        "label",
        "rows_produced",
        "blocks_produced",
        "pulls",
        "wall_ms",
        "self_ms",
        "seek_blocks",
        "seek_window_rows",
    ],
    "projection_storage": [
        "node_name",
        "projection_name",
        "anchor_table",
        "wos_rows",
        "ros_rows",
        "ros_containers",
        "ros_bytes",
        "delete_markers",
        "lge",
    ],
    "storage_containers": [
        "node_name",
        "projection_name",
        "container_id",
        "row_count",
        "partition_key",
        "local_segment",
        "min_epoch",
        "max_epoch",
        "bytes",
    ],
    "epochs": [
        "current_epoch",
        "latest_queryable_epoch",
        "ahm",
        "nodes_down",
    ],
    "locks": [
        "object_name",
        "txn_id",
        "mode",
    ],
    "node_states": [
        "node_name",
        "node_index",
        "is_up",
        "supervisor_state",
        "recovery_attempts",
        "next_attempt_tick",
        "last_transition_tick",
        "heartbeat_age",
        "missed_heartbeats",
        "last_error",
    ],
    "sessions": [
        "session_id",
        "state",
        "pool_name",
        "isolation",
        "txn_id",
        "current_statement",
        "statements_run",
        "statements_failed",
        "last_error",
    ],
    "resource_pools": [
        "pool_name",
        "memory_budget_rows",
        "memory_in_use_rows",
        "max_concurrency",
        "running",
        "queue_depth",
        "queued",
        "queue_timeout_ticks",
        "admitted_total",
        "queued_total",
        "rejected_total",
        "timed_out_total",
        "cancelled_total",
        "peak_running",
    ],
    # min/max/count/sum are SQL-adjacent words; the column names here
    # deliberately avoid anything the parser treats as a keyword.
    "metrics": [
        "name",
        "kind",
        "value",
        "observations",
        "total",
        "min_value",
        "max_value",
        "mean",
        "p50",
        "p95",
    ],
    "query_traces": [
        "trace_id",
        "name",
        "statement",
        "sql",
        "start_tick",
        "end_tick",
        "duration_ms",
        "span_count",
        "node_count",
        # not "nodes": NODES is a SQL keyword (ALL NODES) in this
        # dialect and could never be named in a select list.
        "node_list",
    ],
    "trace_spans": [
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "category",
        "node_index",
        "node_name",
        "start_tick",
        "end_tick",
        "start_ms",
        "duration_ms",
        "error",
        "attrs",
    ],
    "journal": [
        "segment",
        "records",
        "bytes",
        "first_lsn",
        "last_lsn",
        "is_active",
        "checkpoint_lsn",
        "floor_epoch",
    ],
    "dc_requests_completed": [
        "record_id",
        "tick",
        "statement",
        "session_id",
        "pool_name",
        "sql",
        "success",
        "error",
        "rows_returned",
        "duration_ms",
        "epoch",
    ],
    "dc_resource_acquisitions": [
        "record_id",
        "tick",
        "outcome",
        "pool_name",
        "session_id",
        "ticket_id",
        "memory_rows",
        "queued_ticks",
        "detail",
    ],
    "dc_lock_waits": [
        "record_id",
        "tick",
        "outcome",
        "txn_id",
        "object_name",
        "mode",
        "blocker_txn",
        "detail",
    ],
    "dc_node_events": [
        "record_id",
        "tick",
        "kind",
        "node_index",
        "node_name",
        "attempt",
        "detail",
    ],
    "dc_tuple_mover": [
        "record_id",
        "tick",
        "kind",
        "node_index",
        "projection_name",
        "containers_in",
        "containers_out",
        "rows_in",
        "rows_out",
        "rows_purged",
        "stratum",
        "duration_ms",
    ],
    "dc_errors": [
        "record_id",
        "tick",
        "kind",
        "source",
        "node_index",
        "detail",
    ],
    "slow_queries": [
        "record_id",
        "tick",
        "statement",
        "session_id",
        "pool_name",
        "sql",
        "rows_returned",
        "duration_ms",
        "threshold_ms",
    ],
    "alerts": [
        "alert",
        "severity",
        "state",
        "value",
        "raise_above",
        "clear_below",
        "raised_tick",
        "cleared_tick",
        "times_raised",
        "detail",
    ],
}


def is_monitor_table(name: str) -> bool:
    """Whether a FROM-clause table name addresses the v_monitor schema."""
    return name.lower().startswith(_PREFIX)


def reads_monitor(plan) -> bool:
    """Whether a logical plan scans a virtual table.  Such a statement
    is recorded in no history: reading ``query_profiles`` or
    ``dc_requests_completed`` must not grow it."""
    stack = [plan]
    while stack:
        node = stack.pop()
        if is_monitor_table(getattr(node, "table", "")):  # only a scan has one
            return True
        stack.extend(node.children)
    return False


def table_names() -> list[str]:
    """The available virtual tables, qualified."""
    return [f"{SCHEMA}.{name}" for name in sorted(_COLUMNS)]


def columns_of(qualified: str) -> list[str]:
    """Column names of one virtual table (schema-qualified name)."""
    return list(_COLUMNS[_short_name(qualified)])


def _short_name(qualified: str) -> str:
    schema, _, short = qualified.partition(".")
    if schema.lower() != SCHEMA or short.lower() not in _COLUMNS:
        raise UnknownObjectError(
            f"unknown system table {qualified!r}; have {table_names()}"
        )
    return short.lower()


def _query_profiles_rows(db) -> list[dict]:
    """One row per operator of every retained profile record."""
    rows = []
    for query in db.cluster.dc.rows("profiles"):
        for op in query["operators"]:
            rows.append(
                {
                    "query_id": query["record_id"],
                    "sql": query["sql"],
                    "epoch": query["epoch"],
                    "rows_returned": query["rows_returned"],
                    "query_ms": query["wall_seconds"] * 1000.0,
                    "operator_id": op.operator_id,
                    "parent_id": op.parent_id,
                    "depth": op.depth,
                    "operator_name": op.op_name,
                    "label": op.label,
                    "rows_produced": op.rows_produced,
                    "blocks_produced": op.blocks_produced,
                    "pulls": op.pulls,
                    "wall_ms": op.wall_seconds * 1000.0,
                    "self_ms": op.self_seconds * 1000.0,
                    "seek_blocks": op.seek_blocks,
                    "seek_window_rows": op.seek_window_rows,
                }
            )
    return rows


def _projection_storage_rows(db) -> list[dict]:
    """Per-(node, projection) storage accounting and LGE."""
    rows = []
    for node in db.cluster.nodes:
        for name in node.manager.projection_names():
            state = node.manager.storage(name)
            rows.append(
                {
                    "node_name": node.name,
                    "projection_name": name,
                    "anchor_table": state.projection.anchor_table,
                    "wos_rows": state.wos.row_count,
                    "ros_rows": sum(
                        c.row_count for c in state.containers.values()
                    ),
                    "ros_containers": len(state.containers),
                    "ros_bytes": node.manager.total_data_bytes(name),
                    "delete_markers": state.delete_count(),
                    "lge": db.cluster.epochs.lge(node.index, name),
                }
            )
    return rows


def _storage_containers_rows(db) -> list[dict]:
    rows = []
    for node in db.cluster.nodes:
        for name in node.manager.projection_names():
            containers = node.manager.storage(name).containers
            for container_id in sorted(containers):
                container = containers[container_id]
                rows.append(
                    {
                        "node_name": node.name,
                        "projection_name": name,
                        "container_id": container_id,
                        "row_count": container.row_count,
                        "partition_key": container.meta.partition_key,
                        "local_segment": container.meta.local_segment,
                        "min_epoch": container.meta.min_epoch,
                        "max_epoch": container.meta.max_epoch,
                        "bytes": container.size_bytes(),
                    }
                )
    return rows


def _epochs_rows(db) -> list[dict]:
    epochs = db.cluster.epochs
    return [
        {
            "current_epoch": epochs.current_epoch,
            "latest_queryable_epoch": epochs.latest_queryable_epoch,
            "ahm": epochs.ahm,
            "nodes_down": epochs.nodes_down,
        }
    ]


def _locks_rows(db) -> list[dict]:
    return [
        {"object_name": obj, "txn_id": txn_id, "mode": mode}
        for obj, txn_id, mode in db.cluster.locks.granted()
    ]


def _node_states_rows(db) -> list[dict]:
    cluster = db.cluster
    now = cluster.clock.now
    return [
        {
            "node_name": cluster.nodes[index].name,
            "node_index": index,
            "is_up": cluster.membership.is_up(index),
            "supervisor_state": record.state,
            "recovery_attempts": record.recovery_attempts,
            "next_attempt_tick": record.next_attempt_tick,
            "last_transition_tick": record.last_transition_tick,
            "heartbeat_age": cluster.membership.heartbeat_age(index, now),
            "missed_heartbeats": cluster.membership.missed_heartbeats.get(index, 0),
            "last_error": record.last_error,
        }
        for index, record in sorted(cluster.supervisor.states().items())
    ]


def _sessions_rows(db) -> list[dict]:
    """Live service sessions; empty when no SqlService wraps ``db``."""
    service = getattr(db, "service", None)
    if service is None:
        return []
    return service.session_rows()


def _resource_pools_rows(db) -> list[dict]:
    """Governor pool accounting; empty when no SqlService wraps ``db``."""
    service = getattr(db, "service", None)
    if service is None:
        return []
    return service.governor.pool_rows()


def _metrics_rows(db) -> list[dict]:
    from .registry import METRICS

    snapshot = METRICS.snapshot()
    template = {name: None for name in _COLUMNS["metrics"]}
    rows = []
    for name, value in snapshot["counters"].items():
        rows.append({**template, "name": name, "kind": "counter", "value": value})
    for name, value in snapshot["gauges"].items():
        rows.append({**template, "name": name, "kind": "gauge", "value": value})
    for name, stats in snapshot["histograms"].items():
        rows.append(
            {
                **template,
                "name": name,
                "kind": "histogram",
                "observations": stats["count"],
                "total": stats["sum"],
                "min_value": stats["min"],
                "max_value": stats["max"],
                "mean": stats["mean"],
                "p50": stats["p50"],
                "p95": stats["p95"],
            }
        )
    rows.sort(key=lambda row: (row["kind"], row["name"]))
    return rows


def _trace_node_name(node_index) -> str:
    return "coordinator" if node_index is None else f"node{node_index:02d}"


def _query_traces_rows(db) -> list[dict]:
    from ..trace import TRACER

    rows = []
    for trace in TRACER.finished:
        nodes = trace.nodes()
        rows.append(
            {
                "trace_id": trace.trace_id,
                "name": trace.name,
                "statement": trace.root.attrs.get("statement"),
                "sql": trace.root.attrs.get("sql"),
                "start_tick": trace.root.start_tick,
                "end_tick": trace.root.end_tick,
                "duration_ms": trace.duration_seconds * 1000.0,
                "span_count": len(trace.spans),
                "node_count": len(nodes),
                "node_list": ",".join(str(node) for node in nodes),
            }
        )
    return rows


def _trace_spans_rows(db) -> list[dict]:
    import json

    from ..trace import TRACER

    rows = []
    for trace in TRACER.finished:
        for span in trace.spans:
            attrs = {
                key: value
                for key, value in sorted(span.attrs.items())
                if key != "error"
            }
            rows.append(
                {
                    "trace_id": trace.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "name": span.name,
                    "category": span.category,
                    "node_index": span.node_index,
                    "node_name": _trace_node_name(span.node_index),
                    "start_tick": span.start_tick,
                    "end_tick": span.end_tick,
                    "start_ms": span.start_offset * 1000.0,
                    "duration_ms": (span.duration_seconds or 0.0) * 1000.0,
                    "error": span.attrs.get("error"),
                    "attrs": json.dumps(attrs, sort_keys=True, default=repr),
                }
            )
    return rows


def _journal_rows(db) -> list[dict]:
    """Write-ahead journal segments; empty for non-durable databases."""
    journal = getattr(db.cluster, "journal", None)
    if journal is None:
        return []
    return journal.monitor_rows()


#: The history tables: table -> (collector ring, {column: source}).
#: A column reads the record key of its own name unless the map names
#: another (the collector stores each record's event kind under
#: "kind").  Each ring has one table: one name per fact.
_RING_TABLES = {
    "dc_requests_completed": ("requests", {"statement": "kind"}),
    "dc_resource_acquisitions": (
        "resource_acquisitions", {"outcome": "kind"}
    ),
    "dc_lock_waits": ("lock_waits", {"outcome": "kind"}),
    "dc_node_events": ("node_events", {}),
    "dc_tuple_mover": ("tuple_mover", {}),
    "dc_errors": ("errors", {}),
}


def _dc_component_rows(db, table: str) -> list[dict]:
    """Project one collector ring onto a history table's columns."""
    component, sources = _RING_TABLES[table]
    columns = [(name, sources.get(name, name)) for name in _COLUMNS[table]]
    return [
        {name: record.get(source) for name, source in columns}
        for record in db.cluster.dc.rows(component)
    ]


def _slow_queries_rows(db) -> list[dict]:
    """Completed requests at or above the configured threshold."""
    health = getattr(db, "health", None)
    if health is None:
        return []
    threshold = health.config.slow_query_ms
    rows = []
    for record in _dc_component_rows(db, "dc_requests_completed"):
        duration = record.get("duration_ms") or 0.0
        if duration < threshold:
            continue
        row = {
            column: record.get(column)
            for column in _COLUMNS["slow_queries"]
        }
        row["threshold_ms"] = threshold
        rows.append(row)
    return rows


def _alerts_rows(db) -> list[dict]:
    """Health rules, re-evaluated so a read is always current."""
    health = getattr(db, "health", None)
    if health is None:
        return []
    health.evaluate()
    return health.rows()


_PRODUCERS = {
    "query_profiles": _query_profiles_rows,
    "projection_storage": _projection_storage_rows,
    "storage_containers": _storage_containers_rows,
    "epochs": _epochs_rows,
    "locks": _locks_rows,
    "node_states": _node_states_rows,
    "sessions": _sessions_rows,
    "resource_pools": _resource_pools_rows,
    "metrics": _metrics_rows,
    "query_traces": _query_traces_rows,
    "trace_spans": _trace_spans_rows,
    "journal": _journal_rows,
    "slow_queries": _slow_queries_rows,
    "alerts": _alerts_rows,
}


def table_rows(db, qualified: str) -> tuple[list[str], list[dict]]:
    """Materialize one virtual table: ``(column_names, row_dicts)``."""
    short = _short_name(qualified)
    if short in _RING_TABLES:
        rows = _dc_component_rows(db, short)
    else:
        rows = _PRODUCERS[short](db)
    return list(_COLUMNS[short]), rows
