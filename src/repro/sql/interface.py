"""SQL statement execution: parse, analyze, run.

Routes each statement kind to the right subsystem: SELECTs to the
optimizer + executor, DML to the session's transactional buffers, DDL
to the catalog/cluster, COPY to the bulk loader (with the rejected-
record handling of section 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.database import Session

from ..core.schema import ColumnDef, TableDefinition
from ..errors import LoadError, SqlAnalysisError
from ..execution.expressions import Expr
from ..monitor.tables import reads_monitor
from ..projections import HashSegmentation, ProjectionColumn, ProjectionDefinition, Replicated
from ..storage import HistoryRun
from ..trace import TRACER
from ..types import type_from_name
from . import ast
from .analyzer import Analyzer, Scope, _FromItem
from .parser import parse, parse_expression


@dataclass
class CopyResult:
    """Outcome of a COPY: loaded row count and rejected records."""

    loaded: int
    rejected: list[tuple[int, str, str]] = field(default_factory=list)


def _insert_constant(expr: ast.SqlExpr):
    """The value of one ``INSERT ... VALUES`` item: a literal, or a
    negated numeric literal (the parser reads ``-1.5`` as unary minus
    over ``1.5``, and drops a unary plus)."""
    negations = 0
    while isinstance(expr, ast.UnaryOp) and expr.op == "-":
        negations += 1
        expr = expr.operand
    if not isinstance(expr, ast.Constant):
        raise SqlAnalysisError("INSERT values must be constants")
    if not negations:
        return expr.value
    if isinstance(expr.value, bool) or not isinstance(expr.value, (int, float)):
        raise SqlAnalysisError("INSERT can only negate a numeric literal")
    return -expr.value if negations % 2 else expr.value


def _single_table_scope(catalog, table_name: str) -> Scope:
    table = catalog.table(table_name)
    return Scope([_FromItem(ast.TableRef(table_name), table.column_names)])


def execute_sql(
    session: "Session",
    text: str,
    copy_rows: Iterable | None = None,
    statement: object | None = None,
) -> object:
    """Execute one SQL statement in ``session``.

    Returns rows for SELECT, a plan string for EXPLAIN, a
    :class:`CopyResult` for COPY, and ``None`` / counts for other
    statements.  ``statement`` is ``text`` already parsed (the governed
    session parses before admission); without it the text is parsed here.

    This is where a statement's trace begins and ends: when tracing is
    enabled (``REPRO_TRACE=1`` or ``TRACER.configure``), the whole
    statement runs inside one :class:`repro.trace.TraceContext` whose
    spans — parse, analyze, plan, per-node execution, exchanges,
    failover retries — are retained for ``v_monitor.query_traces`` /
    ``v_monitor.trace_spans`` and Chrome trace-event export.

    It is also where the Data Collector's request history is written:
    every completed (or failed) statement lands in
    ``dc_requests_completed`` with its duration, row count and
    resource pool — except reads of the ``v_monitor`` tables
    themselves, so a polling console never floods its own history.
    """
    trace = TRACER.start_trace("statement", attrs={"sql": text})
    info = {"kind": "unknown", "skip": False}
    started = perf_counter()
    try:
        result = _execute_statement(
            session, text, copy_rows, trace, info, statement
        )
    except Exception as exc:
        _record_request(
            session, text, info, perf_counter() - started, error=exc
        )
        raise
    else:
        _record_request(
            session, text, info, perf_counter() - started, result=result
        )
        return result
    finally:
        TRACER.end_trace(trace)


def _record_request(
    session, text, info, duration_seconds, result=None, error=None
) -> None:
    """Append one ``dc_requests_completed`` record for the statement."""
    if info.get("skip"):
        return
    collector = session.db.cluster.dc
    rows_returned = len(result) if isinstance(result, list) else 0
    collector.record(
        "requests",
        info.get("kind", "unknown"),
        session_id=getattr(session, "service_session_id", None),
        pool_name=getattr(session, "service_pool", "-"),
        sql=text[:200],
        success=error is None,
        error=type(error).__name__ if error is not None else "",
        rows_returned=rows_returned,
        duration_ms=duration_seconds * 1000.0,
        epoch=session.db.latest_epoch,
    )
    if error is not None:
        collector.record(
            "errors",
            type(error).__name__,
            source="sql",
            node_index=-1,
            detail=str(error)[:200],
        )


def _execute_statement(session, text, copy_rows, trace, info=None, statement=None):
    db = session.db
    if info is None:
        info = {}
    if statement is None:
        with TRACER.span("sql.parse", category="sql"):
            statement = parse(text)
    info["kind"] = (
        type(statement).__name__.removesuffix("Statement").lower()
    )
    if trace is not None:
        trace.root.attrs["statement"] = type(statement).__name__
    analyzer = Analyzer(db.cluster.catalog)

    if isinstance(statement, ast.SelectStatement):
        with TRACER.span("sql.analyze", category="sql"):
            plan = analyzer.analyze_select(statement)
        # reading the monitoring tables is not itself an operational
        # event worth recording
        info["skip"] = reads_monitor(plan)
        return session.query(plan, at_epoch=statement.at_epoch, sql_text=text)

    if isinstance(statement, ast.ExplainStatement):
        plan = analyzer.analyze_select(statement.select)
        if not statement.analyze:
            return db.explain(plan)
        # EXPLAIN ANALYZE / PROFILE: execute, then render the profile
        info["skip"] = reads_monitor(plan)
        session.query(plan, at_epoch=statement.select.at_epoch, sql_text=text)
        return session.last_profile.render()

    if isinstance(statement, ast.InsertStatement):
        # straight into columns, as COPY's lines go: no row dict to pivot
        table = db.cluster.catalog.table(statement.table)
        for name in statement.columns:
            table.column(name)  # raises for a column the table lacks
        columns = statement.columns or table.column_names
        inserted = {name: [None] * len(statement.rows) for name in table.column_names}
        for index, values in enumerate(statement.rows):
            if len(values) != len(columns):
                raise SqlAnalysisError(
                    f"INSERT has {len(values)} values for {len(columns)} columns"
                )
            for name, value in zip(columns, values):
                inserted[name][index] = _insert_constant(value)
        session.insert(statement.table, HistoryRun.stamped(inserted, 0))
        return len(statement.rows)

    if isinstance(statement, ast.UpdateStatement):
        scope = _single_table_scope(db.cluster.catalog, statement.table)
        assignments = {
            column: analyzer.convert(expr, scope)
            for column, expr in statement.assignments.items()
        }
        predicate = (
            analyzer.convert(statement.where, scope)
            if statement.where is not None
            else _always_true()
        )
        return session.update(statement.table, assignments, predicate, sql_text=text)

    if isinstance(statement, ast.DeleteStatement):
        scope = _single_table_scope(db.cluster.catalog, statement.table)
        predicate = (
            analyzer.convert(statement.where, scope)
            if statement.where is not None
            else _always_true()
        )
        session.delete(statement.table, predicate, sql_text=text)
        return None

    if isinstance(statement, ast.CreateTableStatement):
        return _create_table(db, statement)

    if isinstance(statement, ast.CreateProjectionStatement):
        return _create_projection(db, statement)

    if isinstance(statement, ast.DropTableStatement):
        db.drop_table(statement.name)
        return None

    if isinstance(statement, ast.CopyStatement):
        return _copy(session, statement, copy_rows)

    raise SqlAnalysisError(f"unsupported statement {type(statement).__name__}")


def _always_true():
    from ..execution.expressions import Literal

    return Literal(True)


def partition_expression(
    table: str, names: list[str], node: ast.SqlExpr | str
) -> Expr:
    """The ``PARTITION BY`` of table ``table`` as an :class:`Expr` over
    its columns ``names``: CREATE TABLE's parsed expression, or the
    text the journal keeps of it (parsed here)."""
    if isinstance(node, str):
        node = parse_expression(node)
    scope = Scope([_FromItem(ast.TableRef(table), names)])
    return Analyzer(None).convert(node, scope)


def _create_table(db, statement: ast.CreateTableStatement):
    columns = [
        ColumnDef(spec.name, type_from_name(spec.type_name))
        for spec in statement.columns
    ]
    partition_by = None
    if statement.partition_by is not None:
        partition_by = partition_expression(
            statement.name, [spec.name for spec in statement.columns],
            statement.partition_by,
        )
    table = TableDefinition(
        statement.name,
        columns,
        partition_by=partition_by,
        primary_key=tuple(statement.primary_key),
    )
    encodings = {
        spec.name: spec.encoding
        for spec in statement.columns
        if spec.encoding is not None
    }
    db.create_table(table, encodings=encodings or None)
    return None


def _create_projection(db, statement: ast.CreateProjectionStatement):
    table = db.cluster.catalog.table(statement.table)
    select_columns = statement.select_columns or [
        spec.name for spec in statement.columns
    ]
    if len(select_columns) != len(statement.columns):
        raise SqlAnalysisError(
            "projection column list and SELECT list differ in length"
        )
    columns = []
    for spec, source in zip(statement.columns, select_columns):
        dtype = table.column(source).dtype
        columns.append(
            ProjectionColumn(spec.name, dtype, spec.encoding or "AUTO")
        )
    if statement.segmented_by is None:
        segmentation = Replicated()
    else:
        segmentation = HashSegmentation(tuple(statement.segmented_by))
    projection = ProjectionDefinition(
        name=statement.name,
        anchor_table=statement.table,
        columns=columns,
        sort_order=statement.order_by or [columns[0].name],
        segmentation=segmentation,
    )
    db.add_projection(projection)
    return None


def _copy(session, statement: ast.CopyStatement, copy_rows) -> CopyResult:
    """Bulk load with rejected-record collection (section 7), a column
    at a time.

    The text lines with the right number of fields are joined and split
    once, and each COPY column is a slice of the fields, parsed by one
    bulk call (:meth:`DataType.parse_column`); a column no line named is
    NULL.  No object is built per line, so a short COPY allocates too
    little to start a garbage collection, which it would pay for whole.
    A line some column rejects, a line with the wrong number of fields,
    a field list and a dict record take the per-line path,
    :func:`_copy_record`, which loads the record or says why not (every
    line does when the column list names a column the table lacks).
    The good records keep their line order and are buffered as one run.
    """
    if copy_rows is None:
        raise LoadError("COPY requires data (pass copy_rows=...)")
    table = session.db.cluster.catalog.table(statement.table)
    columns = statement.columns or table.column_names
    records = list(copy_rows)
    width = len(columns)
    lines = [
        index
        for index, record in enumerate(records)
        if isinstance(record, str) and record.count("|") == width - 1
    ] if all(map(table.has_column, columns)) else []
    fields = "|".join(map(records.__getitem__, lines)).split("|") if lines else []
    texts = [fields[column::width] for column in range(width)]
    values = {name: [None] * len(lines) for name in table.column_names}
    rejected_at: set[int] = set()
    for name, column_texts in zip(columns, texts):
        values[name], rejects = table.column(name).dtype.parse_column(column_texts)
        rejected_at.update(rejects)
    run = HistoryRun.stamped(values, 0)
    if rejected_at:
        kept = [k for k in range(len(lines)) if k not in rejected_at]
        run, lines = run.take(kept), list(map(lines.__getitem__, kept))
    pieces = [run]
    rejected: list[tuple[int, str, str]] = []
    for index in sorted(set(range(len(records))).difference(lines)):
        try:
            record = _copy_record(table, columns, records[index])
        except Exception as exc:  # rejected record, keep loading
            rejected.append((index + 1, str(records[index])[:80], str(exc)))
        else:
            pieces.append(HistoryRun.stamped(record, 0))
            lines.append(index)
    if len(pieces) > 1:  # back into line order
        run = HistoryRun.concat(pieces).take(
            sorted(range(len(lines)), key=lines.__getitem__)
        )
    session.insert(statement.table, run, direct_to_ros=len(run) > 10000)
    return CopyResult(loaded=len(run), rejected=rejected)


def _copy_record(table, columns: list[str], record) -> dict[str, list]:
    """One COPY record the per-line way, as one-row columns in table
    order: a dict record type-checked, a line's fields parsed one by one
    (:meth:`DataType.parse_text`).  Raises what rejects it."""
    row = dict.fromkeys(table.column_names)
    if isinstance(record, dict):
        row.update(record)
        return table.validate_columns({name: [value] for name, value in row.items()})
    fields = record.split("|") if isinstance(record, str) else list(record)
    if len(fields) != len(columns):
        raise LoadError(f"expected {len(columns)} fields, got {len(fields)}")
    for name, field_text in zip(columns, fields):
        row[name] = table.column(name).dtype.parse_text(str(field_text))
    return {name: [value] for name, value in row.items()}
