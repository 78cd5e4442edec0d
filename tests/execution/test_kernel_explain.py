"""Goldens for kernel-vs-row visibility in EXPLAIN and the profiler.

The vectorized engine must be *observable*: EXPLAIN tags every Scan /
Filter / GroupBy with the engine that will run it (``[kernel]`` or
``[row]``), and EXPLAIN ANALYZE / ``v_monitor.query_profiles`` report
the engine that actually ran (``exec=kernel`` / ``exec=row``).  These
tests pin the exact plan text for a kernelizable query, a predicate
the kernels cannot compile, and the ``REPRO_FORCE_ROW_ENGINE=1``
fallback — plus the sanitizer's row-conservation checks, which guard
the kernel/row equivalence at runtime.
"""

import re

import pytest

from repro import sdk, types
from repro.core.database import Database
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import InvariantViolation
from repro.execution.kernels import force_row_engine
from repro.lint import sanitizer

AGG_SQL = (
    "SELECT tag, COUNT(*) AS n, SUM(v) AS sv FROM t "
    "WHERE k < 100 GROUP BY tag"
)

#: A predicate no kernel compiles: arithmetic inside the comparison.
ROW_SQL = "SELECT k FROM t WHERE v + 1.0 > 100.0"


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(str(tmp_path_factory.mktemp("kexp") / "db"), node_count=1)
    db.create_table(
        TableDefinition(
            "t",
            [
                ColumnDef("k", types.INTEGER),
                ColumnDef("tag", types.VARCHAR),
                ColumnDef("v", types.FLOAT),
            ],
        ),
        sort_order=["k"],
    )
    db.load(
        "t",
        [{"k": i, "tag": ["a", "b"][i % 2], "v": float(i)} for i in range(500)],
    )
    db.run_tuple_movers()
    return db


def test_explain_marks_kernelized_operators(db):
    assert db.sql("EXPLAIN " + AGG_SQL) == (
        "Project tag=tag, n=agg_1, sv=agg_2  [coordinator, ~1 rows]\n"
        "  GroupBy[hash two-phase+prepass] [tag] [COUNT(*), SUM(v)] "
        "[kernel]  [coordinator, ~1 rows]\n"
        "    Scan t_super [tag, v] WHERE (k < 100) [kernel]  "
        "[segmented, ~1 rows]"
    )


def test_explain_marks_row_fallback_predicate(db):
    assert db.sql("EXPLAIN " + ROW_SQL) == (
        "Project k=k  [segmented on (k), ~1 rows]\n"
        "  Scan t_super [k] WHERE ((v + 1.0) > 100.0) [row]  "
        "[segmented on (k), ~1 rows]"
    )


def test_explain_under_forced_row_engine(db):
    """REPRO_FORCE_ROW_ENGINE flips every engine tag to [row]."""
    with force_row_engine():
        plan = db.sql("EXPLAIN " + AGG_SQL)
    assert "[kernel]" not in plan
    assert plan.count("[row]") == 2  # GroupBy and Scan


def _exec_modes(rendered):
    """operator name -> exec= tag from an EXPLAIN ANALYZE rendering."""
    modes = {}
    for line in rendered.splitlines()[1:]:
        name = line.strip().split("(")[0]
        tag = re.search(r" exec=(\w+(?: \([^)]*\))?)\]", line)
        modes[name] = tag.group(1) if tag else None
    return modes


def test_explain_analyze_reports_actual_engine(db):
    modes = _exec_modes(db.sql("EXPLAIN ANALYZE " + AGG_SQL))
    assert modes["Scan"] == "kernel"
    assert modes["PrepassGroupBy"] == "kernel"
    # the merge phase folds plain partial blocks through the same key
    # kernel: bare lists bucket by key, no row is built
    assert modes["GroupByHash"] == "kernel"
    assert modes["ExprEval"] is None  # no kernel/row distinction

    with force_row_engine():
        forced = _exec_modes(db.sql("EXPLAIN ANALYZE " + AGG_SQL))
    assert forced["Scan"] == "row"
    # a group-by block on the row path says why
    assert forced["PrepassGroupBy"] == "row (forced row engine)"
    assert forced["GroupByHash"] == "row (forced row engine)"


PIPELINED_SQL = "SELECT k, COUNT(*) AS n, AVG(v) AS a FROM t WHERE k < 6 GROUP BY k"


def test_a_sort_prefix_group_by_has_no_sort_under_it(db):
    """``pipelined`` says the keys are the scan's sort prefix, so every
    block folds over its runs; the three containers meet in the hash
    table.  Nothing is sorted to find runs the storage already has."""
    assert db.sql("EXPLAIN " + PIPELINED_SQL) == (
        "Project k=k, n=agg_1, a=agg_2  [segmented on (k), ~1 rows]\n"
        "  GroupBy[pipelined local] [k] [COUNT(*), AVG(v)] [kernel]  "
        "[segmented on (k), ~1 rows]\n"
        "    Scan t_super [k, v] WHERE (k < 6) [kernel]  [segmented on (k), ~1 rows]"
    )
    rendered = db.sql("EXPLAIN ANALYZE " + PIPELINED_SQL)
    assert [line.strip().split("(")[0] for line in rendered.splitlines()[1:]] == [
        "ExprEval", "GroupByPipelined", "Scan",
    ]
    assert _exec_modes(rendered)["GroupByPipelined"] == "kernel"
    assert sorted(db.sql(PIPELINED_SQL), key=lambda row: row["k"]) == [
        {"k": k, "n": 1, "a": float(k)} for k in range(6)
    ]


class _Widest(sdk.UserAggregate):
    def __init__(self):
        self.low = self.high = None

    def add(self, value) -> None:
        self.low = value if self.low is None else min(self.low, value)
        self.high = value if self.high is None else max(self.high, value)

    def final(self):
        return None if self.low is None else self.high - self.low


def test_every_group_by_block_on_the_row_path_says_why(db):
    """The reasons are the shapes ``groupby_fallback_reason`` rejects and
    the forced row engine — exactly four, none of them about how the
    keys happen to be laid out — and ``query_profiles`` carries them."""
    sdk.register_aggregate("widest", _Widest)
    try:
        shapes = {
            "SELECT k % 3 AS b, COUNT(*) AS n FROM t GROUP BY k % 3": "expression key",
            "SELECT tag, COUNT(DISTINCT v) AS n FROM t GROUP BY tag": "distinct",
            "SELECT tag, widest(v) AS w FROM t GROUP BY tag": "user aggregate",
        }
        for sql in shapes:
            db.sql(sql)
        with force_row_engine():
            db.sql(AGG_SQL)
        # column keys of any layout, expression arguments, bare-list
        # partials: kernel blocks, no reason
        db.sql("SELECT v, tag, SUM(k * 2) AS s FROM t GROUP BY v, tag")
    finally:
        sdk.unregister_aggregate("widest")
    rows = db.sql(
        "SELECT sql, operator_name, execution, fallback_reason "
        "FROM v_monitor.query_profiles WHERE blocks_produced > 0"
    )
    group_bys = [row for row in rows if "GroupBy" in row["operator_name"]]
    for row in group_bys:
        assert (row["execution"] == "row") == bool(row["fallback_reason"]), row
    for sql, reason in shapes.items():
        # (a merge stage above it reads partial *columns*: kernel, no reason)
        said = {r["fallback_reason"] for r in group_bys if r["sql"] == sql}
        assert said - {""} == {reason}
    assert {row["fallback_reason"] for row in rows} - {""} == {
        "expression key", "distinct", "user aggregate", "forced row engine",
    }
    assert all(
        not row["fallback_reason"] for row in rows
        if "GroupBy" not in row["operator_name"]
    )


def test_query_profiles_execution_column(db):
    db.sql(AGG_SQL)
    rows = db.sql(
        "SELECT operator_name, execution FROM v_monitor.query_profiles "
        "WHERE sql = '" + AGG_SQL.replace("'", "''") + "' "
        "ORDER BY query_id DESC, operator_id LIMIT 4"
    )
    by_name = {row["operator_name"]: row["execution"] for row in rows}
    assert by_name["Scan"] == "kernel"
    assert by_name["ExprEval"] == "-"


SEEK_SQL = "SELECT v FROM t WHERE k BETWEEN 40 AND 56 AND tag = 'a'"


def _scan_line(rendered):
    (line,) = [
        line.strip() for line in rendered.splitlines() if "Scan(" in line
    ]
    return re.sub(r"(time|self)=[\d.]+ms", r"\1=_", line)


def test_explain_analyze_shows_what_a_seek_left_to_filter(db):
    """A slow lookup explains itself: ``seek=<blocks narrowed>/<rows in
    the windows>`` beside the rows the Scan produced.  Three containers
    each narrowed ``k BETWEEN`` to a window (17 rows in all) before
    ``tag = 'a'`` tested anything."""
    assert _scan_line(db.sql("EXPLAIN ANALYZE " + SEEK_SQL)) == (
        "Scan(t_super @e1) filter=((k BETWEEN 40 AND 56) AND (tag = 'a'))  "
        "[rows=9 blocks=3 pulls=4 time=_ self=_ seek=3/17 exec=kernel]"
    )
    # no conjunct on the sort prefix: every block filtered row by row
    assert _scan_line(db.sql("EXPLAIN ANALYZE SELECT v FROM t WHERE tag = 'a'")) == (
        "Scan(t_super @e1) filter=(tag = 'a')  "
        "[rows=250 blocks=3 pulls=4 time=_ self=_ exec=kernel]"
    )
    with force_row_engine():
        assert " seek=" not in db.sql("EXPLAIN ANALYZE " + SEEK_SQL)


def test_query_profiles_and_metrics_carry_the_seek(db):
    from repro.monitor import METRICS

    before = {
        name: METRICS.counter(name)
        for name in ("executor.seek_blocks", "executor.seek_window_rows")
    }
    db.sql(SEEK_SQL)
    (scan,) = db.sql(
        "SELECT rows_produced, seek_blocks, seek_window_rows "
        "FROM v_monitor.query_profiles WHERE operator_name = 'Scan' "
        "ORDER BY query_id DESC LIMIT 1"
    )
    assert scan == {"rows_produced": 9, "seek_blocks": 3, "seek_window_rows": 17}
    assert METRICS.counter("executor.seek_blocks") - before["executor.seek_blocks"] == 3
    assert (
        METRICS.counter("executor.seek_window_rows")
        - before["executor.seek_window_rows"]
    ) == 17


def test_both_engines_agree_with_sanitizer_on(db):
    """REPRO_SANITIZE=1 regression: the row-conservation checks stay
    silent on correct plans, in both engines."""
    with sanitizer.override(True):
        kernel = db.sql(AGG_SQL + " ORDER BY tag")
        with force_row_engine():
            row = db.sql(AGG_SQL + " ORDER BY tag")
    assert kernel == row
    assert kernel == [
        {"tag": "a", "n": 50, "sv": sum(float(i) for i in range(0, 100, 2))},
        {"tag": "b", "n": 50, "sv": sum(float(i) for i in range(1, 100, 2))},
    ]


def test_filter_conservation_check_fires(db):
    with sanitizer.override(True):
        sanitizer.check_filter_conservation(10, 10)  # boundary: keep all
        sanitizer.check_filter_conservation(10, 0)  # boundary: drop all
        with pytest.raises(InvariantViolation, match="fabricated"):
            sanitizer.check_filter_conservation(10, 11)
        with pytest.raises(InvariantViolation, match="fabricated"):
            sanitizer.check_filter_conservation(10, -1)
    with sanitizer.override(False):  # disabled: never raises
        sanitizer.check_filter_conservation(10, 11)


def test_groupby_conservation_check_fires(db):
    with sanitizer.override(True):
        sanitizer.check_groupby_conservation(400, 400)
        with pytest.raises(InvariantViolation, match="double-counted"):
            sanitizer.check_groupby_conservation(400, 399)
    with sanitizer.override(False):
        sanitizer.check_groupby_conservation(400, 399)


def test_conservation_reaches_prepass_and_merge(db, monkeypatch):
    """Two-phase plans are what the meter workloads run: rows into every
    prepass must equal the merge stage's summed COUNT partials."""
    from repro.execution.operators.groupby import PrepassGroupByOperator

    flush = PrepassGroupByOperator._flush

    def lossy(self, groups):
        groups.pop(next(iter(groups)))  # a flush that forgets a group
        return flush(self, groups)

    with sanitizer.override(True):
        assert len(db.sql(AGG_SQL)) == 2  # correct plans stay silent
        monkeypatch.setattr(PrepassGroupByOperator, "_flush", lossy)
        with pytest.raises(InvariantViolation, match="double-counted"):
            db.sql(AGG_SQL)
    with sanitizer.override(False):
        assert len(db.sql(AGG_SQL)) == 1
