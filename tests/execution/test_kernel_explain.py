"""Goldens for the plan text and the profiler, and the sanitizer's
conservation checks.

EXPLAIN prints each Scan / Filter / GroupBy without saying which engine
runs it — there is one — and EXPLAIN ANALYZE prints what each operator
did: rows, blocks, pulls, time and, on a Scan, what its seek left to
test.  The sanitizer's row-conservation checks guard the kernels at
runtime; the tests hold them to plain answers written out here.
"""

import re

import pytest

from repro import types
from repro.core.database import Database
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import InvariantViolation
from repro.lint import sanitizer

AGG_SQL = (
    "SELECT tag, COUNT(*) AS n, SUM(v) AS sv FROM t "
    "WHERE k < 100 GROUP BY tag"
)

#: A predicate no specialised leaf takes: arithmetic inside the
#: comparison compiles to the generic leaf.
GENERIC_SQL = "SELECT k FROM t WHERE v + 1.0 > 100.0"


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
    """One engine: the plan names no engine on any operator."""
    assert db.sql("EXPLAIN " + AGG_SQL) == (
        "Project tag=tag, n=agg_1, sv=agg_2  [coordinator, ~1 rows]\n"
        "  GroupBy[hash two-phase+prepass] [tag] [COUNT(*), SUM(v)]  "
        "[coordinator, ~1 rows]\n"
        "    Scan t_super [tag, v] WHERE (k < 100)  [segmented, ~1 rows]"
    )


def test_explain_marks_row_fallback_predicate(db):
    """A predicate the specialised leaves do not take plans and answers
    like any other (the generic leaf evaluates it over the block)."""
    assert db.sql("EXPLAIN " + GENERIC_SQL) == (
        "Project k=k  [segmented on (k), ~1 rows]\n"
        "  Scan t_super [k] WHERE ((v + 1.0) > 100.0)  "
        "[segmented on (k), ~1 rows]"
    )
    assert [row["k"] for row in db.sql(GENERIC_SQL + " ORDER BY k")] == list(
        range(100, 500)
    )


PIPELINED_SQL = "SELECT k, COUNT(*) AS n, AVG(v) AS a FROM t WHERE k < 6 GROUP BY k"


def test_a_sort_prefix_group_by_has_no_sort_under_it(db):
    """``pipelined`` says the keys are the scan's sort prefix, so every
    block folds over its runs; the three containers meet in the hash
    table.  Nothing is sorted to find runs the storage already has."""
    assert db.sql("EXPLAIN " + PIPELINED_SQL) == (
        "Project k=k, n=agg_1, a=agg_2  [segmented on (k), ~1 rows]\n"
        "  GroupBy[pipelined local] [k] [COUNT(*), AVG(v)]  "
        "[segmented on (k), ~1 rows]\n"
        "    Scan t_super [k, v] WHERE (k < 6)  [segmented on (k), ~1 rows]"
    )
    rendered = db.sql("EXPLAIN ANALYZE " + PIPELINED_SQL)
    assert [line.strip().split("(")[0] for line in rendered.splitlines()[1:]] == [
        "ExprEval", "GroupByPipelined", "Scan",
    ]
    assert sorted(db.sql(PIPELINED_SQL), key=lambda row: row["k"]) == [
        {"k": k, "n": 1, "a": float(k)} for k in range(6)
    ]


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
        "[rows=9 blocks=3 pulls=4 time=_ self=_ seek=3/17]"
    )
    # no conjunct on the sort prefix: every block filtered row by row
    assert _scan_line(db.sql("EXPLAIN ANALYZE SELECT v FROM t WHERE tag = 'a'")) == (
        "Scan(t_super @e1) filter=(tag = 'a')  "
        "[rows=250 blocks=3 pulls=4 time=_ self=_]"
    )


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
    silent on a correct plan, whose answer is the one written here."""
    with sanitizer.override(True):
        answer = db.sql(AGG_SQL + " ORDER BY tag")
    assert answer == [
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

    def lossy(self, table):
        first, *rest = flush(self, table)  # a flush that forgets a group
        return [first.select_rows(range(1, first.row_count)), *rest]

    with sanitizer.override(True):
        assert len(db.sql(AGG_SQL)) == 2  # correct plans stay silent
        monkeypatch.setattr(PrepassGroupByOperator, "_flush", lossy)
        with pytest.raises(InvariantViolation, match="double-counted"):
            db.sql(AGG_SQL)
    with sanitizer.override(False):
        assert len(db.sql(AGG_SQL)) == 1
