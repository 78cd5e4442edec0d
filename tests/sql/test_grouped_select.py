"""Grouped and windowed SELECTs translate exactly as plain ones do.

Every SELECT path — plain, GROUP BY / HAVING, window — shares one
translation (``Analyzer.convert`` with the path's lookup), one select
list and one ORDER BY resolver.  Each case here is a statement one of
the paths used to answer wrongly, refuse or crash on; the answers are
worked out by hand over a table where group ``g`` holds the rows
``x = 0 .. g``.
"""

import pytest

from repro import Database
from repro.errors import SqlAnalysisError
from repro.sql.analyzer import Analyzer
from repro.sql.parser import parse

#: g -> its x values: group g has g + 1 rows and sum(x) = g(g+1)/2.
GROUPS = {g: list(range(g + 1)) for g in range(5)}


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(str(tmp_path_factory.mktemp("grouped") / "db"), node_count=3, k_safety=1)
    db.sql("CREATE TABLE t (g INTEGER, x INTEGER)")
    db.sql(
        "COPY t FROM STDIN",
        copy_rows=[{"g": g, "x": x} for g, xs in GROUPS.items() for x in xs],
    )
    return db


def keys(rows):
    return [row["g"] for row in rows]


def analyze(db, sql):
    return Analyzer(db.cluster.catalog).analyze_select(parse(sql))


# -- answers that used to be wrong -------------------------------------------


def test_having_not_between_over_an_aggregate(db):
    rows = db.sql(
        "SELECT g, count(*) AS n FROM t GROUP BY g "
        "HAVING count(*) NOT BETWEEN 2 AND 3 ORDER BY g"
    )
    assert rows == [{"g": 0, "n": 1}, {"g": 3, "n": 4}, {"g": 4, "n": 5}]


def test_having_not_between_over_a_group_key(db):
    rows = db.sql("SELECT g FROM t GROUP BY g HAVING g NOT BETWEEN 1 AND 3 ORDER BY g")
    assert keys(rows) == [0, 4]


def test_having_not_between_under_or(db):
    rows = db.sql(
        "SELECT g FROM t GROUP BY g "
        "HAVING count(*) > 2 OR g NOT BETWEEN 0 AND 0 ORDER BY g"
    )
    assert keys(rows) == [1, 2, 3, 4]


def test_window_order_by_position(db):
    rows = db.sql(
        "SELECT g, x, rank() OVER (ORDER BY x) AS r FROM t "
        "ORDER BY 3 DESC, 1 LIMIT 4"
    )
    # ranks by x: x=4 -> 15 (g 4), x=3 -> 13 (g 3, 4), x=2 -> 10 (g 2, 3, 4)
    assert [(row["g"], row["x"], row["r"]) for row in rows] == [
        (4, 4, 15), (3, 3, 13), (4, 3, 13), (2, 2, 10),
    ]


def test_window_select_list_keeps_a_repeated_column(db):
    rows = db.sql(
        "SELECT x, x, rank() OVER (ORDER BY x) AS r FROM t WHERE g = 1 ORDER BY r"
    )
    assert [list(row.values()) for row in rows] == [[0, 0, 1], [1, 1, 2]]


# -- statements that used to be refused --------------------------------------


def test_having_in_over_an_aggregate(db):
    rows = db.sql("SELECT g FROM t GROUP BY g HAVING count(*) IN (1, 2) ORDER BY g")
    assert keys(rows) == [0, 1]


def test_case_over_an_aggregate(db):
    rows = db.sql(
        "SELECT g, CASE WHEN sum(x) > 3 THEN 'big' ELSE 'small' END AS size "
        "FROM t GROUP BY g ORDER BY g"
    )
    assert [row["size"] for row in rows] == ["small", "small", "small", "big", "big"]


def test_function_of_an_aggregate(db):
    rows = db.sql("SELECT g, abs(sum(x - 2)) AS a FROM t GROUP BY g ORDER BY g")
    # sum(x - 2) = g(g+1)/2 - 2(g+1): -2, -3, -3, -2, 0
    assert [row["a"] for row in rows] == [2, 3, 3, 2, 0]


# -- one rule for ORDER BY positions, one check for grouped columns ----------


@pytest.mark.parametrize("position", [0, 3])
def test_grouped_order_by_position_out_of_range(db, position):
    with pytest.raises(SqlAnalysisError, match="out of range"):
        db.sql(f"SELECT g, count(*) FROM t GROUP BY g ORDER BY {position}")


def test_window_order_by_position_out_of_range(db):
    with pytest.raises(SqlAnalysisError, match="out of range"):
        db.sql("SELECT x, rank() OVER (ORDER BY x) AS r FROM t ORDER BY 3")


@pytest.mark.parametrize("clause", [
    "GROUP BY x HAVING g % 2 NOT IN (0)",
    "GROUP BY g % 3 HAVING g % 2 NOT IN (0)",
    "GROUP BY x ORDER BY g",
])
def test_a_column_outside_group_by_is_refused_at_analysis(db, clause):
    with pytest.raises(SqlAnalysisError, match="must appear in GROUP BY"):
        analyze(db, f"SELECT count(*) AS n FROM t {clause}")
