"""A join condition is one decision: every spelling of a join gets the
answer of a nested loop over its tables, and equal queries get one plan.

On a 3-node database, ``a`` (40 rows, ``x = i % 7``), ``b`` (30 rows,
``y = j % 5``) and ``c`` (20 rows, ``z = k % 3``).  Each test computes
its answer with a nested loop here, in plain Python:

* a three-table chain, written with commas and WHERE or with JOIN ... ON,
  with and without a conjunct that is no key (``a.id < c.kd``), and one
  whose second key is a column of the first join's inner side;
* a LEFT JOIN whose ON holds a key and a non-key conjunct: a row whose
  pairs the conjunct rejects all is NULL-extended, not lost;
* SEMI and ANTI joins with such a conjunct, which reads the inner side;
* the EXPLAIN text of two spellings of one query, which must be equal;
* an ON clause naming a table joined after it, which analysis refuses.
"""

import pytest

from repro import ColumnDef, Database, TableDefinition, types
from repro.errors import SqlAnalysisError

A = [(i, i % 7) for i in range(40)]
B = [(j, j % 5) for j in range(30)]
C = [(k, k % 3) for k in range(20)]


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(
        str(tmp_path_factory.mktemp("conditions") / "db"), node_count=3, k_safety=1,
        durable=False,
    )
    for name, key, value, rows in (("a", "id", "x", A), ("b", "jd", "y", B), ("c", "kd", "z", C)):
        db.create_table(
            TableDefinition(
                name,
                [ColumnDef(key, types.INTEGER), ColumnDef(value, types.INTEGER)],
                primary_key=(key,),
            )
        )
        db.load(name, [{key: k, value: v} for k, v in rows])
    db.analyze_statistics()
    return db


def answer(rows, names):
    return sorted(tuple(row[name] for name in names) for row in rows)


CHAINS = {
    "commas": "SELECT a.id, b.jd, c.kd FROM a, b, c WHERE a.x = b.y AND b.y = c.z",
    "on": "SELECT a.id, b.jd, c.kd FROM a JOIN b ON a.x = b.y JOIN c ON b.y = c.z",
}


@pytest.mark.parametrize("spelling", list(CHAINS))
@pytest.mark.parametrize("non_key", [False, True])
def test_a_three_table_chain_is_the_nested_loop(db, spelling, non_key):
    sql = CHAINS[spelling] + (" AND a.id < c.kd" if non_key else "")
    want = sorted(
        (i, j, k)
        for i, x in A for j, y in B for k, z in C
        if x == y and y == z and (i < k or not non_key)
    )
    assert len(want) == (198 if non_key else 720)
    assert answer(db.sql(sql), ["id", "jd", "kd"]) == want


def test_a_chain_keyed_on_its_first_joins_inner_side_is_the_nested_loop(db):
    """The second join's key is ``c.z``, which the first join's inner
    side emits: the probe's scan (``b``) has no such column to take a SIP
    filter on."""
    sql = "SELECT a.id, b.jd, c.kd FROM a, b, c WHERE a.x = c.z AND b.y = c.z"
    want = sorted(
        (i, j, k) for i, x in A for j, y in B for k, z in C if x == z and y == z
    )
    assert answer(db.sql(sql), ["id", "jd", "kd"]) == want


def test_a_left_join_keeps_the_rows_its_non_key_conjunct_rejects(db):
    rows = db.sql("SELECT a.id, b.jd FROM a LEFT JOIN b ON a.x = b.y AND a.id < b.jd")
    want = [(i, j) for i, x in A for j, y in B if x == y and i < j]
    want += [(i, None) for i, x in A if not any(x == y and i < j for j, y in B)]
    assert len(want) == 85
    key = lambda pair: tuple((v is None, v or 0) for v in pair)  # noqa: E731
    assert sorted(((r["id"], r["jd"]) for r in rows), key=key) == sorted(want, key=key)


@pytest.mark.parametrize("join_type", ["SEMI", "ANTI"])
def test_semi_and_anti_decide_on_the_pairs_the_residual_keeps(db, join_type):
    rows = db.sql(f"SELECT a.id FROM a {join_type} JOIN b ON a.x = b.y AND a.id < b.jd")
    want = [
        i for i, x in A
        if any(x == y and i < j for j, y in B) == (join_type == "SEMI")
    ]
    assert len(want) == 20
    assert sorted(row["id"] for row in rows) == want


def test_explain_and_the_profile_show_the_residual(db):
    sql = "SELECT a.id, b.jd FROM a LEFT JOIN b ON a.x = b.y AND a.id < b.jd"
    assert "HashJoin[LEFT] (x=y) broadcast_inner residual (id < jd)" in db.sql("EXPLAIN " + sql)
    assert "HashJoin[LEFT](x=y) residual (id < jd)" in db.sql("EXPLAIN ANALYZE " + sql)


def plan_of(db, sql):
    return db.sql("EXPLAIN " + sql)


def test_an_expression_equi_join_in_where_is_keyed_like_on(db):
    where = plan_of(db, "SELECT a.id, b.jd FROM a, b WHERE a.x + 1 = b.y")
    on = plan_of(db, "SELECT a.id, b.jd FROM a JOIN b ON a.x + 1 = b.y")
    assert where == on
    assert "((x + 1)=y)" in on
    assert "Filter" not in on


def test_a_one_sided_on_conjunct_prunes_in_the_scan_like_where(db):
    on = plan_of(db, "SELECT a.id, b.jd FROM a JOIN b ON a.x = b.y AND a.id = 3")
    where = plan_of(db, "SELECT a.id, b.jd FROM a, b WHERE a.x = b.y AND a.id = 3")
    assert on == where
    assert "Scan a_super [id, x] WHERE (id = 3)" in on
    assert "Filter" not in on


def test_an_on_clause_reads_only_the_tables_joined_so_far(db):
    with pytest.raises(SqlAnalysisError, match="ON clause"):
        db.sql("SELECT a.id FROM a LEFT JOIN b ON a.x = c.z JOIN c ON b.y = c.z")
