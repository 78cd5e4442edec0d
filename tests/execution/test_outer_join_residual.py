"""An outer join's non-equi ON conjunct decides what matched.

``a.x < b.y`` is no equi-key: it is the join's residual, which the
join evaluates on its candidate pairs, so a row whose pairs it rejects
all is NULL-extended, not lost.  On ``a`` (40 rows, ``x = i % 7``) and
``b`` (30 rows, ``y = j % 5``) 360 pairs match, 16 rows of ``a`` match
nothing (``x`` of 4, 5 or 6) and 6 rows of ``b`` match nothing (``y``
of 0).  The nested loop below is the definition.
"""

import pytest

from repro import ColumnDef, Database, TableDefinition, types

@pytest.fixture(scope="module")
def db(tmp_path_factory):
    db = Database(
        str(tmp_path_factory.mktemp("residual") / "db"), node_count=3, k_safety=1,
        durable=False,
    )
    for name, key, value in (("a", "id", "x"), ("b", "jd", "y")):
        db.create_table(
            TableDefinition(
                name,
                [ColumnDef(key, types.INTEGER), ColumnDef(value, types.INTEGER)],
                primary_key=(key,),
            )
        )
    db.load("a", [{"id": i, "x": i % 7} for i in range(40)])
    db.load("b", [{"jd": j, "y": j % 5} for j in range(30)])
    db.analyze_statistics()
    return db


def nested_loop(join_type):
    a = [(i, i % 7) for i in range(40)]
    b = [(j, j % 5) for j in range(30)]
    out = [(i, j) for i, x in a for j, y in b if x < y]
    if join_type in ("LEFT", "FULL"):
        out += [(i, None) for i, x in a if not any(x < y for _, y in b)]
    if join_type in ("RIGHT", "FULL"):
        out += [(None, j) for j, y in b if not any(x < y for _, x in a)]
    return out


@pytest.mark.parametrize("join_type", ["INNER", "LEFT", "RIGHT", "FULL"])
def test_a_non_equi_on_conjunct_keeps_the_unmatched_rows(db, join_type):
    rows = db.sql(f"SELECT a.id, b.jd FROM a {join_type} JOIN b ON a.x < b.y")
    want = nested_loop(join_type)
    assert len(want) == {"INNER": 360, "LEFT": 376, "RIGHT": 366, "FULL": 382}[join_type]
    key = lambda pair: tuple((v is None, v) for v in pair)  # noqa: E731
    assert sorted(((r["id"], r["jd"]) for r in rows), key=key) == sorted(want, key=key)
