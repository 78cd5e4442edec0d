"""Differential SQL fuzzing: the engine vs. a plain-Python oracle.

A seeded generator produces random SELECTs (filters, group-bys by a
column or an expression, aggregates including COUNT(DISTINCT),
order-bys, limits) over the meters workload of section 8.2.2.  Grouped
draws add a HAVING built from WHERE's shapes (NOT BETWEEN, NOT IN, IS
NULL over a CASE, arithmetic, AND / OR / NOT) over aggregates and the
group key, a select expression computed after the grouping (a function
of an aggregate, a CASE over one) and an ORDER BY by position, alias or
expression; window draws order by position, alias or expression too.  Every
query is built twice from the same random draws: once as SQL text for
the engine (parse -> analyze -> optimize -> distributed execution over
WOS + ROS containers) and once as plain Python over the in-memory row
list, and the two answers must match row-for-row.  The predicates mix
the shapes the kernels specialise (sort-prefix seeks, dictionary and
RLE comparisons, IN, BETWEEN) with ones only the generic leaf takes
(arithmetic, a column against a column, a function) under AND / OR /
NOT, so a selection bitmap, RLE run arithmetic, a dictionary code or a
seek window that the generic leaf then reads wrongly shows up here.

Floating-point SUM/AVG are compared with a tiny relative tolerance:
the distributed executor adds partials in segment order, the oracle in
row order, RLE run arithmetic multiplies where the row path adds, and
float addition is not associative.  Everything else — row content,
grouping, ordering, limits — must be exact.

Each seed drives >= 200 queries; the whole suite is deterministic.
The seed list extends via ``REPRO_FUZZ_SEEDS`` (comma-separated ints),
which is how ``tools/check.sh`` mixes in a git-SHA-derived seed so the
corpus drifts with the tree while staying reproducible per commit.

Edge-shape tables round out the corpus with the block layouts most
likely to break operate-on-compressed kernels: NULL-heavy columns
(encoded vectors must decay to plain), an all-rows-deleted table
(empty selections everywhere), and a single-run RLE column (one run
spanning every block).
"""

import math
import os
import random

import pytest

from repro import types
from repro.core.database import Database
from repro.core.schema import ColumnDef, TableDefinition
from repro.execution import Literal
from repro.workloads.meters import generate, meters_table, spec_for_rows

DATA_SEED = 3
QUERIES_PER_SEED = 220


def _fuzz_seeds() -> tuple:
    """Base seeds plus any from REPRO_FUZZ_SEEDS (comma-separated)."""
    seeds = [11, 23]
    raw = os.environ.get("REPRO_FUZZ_SEEDS", "")
    for part in raw.split(","):
        part = part.strip()
        if part and int(part) not in seeds:
            seeds.append(int(part))
    return tuple(seeds)


FUZZ_SEEDS = _fuzz_seeds()

TABLE = "meter_readings"
COLUMNS = ("metric", "meter", "ts", "value")


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """One meters database plus the raw rows the oracle works from."""
    rows = list(generate(spec_for_rows(2000, seed=DATA_SEED)))
    db = Database(
        str(tmp_path_factory.mktemp("fuzz") / "db"), node_count=3, k_safety=1
    )
    db.create_table(meters_table(), sort_order=["metric", "meter", "ts"])
    db.load(TABLE, rows)
    db.run_tuple_movers()
    db.analyze_statistics()
    return db, rows


# -- predicate generator -------------------------------------------------

def _atom(rng, rows):
    """One random comparison: returns (sql_text, python_predicate).
    Kinds 0-5 have a specialised kernel leaf; 6-9 compile to the
    generic one."""
    kind = rng.randrange(10)
    sample = rng.choice(rows)
    if kind == 0:
        op = rng.choice(["<", "<=", ">", ">=", "="])
        k = sample["meter"]
        return f"meter {op} {k}", _cmp("meter", op, k)
    if kind == 1:
        op = rng.choice(["<", ">=", "="])
        t = sample["ts"]
        return f"ts {op} {t}", _cmp("ts", op, t)
    if kind == 2:
        op = rng.choice(["<", ">"])
        v = round(rng.uniform(-100.0, 150.0), 2)
        return f"value {op} {v}", _cmp("value", op, v)
    if kind == 3:
        name = sample["metric"]
        return f"metric = '{name}'", lambda r, n=name: r["metric"] == n
    if kind == 4:
        names = sorted({rng.choice(rows)["metric"] for _ in range(3)})
        quoted = ", ".join(f"'{n}'" for n in names)
        chosen = set(names)
        return (
            f"metric IN ({quoted})",
            lambda r, s=chosen: r["metric"] in s,
        )
    if kind == 6:
        c = round(rng.uniform(-100.0, 300.0), 2)
        return f"value * 2 > {c}", lambda r, c=c: r["value"] * 2 > c
    if kind == 7:
        rest = rng.randrange(3)
        return f"meter % 3 = {rest}", lambda r, m=rest: r["meter"] % 3 == m
    if kind == 8:
        return "meter < ts", lambda r: r["meter"] < r["ts"]
    if kind == 9:
        c = round(rng.uniform(0.0, 120.0), 2)
        return f"ABS(value) < {c}", lambda r, c=c: abs(r["value"]) < c
    low = min(sample["meter"], sample["meter"] + rng.randrange(5))
    high = low + rng.randrange(8)
    return (
        f"meter BETWEEN {low} AND {high}",
        lambda r, lo=low, hi=high: lo <= r["meter"] <= hi,
    )


def _cmp(column, op, constant):
    checks = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "=": lambda a, b: a == b,
    }
    return lambda r, f=checks[op], c=constant: f(r[column], c)


def _predicate(rng, rows):
    """1-3 atoms joined with AND/OR, possibly negated."""
    count = 1 + rng.randrange(3)
    sql_parts, fns = [], []
    for _ in range(count):
        text, fn = _atom(rng, rows)
        sql_parts.append(f"({text})")
        fns.append(fn)
    connector = rng.choice(["AND", "OR"])
    sql = f" {connector} ".join(sql_parts)
    if connector == "AND":
        combined = lambda r, fs=fns: all(f(r) for f in fs)  # noqa: E731
    else:
        combined = lambda r, fs=fns: any(f(r) for f in fs)  # noqa: E731
    if rng.random() < 0.2:
        sql = f"NOT ({sql})"
        inner = combined
        combined = lambda r, f=inner: not f(r)  # noqa: E731
    return sql, combined


# -- oracles -------------------------------------------------------------

def _oracle_rows(rows, pred, limit):
    kept = [dict(r) for r in rows if pred(r)]
    kept.sort(key=lambda r: (r["metric"], r["meter"], r["ts"]))
    return kept if limit is None else kept[:limit]


def _oracle_global_agg(rows, pred):
    kept = [r for r in rows if pred(r)]
    return [
        {
            "n": len(kept),
            "mn": min((r["ts"] for r in kept), default=None),
            "mx": max((r["ts"] for r in kept), default=None),
            "sv": sum(r["value"] for r in kept) if kept else None,
        }
    ]


def _oracle_group_by(rows, pred, name, key):
    """``name`` is the output column of the group key ``key(row)``."""
    groups: dict = {}
    for r in rows:
        if pred(r):
            bucket = groups.setdefault(key(r), [0, 0.0, None])
            bucket[0] += 1
            bucket[1] += r["value"]
            bucket[2] = (
                r["ts"] if bucket[2] is None else max(bucket[2], r["ts"])
            )
    return [
        {name: k, "n": n, "sv": sv, "mx": mx}
        for k, (n, sv, mx) in sorted(groups.items())
    ]


def _oracle_count_distinct(rows, pred):
    meters: dict = {}
    for r in rows:
        if pred(r):
            meters.setdefault(r["metric"], set()).add(r["meter"])
    return [{"metric": m, "n": len(ms)} for m, ms in sorted(meters.items())]


def _close(a, b):
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)
    return a == b


def _rows_match(got, want):
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if set(g) != set(w):
            return False
        if not all(_close(g[name], w[name]) for name in w):
            return False
    return True


# -- grouped and window draws --------------------------------------------

#: Group keys: (SQL, the key of a row).
GROUP_KEYS = (
    ("metric", lambda r: r["metric"]),
    ("meter", lambda r: r["meter"]),
    ("meter % 3", lambda r: r["meter"] % 3),
)

#: Integer aggregates a HAVING may test: (SQL, name in ``_groups``).
HAVING_AGGREGATES = (
    ("COUNT(*)", "n"), ("SUM(meter)", "sm"), ("MAX(ts)", "mx"), ("MIN(ts)", "mn"),
)


def _groups(rows, pred, key):
    """Per group key: the aggregates a grouped draw reads."""
    members: dict = {}
    for r in rows:
        if pred(r):
            members.setdefault(key(r), []).append(r)
    return {
        k: {
            "k": k,
            "n": len(g),
            "sm": sum(r["meter"] for r in g),
            "mx": max(r["ts"] for r in g),
            "mn": min(r["ts"] for r in g),
            "sv": sum(r["value"] for r in g),
        }
        for k, g in members.items()
    }


def _key_atom(rng, key_sql, groups):
    """A HAVING test of the group key itself."""
    sample = rng.choice(sorted(groups))
    negated = rng.random() < 0.5
    word = "NOT " if negated else ""
    if key_sql == "metric":
        chosen = sorted({sample, rng.choice(sorted(groups))})
        quoted = ", ".join(f"'{m}'" for m in chosen)
        return (f"metric {word}IN ({quoted})",
                lambda g, c=set(chosen), n=negated: (g["k"] in c) != n)
    if rng.random() < 0.5:
        low, high = sample, sample + rng.randrange(6)
        return (f"{key_sql} {word}BETWEEN {low} AND {high}",
                lambda g, lo=low, hi=high, n=negated: (lo <= g["k"] <= hi) != n)
    rest = rng.randrange(2)
    return (f"{key_sql} % 2 {word}IN ({rest})",
            lambda g, m=rest, n=negated: (g["k"] % 2 == m) != n)


def _having_atom(rng, key_sql, groups):
    """One HAVING test over aggregates or the key: (SQL, test of a group)."""
    if not groups:
        return "COUNT(*) > 0", lambda g: g["n"] > 0
    sample = rng.choice([groups[k] for k in sorted(groups)])
    agg, name = rng.choice(HAVING_AGGREGATES)
    c = sample[name] + rng.randrange(-2, 3)
    kind = rng.randrange(6)
    if kind == 0:
        op = rng.choice(["<", "<=", ">", ">=", "="])
        return f"{agg} {op} {c}", lambda g, f=_cmp(name, op, c): f(g)
    if kind == 1:
        negated = rng.random() < 0.7
        low, high = c - rng.randrange(4), c + rng.randrange(4)
        return (f"{agg} {'NOT ' if negated else ''}BETWEEN {low} AND {high}",
                lambda g, a=name, lo=low, hi=high, n=negated: (lo <= g[a] <= hi) != n)
    if kind == 2:
        rests = sorted({rng.randrange(3), rng.randrange(3)})
        negated = rng.random() < 0.7
        listed = ", ".join(map(str, rests))
        return (f"{agg} % 3 {'NOT ' if negated else ''}IN ({listed})",
                lambda g, a=name, r=set(rests), n=negated: (g[a] % 3 in r) != n)
    if kind == 3:
        negated = rng.random() < 0.5
        return (f"CASE WHEN {agg} > {c} THEN MAX(ts) END IS {'NOT ' if negated else ''}NULL",
                lambda g, a=name, c=c, n=negated: (g[a] > c) == n)
    if kind == 4:
        spread = sample["mx"] - sample["mn"] + rng.randrange(-1, 2)
        return (f"MAX(ts) - MIN(ts) + COUNT(*) * 0 >= {spread}",
                lambda g, s=spread: g["mx"] - g["mn"] >= s)
    return _key_atom(rng, key_sql, groups)


def _having(rng, key_sql, groups):
    """1-3 HAVING atoms joined with AND/OR, possibly negated."""
    atoms = [_having_atom(rng, key_sql, groups) for _ in range(1 + rng.randrange(3))]
    connector = rng.choice(["AND", "OR"])
    sql = f" {connector} ".join(f"({text})" for text, _ in atoms)
    join = all if connector == "AND" else any
    test = lambda g, ts=[t for _, t in atoms], j=join: j(t(g) for t in ts)  # noqa: E731
    if rng.random() < 0.25:
        return f"NOT ({sql})", lambda g, t=test: not t(g)
    return sql, test


def _post_group_select(rng, key_sql, groups):
    """A select expression computed after the grouping: (SQL, its value
    for a group, whether that value is a number)."""
    c = rng.choice([groups[k] for k in sorted(groups)])["sm"] if groups else 0
    kind = rng.randrange(4)
    if kind == 0:
        return f"ABS(SUM(meter) - {c})", lambda g, c=c: abs(g["sm"] - c), True
    if kind == 1:
        n = rng.randrange(1, 80)
        return (f"CASE WHEN COUNT(*) > {n} THEN 'many' ELSE 'few' END",
                lambda g, n=n: "many" if g["n"] > n else "few", False)
    if kind == 2 and key_sql != "metric":
        return (f"({key_sql}) * 1000 + COUNT(*)",
                lambda g: g["k"] * 1000 + g["n"], True)
    return "MAX(ts) - MIN(ts)", lambda g: g["mx"] - g["mn"], True


def _grouped_query(rng, rows, where_sql, pred):
    """GROUP BY + HAVING + a post-group expression + ORDER BY by
    position, alias or expression (the key breaks every tie)."""
    key_sql, key = rng.choice(GROUP_KEYS)
    groups = _groups(rows, pred, key)
    having_sql, keep = _having(rng, key_sql, groups)
    f_sql, f_of, numeric = _post_group_select(rng, key_sql, groups)
    order = rng.randrange(5)
    if order == 0:
        order_sql, sort_key = "2 DESC, 1", lambda g: (-g["n"], g["k"])
    elif order == 1:
        order_sql, sort_key = "f, k", lambda g, f=f_of: (f(g), g["k"])
    elif order == 2 and numeric:
        order_sql, sort_key = "4 DESC, k", lambda g, f=f_of: (-f(g), g["k"])
    elif order == 3:
        order_sql, sort_key = f"MAX(ts) DESC, {key_sql}", lambda g: (-g["mx"], g["k"])
    else:
        order_sql, sort_key = f"COUNT(*) % 5, {key_sql}", lambda g: (g["n"] % 5, g["k"])
    limit = rng.choice([None, None, 3])
    sql = (
        f"SELECT {key_sql} AS k, COUNT(*) AS n, SUM(value) AS sv, {f_sql} AS f "
        f"FROM {TABLE} WHERE {where_sql} GROUP BY {key_sql} "
        f"HAVING {having_sql} ORDER BY {order_sql}"
    )
    kept = sorted((g for g in groups.values() if keep(g)), key=sort_key)
    if limit is not None:
        sql += f" LIMIT {limit}"
        kept = kept[:limit]
    return sql, [{"k": g["k"], "n": g["n"], "sv": g["sv"], "f": f_of(g)} for g in kept]


#: Window functions over PARTITION BY metric: (SQL call, OVER's ORDER
#: BY, the value of row ``r`` among its partition ``part``).
WINDOWS = (
    ("ROW_NUMBER()", "ts, meter",
     lambda r, part: sum((p["ts"], p["meter"]) <= (r["ts"], r["meter"]) for p in part)),
    ("RANK()", "ts", lambda r, part: 1 + sum(p["ts"] < r["ts"] for p in part)),
    ("DENSE_RANK()", "ts DESC",
     lambda r, part: 1 + len({p["ts"] for p in part if p["ts"] > r["ts"]})),
    ("SUM(meter)", "ts", lambda r, part: sum(p["meter"] for p in part if p["ts"] <= r["ts"])),
    ("COUNT(*)", None, lambda r, part: len(part)),
)


def _window_query(rng, rows, where_sql, pred):
    """A window function with ORDER BY by position, alias or expression
    (metric, meter, ts break every tie)."""
    call, over_order, value = rng.choice(WINDOWS)
    over = "PARTITION BY metric" + (f" ORDER BY {over_order}" if over_order else "")
    order = rng.randrange(3)
    if order == 0:
        order_sql, sort_key = "4 DESC, 1, 2, 3", lambda r: (-r["w"], r["metric"], r["meter"], r["ts"])
    elif order == 1:
        order_sql, sort_key = "w, metric, meter, ts", lambda r: (r["w"], r["metric"], r["meter"], r["ts"])
    else:
        order_sql = "ts - meter * 100, metric, meter, ts"
        sort_key = lambda r: (r["ts"] - r["meter"] * 100, r["metric"], r["meter"], r["ts"])  # noqa: E731
    sql = (
        f"SELECT metric, meter, ts, {call} OVER ({over}) AS w FROM {TABLE} "
        f"WHERE {where_sql} ORDER BY {order_sql} LIMIT 25"
    )
    kept = [r for r in rows if pred(r)]
    partitions: dict = {}
    for r in kept:
        partitions.setdefault(r["metric"], []).append(r)
    out = [
        {"metric": r["metric"], "meter": r["meter"], "ts": r["ts"],
         "w": value(r, partitions[r["metric"]])}
        for r in kept
    ]
    return sql, sorted(out, key=sort_key)[:25]


# -- the fuzz loop -------------------------------------------------------

def _one_query(rng, rows):
    """Draw one random query: returns (sql, expected_rows)."""
    where_sql, pred = _predicate(rng, rows)
    shape = rng.randrange(9)
    if shape in (6, 7):
        return _grouped_query(rng, rows, where_sql, pred)
    if shape == 8:
        return _window_query(rng, rows, where_sql, pred)
    if shape == 0:
        limit = rng.choice([None, None, 5, 40])
        sql = (
            f"SELECT metric, meter, ts, value FROM {TABLE} "
            f"WHERE {where_sql} ORDER BY metric, meter, ts"
        )
        if limit is not None:
            sql += f" LIMIT {limit}"
        return sql, _oracle_rows(rows, pred, limit)
    if shape == 1:
        sql = (
            f"SELECT COUNT(*) AS n, MIN(ts) AS mn, MAX(ts) AS mx, "
            f"SUM(value) AS sv FROM {TABLE} WHERE {where_sql}"
        )
        return sql, _oracle_global_agg(rows, pred)
    if shape == 4:
        sql = (
            f"SELECT meter % 3 AS b, COUNT(*) AS n, SUM(value) AS sv, MAX(ts) AS mx "
            f"FROM {TABLE} WHERE {where_sql} GROUP BY meter % 3 ORDER BY b"
        )
        return sql, _oracle_group_by(rows, pred, "b", lambda r: r["meter"] % 3)
    if shape == 5:
        sql = (
            f"SELECT metric, COUNT(DISTINCT meter) AS n FROM {TABLE} "
            f"WHERE {where_sql} GROUP BY metric ORDER BY metric"
        )
        return sql, _oracle_count_distinct(rows, pred)
    key = "metric" if shape == 2 else "meter"
    sql = (
        f"SELECT {key}, COUNT(*) AS n, SUM(value) AS sv, MAX(ts) AS mx "
        f"FROM {TABLE} WHERE {where_sql} GROUP BY {key} ORDER BY {key}"
    )
    return sql, _oracle_group_by(rows, pred, key, lambda r, k=key: r[k])


@pytest.mark.parametrize("fuzz_seed", FUZZ_SEEDS)
def test_engine_matches_oracle(loaded, fuzz_seed):
    """The engine vs. the oracle over the fuzz corpus."""
    db, rows = loaded
    rng = random.Random(fuzz_seed)
    for index in range(QUERIES_PER_SEED):
        sql, expected = _one_query(rng, rows)
        got = db.sql(sql)
        assert _rows_match(got, expected), (
            f"seed {fuzz_seed} query {index} diverged from oracle\n"
            f"  sql: {sql}\n  engine({len(got)}): {got[:3]}\n"
            f"  oracle({len(expected)}): {expected[:3]}"
        )


def test_fuzz_is_deterministic(loaded):
    """The same seed draws the same query sequence."""
    _, rows = loaded
    first = [_one_query(random.Random(99), rows)[0] for _ in range(25)]
    second = [_one_query(random.Random(99), rows)[0] for _ in range(25)]
    assert first == second


# -- edge-shape tables ---------------------------------------------------
#
# Block layouts the fuzz corpus can't produce but kernels must survive:
# NULL-riddled columns, a table whose every row is deleted, and a
# column that is one giant RLE run.

EDGE_ROWS = 600


@pytest.fixture(scope="module")
def edge_db(tmp_path_factory):
    db = Database(str(tmp_path_factory.mktemp("edge") / "db"), node_count=1)
    db.create_table(
        TableDefinition(
            "nulls_heavy",
            [
                ColumnDef("k", types.INTEGER),
                ColumnDef("tag", types.VARCHAR),
                ColumnDef("value", types.FLOAT),
            ],
        ),
        sort_order=["k"],
    )
    db.load("nulls_heavy", _nulls_heavy_rows())
    db.create_table(
        TableDefinition(
            "deleted_all",
            [ColumnDef("k", types.INTEGER), ColumnDef("v", types.FLOAT)],
        ),
        sort_order=["k"],
    )
    db.load(
        "deleted_all",
        [{"k": i, "v": float(i)} for i in range(EDGE_ROWS)],
    )
    session = db.session()
    session.delete("deleted_all", Literal(True))
    session.commit()
    db.create_table(
        TableDefinition(
            "single_run",
            [ColumnDef("flag", types.INTEGER), ColumnDef("v", types.FLOAT)],
        ),
        sort_order=["flag"],
        encodings={"flag": "RLE"},
    )
    db.load("single_run", EDGE_SQL["single_run"][0])
    db.run_tuple_movers()
    return db


def _keep(rows, test):
    return [row for row in rows if test(row)]


def _sum(values):
    values = [value for value in values if value is not None]
    return sum(values) if values else None


def _nulls_heavy_rows():
    return [
        {
            "k": i,
            "tag": None if i % 3 == 0 else ["red", "blue"][i % 2],
            "value": None if i % 2 == 0 else float(i),
        }
        for i in range(EDGE_ROWS)
    ]


def _tagged(rows):
    out: dict = {}
    for row in _keep(rows, lambda r: r["tag"] is not None):
        out.setdefault(row["tag"], []).append(row)
    return [
        {"tag": tag, "n": len(members), "sv": _sum(r["value"] for r in members)}
        for tag, members in sorted(out.items())
    ]


#: Per table: its visible rows, and (SQL, the answer from those rows)
#: pairs.  Rows are generated in ``k`` / load order, which every ORDER BY
#: here follows.
EDGE_SQL = {
    "nulls_heavy": (_nulls_heavy_rows(), [
        ("SELECT k, tag, value FROM nulls_heavy WHERE value > 100.0 "
         "ORDER BY k LIMIT 20",
         lambda rows: _keep(rows, lambda r: r["value"] is not None and r["value"] > 100.0)[:20]),
        ("SELECT k FROM nulls_heavy WHERE value IS NULL AND k < 50 ORDER BY k",
         lambda rows: [{"k": r["k"]} for r in rows if r["value"] is None and r["k"] < 50]),
        ("SELECT k FROM nulls_heavy WHERE tag IS NOT NULL AND k >= 580 ORDER BY k",
         lambda rows: [{"k": r["k"]} for r in rows if r["tag"] is not None and r["k"] >= 580]),
        ("SELECT COUNT(*) AS n, SUM(value) AS sv, MIN(value) AS mn "
         "FROM nulls_heavy WHERE tag = 'red'",
         lambda rows: [{
             "n": len(_keep(rows, lambda r: r["tag"] == "red")),
             "sv": _sum(r["value"] for r in rows if r["tag"] == "red"),
             "mn": min((r["value"] for r in rows
                        if r["tag"] == "red" and r["value"] is not None), default=None),
         }]),
        ("SELECT tag, COUNT(*) AS n, SUM(value) AS sv FROM nulls_heavy "
         "WHERE tag IS NOT NULL GROUP BY tag ORDER BY tag", _tagged),
        ("SELECT k FROM nulls_heavy WHERE tag IN ('red', 'green') "
         "AND value > 550.0 ORDER BY k",
         lambda rows: [{"k": r["k"]} for r in rows if r["tag"] in ("red", "green")
                       and r["value"] is not None and r["value"] > 550.0]),
        ("SELECT COUNT(*) AS n FROM nulls_heavy WHERE NOT (tag = 'blue')",
         lambda rows: [{"n": len(_keep(rows, lambda r: r["tag"] not in (None, "blue")))}]),
        # the generic leaf over NULLs: NULL arithmetic is NULL, and NOT
        # of NULL is NULL — neither passes
        ("SELECT k FROM nulls_heavy WHERE value * 2 > k + 500 ORDER BY k",
         lambda rows: [{"k": r["k"]} for r in rows
                       if r["value"] is not None and r["value"] * 2 > r["k"] + 500]),
        ("SELECT COUNT(*) AS n FROM nulls_heavy WHERE NOT (value * 2 > k + 500) "
         "AND k < 400",
         lambda rows: [{"n": len(_keep(rows, lambda r: r["value"] is not None
                                       and r["k"] < 400
                                       and not r["value"] * 2 > r["k"] + 500))}]),
    ]),
    "deleted_all": ([], [
        ("SELECT k, v FROM deleted_all WHERE k > 0 ORDER BY k", lambda rows: []),
        ("SELECT COUNT(*) AS n, SUM(v) AS sv FROM deleted_all",
         lambda rows: [{"n": 0, "sv": None}]),
        ("SELECT k, COUNT(*) AS n FROM deleted_all GROUP BY k ORDER BY k",
         lambda rows: []),
        ("SELECT k FROM deleted_all WHERE v BETWEEN 1.0 AND 9.0 ORDER BY k",
         lambda rows: []),
    ]),
    "single_run": ([{"flag": 7, "v": float(i % 50)} for i in range(EDGE_ROWS)], [
        ("SELECT COUNT(*) AS n FROM single_run WHERE flag = 7",
         lambda rows: [{"n": len(rows)}]),
        ("SELECT COUNT(*) AS n FROM single_run WHERE flag < 7", lambda rows: [{"n": 0}]),
        ("SELECT flag, COUNT(*) AS n, SUM(v) AS sv FROM single_run "
         "GROUP BY flag ORDER BY flag",
         lambda rows: [{"flag": 7, "n": len(rows), "sv": _sum(r["v"] for r in rows)}]),
        ("SELECT COUNT(*) AS n, SUM(v) AS sv FROM single_run "
         "WHERE flag BETWEEN 5 AND 9",
         lambda rows: [{"n": len(rows), "sv": _sum(r["v"] for r in rows)}]),
        ("SELECT v FROM single_run WHERE flag = 7 AND v = 49.0 "
         "ORDER BY v LIMIT 5",
         lambda rows: [{"v": r["v"]} for r in rows if r["v"] == 49.0][:5]),
    ]),
}


@pytest.mark.parametrize("table", sorted(EDGE_SQL))
def test_edge_tables_kernel_vs_row(edge_db, table):
    """The kernels agree row-for-row with a row-at-a-time oracle on the
    hostile block layouts."""
    rows, battery = EDGE_SQL[table]
    for sql, oracle in battery:
        got, want = edge_db.sql(sql), oracle(rows)
        assert _rows_match(got, want), (
            f"divergence from the oracle\n  sql: {sql}\n"
            f"  engine({len(got)}): {got[:3]}\n"
            f"  oracle({len(want)}): {want[:3]}"
        )


def test_edge_tables_pinned_shapes(edge_db):
    """Spot-check absolute answers, written out by hand."""
    assert edge_db.sql("SELECT COUNT(*) AS n FROM deleted_all") == [{"n": 0}]
    assert edge_db.sql("SELECT k FROM deleted_all WHERE k >= 0") == []
    rows = edge_db.sql("SELECT COUNT(*) AS n FROM single_run WHERE flag = 7")
    assert rows == [{"n": EDGE_ROWS}]
    rows = edge_db.sql(
        "SELECT COUNT(*) AS n, SUM(value) AS sv FROM nulls_heavy"
    )
    assert rows[0]["n"] == EDGE_ROWS
    assert rows[0]["sv"] == sum(i for i in range(EDGE_ROWS) if i % 2)
