"""Every join flavour, every way a join can run, against a nested loop.

The oracle below is the definition: a key whose part is NULL never
matches, and two values match when they are the same object or ``==``
— so ``1`` / ``1.0`` / ``True`` match, ``0.0`` / ``-0.0`` match, and a
NaN matches only itself (a dict's rule, which the hash join keeps).  For
INNER / LEFT / RIGHT / FULL / SEMI / ANTI, single- and two-column keys,
duplicates on both sides and empty inputs, these must all equal it:

* the hash join alone;
* three hash-join fragments sharing one build, as the executor runs a
  broadcast inner — they split the probe rows, except under RIGHT /
  FULL, where the planner never splits the probe against a whole inner
  (``test_preserved_inner_is_split.py``) and each fragment probes all;
* the hash join under a one-row build budget, which switches to a
  sort-merge join;
* ``MergeJoinOperator`` over sorted inputs, as the executor feeds it.

Each of those draws a residual too — a conjunct that is no key, which
the join evaluates on the pairs its keys find: only a pair it holds on
matches, so a preserved row whose pairs it rejects all is NULL-extended
and SEMI / ANTI decide on the pairs it keeps.

The merge-based runs draw NaN too: the sort under them puts every NaN
after every number, so two NaNs meet in one run of the walk, and there a
NaN still matches only itself.  Probe keys also arrive
RLE-, dictionary- and plain-coded through a real ``ScanOperator`` (with
and without a SIP filter), and one probe block fans out past
``VECTOR_SIZE`` output rows.

Through a 3-node ``Database`` the same keys sit in INTEGER, FLOAT and
BOOLEAN columns, and INNER / LEFT / FULL joins between them must equal
the oracle whether the plan is co-located (both tables segmented on the
join key), broadcasts the inner or resegments both sides: each of those
places a row by its key's ring position, so values that compare equal
must land together.  StarOpt and StarifiedOpt (``reference_planners``)
plan every draw too, and wherever they accept one their plan must give
the oracle's answer as well; each join runs once more with a non-key ON
conjunct.  Three tables of drawn sizes joined through SQL — each
conjunct in an ON or in WHERE, the second join inner or outer — must
equal a nested loop over them whatever order the planner joins them
in.  ``REPRO_FUZZ_SEEDS`` (tools/check.sh) adds seeded runs.  Three
reproducers of rows lost that way are pinned at the end.
"""

import itertools
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, types
from repro.core.schema import ColumnDef, TableDefinition
from repro.errors import PlanningError
from repro.execution import (
    VECTOR_SIZE,
    ColumnRef,
    DictVector,
    HashJoinOperator,
    IsNull,
    JoinType,
    MergeJoinOperator,
    RleVector,
    RowSource,
    ScanOperator,
    SortKey,
    SortOperator,
    blocks_to_rows,
)
from repro.execution.executor import DistributedExecutor
from repro.optimizer import physical as P
from repro.optimizer.logical import JoinNode, ScanNode
from repro.optimizer.rewrite import conjoin
from repro.projections import HashSegmentation, Replicated, super_projection
from repro.storage import StorageManager

from reference_planners import StarifiedOpt, StarOpt, run_planned

NAN, OTHER_NAN = float("nan"), float("nan")
KEYS = [None, 0, 1, 1.0, True, False, 2, 0.0, -0.0, NAN, OTHER_NAN]
LEFT, RIGHT = ["l_id", "a", "b"], ["r_id", "c", "d"]
FLAVOURS = list(JoinType)


def _same(x, y) -> bool:
    return x is not None and y is not None and (x is y or x == y)


def oracle(join_type, left, right, left_keys, right_keys, right_columns=RIGHT,
           residual=None):
    """The join by its definition: ``residual(l, r)``, when given, must
    hold on a pair as well as its keys."""
    out, matched = [], set()
    left_columns = list(left[0]) if left else LEFT
    for l in left:
        hits = [
            j for j, r in enumerate(right)
            if all(_same(l[x], r[y]) for x, y in zip(left_keys, right_keys))
            and (residual is None or residual(l, r))
        ]
        if join_type in (JoinType.SEMI, JoinType.ANTI):
            if bool(hits) == (join_type is JoinType.SEMI):
                out.append(l)
            continue
        matched.update(hits)
        out.extend({**l, **right[j]} for j in hits)
        if not hits and join_type in (JoinType.LEFT, JoinType.FULL):
            out.append({**l, **dict.fromkeys(right_columns)})
    if join_type in (JoinType.RIGHT, JoinType.FULL):
        out.extend(
            {**dict.fromkeys(left_columns), **r}
            for j, r in enumerate(right) if j not in matched
        )
    return out


def canonical(rows) -> list:
    return sorted(repr(sorted(row.items())) for row in rows)


def keyed(pairs, names) -> list[dict]:
    return [dict(zip(names, (i, *pair))) for i, pair in enumerate(pairs)]


def hash_join(join_type, left_op, right, left_keys, right_keys, **kwargs):
    return HashJoinOperator(
        left_op,
        RowSource(right, RIGHT, block_rows=3),
        [ColumnRef(k) for k in left_keys],
        [ColumnRef(k) for k in right_keys],
        join_type,
        left_columns=list(left_op_columns(left_op)),
        right_columns=RIGHT,
        **kwargs,
    )


def left_op_columns(op):
    return op.columns if isinstance(op, ScanOperator) else LEFT


#: (the residual a join evaluates, its oracle): none, one reading both
#: sides, one reading the inner side alone
RESIDUALS = [
    (None, None),
    (ColumnRef("l_id") < ColumnRef("r_id"), lambda l, r: l["l_id"] < r["r_id"]),
    (IsNull(ColumnRef("d"), negated=True), lambda l, r: r["d"] is not None),
]


def merge_join(join_type, left, right, left_keys, right_keys, residual=None):
    def sort(rows, names, keys):
        source = RowSource(rows, names, block_rows=4)
        return SortOperator(source, [SortKey(ColumnRef(k)) for k in keys])

    return MergeJoinOperator(
        sort(left, LEFT, left_keys),
        sort(right, RIGHT, right_keys),
        [ColumnRef(k) for k in left_keys],
        [ColumnRef(k) for k in right_keys],
        join_type,
        LEFT,
        RIGHT,
        residual,
    )


def pairs(pool):
    key = st.sampled_from(pool)
    return st.lists(st.tuples(key, key), max_size=24)


@settings(max_examples=120, deadline=None)
@given(
    left=pairs(KEYS), right=pairs(KEYS), width=st.sampled_from([1, 2]),
    block_rows=st.integers(1, 7), residual=st.sampled_from(RESIDUALS),
)
def test_hash_join_alone_and_sharing_a_build_equal_the_oracle(
    left, right, width, block_rows, residual
):
    left, right = keyed(left, LEFT), keyed(right, RIGHT)
    lk, rk = LEFT[1 : 1 + width], RIGHT[1 : 1 + width]
    expr, holds = residual
    for join_type in FLAVOURS:
        want = canonical(oracle(join_type, left, right, lk, rk, residual=holds))
        alone = hash_join(
            join_type, RowSource(left, LEFT, block_rows), right, lk, rk, residual=expr
        )
        assert canonical(blocks_to_rows(alone.blocks())) == want, join_type
        assert alone.kernel_blocks == alone.children[0].blocks_produced

        shared: dict = {}
        whole = join_type in (JoinType.RIGHT, JoinType.FULL)
        parts = [left] * 3 if whole else [left[i::3] for i in range(3)]
        fragments = [
            hash_join(join_type, RowSource(part, LEFT, block_rows), right, lk, rk,
                      shared_build=shared, residual=expr)
            for part in parts
        ]
        outputs = [canonical(blocks_to_rows(fragment.blocks())) for fragment in fragments]
        assert all(f.children[1].pulls == 0 for f in fragments[1:]), "built twice"
        if whole:
            assert outputs == [want] * 3, join_type
        else:
            assert sorted(sum(outputs, [])) == want, join_type


@settings(max_examples=80, deadline=None)
@given(
    left=pairs(KEYS), right=pairs(KEYS), width=st.sampled_from([1, 2]),
    residual=st.sampled_from(RESIDUALS),
)
def test_switched_hash_join_and_merge_join_equal_the_oracle(left, right, width, residual):
    left, right = keyed(left, LEFT), keyed(right, RIGHT)
    lk, rk = LEFT[1 : 1 + width], RIGHT[1 : 1 + width]
    expr, holds = residual
    for join_type in FLAVOURS:
        want = canonical(oracle(join_type, left, right, lk, rk, residual=holds))
        switched = hash_join(
            join_type, RowSource(left, LEFT, 5), right, lk, rk, max_build_rows=1,
            residual=expr,
        )
        assert canonical(blocks_to_rows(switched.blocks())) == want, join_type
        assert switched.switched_to_merge == (len(right) > 1)
        merged = merge_join(join_type, left, right, lk, rk, expr)
        assert canonical(blocks_to_rows(merged.blocks())) == want, join_type


# -- probe keys as storage hands them over ------------------------------------

PROBE = ["l_id", "r", "k", "p"]


@pytest.fixture(scope="module")
def probe_storage(tmp_path_factory):
    """``r`` RLE (the sort column), ``k`` BLOCK_DICT, ``p`` PLAIN with
    NULLs: three containers plus rows still in the WOS."""
    table = TableDefinition("probe", [ColumnDef(name, types.INTEGER) for name in PROBE])
    projection = super_projection(
        table, sort_order=["r", "l_id"],
        encodings={"r": "RLE", "k": "BLOCK_DICT", "p": "PLAIN"},
    )
    manager = StorageManager(str(tmp_path_factory.mktemp("probe") / "n"))
    manager.register_projection(projection, table)
    rows = [
        {"l_id": i, "r": i // 50 % 6, "k": i * 7 % 5, "p": None if i % 7 == 0 else i % 4}
        for i in range(900)
    ]
    for start in range(0, 600, 200):
        manager.insert("probe_super", rows[start : start + 200], epoch=1, direct_to_ros=True)
    manager.insert("probe_super", rows[600:], epoch=1)
    kinds = {
        name: {type(block.columns[name]) for block in _scan(manager).blocks()}
        for name in ("r", "k")
    }
    assert RleVector in kinds["r"] and DictVector in kinds["k"], kinds
    return manager, sorted(blocks_to_rows(_scan(manager).blocks()), key=lambda row: row["l_id"])


def _scan(manager):
    return ScanOperator(manager, "probe_super", 1, PROBE)


@settings(max_examples=40, deadline=None)
@given(
    right=pairs([None, 0, 1, 1.0, True, False, 3, -0.0, 9, NAN]),
    keys=st.sampled_from([("r",), ("k",), ("p",), ("r", "k"), ("k", "p")]),
    sip=st.booleans(),
)
def test_encoded_probe_keys_equal_the_oracle(probe_storage, right, keys, sip):
    manager, scanned = probe_storage
    right = keyed(right, RIGHT)
    rk = RIGHT[1 : 1 + len(keys)]
    for join_type in FLAVOURS:
        want = canonical(oracle(join_type, scanned, right, keys, rk))
        scan = _scan(manager)
        join = hash_join(join_type, scan, right, list(keys), rk)
        if sip and join_type in (JoinType.INNER, JoinType.SEMI):
            scan.sip_filters.append(join.make_sip_filter([ColumnRef(k) for k in keys]))
        assert canonical(blocks_to_rows(join.blocks())) == want, (join_type, keys)


@pytest.mark.parametrize("join_type", [JoinType.INNER, JoinType.FULL])
def test_a_fan_out_is_cut_into_vector_sized_blocks(join_type):
    left = keyed([(7, 0)] * 3 + [(8, 0)], LEFT)
    right = keyed([(7, 0)] * 2000 + [(6, 0)], RIGHT)
    join = hash_join(join_type, RowSource(left, LEFT, block_rows=4), right, ["a"], ["c"])
    blocks = list(join.blocks())
    assert max(block.row_count for block in blocks) == VECTOR_SIZE
    out = [row for block in blocks for row in block.to_rows()]
    assert canonical(out) == canonical(oracle(join_type, left, right, ["a"], ["c"]))


# -- through a 3-node Database ------------------------------------------------

#: per column kind: its SQL type and the keys drawn for it ("nan": a
#: fresh NaN per row, which matches nothing — not even a NaN)
POOLS = {
    "i": (types.INTEGER, [None, 0, 1, 2, 7]),
    "f": (types.FLOAT, [None, 0.0, -0.0, 1.0, 2.0, 0.5, "nan"]),
    "b": (types.BOOLEAN, [None, True, False]),
}
#: (left key kinds, right key kinds); the last pairing has no equi-key:
#: a cross product, which a resegmenting Send routes to one destination
KEY_KINDS = [
    (("i",), ("f",)), (("f",), ("f",)), (("f",), ("i",)), (("b",), ("i",)),
    (("i",), ("b",)), (("i", "f"), ("f", "i")), ((), ()),
]
DISTRIBUTED = [JoinType.INNER, JoinType.LEFT, JoinType.FULL]
#: setup -> (left rows, right rows, the strategy planned per flavour).
#: On three nodes the cost model broadcasts the smaller side of an INNER
#: join, and resegments a FULL one rather than broadcast its inner; the
#: resegment setup forces its INNER join across the Send as well.
SETUPS = {
    P.COLOCATED: (30, 30, dict.fromkeys(DISTRIBUTED, P.COLOCATED)),
    P.BROADCAST_INNER: (60, 20, dict(zip(DISTRIBUTED, [P.BROADCAST_INNER] * 2 + [P.RESEGMENT]))),
    P.RESEGMENT: (20, 60, dict(zip(DISTRIBUTED, [P.BROADCAST_INNER] + [P.RESEGMENT] * 2))),
}
#: setup -> the older generations that accept some of its draws: StarOpt
#: places only co-located joins; StarifiedOpt broadcasts the rest, bar
#: the RIGHT / FULL joins only a resegment places
ACCEPTED_BY = {
    P.COLOCATED: {StarOpt, StarifiedOpt},
    P.BROADCAST_INNER: {StarifiedOpt},
    P.RESEGMENT: {StarifiedOpt},
}
EXTRA_SEEDS = [int(s) for s in os.environ.get("REPRO_FUZZ_SEEDS", "").split(",") if s]


def _draw(rng, kind):
    value = rng.choice(POOLS[kind][1])
    return float("nan") if value == "nan" else value


def _create(db, rng, name, side, kinds, colocated, count):
    """Table ``name`` with an id and one column per key kind, segmented
    on its join key when ``colocated``, else on the id."""
    columns = [f"{side}_{kind}" for kind in kinds]
    db.create_table(
        TableDefinition(
            name,
            [ColumnDef(f"{side}_id", types.INTEGER)]
            + [ColumnDef(column, POOLS[kind][0]) for column, kind in zip(columns, kinds)],
        ),
        segmentation=HashSegmentation(tuple(columns) if colocated else (f"{side}_id",)),
    )
    rows = [
        {f"{side}_id": i, **{c: _draw(rng, k) for c, k in zip(columns, kinds)}}
        for i in range(count)
    ]
    db.load(name, rows, direct_to_ros=rng.random() < 0.5)
    return [f"{side}_id", *columns], rows


@pytest.mark.parametrize("strategy", list(SETUPS))
@pytest.mark.parametrize("seed", [0, 1, *EXTRA_SEEDS])
def test_distributed_joins_equal_the_oracle(tmp_path, seed, strategy):
    rng = random.Random(seed * 31 + list(SETUPS).index(strategy))
    left_count, right_count, planned = SETUPS[strategy]
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1, durable=False)
    colocated, tables = strategy == P.COLOCATED, []
    for n, (left_kinds, right_kinds) in enumerate(KEY_KINDS):
        if colocated and not left_kinds:
            continue  # a join without a key has no co-located plan
        left = _create(db, rng, f"l{n}", "l", left_kinds, colocated, left_count)
        right = _create(db, rng, f"r{n}", "r", right_kinds, colocated, right_count)
        tables.append((n, left, right))
    db.analyze_statistics()
    accepted = set()
    for n, (left_names, left), (right_names, right) in tables:
        lk, rk = left_names[1:], right_names[1:]
        keys = [ColumnRef(l) == ColumnRef(r) for l, r in zip(lk, rk)]
        for join_type, (expr, holds) in itertools.product(DISTRIBUTED, RESIDUALS[:2]):
            query = JoinNode(
                ScanNode(f"l{n}", left_names), ScanNode(f"r{n}", right_names),
                join_type, condition=conjoin(keys if expr is None else keys + [expr]),
            )
            plan = db.planner().plan(query)
            (join,) = [node for node in plan.walk() if isinstance(node, P.PhysJoin)]
            assert join.strategy == planned[join_type], (lk, rk, join_type)
            if strategy == P.RESEGMENT:
                join.strategy = P.RESEGMENT
            got = DistributedExecutor(db.cluster, db.latest_epoch).run(plan).to_rows()
            want = canonical(oracle(join_type, left, right, lk, rk, right_names, holds))
            assert canonical(got) == want, (seed, lk, rk, join_type, expr)
            for planner in (StarOpt, StarifiedOpt):
                try:
                    got, _, _ = run_planned(planner, db, query)
                except PlanningError:
                    continue
                accepted.add(planner)
                assert canonical(got) == want, (planner, seed, lk, rk, join_type)
    assert accepted == ACCEPTED_BY[strategy]


# -- three tables through SQL ---------------------------------------------------


def _lt(x, y):
    return None if x is None or y is None else x < y


def _eq(x, y):
    return None if x is None or y is None else x == y


#: the conjuncts a three-table query draws from: (SQL, the tables it
#: reads, its value on a row of all three tables' columns — None is NULL)
CONJUNCTS = [
    ("t1.k = t2.k", {1, 2}, lambda r: _eq(r["t1.k"], r["t2.k"])),
    ("t2.k = t3.k", {2, 3}, lambda r: _eq(r["t2.k"], r["t3.k"])),
    ("t1.k = t3.k", {1, 3}, lambda r: _eq(r["t1.k"], r["t3.k"])),
    ("t1.k + 1 = t3.k", {1, 3},
     lambda r: _eq(None if r["t1.k"] is None else r["t1.k"] + 1, r["t3.k"])),
    ("t1.v < t3.v", {1, 3}, lambda r: _lt(r["t1.v"], r["t3.v"])),
    ("t2.v < t1.v", {1, 2}, lambda r: _lt(r["t2.v"], r["t1.v"])),
    ("t2.v < 3", {2}, lambda r: _lt(r["t2.v"], 3)),
]


def _three_tables(db, rng):
    """``t1`` / ``t2`` / ``t3`` ``(id, k, v)`` of drawn sizes, segmented
    on ``id`` or ``k`` or replicated; ``k`` and ``v`` small, with NULLs."""
    tables = {}
    for name in ("t1", "t2", "t3"):
        segmentation = rng.choice(
            [HashSegmentation(("id",)), HashSegmentation(("k",)), Replicated()]
        )
        db.create_table(
            TableDefinition(name, [ColumnDef(c, types.INTEGER) for c in ("id", "k", "v")]),
            segmentation=segmentation,
        )
        rows = [
            {"id": i, "k": rng.choice([None, 0, 1, 2, 3]), "v": rng.choice([None, *range(6)])}
            for i in range(rng.choice([0, 1, 4, 12, 30]))
        ]
        if rows:
            db.load(name, rows, direct_to_ros=rng.random() < 0.5)
        tables[name] = rows
    db.analyze_statistics()
    return tables


def _nested_loop(tables, on1, outer, on2, where):
    """``t1 JOIN t2 ON on1 <outer> JOIN t3 ON on2 WHERE where`` by its
    definition: (t1.id, t2.id, t3.id) per row, None where NULL-extended."""
    nulls = {name: {"id": None, "k": None, "v": None} for name in tables}

    def row(*parts):
        return {f"t{n}.{c}": value for n, part in enumerate(parts, 1) for c, value in part.items()}

    def holds(conjuncts, r):
        return all(fn(r) is True for _, _, fn in conjuncts)

    pairs = [(a, b) for a in tables["t1"] for b in tables["t2"] if holds(on1, row(a, b, nulls["t3"]))]
    out, matched = [], set()
    for a, b in pairs:
        hits = [j for j, c in enumerate(tables["t3"]) if holds(on2, row(a, b, c))]
        matched.update(hits)
        out += [(a, b, tables["t3"][j]) for j in hits]
        if not hits and outer in ("LEFT", "FULL"):
            out.append((a, b, nulls["t3"]))
    if outer in ("RIGHT", "FULL"):
        out += [
            (nulls["t1"], nulls["t2"], c) for j, c in enumerate(tables["t3"]) if j not in matched
        ]
    return sorted(
        (repr(a["id"]), repr(b["id"]), repr(c["id"]))
        for a, b, c in out if holds(where, row(a, b, c))
    )


@pytest.mark.parametrize("seed", [0, 1, *EXTRA_SEEDS])
def test_three_table_joins_equal_the_nested_loop(tmp_path, seed):
    rng = random.Random(seed)
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1, durable=False)
    tables = _three_tables(db, rng)
    for _ in range(24):
        outer = rng.choice(["INNER", "INNER", "LEFT", "RIGHT", "FULL"])
        on1, on2, where = [], [], []
        chosen = [CONJUNCTS[0], rng.choice(CONJUNCTS[1:4])] + rng.sample(CONJUNCTS[4:], 2)
        for conjunct in chosen:
            places = [on2, where] if 3 in conjunct[1] else [on1, on2, where]
            rng.choice(places).append(conjunct)
        first = f"t1 JOIN t2 ON {' AND '.join(c[0] for c in on1)}" if on1 else "t1, t2"
        on = " AND ".join(c[0] for c in on2) or "TRUE"
        sql = f"SELECT t1.id AS i1, t2.id AS i2, t3.id AS i3 FROM {first} {outer} JOIN t3 ON {on}"
        if where:
            sql += " WHERE " + " AND ".join(c[0] for c in where)
        got = sorted((repr(r["i1"]), repr(r["i2"]), repr(r["i3"])) for r in db.sql(sql))
        assert got == _nested_loop(tables, on1, outer, on2, where), (seed, sql)


# -- reproducers: equal keys of different types used to land apart -------------


@pytest.fixture(scope="module")
def int_and_float_keys(tmp_path_factory):
    """``a.k`` INTEGER and ``b.f`` FLOAT over 50 values, ``a.x`` all
    ``0.0`` and one ``b.f`` of ``-0.0``; both tables segmented on id."""
    db = Database(
        str(tmp_path_factory.mktemp("resegment") / "db"), node_count=3, k_safety=1,
        durable=False,
    )
    db.create_table(
        TableDefinition("a", [ColumnDef("id", types.INTEGER), ColumnDef("k", types.INTEGER),
                              ColumnDef("x", types.FLOAT)]),
        segmentation=HashSegmentation(("id",)),
    )
    db.create_table(
        TableDefinition("b", [ColumnDef("id", types.INTEGER), ColumnDef("f", types.FLOAT)]),
        segmentation=HashSegmentation(("id",)),
    )
    db.load("a", [{"id": i, "k": i % 50, "x": 0.0} for i in range(3000)], direct_to_ros=True)
    db.load(
        "b", [{"id": i, "f": float(i % 50)} for i in range(9000)] + [{"id": 9000, "f": -0.0}],
        direct_to_ros=True,
    )
    db.analyze_statistics()
    return db


def test_a_resegmented_integer_key_meets_the_float_it_equals(int_and_float_keys):
    sql = "SELECT a.id, b.f FROM a LEFT JOIN b ON a.k = b.f"
    assert "HashJoin[LEFT] (k=f) resegment" in int_and_float_keys.sql("EXPLAIN " + sql)
    rows = int_and_float_keys.sql(sql)
    matched = sum(row["f"] is not None for row in rows)
    assert (matched, len(rows) - matched) == (540_060, 0)


def test_a_resegmented_zero_meets_negative_zero(int_and_float_keys):
    sql = "SELECT a.id, b.f FROM a LEFT JOIN b ON a.x = b.f"
    assert "resegment" in int_and_float_keys.sql("EXPLAIN " + sql)
    rows = int_and_float_keys.sql(sql)
    assert sum(row["f"] is not None for row in rows) == 543_000


def test_a_colocated_integer_key_meets_the_float_it_equals(tmp_path):
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1, durable=False)
    db.create_table(TableDefinition("a", [ColumnDef("k", types.INTEGER)]),
                    sort_order=["k"], segmentation=HashSegmentation(("k",)))
    db.create_table(TableDefinition("b", [ColumnDef("f", types.FLOAT)]),
                    sort_order=["f"], segmentation=HashSegmentation(("f",)))
    db.load("a", [{"k": i % 50} for i in range(3000)], direct_to_ros=True)
    db.load("b", [{"f": float(i % 50)} for i in range(3000)], direct_to_ros=True)
    db.analyze_statistics()
    sql = "SELECT a.k FROM a JOIN b ON a.k = b.f"
    assert "MergeJoin[INNER] (k=f) colocated" in db.sql("EXPLAIN " + sql)
    assert len(db.sql(sql)) == 180_000


# -- a join without an equi-key across the Send ---------------------------------


@pytest.mark.parametrize("join_type", [JoinType.FULL, JoinType.RIGHT])
@pytest.mark.parametrize("left_count", [40, 0])
def test_a_resegmented_join_without_a_key_keeps_every_row(tmp_path, join_type, left_count):
    """``ON TRUE`` leaves the join no key, so its Send routes every row
    by the empty key: both sides meet at one destination."""
    db = Database(str(tmp_path / "db"), node_count=3, k_safety=1, durable=False)
    for name, count in (("p", left_count), ("q", 30)):
        db.create_table(
            TableDefinition(name, [ColumnDef(f"{name}_id", types.INTEGER)]),
            segmentation=HashSegmentation((f"{name}_id",)),
        )
        if count:
            db.load(name, [{f"{name}_id": i} for i in range(count)], direct_to_ros=True)
    db.analyze_statistics()
    sql = f"SELECT p.p_id, q.q_id FROM p {join_type.value} JOIN q ON TRUE"
    assert f"HashJoin[{join_type.value}] () resegment" in db.sql("EXPLAIN " + sql)
    left = [{"p_id": i} for i in range(left_count)]
    right = [{"q_id": i} for i in range(30)]
    want = oracle(join_type, left, right, [], [], ["q_id"])
    assert canonical(db.sql(sql)) == canonical(
        [{"p_id": row.get("p_id"), "q_id": row["q_id"]} for row in want]
    )
