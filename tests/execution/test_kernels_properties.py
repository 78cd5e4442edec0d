"""Seeded property tests for the vectorized kernel primitives.

Each property pits a kernel shortcut against the obvious decoded
oracle over hundreds of randomly drawn inputs:

* RLE run arithmetic — folding ``(value, length)`` runs into a group
  table's state column must equal folding the decoded values, and one
  ``zip`` pass over rows and their group ids must equal a fold per group
  and a fold per value, for every built-in aggregate (DISTINCT too), NaN
  and NULL among the values;
* dictionary comparisons — evaluating a predicate once per dictionary
  entry and broadcasting through the codes must select exactly the
  rows a per-row evaluation selects, for every comparison operator,
  IN lists and LIKE;
* plain-column leaves — the bulk ``map`` form over a NULL-free column
  and the guarded test over one holding NULLs must keep the rows a
  per-row evaluation keeps, NaN and wrong-typed literals included;
* selection algebra — intersect/union/invert on the dual mask/ranges
  representation must obey the boolean-algebra laws, and ``apply``
  must equal compress-by-mask on every vector kind.

Those are driven by fixed-seed ``random.Random`` instances, so a
failure replays exactly.  The last sections hold the sort-prefix seek
to ``Expr.evaluate`` and to a plain evaluation kept here, under
Hypothesis (it prints the block's seed and the predicate on failure),
and the group-by key kernel to a dict of lists.
"""

import math
import os
import random
from collections import Counter
from itertools import compress

import pytest

from repro.columnar import DictVector, PlainVector, RleVector, Selection
from repro.execution.aggregates import AggregateSpec
from repro.execution.expressions import (
    Between,
    ColumnRef,
    Comparison,
    InList,
    Like,
    Literal,
    Not,
)
from repro.execution.kernels import predicates
from repro.execution.kernels.aggregate import aggregate_state, fold_runs
from repro.execution.kernels.predicates import compile_kernel_predicate

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")
#: tools/check.sh: a pinned seed and one derived from the commit
EXTRA_SEEDS = [int(s) for s in os.environ.get("REPRO_FUZZ_SEEDS", "").split(",") if s]
AGG_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")
NAN = float("nan")


def _random_runs(rng, max_runs=12):
    """Random NULL-free RLE runs (values ints or floats)."""
    runs = []
    for _ in range(1 + rng.randrange(max_runs)):
        value = (
            rng.randrange(-5, 20)
            if rng.random() < 0.5
            else round(rng.uniform(-10.0, 10.0), 3)
        )
        runs.append((value, 1 + rng.randrange(9)))
    return runs


def _final_close(a, b):
    if a is None or b is None:
        return a is None and b is None
    if a != a or b != b:  # NaN
        return a != a and b != b
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


# -- RLE run arithmetic --------------------------------------------------

def _state(func, distinct, groups=1):
    state = aggregate_state(AggregateSpec(func, ColumnRef("v"), "out", distinct))
    state.grow(groups)
    return state


def _sort_order_extreme(func, values):
    """MIN / MAX as the sort orders values: NaN after every number."""
    ranked = [(value != value, value) for value in values if value is not None]
    if not ranked:
        return None
    return (min if func == "MIN" else max)(ranked, key=lambda pair: pair)[1]


@pytest.mark.parametrize("func", AGG_FUNCS)
def test_add_run_matches_decoded_oracle(func):
    """A global aggregate over an RLE column (a SUM folded as value x
    length) equals the same aggregate over the decoded values."""
    rng = random.Random(4001)
    for index in range(200):
        runs = _random_runs(rng)
        if rng.random() < 0.2:
            runs.insert(rng.randrange(len(runs) + 1), (NAN, 1 + rng.randrange(3)))
        vector = RleVector(runs)
        spec = AggregateSpec(func, ColumnRef("v"), "out", distinct=index % 2 == 1)
        got = []
        for column in (vector, PlainVector(vector.values(), 0)):
            core = groupby._AggregationCore([], [], [spec])
            table = core.new_table()
            aggregate.absorb_block_kernel(core, table, RowBlock({"v": column}, len(column)))
            got.append(table.states[0].results()[0])
        kernel, decoded = got
        assert _final_close(kernel, decoded), (
            f"{spec.describe()} over runs {runs}: kernel={kernel} oracle={decoded}"
        )
        if func in ("MIN", "MAX"):
            assert _final_close(kernel, _sort_order_extreme(func, vector.values())), runs


@pytest.mark.parametrize("func", AGG_FUNCS)
def test_add_bulk_matches_add_loop(func):
    """One ``zip`` pass over rows and their group ids equals a fold per
    group and a fold per value."""
    rng = random.Random(4002)
    pool = (None, NAN, -0.0, 0, 1, 2.5, -7.25, 40)
    for index in range(200):
        distinct = index % 2 == 1
        groups = 1 + rng.randrange(4)
        values = [
            rng.choice(pool) if rng.random() < 0.3 else round(rng.uniform(-50, 50), 2)
            for _ in range(rng.randrange(30))
        ]
        gids = [rng.randrange(groups) for _ in values]
        keep = [value is not None for value in values]
        ids, kept = list(compress(gids, keep)), list(compress(values, keep))
        rows = _state(func, distinct, groups)
        if rows.counts:
            rows.add_counts(Counter(ids).items())
        if rows.reads:
            rows.fold_rows(ids, kept)
        per_group, per_value = _state(func, distinct, groups), _state(func, distinct, groups)
        for gid in range(groups):
            mine = [value for value, g in zip(values, gids) if g == gid]
            fold_runs(per_group, [gid], [0], [len(mine)], mine, clean=False)
            for value in mine:
                fold_runs(per_value, [gid], [0], [1], [value], clean=False)
            if func in ("MIN", "MAX"):
                want = _sort_order_extreme(func, mine)
                assert _final_close(rows.results()[gid], want), (func, mine)
        for other in (per_group, per_value):
            assert all(
                _final_close(a, b) for a, b in zip(rows.results(), other.results())
            ), (func, distinct, values, gids, rows.results(), other.results())


def test_rle_vector_run_decode_round_trip():
    rng = random.Random(4003)
    for _ in range(100):
        runs = _random_runs(rng)
        vector = RleVector(runs)
        decoded = [v for value, length in runs for v in [value] * length]
        assert vector.values() == decoded
        assert vector.row_count == len(decoded)
        assert list(vector) == decoded


# -- dictionary-coded predicates -----------------------------------------

WORDS = ("alpha", "beta", "delta", "echo", "golf", "hotel", "kilo", "zulu")


def _random_dict_vector(rng):
    entries = list(rng.sample(WORDS, 2 + rng.randrange(5)))
    codes = [rng.randrange(len(entries)) for _ in range(rng.randrange(1, 60))]
    return DictVector(codes, entries)


def _kernel_positions(expr, column, row_count):
    predicate = compile_kernel_predicate(expr)
    assert predicate is not None, f"{expr!r} should compile to a kernel"
    selection = predicate({"c": column}, row_count)
    return selection.positions()


@pytest.mark.parametrize("op", COMPARISON_OPS)
def test_dict_comparison_matches_row_oracle(op):
    rng = random.Random(4100 + COMPARISON_OPS.index(op))
    for _ in range(120):
        vector = _random_dict_vector(rng)
        constant = rng.choice(WORDS)
        expr = Comparison(op, ColumnRef("c"), Literal(constant))
        got = _kernel_positions(expr, vector, vector.row_count)
        oracle = [
            i
            for i, v in enumerate(vector.values())
            if expr.evaluate_row({"c": v})
        ]
        assert got == oracle, (
            f"c {op} {constant!r} over {vector.values()}: "
            f"kernel={got} oracle={oracle}"
        )
        negated = Not(expr)
        got_not = _kernel_positions(negated, vector, vector.row_count)
        oracle_not = [
            i
            for i, v in enumerate(vector.values())
            if negated.evaluate_row({"c": v})
        ]
        assert got_not == oracle_not


def test_dict_in_list_and_like_match_row_oracle():
    rng = random.Random(4200)
    for _ in range(120):
        vector = _random_dict_vector(rng)
        options = list(rng.sample(WORDS, 1 + rng.randrange(3)))
        pattern = rng.choice(["%a", "a%", "%l%", "____", "z_lu"])
        for expr in (
            InList(ColumnRef("c"), options),
            Not(InList(ColumnRef("c"), options)),
            Like(ColumnRef("c"), pattern),
            Like(ColumnRef("c"), pattern, negated=True),
        ):
            got = _kernel_positions(expr, vector, vector.row_count)
            oracle = [
                i
                for i, v in enumerate(vector.values())
                if expr.evaluate_row({"c": v})
            ]
            assert got == oracle, f"{expr!r} over {vector.values()}"


# -- plain-column leaves -------------------------------------------------
#
# Over a NULL-free plain column a comparison, BETWEEN or IN leaf is
# ``map`` passes of operator functions; over one holding NULLs it is the
# scalar test per non-NULL value.  Either way, bare list or vector, it
# must keep exactly the rows ``Expr.evaluate_row`` keeps — NaN in the
# column or as the literal, ``-0.0`` beside ``0``, ints beside floats —
# or raise the same exception type.

PLAIN_POOLS = (
    (-3, 0, 1, 2, 7, 2**70),
    (-1.5, -0.0, 0.0, 0.25, 3.0, 7.0),
    (-3, -0.0, 0, 0.0, 1, 1.0, True, 2.5),
    ("", "a", "ab", "b", "z"),
)


def _random_plain_leaf(rng):
    """``(values, column, expr)``: a plain column (bare list or vector,
    NULL-free, NULL-bearing or NaN-bearing) and a leaf over it, maybe
    negated, whose literals are drawn from the column's pool, NaN, NULL
    or the other type family."""
    pool = list(rng.choice(PLAIN_POOLS))
    numeric = not isinstance(pool[0], str)
    flavour = rng.choice(("clean", "nulls", "nan"))
    if flavour == "nan" and numeric:
        pool.append(float("nan"))
    if flavour == "nulls":
        pool.append(None)
    values = [rng.choice(pool) for _ in range(rng.randrange(60))]
    column = rng.choice((values, PlainVector(values, values.count(None))))
    others = PLAIN_POOLS[3] if numeric else PLAIN_POOLS[0]
    literals = pool + [float("nan"), None] + [rng.choice(others)]

    def literal():
        return rng.choice(literals) if rng.random() < 0.9 else rng.choice(pool)

    c = ColumnRef("c")
    shape = rng.choice(("cmp", "mirrored", "between", "in"))
    if shape == "cmp":
        expr = Comparison(rng.choice(COMPARISON_OPS), c, Literal(literal()))
    elif shape == "mirrored":
        expr = Comparison(rng.choice(COMPARISON_OPS), Literal(literal()), c)
    elif shape == "between":
        expr = Between(c, Literal(literal()), Literal(literal()))
    else:
        expr = InList(c, [literal() for _ in range(rng.randrange(4))])
    return values, column, Not(expr) if rng.random() < 0.5 else expr


def check_plain_leaves(seed, draws=1000):
    rng = random.Random(seed)
    for _ in range(draws):
        values, column, expr = _random_plain_leaf(rng)
        got = _outcome(lambda: _kernel_positions(expr, column, len(values)))
        want = _outcome(
            lambda: [i for i, v in enumerate(values) if expr.evaluate_row({"c": v})]
        )
        assert got == want, f"{expr!r} over {values}: kernel={got} oracle={want}"


@pytest.mark.parametrize("seed", [4150, *EXTRA_SEEDS])
def test_plain_leaves_match_row_oracle(seed):
    check_plain_leaves(seed)


def test_rle_predicate_matches_row_oracle():
    rng = random.Random(4300)
    for _ in range(120):
        runs = _random_runs(rng)
        vector = RleVector(runs)
        constant = rng.randrange(-5, 20)
        op = rng.choice(COMPARISON_OPS)
        expr = Comparison(op, ColumnRef("c"), Literal(constant))
        got = _kernel_positions(expr, vector, vector.row_count)
        oracle = [
            i
            for i, v in enumerate(vector.values())
            if expr.evaluate_row({"c": v})
        ]
        assert got == oracle


# -- selection algebra ---------------------------------------------------

def _random_selection(rng, n):
    mask = [rng.random() < rng.choice([0.1, 0.5, 0.9]) for _ in range(n)]
    return Selection.from_mask(mask), mask


def test_selection_boolean_algebra():
    rng = random.Random(4400)
    for _ in range(200):
        n = rng.randrange(1, 80)
        a, mask_a = _random_selection(rng, n)
        b, mask_b = _random_selection(rng, n)
        both = a.intersect(b)
        either = a.union(b)
        assert both.mask() == [x and y for x, y in zip(mask_a, mask_b)]
        assert either.mask() == [x or y for x, y in zip(mask_a, mask_b)]
        assert both.count == sum(both.mask())
        assert either.count == sum(either.mask())
        # invert round trip and complement laws
        assert a.invert().invert().mask() == mask_a
        assert a.intersect(a.invert()).is_empty
        assert a.union(a.invert()).is_all
        # De Morgan on the concrete lattice
        assert both.invert().mask() == a.invert().union(b.invert()).mask()


def test_selection_ranges_and_mask_agree():
    rng = random.Random(4500)
    for _ in range(200):
        n = rng.randrange(1, 60)
        selection, mask = _random_selection(rng, n)
        positions = [i for i, keep in enumerate(mask) if keep]
        assert selection.positions() == positions
        rebuilt = Selection.from_ranges(
            [(i, i + 1) for i in positions], n
        )
        assert rebuilt.mask() == mask
        assert rebuilt.positions() == positions


def test_selection_apply_is_compress_on_every_vector_kind():
    rng = random.Random(4600)
    for _ in range(150):
        runs = _random_runs(rng)
        rle = RleVector(runs)
        n = rle.row_count
        selection, mask = _random_selection(rng, n)
        expected = [v for v, keep in zip(rle.values(), mask) if keep]
        from repro.columnar import as_list

        assert as_list(selection.apply(rle)) == expected
        plain = PlainVector(list(rle.values()), 0)
        assert as_list(selection.apply(plain)) == expected
        entries = sorted({str(v) for v in rle.values()})
        index = {e: i for i, e in enumerate(entries)}
        dv = DictVector([index[str(v)] for v in rle.values()], entries)
        assert as_list(selection.apply(dv)) == [str(v) for v in expected]
        # applying to a plain Python list must also work
        assert selection.apply(list(rle.values())) == expected


def _random_ranges(rng, n):
    """Sorted disjoint [start, stop) intervals over n rows."""
    ranges = []
    cursor = 0
    while cursor < n:
        start = cursor + rng.randrange(3)
        stop = start + 1 + rng.randrange(5)
        if start >= n:
            break
        ranges.append((start, min(stop, n)))
        cursor = stop + 1
    return ranges


def test_selection_apply_preserves_encoding():
    """Range selections keep RLE runs; every selection keeps the
    dictionary — and the survivors always decode identically."""
    rng = random.Random(4700)
    for _ in range(100):
        runs = _random_runs(rng)
        rle = RleVector(runs)
        n = rle.row_count
        selection = Selection.from_ranges(_random_ranges(rng, n), n)
        mask = selection.mask()
        expected = [v for v, keep in zip(rle.values(), mask) if keep]
        out = selection.apply(rle)
        if not selection.is_all and not selection.is_empty:
            assert isinstance(out, RleVector)
            # runs stay canonical: no zero-length or mergeable neighbors
            assert all(length > 0 for _, length in out.runs)
            assert all(
                a[0] != b[0] for a, b in zip(out.runs, out.runs[1:])
            )
        from repro.columnar import as_list

        assert as_list(out) == expected
        dv = _random_dict_vector(rng)
        sel2, mask2 = _random_selection(rng, dv.row_count)
        out2 = sel2.apply(dv)
        expected2 = [v for v, keep in zip(dv.values(), mask2) if keep]
        if not sel2.is_empty and not sel2.is_all:
            assert isinstance(out2, DictVector)
            assert out2.entries == dv.entries
        assert as_list(out2) == expected2


# -- the sort-prefix seek --------------------------------------------------
#
# A compiled conjunction binary-searches the block's sort prefix and
# evaluates the rest over the window that leaves.  Whatever the block
# looks like — any sort prefix, any mix of plain / RLE / dictionary
# columns, NULLs and NaNs anywhere, duplicates dense — its selection
# must equal (i) ``Expr.evaluate``'s and (ii) the plain evaluation kept
# below: every leaf over the whole block, combined by set algebra.  A
# ``c * 1`` leaf is the generic one: no specialised leaf takes it, and a
# seek beside it still narrows the rows it evaluates.

import operator  # noqa: E402

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.execution.expressions import And, Arithmetic, IsNull, Or  # noqa: E402
from repro.columnar import RowBlock  # noqa: E402
from repro.types import sort_key  # noqa: E402

SEEK_COLUMNS = ("c0", "c1", "c2", "c3")
#: per type family: the values a column is filled from, and literals on
#: either side of them
NUMBER_POOL = (-3, -1, -0.0, 0, 0.0, 1, 1.0, 2, 2.5, 3, 7)
NUMBER_OUTSIDE = (-100, 100.5, NAN)
WORD_POOL = ("", "a", "ab", "b", "m", "mm", "z")
WORD_OUTSIDE = (" ", "zzz")
PYTHON_OPS = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


def _encode(rng, values, representation):
    """``values`` as the vector kind asked for (plain wherever the
    encoded kinds cannot hold it: they are NULL-free by contract)."""
    nulls = sum(1 for value in values if value is None)
    if representation == "list":
        return list(values)
    if nulls or not values or representation == "plain":
        return PlainVector(list(values), nulls)
    if representation == "rle":
        runs = []
        for value in values:
            # keyed by repr, as storage should: -0.0 does not fold into 0
            if runs and repr(runs[-1][0]) == repr(value):
                runs[-1] = (value, runs[-1][1] + 1)
            else:
                runs.append((value, 1))
        return RleVector(runs, len(values))
    entries = list({repr(value): value for value in values}.values())
    # a filtered container's dictionary also holds entries no row uses
    numbers = [entry for entry in entries if entry == entry]
    entries += [
        entry + "~" if isinstance(entry, str) else entry + 1000
        for entry in rng.sample(numbers, rng.randrange(min(3, len(numbers)) + 1))
    ]
    rng.shuffle(entries)  # codes carry no order of their own
    code = {repr(entry): index for index, entry in enumerate(entries)}
    return DictVector([code[repr(value)] for value in values], entries)


@st.composite
def sorted_blocks(draw, searchable=st.booleans()):
    """``(columns, row_count, sorted_by, pools)``: a block sorted the way
    a projection sorts it, by a 1–3 column prefix of its 4 columns.
    ``searchable`` blocks keep NULL, NaN and bare lists out of the sort
    prefix, so every seek the predicate allows happens."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    row_count = draw(st.sampled_from((0, 1, 2, 5, 40, 200, 600)))
    sorted_by = SEEK_COLUMNS[: draw(st.integers(1, 3))]
    searchable = draw(searchable)
    pools, lists, kinds = {}, {}, {}
    for name in SEEK_COLUMNS:
        clean = searchable and name in sorted_by
        numeric = draw(st.booleans())
        pool = list(NUMBER_POOL if numeric else WORD_POOL)
        pool = rng.sample(pool, draw(st.integers(1, len(pool))))
        if numeric and not clean and draw(st.integers(0, 5)) == 0:
            pool.append(NAN)
        if not clean and draw(st.integers(0, 3)) == 0:
            pool.append(None)
        pools[name] = (numeric, pool)
        lists[name] = [rng.choice(pool) for _ in range(row_count)]
        kinds[name] = draw(
            st.sampled_from(("plain", "rle", "dict") + (() if clean else ("list",)))
        )
    order = sorted(
        range(row_count),
        key=lambda i: tuple(sort_key(lists[name][i]) for name in sorted_by),
    )
    columns = {
        name: _encode(rng, [lists[name][i] for i in order], kinds[name])
        for name in SEEK_COLUMNS
    }
    return columns, row_count, sorted_by, pools


def _literals(pools, name):
    numeric, pool = pools[name]
    outside = NUMBER_OUTSIDE if numeric else WORD_OUTSIDE
    return st.sampled_from(pool + list(outside) + [None])


def _leaves(pools, name):
    column, literal = ColumnRef(name), _literals(pools, name)
    ops = st.sampled_from(COMPARISON_OPS)
    return st.one_of(
        st.builds(lambda op, v: Comparison(op, column, Literal(v)), ops, literal),
        st.builds(lambda op, v: Comparison(op, Literal(v), column), ops, literal),
        st.builds(
            lambda op, v: Comparison(op, Arithmetic("*", column, Literal(1)), Literal(v)),
            ops, literal,
        ),
        st.builds(
            lambda a, b: Between(column, Literal(a), Literal(b)), literal, literal
        ),
        st.builds(lambda vs: InList(column, vs), st.lists(literal, max_size=3)),
        st.builds(lambda flag: IsNull(column, flag), st.booleans()),
    )


def _trees(pools):
    leaf = st.sampled_from(SEEK_COLUMNS).flatmap(lambda n: _leaves(pools, n))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(lambda ops: And(*ops), st.lists(inner, min_size=2, max_size=3)),
            st.builds(lambda ops: Or(*ops), st.lists(inner, min_size=2, max_size=3)),
            st.builds(Not, inner),
        ),
        max_leaves=6,
    )


def _prefix_shapes(draw, pools, sorted_by):
    """The shapes the seek exists for: equalities down the prefix then
    a two-sided range; a range on one sort column then an equality on
    the next; the same with any leaf beside it."""
    def compare(op, name):
        return Comparison(op, ColumnRef(name), Literal(draw(_literals(pools, name))))

    # mostly inside the sort prefix, sometimes past its end
    depth = draw(st.integers(0, len(sorted_by) - draw(st.integers(0, 4)) // 4))
    conjuncts = [compare("=", name) for name in SEEK_COLUMNS[:depth]]
    last = SEEK_COLUMNS[depth]
    shape = draw(st.integers(0, 3))
    if shape == 0:
        conjuncts += [
            compare(draw(st.sampled_from((">", ">="))), last),
            compare(draw(st.sampled_from(("<", "<="))), last),
        ]
    elif shape == 1:
        low, high = draw(_literals(pools, last)), draw(_literals(pools, last))
        conjuncts.append(Between(ColumnRef(last), Literal(low), Literal(high)))
    elif shape == 2:
        conjuncts.append(compare(draw(st.sampled_from(("<", "<=", ">", ">="))), last))
        if depth + 1 < len(SEEK_COLUMNS):
            conjuncts.append(compare("=", SEEK_COLUMNS[depth + 1]))
    else:
        conjuncts.append(draw(_trees(pools)))
    conjuncts = draw(st.permutations(conjuncts))
    return conjuncts[0] if len(conjuncts) == 1 else And(*conjuncts)


@st.composite
def blocks_and_predicates(draw):
    columns, row_count, sorted_by, pools = draw(sorted_blocks())
    if draw(st.booleans()):
        expr = draw(_trees(pools))
    else:
        expr = _prefix_shapes(draw, pools, sorted_by)
    return columns, row_count, sorted_by, expr


def _reference_mask(expr, lists, row_count, negated=False):
    """The plain evaluation: NOT pushed to the leaves, every leaf over
    every row, NULL never passing, AND/OR as all/any."""
    if isinstance(expr, Not):
        return _reference_mask(expr.operand, lists, row_count, not negated)
    if isinstance(expr, (And, Or)):
        masks = [
            _reference_mask(operand, lists, row_count, negated)
            for operand in expr.operands
        ]
        combine = all if isinstance(expr, And) != negated else any
        return [combine(flags) for flags in zip(*masks)]
    if isinstance(expr, IsNull):
        values = lists[expr.value.name]
        return [(value is None) == (expr.negated == negated) for value in values]
    if isinstance(expr, Comparison):
        op, column, literal = expr.op, expr.left, expr.right
        if isinstance(column, Literal):
            op, column, literal = MIRRORED[op], expr.right, expr.left
        if isinstance(column, Arithmetic):  # ``c * 1`` is ``c``
            column = column.left
        compare, constant = PYTHON_OPS[op], literal.value

        def test(value):
            return constant is not None and compare(value, constant) != negated

    elif isinstance(expr, Between):
        column, low, high = expr.value, expr.low.value, expr.high.value

        def test(value):
            if low is None or high is None:
                return False
            return (low <= value <= high) != negated

    else:
        assert isinstance(expr, InList)
        column, options = expr.value, expr.options

        def test(value):
            if None in options:  # a miss is NULL: TRUE only as a plain hit
                return not negated and value in options
            return (value in options) != negated

    return [value is not None and test(value) for value in lists[column.name]]


def _plain_block(sorted_by, **columns):
    vectors = {
        name: PlainVector(values, values.count(None))
        for name, values in columns.items()
    }
    return vectors, len(columns["c0"]), sorted_by


@settings(max_examples=300, deadline=None)
@given(blocks_and_predicates())
# a NULL in the sort column, placed where no probe of the search lands
@example(
    _plain_block(("c0",), c0=[None, None] + list(range(30)))
    + (Comparison("<=", ColumnRef("c0"), Literal(25)),)
)
# a range on c0 leaves c1 unsorted inside the window
@example(
    _plain_block(("c0", "c1"), c0=[1, 1, 1, 2, 2, 2], c1=[5, 8, 9, 1, 7, 8])
    + (
        And(
            Comparison(">=", ColumnRef("c0"), Literal(1)),
            Comparison("=", ColumnRef("c1"), Literal(8)),
        ),
    )
)
def test_seek_matches_row_engine_and_plain_evaluation(case):
    columns, row_count, sorted_by, expr = case
    predicate = compile_kernel_predicate(expr)
    seeks = []
    selection = predicate(columns, row_count, sorted_by, seeks)
    assert selection.row_count == row_count
    assert selection.count == len(selection.positions())
    assert all(0 <= window <= row_count for window in seeks)

    from repro.columnar import as_list

    lists = {name: as_list(column) for name, column in columns.items()}
    evaluated = expr.evaluate(RowBlock(columns=lists, row_count=row_count))
    assert selection.positions() == [i for i, flag in enumerate(evaluated) if flag]
    reference = _reference_mask(expr, lists, row_count)
    assert selection.positions() == [i for i, flag in enumerate(reference) if flag]


@settings(max_examples=100, deadline=None)
@given(sorted_blocks(searchable=st.just(True)), st.data())
def test_a_disjunction_inside_the_window_seeks_again(block, data):
    """``c0 = v AND (c1 = a OR c1 >= b)`` on a block sorted (c0, c1, …):
    the walk pins c0, and the OR's branches — handed the window with
    ``sorted_by`` shifted past c0 — each seek c1 inside it."""
    columns, row_count, sorted_by, pools = block
    if len(sorted_by) < 2 or not row_count:
        return
    from repro.columnar import as_list

    c0, c1 = as_list(columns["c0"]), as_list(columns["c1"])
    v = data.draw(st.sampled_from(c0))
    a, b = (data.draw(_literals(pools, "c1").filter(_orders)) for _ in "ab")
    expr = And(
        Comparison("=", ColumnRef("c0"), Literal(v)),
        Or(
            Comparison("=", ColumnRef("c1"), Literal(a)),
            Comparison(">=", ColumnRef("c1"), Literal(b)),
        ),
    )
    seeks = []
    selection = compile_kernel_predicate(expr)(columns, row_count, sorted_by, seeks)
    window = [y for x, y in zip(c0, c1) if x == v]
    first = sum(1 for y in window if y == a)
    second = [] if first == len(window) else [sum(1 for y in window if y >= b)]
    assert seeks == [len(window), first] + second  # OR stops once it has all
    assert selection.positions() == [
        i for i, (x, y) in enumerate(zip(c0, c1)) if x == v and (y == a or y >= b)
    ]


def _orders(value):
    return value is not None and value == value


def _outcome(run):
    try:
        return "rows", run()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return "raises", type(exc)


@settings(max_examples=150, deadline=None)
@given(sorted_blocks(), st.sampled_from(COMPARISON_OPS + ("BETWEEN",)), st.data())
def test_a_literal_of_the_wrong_type_fails_the_same_way_on_both_engines(
    block, op, data
):
    """``meter = '7'``: the same rows or the same exception type, whether
    or not the column could have been searched."""
    columns, row_count, sorted_by, pools = block
    name = data.draw(st.sampled_from(SEEK_COLUMNS))
    numeric, _ = pools[name]
    wrong = data.draw(st.sampled_from(WORD_POOL if numeric else NUMBER_POOL))
    if op == "BETWEEN":
        expr = Between(ColumnRef(name), Literal(wrong), Literal(wrong))
    else:
        expr = Comparison(op, ColumnRef(name), Literal(wrong))
    from repro.columnar import as_list

    lists = {name: as_list(column) for name, column in columns.items()}
    kernel = _outcome(
        lambda: compile_kernel_predicate(expr)(columns, row_count, sorted_by).positions()
    )
    row = _outcome(
        lambda: [
            i
            for i, flag in enumerate(
                expr.evaluate(RowBlock(columns=lists, row_count=row_count))
            )
            if flag
        ]
    )
    assert kernel == row


@pytest.mark.parametrize(
    "expr",
    [
        # NOT over an inequality is not the mirrored inequality once a
        # NaN is on either side: NOT (v < x) is TRUE, v >= x is not
        Not(Comparison("<", ColumnRef("c"), Literal(1.0))),
        Not(Comparison(">=", ColumnRef("c"), Literal(NAN))),
        Not(Between(ColumnRef("c"), Literal(0.0), Literal(NAN))),
        # a miss against an IN list holding NULL is NULL, not FALSE
        InList(ColumnRef("c"), [None, 2.0]),
        Not(InList(ColumnRef("c"), [None, 2.0])),
    ],
    ids=repr,
)
def test_nan_and_null_corner_cases_agree_across_engines(expr):
    values = [0.5, NAN, 2.0, None, 3.0]
    for column in (values, PlainVector(values, 1)):
        kernel = compile_kernel_predicate(expr)({"c": column}, len(values))
        row = expr.evaluate(RowBlock(columns={"c": values}, row_count=len(values)))
        assert kernel.positions() == [i for i, flag in enumerate(row) if flag]


# -- the group-by key kernel vs a dict of lists ------------------------------
#
# Whatever a block's keys look like — plain, RLE, dictionary or bare-list
# columns, one to three of them, sorted by a key prefix, behind another
# sort column, or not at all — the kernel's groups must equal a plain
# ``dict`` of lists kept here, block after block with
# keys recurring, and again through prepass -> merge with a table of 3 so
# that flushes and the shut-off fire.  Floats agree up to summation order,
# everything else exactly.

import inspect  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

from hypothesis import seed  # noqa: E402

from repro.execution.kernels import aggregate  # noqa: E402
from repro.execution.operators import groupby  # noqa: E402
from repro.execution.operators.base import SourceBlocks  # noqa: E402
from repro.lint import sanitizer  # noqa: E402
from repro.execution import blocks_to_rows

KEY_POOLS = {
    # equal keys of different types, both zeros, NaN, NULL, past 64 bits
    "numbers": (None, -0.0, 0.0, 0, 1, True, 1.0, 2, 2.5, NAN, 2**70, -(2**70)),
    "words": (None, "", "a", "ab", "b", "z"),
}
INT_POOL = (None, None, -3, 0, 1, 7, 2**70, -(2**70))
FLOAT_POOL = (None, -1.5, 0.0, 0.25, 3.0, 1e9, NAN)
#: name -> (function, argument column, DISTINCT)
AGGREGATES = {
    "COUNT(*)": ("COUNT", None, False), "COUNT(v)": ("COUNT", "v", False),
    "SUM(v)": ("SUM", "v", False), "MIN(v)": ("MIN", "v", False),
    "MAX(v)": ("MAX", "v", False), "AVG(v)": ("AVG", "v", False),
    "SUM(w)": ("SUM", "w", False), "MIN(w)": ("MIN", "w", False),
    "MAX(w)": ("MAX", "w", False), "COUNT(DISTINCT w)": ("COUNT", "w", True),
}
REPRESENTATIONS = ("plain", "rle", "dict", "list")


@dataclass(frozen=True)
class GroupCase:
    seed: int
    rows: int
    keys: tuple  # a KEY_POOLS name per key column
    cardinality: int  # distinct values drawn for each key column
    representations: tuple  # of k0, k1, k2, v, w
    order: str  # "prefix": sorted by the keys; "inner": behind another
    #             sort column; "none": shuffled
    blocks: int
    aggregates: tuple = tuple(AGGREGATES)


def _sorts(value):
    return (value is not None, value != value, value if _orders(value) else 0)


def _group_blocks(case):
    """The case's blocks, and the same rows as dicts for the oracle."""
    rng = random.Random(case.seed)
    names = [f"k{i}" for i in range(len(case.keys))]
    domains = [
        rng.sample(KEY_POOLS[pool], min(case.cardinality, len(KEY_POOLS[pool])))
        for pool in case.keys
    ]
    cuts = sorted(rng.randrange(case.rows + 1) for _ in range(case.blocks - 1))
    blocks, all_rows = [], []
    for size in (b - a for a, b in zip([0, *cuts], [*cuts, case.rows])):
        rows = [
            {
                "lead": rng.randrange(3),
                **{name: rng.choice(domain) for name, domain in zip(names, domains)},
                "v": rng.choice(INT_POOL), "w": rng.choice(FLOAT_POOL),
            }
            for _ in range(size)
        ]
        for row in rows:  # every NaN its own object, as a decode leaves them
            row.update({n: float("nan") for n in names if row[n] != row[n]})
        by = {"prefix": rng.sample(names, len(names)), "inner": ["lead", *names],
              "none": []}[case.order]
        by = by[: rng.randrange(1, len(by) + 1)] if case.order == "prefix" else by
        rows.sort(key=lambda row: [_sorts(row[name]) for name in by])
        columns = {"lead": [row["lead"] for row in rows]}
        for name, representation in zip(
            [*names, "v", "w"], [*case.representations[: len(names)], *case.representations[3:]]
        ):
            columns[name] = _encode(rng, [row[name] for row in rows], representation)
        blocks.append(RowBlock(columns=columns, row_count=size, sorted_by=tuple(by) or None))
        all_rows += rows
    return names, blocks, all_rows


def _specs(case, mergeable_only=False):
    specs = [
        AggregateSpec(func, None if arg is None else ColumnRef(arg), name, distinct)
        for name, (func, arg, distinct) in AGGREGATES.items()
        if name in case.aggregates
    ]
    return [spec for spec in specs if spec.mergeable or not mergeable_only]


def _key(values):
    return tuple("<NaN>" if value is not None and value != value else value for value in values)


def _oracle(names, rows, specs):
    groups: dict = {}
    for row in rows:
        groups.setdefault(_key(row[name] for name in names), []).append(row)
    out = {}
    for key, members in groups.items():
        finals = []
        for spec in specs:
            if spec.arg is None:
                finals.append(len(members))
                continue
            values = [m[spec.arg.name] for m in members if m[spec.arg.name] is not None]
            if spec.distinct:  # all NaNs one value
                values = list({_key([value]): value for value in values}.values())
            finals.append({
                "COUNT": len, "SUM": lambda vs: sum(vs) if vs else None,
                # as the sort orders them: NaN after every number
                "MIN": lambda vs: min(vs, key=_sorts, default=None),
                "MAX": lambda vs: max(vs, key=_sorts, default=None),
                "AVG": lambda vs: sum(vs) / len(vs) if vs else None,
            }[spec.func](values))
        out[key] = finals
    return out


def _same_groups(got, want, specs, who):
    assert got.keys() == want.keys(), f"{who}: groups differ from the oracle's"
    for key, finals in want.items():
        for spec, a, b in zip(specs, got[key], finals):
            same = _final_close(a, b) if spec.arg and spec.arg.name == "w" else a == b
            assert same, f"{who}: {spec.describe()} of {key} is {a!r}, oracle {b!r}"


def _core_groups(names, blocks, specs):
    core = groupby._AggregationCore([ColumnRef(n) for n in names], names, specs)
    table = core.new_table()
    for block in blocks:
        aggregate.absorb_block_kernel(core, table, block)
    return _rows_groups(names, blocks_to_rows(table.blocks()), specs)


def _operator_groups(names, operator, specs):
    return _rows_groups(names, blocks_to_rows(operator.blocks()), specs)


def _rows_groups(names, rows, specs):
    """Output rows as {key: finals}; a row short of a column has None."""
    return {
        _key(row.get(name) for name in names): [row.get(spec.output_name) for spec in specs]
        for row in rows
    }


def check_groups(case):
    names, blocks, rows = _group_blocks(case)
    specs = _specs(case)
    want = _oracle(names, rows, specs)
    _same_groups(_core_groups(names, blocks, specs), want, specs, "kernel")
    keys = [ColumnRef(name) for name in names]
    direct = groupby.GroupByHashOperator(SourceBlocks(blocks), keys, names, specs)
    _same_groups(_operator_groups(names, direct, specs), want, specs, "hash operator")
    # over a budget of two groups: the rows of unknown keys spilled for a
    # pass of their own (an aggregate with no partial), or partials
    # spilled by key partition (every aggregate has one)
    for who, chosen in (("overflow", specs), ("partitions", _specs(case, True))):
        spilling = groupby.GroupByHashOperator(
            SourceBlocks(blocks), keys, names, chosen, max_groups=2
        )
        _same_groups(
            _operator_groups(names, spilling, chosen), _oracle(names, rows, chosen),
            chosen, f"spilling to {who}",
        )
    # two-phase, over the aggregates that have a partial
    specs = _specs(case, mergeable_only=True)
    want = _oracle(names, rows, specs)
    prepass = groupby.PrepassGroupByOperator(
        SourceBlocks(blocks), keys, names, specs, table_size=3
    )
    prepass.SHUTOFF_CHECK_ROWS = 40
    merge = groupby.GroupByHashOperator(prepass, keys, names, specs, merge_partials=True)
    _same_groups(_operator_groups(names, merge, specs), want, specs, "prepass -> merge")


group_cases = st.builds(
    GroupCase,
    seed=st.integers(0, 2**32),
    rows=st.integers(0, 600),
    keys=st.lists(st.sampled_from(sorted(KEY_POOLS)), min_size=1, max_size=3).map(tuple),
    cardinality=st.integers(1, 12),
    representations=st.tuples(*[st.sampled_from(REPRESENTATIONS)] * 5),
    order=st.sampled_from(["prefix", "inner", "none"]),
    blocks=st.integers(1, 5),
    aggregates=st.sets(st.sampled_from(sorted(AGGREGATES)), min_size=1).map(
        lambda chosen: tuple(name for name in AGGREGATES if name in chosen)
    ),
)


@pytest.mark.parametrize("seed_index", range(len(EXTRA_SEEDS) + 1))
def test_key_kernel_matches_a_dict_of_lists(seed_index):
    @settings(max_examples=150, deadline=None)
    @given(group_cases)
    def run(case):
        check_groups(case)

    if seed_index:  # tools/check.sh: pinned + git-derived
        run = seed(EXTRA_SEEDS[seed_index - 1])(run)
    run()


# -- planted mutations: each one fails the property --------------------------


def _plant(monkeypatch, module, name, edits, also=()):
    """Re-define ``module.name`` from its own source with ``edits``
    applied (each ``old`` must occur exactly once)."""
    source = inspect.getsource(getattr(module, name))
    for old, new in edits:
        assert source.count(old) == 1, f"{name} no longer reads {old!r}"
        source = source.replace(old, new)
    namespace = dict(vars(module))
    exec(source, namespace)  # noqa: S102 - the product's own source, edited
    for holder in (module, *also):
        monkeypatch.setattr(holder, name, namespace[name])


def mutate_a_runs_last_row_dropped(monkeypatch):
    _plant(
        monkeypatch, aggregate, "absorb_block_kernel",
        [("[*starts[1:], row_count]", "[*(s - 1 for s in starts[1:]), row_count - 1]")],
        also=[groupby],
    )


def mutate_bucket_path_folds_every_row_into_one_group(monkeypatch):
    """Each group of a bucketed block handed every row's value, not the
    values at its own positions: the counts stay right."""
    _plant(
        monkeypatch, aggregate, "_fold_gathered",
        [("itemgetter(*bucket)(values) if len(bucket) > 1 else [values[bucket[0]]]",
          "values")],
    )


def mutate_zip_path_folds_every_row_into_one_group(monkeypatch):
    """Every row of a block folded in the ``zip`` pass handed the id of
    its first label's group: the counts stay right."""
    _plant(
        monkeypatch, aggregate, "_fold_labelled",
        [("list(map(dict(zip(tally, gids)).__getitem__, labels))",
          "[gids[0]] * len(labels)")],
    )


def mutate_codes_read_through_another_blocks_dictionary(monkeypatch):
    """The first block's code -> key table kept for every later block
    (padded, so a later block's larger dictionary mis-keys, not raises)."""
    _plant(
        monkeypatch, aggregate, "_labels",
        [("entries = key_values(first, first.entries)",
          "entries = globals().setdefault('_kept', "
          "key_values(first, first.entries) + [None] * 20)")],
    )


def mutate_a_runs_fold_counts_nulls(monkeypatch):
    """An argument column that says how many NULLs it holds is folded
    as though it held none, and each run counts its NULLs."""
    _plant(
        monkeypatch, aggregate, "_argument",
        [("nulls == 0 or nulls is None and None not in values",
          "nulls is not None or None not in values")],
    )


def mutate_one_key_labels_are_not_key_tuples(monkeypatch):
    """One key column's values label the rows, and each is taken for its
    group key as it stands, not as the 1-tuple every key is."""
    _plant(
        monkeypatch, aggregate, "_labels",
        [("return key_values(first), zip", "return key_values(first), iter")],
    )


def mutate_count_partials_merged_by_count(monkeypatch):
    monkeypatch.setattr(AggregateSpec, "merge_func", property(lambda self: self.func))


RUNS = GroupCase(
    seed=7, rows=400, keys=("numbers", "words"), cardinality=4,
    representations=("plain", "list", "plain", "plain", "plain"),
    order="inner", blocks=3,
)


@pytest.mark.parametrize(
    "mutate, case",
    [
        (mutate_a_runs_last_row_dropped, replace(RUNS, keys=("words",), order="prefix")),
        (
            mutate_bucket_path_folds_every_row_into_one_group,
            replace(RUNS, keys=("words",), order="none"),
        ),
        (mutate_zip_path_folds_every_row_into_one_group, replace(RUNS, order="none")),
        (
            mutate_codes_read_through_another_blocks_dictionary,
            replace(RUNS, keys=("words",), representations=("dict",) * 5, order="none"),
        ),
        (
            mutate_a_runs_fold_counts_nulls,
            replace(RUNS, keys=("words",), order="prefix", aggregates=("COUNT(v)",)),
        ),
        (mutate_count_partials_merged_by_count, replace(RUNS, aggregates=("COUNT(*)", "COUNT(v)"))),
        (
            mutate_one_key_labels_are_not_key_tuples,
            replace(RUNS, keys=("words",), order="none"),
        ),
    ],
    ids=lambda value: getattr(value, "__name__", "").removeprefix("mutate_") or "case",
)
def test_planted_mutation_fails_the_key_kernel_property(mutate, case, monkeypatch):
    with sanitizer.override(False):  # the property must catch it, not the sanitizer
        check_groups(case)
        mutate(monkeypatch)
        with pytest.raises(AssertionError, match="oracle"):
            check_groups(case)


def test_planted_mutation_fails_the_plain_leaf_property(monkeypatch):
    """NOT (v < x) compiled to ``v >= x`` over a plain column: the two
    differ only where a NaN sits, which the property draws."""
    check_plain_leaves(4150)
    _plant(
        monkeypatch, predicates, "_compile_comparison",
        [("bulk = _bulk(lambda values: map(compare, values, repeat(literal)), negated)",
          "flipped = _OPERATORS[_NEGATED_OP[op] if negated else op]\n"
          "    bulk = _bulk(lambda values: map(flipped, values, repeat(literal)), False)")],
    )
    monkeypatch.setitem(predicates._LEAVES, Comparison, predicates._compile_comparison)
    with pytest.raises(AssertionError, match="oracle"):
        check_plain_leaves(4150)
