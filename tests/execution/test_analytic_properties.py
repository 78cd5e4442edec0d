"""Every window function against a plain-Python oracle.

Partition and order keys are drawn with NULLs, NaNs (two distinct NaN
objects), ties (``1`` / ``1.0`` / ``True``, ``0`` / ``-0.0``) and DESC
terms; the input arrives in blocks of 1..7 rows, or not at all.  The
oracle is the definition: partitions are the rows with equal partition
keys (all NULLs one, all NaNs one), ordered stably by the order keys —
NULL before every number, NaN after, a DESC term reversed — and a row's
peers are the rows with equal order keys.  ROW_NUMBER counts rows, RANK
and DENSE_RANK count peer groups, and an aggregate covers the partition
up to the end of the row's peer group (the whole partition without an
ORDER BY).  Output is compared per partition, in order-key order.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution import AnalyticOperator, ColumnRef, RowSource, WindowSpec, blocks_to_rows
from repro.execution.kernels import aggregate
from repro.execution.operators import analytic

NAN, OTHER_NAN = float("nan"), float("nan")
KEYS = [None, 0, 1, 1.0, True, 2, -0.0, NAN, OTHER_NAN]
ARGS = [None, 0, 1, 2.5, -1, 3, -0.0, NAN]
FUNCS = ["ROW_NUMBER", "RANK", "DENSE_RANK", "COUNT(*)", "COUNT", "SUM", "AVG", "MIN", "MAX"]
NAMES = ["id", "p", "o", "q", "v"]


def _rank(value):
    if value is None:
        return (0, 0)
    return (2, 0) if value != value else (1, value)


def _peer(value):
    """Equal for peers: all NULLs, all NaNs, ``==`` values."""
    if value is None:
        return ("null",)
    return ("nan",) if value != value else ("value", value)


def _fold(values, step):
    total = values[0] if values else None
    for value in values[1:]:
        total = step(total, value)
    return total


def _aggregate(func, values):
    seen = [value for value in values if value is not None]
    if func == "COUNT(*)":
        return len(values)
    if func == "COUNT":
        return len(seen)
    if func in ("SUM", "AVG"):
        total = _fold(seen, lambda a, b: a + b)
        return total if func == "SUM" or total is None else total / len(seen)
    if not seen:
        return None
    # as the sort orders them: NaN after every number
    return (min if func == "MIN" else max)(seen, key=_rank)


def oracle(rows, func, partitioned, order):
    """``{partition: [(id, value), ...]}`` in order-key order."""
    partitions: dict = {}
    for row in rows:
        partitions.setdefault(_peer(row["p"]) if partitioned else (), []).append(row)

    def compare(left, right):
        for column, ascending in order:
            a, b = _rank(left[column]), _rank(right[column])
            if a != b:
                return (-1 if a < b else 1) * (1 if ascending else -1)
        return 0

    out = {}
    for key, members in partitions.items():
        members = sorted(members, key=functools.cmp_to_key(compare))
        peers = [tuple(_peer(row[c]) for c, _ in order) for row in members]
        values = [row["v"] for row in members]
        result, start, dense = [], 0, 0
        for index, row in enumerate(members):
            if index == 0 or peers[index] != peers[index - 1]:
                start, dense = index, dense + 1
            end = index + 1
            while end < len(members) and peers[end] == peers[index]:
                end += 1
            value = {
                "ROW_NUMBER": index + 1,
                "RANK": start + 1,
                "DENSE_RANK": dense,
            }.get(func)
            if value is None:
                value = _aggregate(func, values[: end if order else len(members)])
            result.append((row["id"], value))
        out[key] = result
    return out


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and a != a:
        return b != b
    return a == b


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(KEYS), st.sampled_from(KEYS), st.sampled_from(KEYS),
                  st.sampled_from(ARGS)),
        max_size=30,
    ),
    func=st.sampled_from(FUNCS),
    partitioned=st.booleans(),
    order=st.lists(st.tuples(st.sampled_from(["o", "q"]), st.booleans()), max_size=2),
    block_rows=st.integers(1, 7),
)
def test_window_functions_equal_the_oracle(rows, func, partitioned, order, block_rows):
    if func in ("ROW_NUMBER", "RANK", "DENSE_RANK") and not order:
        order = [("o", False)]
    rows = [dict(zip(NAMES, (i, *values))) for i, values in enumerate(rows)]
    name, _, arg = func.partition("(")
    spec = WindowSpec(
        name, None if arg or name in ("ROW_NUMBER", "RANK", "DENSE_RANK") else ColumnRef("v"),
        "w",
        partition_by=[ColumnRef("p")] if partitioned else [],
        order_by=[(ColumnRef(column), ascending) for column, ascending in order],
    )
    out = blocks_to_rows(AnalyticOperator(RowSource(rows, NAMES, block_rows), spec).blocks())
    want = oracle(rows, func, partitioned, order)
    got: dict = {}
    for row in out:
        key = _peer(row["p"]) if partitioned else ()
        got.setdefault(key, []).append((row["id"], row["w"]))
    assert got.keys() == want.keys()
    for key, expected in want.items():
        assert [i for i, _ in got[key]] == [i for i, _ in expected], key
        assert all(_same(a, b) for (_, a), (_, b) in zip(got[key], expected)), (
            key, got[key], expected,
        )
    assert len(out) == len(rows)
    assert all(set(row) == {*NAMES, "w"} for row in out)


def test_running_aggregate_is_a_prefix_fold(monkeypatch):
    """Distinct order keys: each row folded once, not a re-fold of the
    prefix per peer group (which was quadratic)."""
    steps = []
    fold = aggregate.fold_runs

    def counting(state, gids, starts, stops, values, clean=True):
        steps.extend(stop - start for start, stop in zip(starts, stops))
        return fold(state, gids, starts, stops, values, clean)

    monkeypatch.setattr(analytic, "fold_runs", counting)
    rows = [{"id": i, "p": 0, "o": i, "q": 0, "v": 1} for i in range(3000)]
    spec = WindowSpec("SUM", ColumnRef("v"), "w", order_by=[(ColumnRef("o"), True)])
    out = blocks_to_rows(AnalyticOperator(RowSource(rows, NAMES), spec).blocks())
    assert [row["w"] for row in out] == list(range(1, 3001))
    assert steps == [1] * len(rows)


def test_empty_input_yields_nothing():
    spec = WindowSpec("RANK", None, "w", order_by=[(ColumnRef("o"), True)])
    assert blocks_to_rows(AnalyticOperator(RowSource([], NAMES), spec).blocks()) == []
