"""Compiling expression trees into vectorized predicate kernels.

:func:`compile_kernel_predicate` turns a predicate :class:`Expr` into a
:class:`KernelPredicate` — a function from a block's columns to a
:class:`Selection` of the rows where the predicate is TRUE.  Every
predicate compiles: the shapes below get a specialised leaf, and any
other subtree (arithmetic, column-vs-column comparisons, functions,
CASE) is a generic leaf inside the same tree, so a seek window or a
dictionary leaf beside it still narrows what it evaluates.

What the kernels exploit, per column representation:

* **dictionary vectors** — the scalar test runs once per dictionary
  entry (at most 4096 tests per block), then rows are selected by code
  lookup (section 6.1's "compares run length encoded data without
  decompressing");
* **RLE vectors** — the test runs once per run, emitting position
  ranges, so a block of K runs costs O(K) regardless of row count;
* **plain columns** — a comparison, BETWEEN or IN over a NULL-free
  column (a vector's NULL count says so, a bare list one ``None in``
  scan) is ``map`` passes of :mod:`operator` functions, no Python call
  per row (Rozenberg's "a predicate is a bulk operation over its
  column"); a column holding NULLs runs the test per non-NULL value;
* **the block's sort order** — a conjunction first walks the sort
  prefix: comparisons and BETWEEN on the next sort column narrow a
  window ``[lo, hi)`` by binary search *inside the window the columns
  before it left*, and only an equality lets the walk go one column
  deeper.  Whatever is left of the conjunction is evaluated over the
  window alone (the paper's "applies predicates in the most
  advantageous manner possible"; :func:`_conjunction`);
* anything else — the generic leaf: the subtree's compiled closure over
  the block (or the window a seek left), its TRUE rows as a mask.

Three-valued logic: a Selection records rows where the predicate is
definitely TRUE.  NOT is therefore *pushed to the leaves* (De Morgan is
sound in Kleene logic) and each leaf bakes negation into its tests
over non-NULL values; NULL rows never enter a selection — SQL's
"NULL does not pass", exactly as ``Expr.evaluate`` under a filter.
"""

from __future__ import annotations

from itertools import repeat
from operator import and_, eq, ge, gt, is_, is_not, le, lt, ne, not_

from ...columnar.row_block import RowBlock
from ...columnar.selection import Selection
from ...columnar.vectors import ColumnVector, DictVector, RleVector, as_list, null_count_of, seek
from ..expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)

#: Comparison op under logical negation — for the *seek*, which only
#: ever runs over NULL- and NaN-free values.  A leaf's tests may meet a
#: NaN, where ``NOT (v < x)`` is TRUE and ``v >= x`` is not, so they
#: negate the comparison's answer instead.
_NEGATED_OP = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}

#: Comparison op mirrored across its operands (literal <op> column).
_MIRRORED_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}

_OPERATORS = {"=": eq, "<>": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


class KernelPredicate:
    """A compiled vectorized predicate.

    Call with ``(columns, row_count, sorted_by)`` where ``columns``
    maps the predicate's column names to vectors/lists, and
    ``sorted_by`` names the columns the block is sorted by (ascending,
    major first; empty when unknown).  Returns the TRUE-row Selection.
    A caller that wants to know whether the sort order was used passes
    a list as ``seeks``: every window a seek narrowed the block (or a
    window of it) to appends its row count.
    """

    __slots__ = ("columns", "_evaluate")

    def __init__(self, columns: frozenset, evaluate):
        self.columns = columns
        self._evaluate = evaluate

    def __call__(self, columns, row_count, sorted_by=(), seeks=None) -> Selection:
        return self._evaluate(columns, row_count, sorted_by, seeks)


def compile_kernel_predicate(expr: Expr) -> KernelPredicate:
    """Compile ``expr`` to a kernel (cached on the expression)."""
    predicate = getattr(expr, "_kernel_predicate", None)
    if predicate is None:
        compiled = _compile(expr, negated=False)
        predicate = KernelPredicate(
            frozenset(compiled.columns), _seeking(compiled).evaluate
        )
        expr._kernel_predicate = predicate
    return predicate


# -- compilation -----------------------------------------------------------


class _Part:
    """One compiled subtree: ``evaluate(columns, row_count, sorted_by,
    seeks)`` over the column names in ``columns``.

    A leaf that pins its column into one interval also carries
    ``bounds`` — ``(name, low, high)``, each end None or ``(value,
    inclusive)`` — which is what lets a conjunction seek for it instead
    of calling it; a conjunction carries its ``conjuncts`` so a parent
    AND can absorb them."""

    __slots__ = ("evaluate", "columns", "bounds", "conjuncts")

    def __init__(self, evaluate, columns, bounds=None, conjuncts=None):
        self.evaluate = evaluate
        self.columns = columns
        self.bounds = bounds
        self.conjuncts = conjuncts


def _seeking(part: _Part) -> _Part:
    """``part`` able to use the block's sort order on its own: a lone
    seekable leaf is a conjunction of one."""
    return _conjunction([part]) if part.bounds is not None else part


def _compile(expr: Expr, negated: bool) -> _Part:
    """Compile one subtree: a specialised leaf where its shape has one,
    else :func:`_generic`."""
    if isinstance(expr, Not):
        return _compile(expr.operand, not negated)
    if isinstance(expr, (And, Or)):
        parts = [_compile(operand, negated) for operand in expr.operands]
        # De Morgan under negation: NOT(a AND b) == NOT a OR NOT b.
        if isinstance(expr, And) != negated:
            return _conjunction(parts)
        return _disjunction(parts)
    if isinstance(expr, Literal):
        # WHERE TRUE / WHERE FALSE / WHERE NULL as a whole predicate.
        value = expr.value
        if value is not None and bool(value) != negated:
            return _Part(
                lambda _c, row_count, _s, _k: Selection.all_rows(row_count), set()
            )
        return _const_none(set())
    compile_leaf = _LEAVES.get(type(expr))
    part = compile_leaf(expr, negated) if compile_leaf is not None else None
    return part if part is not None else _generic(expr, negated)


def _generic(expr: Expr, negated: bool) -> _Part:
    """Any subtree no specialised leaf takes: its compiled closure over
    the block's columns (vectors stay vectors until it reads them), the
    rows it calls TRUE kept.  NOT wraps the subtree, so NULL stays NULL
    and never passes."""
    run = (Not(expr) if negated else expr).compiled()

    def evaluate(columns, row_count, _sorted_by, _seeks):
        return Selection.from_mask(list(map(bool, run(RowBlock(columns, row_count)))))

    return _Part(evaluate, expr.referenced_columns())


def _disjunction(parts: list[_Part]) -> _Part:
    evaluators = [_seeking(part).evaluate for part in parts]

    def evaluate(block_columns, row_count, sorted_by, seeks):
        result = evaluators[0](block_columns, row_count, sorted_by, seeks)
        for child in evaluators[1:]:
            if result.is_all:
                return result
            result = result.union(child(block_columns, row_count, sorted_by, seeks))
        return result

    return _Part(evaluate, set().union(*(part.columns for part in parts)))


def _conjunction(parts: list[_Part]) -> _Part:
    """AND of ``parts``: seek down the block's sort prefix, then
    evaluate what the seek did not answer over the window it left.

    The walk takes the block's sort columns in order.  On each, every
    conjunct that bounds the column (``=``, ``<``, ``<=``, ``>``,
    ``>=``, BETWEEN — :attr:`_Part.bounds`) narrows ``[lo, hi)`` by
    binary search inside the current window, and is then answered.  The
    walk goes on to the next sort column only if one of them was an
    equality — only then is the next column sorted within the window —
    and stops at a column no conjunct bounds, at one holding a NULL or
    a NaN, and at an empty window.  The other conjuncts see the window
    as their block: their columns cut to it (runs and codes stay
    encoded), ``sorted_by`` without the pinned columns so a nested
    AND/OR seeks again, and their selection shifted back.  A block
    whose sort order answers nothing is the window ``[0, row_count)``
    with nothing pinned: every conjunct over the whole block,
    intersected.
    """
    conjuncts: list[_Part] = []
    for part in parts:
        conjuncts.extend(part.conjuncts or [part])
    columns = set().union(*(part.columns for part in conjuncts))
    bounded: dict[str, list[int]] = {}
    for index, part in enumerate(conjuncts):
        if part.bounds is not None:
            bounded.setdefault(part.bounds[0], []).append(index)

    def evaluate(block_columns, row_count, sorted_by, seeks):
        lo, hi = 0, row_count
        answered: list[int] = []
        pinned = 0
        for name in sorted_by if bounded else ():
            if name not in bounded:
                break
            column = block_columns[name]
            if not (isinstance(column, ColumnVector) and column.is_ordered()):
                break
            equality = False
            for index in bounded[name]:
                _, low, high = conjuncts[index].bounds
                window = seek(column, low, high, lo, hi)
                if window is not None:
                    lo, hi = window
                    answered.append(index)
                    equality = equality or low == high
            if not equality or lo >= hi:
                break
            pinned += 1
        rest = conjuncts
        if answered:
            if seeks is not None:
                seeks.append(hi - lo)
            if lo >= hi:
                return Selection.none(row_count)
            window = Selection(row_count, ranges=[(lo, hi)], count=hi - lo)
            if len(answered) == len(conjuncts):
                return window
            rest = [
                part
                for index, part in enumerate(conjuncts)
                if index not in answered
            ]
            block_columns = {
                name: window.apply(block_columns[name])
                for name in set().union(*(part.columns for part in rest))
            }
            sorted_by = sorted_by[pinned:]
        result = Selection.all_rows(hi - lo)
        for part in rest:
            result = result.intersect(
                part.evaluate(block_columns, hi - lo, sorted_by, seeks)
            )
            if result.is_empty:
                break
        return result.shifted(lo, row_count) if answered else result

    return _Part(evaluate, columns, conjuncts=conjuncts)


def _bounds(name: str, low, high):
    """The ``bounds`` of a leaf keeping ``low .. high`` of ``name``, or
    None when an end is NaN: NaN orders against nothing, so no window
    describes the rows it keeps."""
    for end in (low, high):
        if end is not None and end[0] != end[0]:
            return None
    return name, low, high


def _compile_comparison(expr: Comparison, negated: bool):
    op = expr.op
    if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
        name, literal = expr.left.name, expr.right.value
    elif isinstance(expr.right, ColumnRef) and isinstance(expr.left, Literal):
        name, literal = expr.right.name, expr.left.value
        op = _MIRRORED_OP[op]
    else:
        return None
    if literal is None:
        # comparison with NULL is NULL either way: nothing passes.
        return _const_none({name})
    compare = _OPERATORS[op]

    def test(v):
        return compare(v, literal) != negated

    bulk = _bulk(lambda values: map(compare, values, repeat(literal)), negated)
    if negated:
        op = _NEGATED_OP[op]
    low = (literal, op != ">") if op in ("=", ">", ">=") else None
    high = (literal, op != "<") if op in ("=", "<", "<=") else None
    bounds = None if op == "<>" else _bounds(name, low, high)
    return _make_leaf(name, test, bulk, bounds)


def _compile_between(expr: Between, negated: bool):
    if not (
        isinstance(expr.value, ColumnRef)
        and isinstance(expr.low, Literal)
        and isinstance(expr.high, Literal)
    ):
        return None
    name = expr.value.name
    low, high = expr.low.value, expr.high.value
    if low is None or high is None:
        return _const_none({name})
    try:
        low <= high  # noqa: B015 - literals that order against each other
    except TypeError:
        # ``v <= high`` may raise where the row engine never asks it
        # (``low <= v`` FALSE): only the chained scalar test answers alike
        bulk = None
    else:
        bulk = _bulk(
            lambda values: map(
                and_, map(le, repeat(low), values), map(le, values, repeat(high))
            ),
            negated,
        )

    def test(v):
        return (low <= v <= high) != negated

    bounds = None if negated else _bounds(name, (low, True), (high, True))
    return _make_leaf(name, test, bulk, bounds)


def _compile_in_list(expr: InList, negated: bool):
    if not isinstance(expr.value, ColumnRef):
        return None
    name = expr.value.name
    options = list(expr.options)
    has_null_option = any(option is None for option in options)
    if negated and has_null_option:
        # v NOT IN (..., NULL) is never TRUE: FALSE on a match, NULL
        # otherwise.
        return _const_none({name})
    choices = frozenset(option for option in options if option is not None)
    if not choices and not negated:
        return _const_none({name})

    def test(v):
        return (v in choices) != negated

    bulk = _bulk(lambda values: map(choices.__contains__, values), negated)
    return _make_leaf(name, test, bulk)


def _compile_is_null(expr: IsNull, negated: bool):
    if not isinstance(expr.value, ColumnRef):
        return None
    name = expr.value.name
    # IS [NOT] NULL is two-valued, so outer NOT simply flips it.
    want_null = expr.negated == negated

    def evaluate(columns, row_count, _sorted_by, _seeks):
        column = columns[name]
        nulls = null_count_of(column)
        if nulls == 0:
            if want_null:
                return Selection.none(row_count)
            return Selection.all_rows(row_count)
        test = is_ if want_null else is_not
        return Selection.from_mask(list(map(test, as_list(column), repeat(None))))

    return _Part(evaluate, {name})


def _compile_like(expr: Like, negated: bool):
    if not isinstance(expr.value, ColumnRef):
        return None
    name = expr.value.name
    regex = expr._regex
    want_match = expr.negated == negated  # double negation cancels

    def test(v, regex=regex, want=want_match):
        return (regex.match(v) is not None) is want

    return _make_leaf(name, test, None)


#: The specialised leaves; each returns None for a shape it does not
#: take (an operand that is not a column or a literal), which then
#: compiles :func:`_generic`.
_LEAVES = {
    Comparison: _compile_comparison,
    Between: _compile_between,
    InList: _compile_in_list,
    IsNull: _compile_is_null,
    Like: _compile_like,
}


def _const_none(columns: set) -> _Part:
    return _Part(lambda _c, row_count, _s, _k: Selection.none(row_count), columns)


def _bulk(flags, negated: bool):
    """A leaf's test over a NULL-free value list as C-level passes:
    ``flags(values)``, each flag negated under NOT — never the flipped
    operator, which answers otherwise on a NaN."""
    if negated:
        return lambda values: map(not_, flags(values))
    return flags


def _make_leaf(name: str, test, bulk, bounds=None) -> _Part:
    """Leaf evaluator dispatching on the column's representation:
    ``test`` once per dictionary entry or run, ``bulk`` (None for a
    shape without one) over a NULL-free plain column, else ``test`` per
    non-NULL row."""

    def evaluate(columns, row_count, _sorted_by, _seeks):
        column = columns[name]
        if isinstance(column, DictVector):
            # test once per dictionary entry, select rows by code.
            truth = [entry is not None and test(entry) for entry in column.entries]
            if not any(truth):
                return Selection.none(row_count)
            if all(truth):
                return Selection.all_rows(row_count)
            return Selection.from_mask(list(map(truth.__getitem__, column.codes)))
        if isinstance(column, RleVector):
            # test once per run, emit position ranges.
            ranges = []
            position = 0
            for value, length in column.runs:
                if value is not None and test(value):
                    ranges.append((position, position + length))
                position += length
            return Selection.from_ranges(ranges, row_count)
        values = as_list(column)
        nulls = null_count_of(column)
        if bulk is not None and (not nulls if nulls is not None else None not in values):
            return Selection.from_mask(list(bulk(values)))
        return Selection.from_mask(
            [value is not None and test(value) for value in values]
        )

    return _Part(evaluate, {name}, bounds)
