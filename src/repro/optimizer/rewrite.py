"""Logical rewrites applied before physical planning.

Section 6.2 lists the classic rewrites Vertica adopted: introducing
transitive predicates based on join keys, converting outer joins to
inner joins, predicate push-down, and pruning unneeded columns.  These
run before physical planning and do not depend on it; pruning
runs last, so every scan reads only the columns the query names and a
narrow projection can answer it.
"""

from __future__ import annotations

from ..execution.expressions import (
    And,
    ColumnRef,
    Comparison,
    Expr,
    IsNull,
    Literal,
    Not,
    Or,
    substitute_columns,
)
from ..execution.operators.join import JoinType
from .logical import (
    AnalyticNode,
    DistinctNode,
    FilterNode,
    GroupByNode,
    JoinNode,
    LimitNode,
    LogicalNode,
    ProjectNode,
    ScanNode,
    SortNode,
)


def split_conjuncts(predicate: Expr | None) -> list[Expr]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if predicate is None:
        return []
    if isinstance(predicate, And):
        out: list[Expr] = []
        for operand in predicate.operands:
            out.extend(split_conjuncts(operand))
        return out
    return [predicate]


def conjoin(conjuncts: list[Expr]) -> Expr | None:
    """Rebuild a predicate from conjuncts (None when empty)."""
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return And(*conjuncts)


def _output_columns_of(node: LogicalNode) -> set[str]:
    if isinstance(node, ScanNode):
        return {node.rename.get(name, name) for name in node.columns}
    if isinstance(node, JoinNode):
        if node.join_type in (JoinType.SEMI, JoinType.ANTI):
            return _output_columns_of(node.left)
        return _output_columns_of(node.left) | _output_columns_of(node.right)
    if isinstance(node, FilterNode):
        return _output_columns_of(node.child)
    return set()


def push_down_filters(node: LogicalNode) -> LogicalNode:
    """Push filter predicates as close to the scans as possible.

    An INNER join's condition and the filters above it are one pool: a
    conjunct reading one side sinks to that side (a scan's predicate at
    the end), a conjunct reading both joins the lowest INNER join whose
    sides cover it.  Above an outer join only a conjunct on its
    preserved side moves (on the NULL-extended side it would change
    which rows survive), and an outer join's ON stays whole on it.
    """
    if isinstance(node, FilterNode):
        child = push_down_filters(node.child)
        remaining = [c for c in split_conjuncts(node.predicate) if not _try_push(child, c)]
        if not remaining:
            return child
        return FilterNode(child, conjoin(remaining))
    if isinstance(node, JoinNode) and node.join_type is JoinType.INNER:
        conjuncts, node.condition = split_conjuncts(node.condition), None
        stuck = [c for c in conjuncts if not _try_push(node, c)]
        node.condition = conjoin(split_conjuncts(node.condition) + stuck)
    return node.map_children(push_down_filters)


def _try_push(node: LogicalNode, conjunct: Expr) -> bool:
    """Attempt to absorb a conjunct below ``node``; True on success."""
    referenced = conjunct.referenced_columns()
    if isinstance(node, ScanNode):
        outputs = {node.rename.get(name, name) for name in node.columns}
        if referenced <= outputs:
            # scan predicates live in stored-name space; a conjunct
            # naming no renamed column is already written in it
            inverse = {out: raw for raw, out in node.rename.items() if out != raw}
            if not referenced.isdisjoint(inverse):
                conjunct = substitute_columns(conjunct, inverse)
            node.predicate = conjoin(split_conjuncts(node.predicate) + [conjunct])
            return True
        return False
    if isinstance(node, FilterNode):
        if _try_push(node.child, conjunct):
            return True
        if referenced <= _output_columns_of(node):
            node.predicate = conjoin(
                split_conjuncts(node.predicate) + [conjunct]
            )
            return True
        return False
    if isinstance(node, JoinNode):
        inner = node.join_type is JoinType.INNER
        left_ok = node.join_type not in (JoinType.RIGHT, JoinType.FULL)
        right_ok = node.join_type in (JoinType.INNER, JoinType.RIGHT)
        for side, ok in (("left", left_ok), ("right", right_ok)):
            child = getattr(node, side)
            if ok and referenced <= _output_columns_of(child):
                if not _try_push(child, conjunct):
                    setattr(node, side, FilterNode(child, conjunct))
                return True
        if inner and referenced <= _output_columns_of(node):
            node.condition = conjoin(split_conjuncts(node.condition) + [conjunct])
            return True
        return False
    return False


def add_transitive_predicates(node: LogicalNode) -> LogicalNode:
    """Copy single-column constant predicates across join-key equality.

    If ``fact.k = dim.k`` and the dim scan filters ``dim.k = 5``, the
    fact scan gains ``fact.k = 5`` (section 6.2: "introducing
    transitive predicates based on join keys").
    """
    for join in [n for n in node.walk() if isinstance(n, JoinNode)]:
        if join.join_type is not JoinType.INNER:
            continue
        left_columns = _output_columns_of(join.left)
        for conjunct in split_conjuncts(join.condition):
            if not (
                isinstance(conjunct, Comparison) and conjunct.op == "="
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                continue
            a, b = conjunct.left.name, conjunct.right.name
            if b in left_columns:
                a, b = b, a
            _copy_constant_predicates(join.left, a, join.right, b)
            _copy_constant_predicates(join.right, b, join.left, a)
    return node


def _constant_conjuncts_on(node: LogicalNode, column: str) -> list[Expr]:
    """Constant comparisons on ``column`` (an *output* name) found in
    scan predicates below ``node``, expressed in output-name space."""
    out = []
    for scan in (n for n in node.walk() if isinstance(n, ScanNode)):
        for conjunct in split_conjuncts(scan.predicate):
            rendered = substitute_columns(conjunct, scan.rename)
            if rendered.referenced_columns() == {column} and isinstance(
                rendered, Comparison
            ):
                if isinstance(rendered.left, Literal) or isinstance(
                    rendered.right, Literal
                ):
                    out.append(rendered)
    return out


def _copy_constant_predicates(
    source: LogicalNode, source_column: str, target: LogicalNode, target_column: str
) -> None:
    conjuncts = _constant_conjuncts_on(source, source_column)
    if not conjuncts:
        return
    for scan in (n for n in target.walk() if isinstance(n, ScanNode)):
        outputs = {scan.rename.get(name, name) for name in scan.columns}
        if target_column not in outputs:
            continue
        inverse = {out: raw for raw, out in scan.rename.items()}
        existing = {repr(c) for c in split_conjuncts(scan.predicate)}
        for conjunct in conjuncts:
            translated = substitute_columns(
                substitute_columns(conjunct, {source_column: target_column}),
                inverse,
            )
            if repr(translated) not in existing:
                scan.predicate = conjoin(
                    split_conjuncts(scan.predicate) + [translated]
                )


def _rejects_nulls(predicate: Expr, columns: set[str]) -> bool:
    """Whether the predicate is FALSE/NULL whenever all ``columns`` are
    NULL — the condition letting an outer join convert to inner."""
    if isinstance(predicate, Comparison):
        return bool(predicate.referenced_columns() & columns)
    if isinstance(predicate, IsNull):
        return predicate.negated and bool(
            predicate.referenced_columns() & columns
        )
    if isinstance(predicate, And):
        return any(_rejects_nulls(op, columns) for op in predicate.operands)
    if isinstance(predicate, Or):
        return all(_rejects_nulls(op, columns) for op in predicate.operands)
    if isinstance(predicate, Not):
        return False
    return False


def convert_outer_to_inner(node: LogicalNode) -> LogicalNode:
    """Downgrade outer joins to inner when a filter above them rejects
    NULLs of the null-extended side (section 6.2)."""
    if isinstance(node, FilterNode):
        node.child = convert_outer_to_inner(node.child)
        child = node.child
        if isinstance(child, JoinNode):
            for conjunct in split_conjuncts(node.predicate):
                if child.join_type is JoinType.LEFT and _rejects_nulls(
                    conjunct, _output_columns_of(child.right)
                ):
                    child.join_type = JoinType.INNER
                elif child.join_type is JoinType.RIGHT and _rejects_nulls(
                    conjunct, _output_columns_of(child.left)
                ):
                    child.join_type = JoinType.INNER
        return node
    return node.map_children(convert_outer_to_inner)


def _reads(exprs) -> set[str]:
    """Every column the expressions (None entries skipped) read."""
    out: set[str] = set()
    for expr in exprs:
        if expr is not None:
            out |= expr.referenced_columns()
    return out


def prune_columns(node: LogicalNode, needed: set[str] | None = None) -> LogicalNode:
    """Narrow every scan to the columns the plan above it reads (section
    6.2: "pruning unneeded columns").

    A top-down walk: ``needed`` is the set of output names the node's
    parent reads, None for every one — a bare root (a DELETE's victim
    scan) and DISTINCT read whole rows.  Each node adds what it reads
    itself; a join records what its parent reads in ``JoinNode.needed``
    so the physical join emits only that and what its residual reads.
    """
    if isinstance(node, ScanNode):
        if needed is not None:
            _narrow_scan(node, needed)
        return node
    if isinstance(node, JoinNode):
        node.needed = needed
        condition = _reads([node.condition])
        below = None if needed is None else needed | condition
        prune_columns(node.left, below)
        filtering = node.join_type in (JoinType.SEMI, JoinType.ANTI)
        prune_columns(node.right, condition if filtering else below)
        return node
    below: set[str] | None
    if isinstance(node, ProjectNode):
        below = _reads(node.outputs.values())
    elif isinstance(node, GroupByNode):
        below = _reads([*(expr for _, expr in node.keys),
                        *(spec.arg for spec in node.aggregates)])
    elif needed is None or isinstance(node, DistinctNode):
        below = None
    elif isinstance(node, FilterNode):
        below = needed | node.predicate.referenced_columns()
    elif isinstance(node, SortNode):
        below = needed | _reads(expr for expr, _ in node.keys)
    elif isinstance(node, AnalyticNode):
        below = needed - {spec.output_name for spec in node.specs}
        for spec in node.specs:
            below |= _reads([spec.arg, *spec.partition_by,
                             *(expr for expr, _ in spec.order_by)])
    elif isinstance(node, LimitNode):
        below = needed
    else:
        below = None
    for child in node.children:
        prune_columns(child, below)
    return node


def _narrow_scan(scan: ScanNode, needed: set[str]) -> None:
    kept = [raw for raw in scan.columns if scan.rename.get(raw, raw) in needed]
    if not kept:
        # count(*) reads rows, not values: one column carries them — a
        # predicate column when there is one, which is decoded anyway.
        filtered = _reads([scan.predicate])
        kept = [next((raw for raw in scan.columns if raw in filtered), scan.columns[0])]
    scan.columns = kept


def rewrite(node: LogicalNode) -> LogicalNode:
    """The standard rewrite pipeline: outer->inner, push-down,
    transitive predicates, a second push-down pass, then column
    pruning."""
    node = convert_outer_to_inner(node)
    node = push_down_filters(node)
    node = add_transitive_predicates(node)
    node = push_down_filters(node)
    return prune_columns(node)
