"""Semantic analysis: SQL AST -> logical plans and DDL actions.

Name resolution works in two spaces (matching the planner/executor
convention): each FROM item's columns get *output names* — the bare
column name when unambiguous across the FROM list, otherwise
``alias.column`` — and scans carry the raw->output rename map.
``Analyzer.convert`` is the one AST -> ``Expr`` translation; a grouped
or windowed SELECT passes it a lookup that maps an aggregate call to
its hoisted output, a group key's expression to the key and a window
call to its output, so every path shares one select list and one
ORDER BY resolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.catalog import Catalog
from ..errors import SqlAnalysisError
from ..execution.aggregates import SUPPORTED as AGGREGATE_FUNCS
from ..execution.aggregates import AggregateSpec
from ..execution.expressions import (
    And,
    Arithmetic,
    Between,
    CaseWhen,
    ColumnRef,
    Comparison,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)
from ..execution.operators.analytic import WindowSpec
from ..execution.operators.join import JoinType
from ..monitor.tables import columns_of, is_monitor_table
from ..optimizer.logical import (
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
from ..optimizer.rewrite import conjoin
from . import ast

_WINDOW_FUNCS = ("ROW_NUMBER", "RANK", "DENSE_RANK") + tuple(AGGREGATE_FUNCS)


def _is_aggregate_name(name: str) -> bool:
    """Built-in or SDK-registered aggregate?"""
    if name in AGGREGATE_FUNCS:
        return True
    from ..sdk import user_aggregate_factory

    return user_aggregate_factory(name) is not None


@dataclass
class _FromItem:
    """One resolved FROM entry."""

    ref: ast.TableRef
    table_columns: list[str]
    #: raw column -> output name
    rename: dict[str, str] = field(default_factory=dict)

    @property
    def output_names(self) -> set[str]:
        return {self.rename.get(c, c) for c in self.table_columns}


class Scope:
    """Column resolution over the FROM list."""

    def __init__(self, items: list[_FromItem]):
        self.items = items
        self._by_qualified: dict[tuple[str, str], str] = {}
        self._by_name: dict[str, list[str]] = {}
        for item in items:
            for column in item.table_columns:
                output = item.rename.get(column, column)
                self._by_qualified[(item.ref.name, column)] = output
                self._by_name.setdefault(column, []).append(output)

    def resolve(self, identifier: ast.Identifier) -> str:
        if identifier.qualifier is not None:
            output = self._by_qualified.get(
                (identifier.qualifier, identifier.name)
            )
            if output is None:
                raise SqlAnalysisError(
                    f"unknown column {identifier.display!r}"
                )
            return output
        candidates = self._by_name.get(identifier.name, [])
        if not candidates:
            raise SqlAnalysisError(f"unknown column {identifier.name!r}")
        if len(candidates) > 1:
            raise SqlAnalysisError(f"ambiguous column {identifier.name!r}")
        return candidates[0]


def build_scope(catalog: Catalog, refs: list[ast.TableRef]) -> Scope:
    """Resolve the FROM list and assign output names."""
    names = [ref.name for ref in refs]
    if len(set(names)) != len(names):
        raise SqlAnalysisError(f"duplicate table alias in FROM: {names}")
    counts: dict[str, int] = {}
    items = []
    for ref in refs:
        columns = (
            columns_of(ref.table)
            if is_monitor_table(ref.table)
            else catalog.table(ref.table).column_names
        )
        for column in columns:
            counts[column] = counts.get(column, 0) + 1
        items.append(_FromItem(ref, columns))
    for item in items:
        for column in item.table_columns:
            if counts[column] > 1:
                item.rename[column] = f"{item.ref.name}.{column}"
    return Scope(items)


class Analyzer:
    """Builds logical plans from parsed SELECT statements."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._generated = 0

    def _fresh(self, prefix: str) -> str:
        self._generated += 1
        return f"{prefix}_{self._generated}"

    # -- expression conversion -----------------------------------------

    def convert(self, node: ast.SqlExpr, scope: Scope, lookup=None) -> Expr:
        """SqlExpr -> runtime Expr over output names: the analyzer's one
        translation.  ``lookup(node)``, when given, is asked at every
        subtree first and may return its replacement — a hoisted
        aggregate, a group key or a window output; an aggregate or window
        call it does not replace is rejected."""
        if lookup is not None:
            found = lookup(node)
            if found is not None:
                return found
        if isinstance(node, ast.Constant):
            return Literal(node.value)
        if isinstance(node, ast.Identifier):
            return ColumnRef(scope.resolve(node))
        if isinstance(node, ast.BinaryOp):
            left = self.convert(node.left, scope, lookup)
            right = self.convert(node.right, scope, lookup)
            if node.op == "AND":
                return And(left, right)
            if node.op == "OR":
                return Or(left, right)
            if node.op in ("=", "<>", "<", "<=", ">", ">="):
                return Comparison(node.op, left, right)
            return Arithmetic(node.op, left, right)
        if isinstance(node, ast.UnaryOp):
            operand = self.convert(node.operand, scope, lookup)
            if node.op == "NOT":
                return Not(operand)
            if isinstance(operand, Literal) and operand.value is not None:
                return Literal(-operand.value)
            return Arithmetic("-", Literal(0), operand)
        if isinstance(node, ast.BetweenExpr):
            expr = Between(
                self.convert(node.value, scope, lookup),
                self.convert(node.low, scope, lookup),
                self.convert(node.high, scope, lookup),
            )
            return Not(expr) if node.negated else expr
        if isinstance(node, ast.InExpr):
            values = [self.convert(option, scope, lookup) for option in node.options]
            if not all(isinstance(value, Literal) for value in values):  # (-1 folds to one)
                raise SqlAnalysisError("IN list must contain constants")
            expr = InList(
                self.convert(node.value, scope, lookup), [v.value for v in values]
            )
            return Not(expr) if node.negated else expr
        if isinstance(node, ast.IsNullExpr):
            return IsNull(self.convert(node.value, scope, lookup), node.negated)
        if isinstance(node, ast.LikeExpr):
            return Like(
                self.convert(node.value, scope, lookup), node.pattern, node.negated
            )
        if isinstance(node, ast.CaseExpr):
            branches = [
                (self.convert(cond, scope, lookup), self.convert(value, scope, lookup))
                for cond, value in node.branches
            ]
            default = (
                self.convert(node.default, scope, lookup)
                if node.default is not None
                else None
            )
            return CaseWhen(branches, default)
        if isinstance(node, ast.FuncCall):
            if _is_aggregate_name(node.name):
                raise SqlAnalysisError(
                    f"aggregate {node.name} not allowed in this context"
                )
            if len(node.args) != 1:
                raise SqlAnalysisError(
                    f"function {node.name} expects one argument"
                )
            return FunctionCall(node.name, self.convert(node.args[0], scope, lookup))
        if isinstance(node, ast.WindowCall):
            raise SqlAnalysisError("window function not allowed in this context")
        if isinstance(node, ast.Star):
            raise SqlAnalysisError("* not allowed in this context")
        raise SqlAnalysisError(f"cannot analyze {type(node).__name__}")

    # -- SELECT analysis -----------------------------------------------------

    def analyze_select(self, stmt: ast.SelectStatement) -> LogicalNode:
        """Build the logical plan for a SELECT, clause by clause: FROM and
        WHERE, then GROUP BY and HAVING or the window functions, then the
        select list, ORDER BY, DISTINCT and LIMIT."""
        if not stmt.from_tables:
            raise SqlAnalysisError("SELECT requires a FROM clause")
        refs = list(stmt.from_tables) + [join.table for join in stmt.joins]
        scope = build_scope(self.catalog, refs)

        # expand stars in the select list
        items: list[ast.SelectItem] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                for from_item in scope.items:
                    if (
                        item.expr.qualifier is not None
                        and from_item.ref.name != item.expr.qualifier
                    ):
                        continue
                    for column in from_item.table_columns:
                        output = from_item.rename.get(column, column)
                        items.append(ast.SelectItem(
                            ast.Identifier(column, from_item.ref.name), output
                        ))
            else:
                items.append(item)

        windowed = any(ast.contains(item.expr, _is_window) for item in items)
        grouped = bool(stmt.group_by) or stmt.having is not None or any(
            ast.contains(item.expr, _is_aggregate) for item in items
        )
        if windowed and grouped:
            raise SqlAnalysisError(
                "window functions cannot be combined with GROUP BY here"
            )

        # WHERE filters the joins; an IN subquery is a SEMI / ANTI join above
        plan = self._build_join_tree(stmt, scope)
        where = ast.conjuncts(stmt.where)
        plain = [c for c in where if not isinstance(c, ast.InSubquery)]
        if plain:
            plan = FilterNode(plan, conjoin([self.convert(c, scope) for c in plain]))
        for subquery in (c for c in where if isinstance(c, ast.InSubquery)):
            plan = self._flatten_in_subquery(plan, subquery, scope)

        # one select list for every path: alias or default name, a fresh
        # name on a clash; the path's lookup maps what its node computes
        names: list[str] = []
        for item in items:
            name = item.alias or self._default_name(item.expr)
            names.append(self._fresh(name) if name in names else name)
        lookup = None
        if grouped:
            keys, aggregates, lookup = self._grouping(stmt, scope)
        elif windowed:
            specs, lookup = self._windowing(scope, {
                id(item.expr): name for item, name in zip(items, names)
            })
        select_exprs = {
            name: self.convert(item.expr, scope, lookup)
            for item, name in zip(items, names)
        }
        having = (
            self.convert(stmt.having, scope, lookup)
            if stmt.having is not None
            else None
        )
        order_exprs = [
            (self._order_expr(node, scope, select_exprs, lookup), ascending)
            for node, ascending in stmt.order_by
        ]
        if grouped:
            plan = GroupByNode(plan, keys, list(aggregates.values()), having=having)
        elif windowed:
            plan = AnalyticNode(plan, specs)
        plan = ProjectNode(plan, select_exprs)

        # a sort key the select list does not output is computed by the
        # projection as a hidden column, and dropped after the sort
        project, names = plan, list(plan.outputs)
        for index, (expr, ascending) in enumerate(order_exprs):
            if not expr.referenced_columns() <= set(names):
                if stmt.distinct:
                    raise SqlAnalysisError("ORDER BY of a SELECT DISTINCT must be selected")
                hidden = self._fresh("sort")
                project.outputs[hidden] = expr
                order_exprs[index] = (ColumnRef(hidden), ascending)
        if stmt.distinct:
            plan = DistinctNode(plan)
        if order_exprs:
            plan = SortNode(plan, order_exprs)
        if stmt.limit is not None:
            plan = LimitNode(plan, stmt.limit, stmt.offset)
        if len(project.outputs) > len(names):
            plan = ProjectNode(plan, {name: ColumnRef(name) for name in names})
        return plan

    def _flatten_in_subquery(
        self, plan: LogicalNode, subquery: ast.InSubquery, scope: Scope
    ) -> LogicalNode:
        """Subquery flattening (section 6.2): ``x IN (SELECT ...)``
        becomes a SEMI join against the subquery plan; ``NOT IN``
        becomes an ANTI join (NOT EXISTS semantics: a NULL-producing
        subquery does not veto every row, unlike strict SQL NOT IN)."""
        value = self.convert(subquery.value, scope)
        subplan = self.analyze_select(subquery.select)
        output = self._single_output_name(subplan)
        join_type = JoinType.ANTI if subquery.negated else JoinType.SEMI
        return JoinNode(plan, subplan, join_type, Comparison("=", value, ColumnRef(output)))

    @staticmethod
    def _single_output_name(plan: LogicalNode) -> str:
        for node in plan.walk():
            if isinstance(node, ProjectNode):
                names = list(node.outputs)
                if len(names) != 1:
                    raise SqlAnalysisError(
                        "IN subquery must select exactly one column"
                    )
                return names[0]
        raise SqlAnalysisError("cannot determine subquery output column")

    def _default_name(self, expr: ast.SqlExpr) -> str:
        if isinstance(expr, ast.Identifier):
            return expr.name
        if isinstance(expr, ast.FuncCall):
            return expr.name.lower()
        if isinstance(expr, ast.WindowCall):
            return self._fresh(expr.func.name.lower())
        return self._fresh("col")

    def _order_expr(
        self, node: ast.SqlExpr, scope: Scope, select_exprs: dict[str, Expr], lookup
    ) -> Expr:
        """One ORDER BY key on every path: a position in 1..n, else a
        select alias, else an expression converted like the select list."""
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            names = list(select_exprs)
            if not 1 <= node.value <= len(names):
                raise SqlAnalysisError(f"ORDER BY position {node.value} out of range")
            return ColumnRef(names[node.value - 1])
        if isinstance(node, ast.Identifier) and node.qualifier is None:
            if node.name in select_exprs:
                return ColumnRef(node.name)
        return self.convert(node, scope, lookup)

    # -- join tree ----------------------------------------------------------------

    def _build_join_tree(self, stmt: ast.SelectStatement, scope: Scope) -> LogicalNode:
        """The FROM list folded into INNER joins with no condition, then
        each JOIN with its ON (the scope's items are in this order); the
        planner splits the conditions."""
        ons = [(JoinType.INNER, None)] * len(stmt.from_tables) + [
            (JoinType(join.join_type), join.condition) for join in stmt.joins
        ]
        plan, columns = None, set()
        for item, (join_type, on) in zip(scope.items, ons):
            scan = ScanNode(item.ref.table, list(item.table_columns),
                            rename=dict(item.rename), alias=item.ref.name)
            columns |= item.output_names
            condition = None if on is None else self.convert(on, scope)
            if condition is not None and not condition.referenced_columns() <= columns:
                raise SqlAnalysisError(
                    f"the ON clause of JOIN {item.ref.name} reads a table joined after it"
                )
            plan = scan if plan is None else JoinNode(plan, scan, join_type, condition)
        return plan

    # -- aggregation and windows ------------------------------------------------

    def _grouping(self, stmt: ast.SelectStatement, scope: Scope):
        """GROUP BY's keys, the aggregates hoisted so far (by description)
        and the lookup reading an expression after the grouping: an
        aggregate call is its hoisted output, a subtree whose conversion
        is a key's (top-down) is that key, any other column is refused."""
        keys: list[tuple[str, Expr]] = []
        key_by_repr: dict[str, str] = {}
        for node in stmt.group_by:
            expr = self.convert(node, scope)
            name = expr.name if isinstance(expr, ColumnRef) else self._fresh("gk")
            keys.append((name, expr))
            key_by_repr[repr(expr)] = name
        aggregates: dict[str, AggregateSpec] = {}
        # only an identifier converts to a ColumnRef: with no computed
        # key, no other subtree can match one
        computed = any(not isinstance(expr, ColumnRef) for _, expr in keys)

        def lookup(node: ast.SqlExpr) -> Expr | None:
            if _is_aggregate(node):
                arg = None
                if node.star:
                    if node.name != "COUNT":
                        raise SqlAnalysisError(f"{node.name}(*) is not valid")
                elif len(node.args) != 1:
                    raise SqlAnalysisError(f"aggregate {node.name} expects one argument")
                else:
                    arg = self.convert(node.args[0], scope)
                key = f"{node.name}|{node.distinct}|{arg!r}"
                if key not in aggregates:
                    aggregates[key] = AggregateSpec(
                        node.name, arg, self._fresh("agg"), node.distinct
                    )
                return ColumnRef(aggregates[key].output_name)
            if not isinstance(node, ast.Identifier) and (
                not computed or ast.contains(node, _is_aggregate)
            ):
                return None
            expr = self.convert(node, scope)
            name = key_by_repr.get(repr(expr))
            if name is not None:
                return ColumnRef(name)
            if isinstance(expr, ColumnRef):
                raise SqlAnalysisError(
                    f"column {expr.name!r} must appear in GROUP BY or an "
                    "aggregate function"
                )
            return None

        return keys, aggregates, lookup

    def _windowing(self, scope: Scope, names: dict[int, str]):
        """The window specs found so far and the lookup turning each
        window call into one; a call that is a whole select item outputs
        under the item's name (``names``, by node identity)."""
        specs: list[WindowSpec] = []

        def lookup(node: ast.SqlExpr) -> Expr | None:
            if not isinstance(node, ast.WindowCall):
                return None
            func = node.func
            name = names.get(id(node)) or self._fresh(func.name.lower())
            specs.append(WindowSpec(
                func.name,
                self.convert(func.args[0], scope) if func.args else None,
                name,
                partition_by=[self.convert(e, scope) for e in node.partition_by],
                order_by=[(self.convert(e, scope), asc) for e, asc in node.order_by],
            ))
            return ColumnRef(name)

        return specs, lookup


def _is_aggregate(node: ast.SqlExpr) -> bool:
    return isinstance(node, ast.FuncCall) and _is_aggregate_name(node.name)


def _is_window(node: ast.SqlExpr) -> bool:
    return isinstance(node, ast.WindowCall)
