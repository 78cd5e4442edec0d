"""Semantic analysis: SQL AST -> logical plans and DDL actions.

Name resolution works in two spaces (matching the planner/executor
convention): each FROM item's columns get *output names* — the bare
column name when unambiguous across the FROM list, otherwise
``alias.column`` — and scans carry the raw->output rename map.
Aggregates are detected in the select list / HAVING / ORDER BY, hoisted
into a GroupBy node under generated names, and the outer expressions
are rewritten to reference them.
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
    substitute_columns,
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
from ..optimizer.rewrite import conjoin, split_conjuncts
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

    def item_of_output(self, output: str) -> _FromItem:
        for item in self.items:
            if output in item.output_names:
                return item
        raise SqlAnalysisError(f"no FROM item produces {output!r}")


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

    def convert(self, node: ast.SqlExpr, scope: Scope) -> Expr:
        """SqlExpr -> runtime Expr over output names.  Aggregate and
        window calls are rejected here; callers hoist them first."""
        if isinstance(node, ast.Constant):
            return Literal(node.value)
        if isinstance(node, ast.Identifier):
            return ColumnRef(scope.resolve(node))
        if isinstance(node, ast.BinaryOp):
            left = self.convert(node.left, scope)
            right = self.convert(node.right, scope)
            if node.op == "AND":
                return And(left, right)
            if node.op == "OR":
                return Or(left, right)
            if node.op in ("=", "<>", "<", "<=", ">", ">="):
                return Comparison(node.op, left, right)
            return Arithmetic(node.op, left, right)
        if isinstance(node, ast.UnaryOp):
            if node.op == "NOT":
                return Not(self.convert(node.operand, scope))
            operand = self.convert(node.operand, scope)
            if isinstance(operand, Literal) and operand.value is not None:
                return Literal(-operand.value)
            return Arithmetic("-", Literal(0), operand)
        if isinstance(node, ast.BetweenExpr):
            expr = Between(
                self.convert(node.value, scope),
                self.convert(node.low, scope),
                self.convert(node.high, scope),
            )
            return Not(expr) if node.negated else expr
        if isinstance(node, ast.InExpr):
            values = [self.convert(option, scope) for option in node.options]
            if not all(isinstance(value, Literal) for value in values):  # (-1 folds to one)
                raise SqlAnalysisError("IN list must contain constants")
            expr = InList(self.convert(node.value, scope), [v.value for v in values])
            return Not(expr) if node.negated else expr
        if isinstance(node, ast.IsNullExpr):
            return IsNull(self.convert(node.value, scope), node.negated)
        if isinstance(node, ast.LikeExpr):
            return Like(self.convert(node.value, scope), node.pattern, node.negated)
        if isinstance(node, ast.CaseExpr):
            branches = [
                (self.convert(cond, scope), self.convert(value, scope))
                for cond, value in node.branches
            ]
            default = (
                self.convert(node.default, scope)
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
            return FunctionCall(node.name, self.convert(node.args[0], scope))
        if isinstance(node, ast.WindowCall):
            raise SqlAnalysisError("window function not allowed in this context")
        if isinstance(node, ast.Star):
            raise SqlAnalysisError("* not allowed in this context")
        raise SqlAnalysisError(f"cannot analyze {type(node).__name__}")

    # -- aggregate hoisting ------------------------------------------------

    def _contains_aggregate(self, node: ast.SqlExpr) -> bool:
        if isinstance(node, ast.FuncCall):
            return _is_aggregate_name(node.name) or any(
                self._contains_aggregate(arg) for arg in node.args
            )
        if isinstance(node, ast.WindowCall):
            return False
        if isinstance(node, ast.BinaryOp):
            return self._contains_aggregate(node.left) or self._contains_aggregate(
                node.right
            )
        if isinstance(node, ast.UnaryOp):
            return self._contains_aggregate(node.operand)
        if isinstance(node, ast.BetweenExpr):
            return any(
                self._contains_aggregate(n)
                for n in (node.value, node.low, node.high)
            )
        if isinstance(node, (ast.InExpr, ast.IsNullExpr, ast.LikeExpr)):
            return self._contains_aggregate(node.value)
        if isinstance(node, ast.CaseExpr):
            parts = [n for pair in node.branches for n in pair]
            if node.default is not None:
                parts.append(node.default)
            return any(self._contains_aggregate(n) for n in parts)
        return False

    def _contains_window(self, node: ast.SqlExpr) -> bool:
        if isinstance(node, ast.WindowCall):
            return True
        if isinstance(node, ast.BinaryOp):
            return self._contains_window(node.left) or self._contains_window(
                node.right
            )
        if isinstance(node, ast.UnaryOp):
            return self._contains_window(node.operand)
        return False

    def _hoist_aggregates(
        self,
        node: ast.SqlExpr,
        scope: Scope,
        registry: dict[str, AggregateSpec],
    ) -> ast.SqlExpr:
        """Replace aggregate calls in the tree with identifiers naming
        hoisted AggregateSpecs (dedup by description)."""
        if isinstance(node, ast.FuncCall) and _is_aggregate_name(node.name):
            arg = None
            if node.star:
                if node.name != "COUNT":
                    raise SqlAnalysisError(f"{node.name}(*) is not valid")
            else:
                if len(node.args) != 1:
                    raise SqlAnalysisError(
                        f"aggregate {node.name} expects one argument"
                    )
                arg = self.convert(node.args[0], scope)
            key = f"{node.name}|{node.distinct}|{arg!r}"
            if key not in registry:
                registry[key] = AggregateSpec(
                    node.name, arg, self._fresh("agg"), node.distinct
                )
            return ast.Identifier(registry[key].output_name)
        if isinstance(node, ast.BinaryOp):
            return ast.BinaryOp(
                node.op,
                self._hoist_aggregates(node.left, scope, registry),
                self._hoist_aggregates(node.right, scope, registry),
            )
        if isinstance(node, ast.UnaryOp):
            return ast.UnaryOp(
                node.op, self._hoist_aggregates(node.operand, scope, registry)
            )
        if isinstance(node, ast.BetweenExpr):
            return ast.BetweenExpr(
                self._hoist_aggregates(node.value, scope, registry),
                self._hoist_aggregates(node.low, scope, registry),
                self._hoist_aggregates(node.high, scope, registry),
                node.negated,
            )
        if isinstance(node, (ast.InExpr,)):
            return ast.InExpr(
                self._hoist_aggregates(node.value, scope, registry),
                node.options,
                node.negated,
            )
        if isinstance(node, ast.IsNullExpr):
            return ast.IsNullExpr(
                self._hoist_aggregates(node.value, scope, registry), node.negated
            )
        if isinstance(node, ast.CaseExpr):
            return ast.CaseExpr(
                [
                    (
                        self._hoist_aggregates(cond, scope, registry),
                        self._hoist_aggregates(value, scope, registry),
                    )
                    for cond, value in node.branches
                ],
                self._hoist_aggregates(node.default, scope, registry)
                if node.default is not None
                else None,
            )
        return node

    # -- SELECT analysis -----------------------------------------------------

    def analyze_select(self, stmt: ast.SelectStatement) -> LogicalNode:
        """Build the logical plan for a SELECT."""
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

        # classify: aggregation needed?
        registry: dict[str, AggregateSpec] = {}
        has_window = any(self._contains_window(item.expr) for item in items)
        aggregated = bool(stmt.group_by) or any(
            self._contains_aggregate(item.expr) for item in items
        ) or (stmt.having is not None)
        if has_window and aggregated:
            raise SqlAnalysisError(
                "window functions cannot be combined with GROUP BY here"
            )

        where_conjuncts = self._split_ast_conjuncts(stmt.where)
        subqueries = [
            conjunct
            for conjunct in where_conjuncts
            if isinstance(conjunct, ast.InSubquery)
        ]
        plain = [
            conjunct
            for conjunct in where_conjuncts
            if not isinstance(conjunct, ast.InSubquery)
        ]
        plan = self._build_join_tree(
            stmt, scope, [self.convert(conjunct, scope) for conjunct in plain]
        )
        for subquery in subqueries:
            plan = self._flatten_in_subquery(plan, subquery, scope)

        select_names: list[str] = []
        select_exprs: dict[str, Expr] = {}
        order_exprs: list[tuple[Expr, bool]] = []

        if aggregated:
            plan, post_scope_names = self._plan_aggregation(
                stmt, items, scope, registry, plan,
                select_names, select_exprs, order_exprs,
            )
        elif has_window:
            plan = self._plan_windows(
                stmt, items, scope, plan, select_names, select_exprs, order_exprs
            )
        else:
            for item in items:
                expr = self.convert(item.expr, scope)
                name = item.alias or self._default_name(item.expr)
                if name in select_exprs:
                    name = self._fresh(name)
                select_names.append(name)
                select_exprs[name] = expr
            for order_ast, ascending in stmt.order_by:
                order_exprs.append(
                    (self._order_expr(order_ast, scope, items, select_exprs), ascending)
                )
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

    @staticmethod
    def _split_ast_conjuncts(node: ast.SqlExpr | None) -> list:
        if node is None:
            return []
        if isinstance(node, ast.BinaryOp) and node.op == "AND":
            return Analyzer._split_ast_conjuncts(
                node.left
            ) + Analyzer._split_ast_conjuncts(node.right)
        return [node]

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
        return JoinNode(
            plan,
            subplan,
            JoinType.ANTI if subquery.negated else JoinType.SEMI,
            [value],
            [ColumnRef(output)],
        )

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
        return self._fresh("col")

    def _order_expr(
        self, node: ast.SqlExpr, scope: Scope, items, select_exprs: dict[str, Expr]
    ) -> Expr:
        # positional ORDER BY 2 / alias reference / plain expression
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            names = list(select_exprs)
            index = node.value - 1
            if not 0 <= index < len(names):
                raise SqlAnalysisError(f"ORDER BY position {node.value} out of range")
            return ColumnRef(names[index])
        if isinstance(node, ast.Identifier) and node.qualifier is None:
            if node.name in select_exprs:
                return ColumnRef(node.name)
        return self.convert(node, scope)

    # -- join tree ----------------------------------------------------------------

    def _build_join_tree(
        self, stmt: ast.SelectStatement, scope: Scope, where: list[Expr]
    ) -> LogicalNode:
        items_by_name = {item.ref.name: item for item in scope.items}
        # split WHERE into: equi-join conditions between items, per-item
        # filters, and multi-item residuals.
        equi_conditions: list[tuple[str, str, Expr, Expr]] = []
        residuals: list[Expr] = []
        for conjunct in where:
            classified = self._classify_conjunct(conjunct, scope)
            if classified is not None:
                equi_conditions.append(classified)
            else:
                residuals.append(conjunct)

        scans: dict[str, LogicalNode] = {}
        reachable: dict[str, set[str]] = {}
        for item in scope.items:
            scans[item.ref.name] = ScanNode(
                item.ref.table,
                list(item.table_columns),
                rename=dict(item.rename),
                alias=item.ref.name,
            )
            reachable[item.ref.name] = item.output_names

        # start with the comma-joined FROM tables (inner), then apply
        # explicit JOIN clauses in order.
        plan: LogicalNode | None = None
        joined: set[str] = set()
        plan_columns: set[str] = set()

        def attach(name: str, join_type: JoinType, condition: Expr | None):
            nonlocal plan, plan_columns
            right = scans[name]
            right_columns = reachable[name]
            if plan is None:
                plan = right
                plan_columns = set(right_columns)
                joined.add(name)
                return
            left_keys: list[Expr] = []
            right_keys: list[Expr] = []
            residual_parts: list[Expr] = []
            if condition is not None:
                for conjunct in split_conjuncts(condition):
                    pair = self._split_equi(
                        conjunct, plan_columns, right_columns
                    )
                    if pair is not None:
                        left_keys.append(pair[0])
                        right_keys.append(pair[1])
                    else:
                        residual_parts.append(conjunct)
            if join_type is JoinType.INNER:
                for quad in list(equi_conditions):
                    a_item, b_item, a_expr, b_expr = quad
                    if a_item in joined and b_item == name:
                        left_keys.append(a_expr)
                        right_keys.append(b_expr)
                        equi_conditions.remove(quad)
                    elif b_item in joined and a_item == name:
                        left_keys.append(b_expr)
                        right_keys.append(a_expr)
                        equi_conditions.remove(quad)
            plan = JoinNode(
                plan,
                right,
                join_type,
                left_keys,
                right_keys,
                residual=conjoin(residual_parts),
            )
            plan_columns |= right_columns
            joined.add(name)

        for ref in stmt.from_tables:
            attach(ref.name, JoinType.INNER, None)
        for join in stmt.joins:
            condition = (
                self.convert(join.condition, scope)
                if join.condition is not None
                else None
            )
            attach(join.table.name, JoinType(join.join_type), condition)

        # unconsumed equi conditions + residuals go into a filter above
        leftovers = residuals + [
            Comparison("=", a_expr, b_expr)
            for _, _, a_expr, b_expr in equi_conditions
        ]
        predicate = conjoin(leftovers)
        if predicate is not None:
            plan = FilterNode(plan, predicate)
        return plan

    def _classify_conjunct(self, conjunct: Expr, scope: Scope):
        """Detect `a.x = b.y` between two different FROM items."""
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            return None
        left, right = conjunct.left, conjunct.right
        if not (isinstance(left, ColumnRef) and isinstance(right, ColumnRef)):
            return None
        try:
            left_item = scope.item_of_output(left.name)
            right_item = scope.item_of_output(right.name)
        except SqlAnalysisError:
            return None
        if left_item is right_item:
            return None
        return (left_item.ref.name, right_item.ref.name, left, right)

    @staticmethod
    def _split_equi(conjunct: Expr, left_columns: set[str], right_columns: set[str]):
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            return None
        a, b = conjunct.left, conjunct.right
        a_cols = a.referenced_columns()
        b_cols = b.referenced_columns()
        if a_cols and a_cols <= left_columns and b_cols and b_cols <= right_columns:
            return a, b
        if b_cols and b_cols <= left_columns and a_cols and a_cols <= right_columns:
            return b, a
        return None

    # -- aggregation ------------------------------------------------------------------

    def _plan_aggregation(
        self, stmt, items, scope, registry, plan,
        select_names, select_exprs, order_exprs,
    ):
        group_keys: list[tuple[str, Expr]] = []
        key_by_repr: dict[str, str] = {}
        for group_ast in stmt.group_by:
            expr = self.convert(group_ast, scope)
            if isinstance(expr, ColumnRef):
                name = expr.name
            else:
                name = self._fresh("gk")
            group_keys.append((name, expr))
            key_by_repr[repr(expr)] = name

        def finish_expr(node: ast.SqlExpr) -> Expr:
            hoisted = self._hoist_aggregates(node, scope, registry)
            return self._post_group_expr(hoisted, scope, key_by_repr, registry)

        for item in items:
            expr = finish_expr(item.expr)
            name = item.alias or self._default_name(item.expr)
            if name in select_exprs:
                name = self._fresh(name)
            self._check_grouped(expr, key_by_repr, registry)
            select_names.append(name)
            select_exprs[name] = expr
        having_expr = None
        if stmt.having is not None:
            having_expr = finish_expr(stmt.having)
        for order_ast, ascending in stmt.order_by:
            if (
                isinstance(order_ast, ast.Identifier)
                and order_ast.qualifier is None
                and order_ast.name in select_exprs
            ):
                order_exprs.append((ColumnRef(order_ast.name), ascending))
            elif isinstance(order_ast, ast.Constant) and isinstance(
                order_ast.value, int
            ):
                names = list(select_exprs)
                order_exprs.append(
                    (ColumnRef(names[order_ast.value - 1]), ascending)
                )
            else:
                order_exprs.append((finish_expr(order_ast), ascending))
        group_node = GroupByNode(plan, group_keys, list(registry.values()), having=having_expr)
        return ProjectNode(group_node, select_exprs), select_names

    def _post_group_expr(
        self, node: ast.SqlExpr, scope: Scope, key_by_repr, registry
    ) -> Expr:
        """Convert a hoisted expression in the post-GROUP BY scope:
        aggregate placeholders become ColumnRefs; other sub-expressions
        must match a group key."""
        agg_names = {spec.output_name for spec in registry.values()}
        if isinstance(node, ast.Identifier) and node.qualifier is None:
            if node.name in agg_names:
                return ColumnRef(node.name)
        converted = None
        try:
            converted = self.convert(node, scope)
        except SqlAnalysisError:
            pass
        if converted is not None and repr(converted) in key_by_repr:
            return ColumnRef(key_by_repr[repr(converted)])
        # descend structurally
        if isinstance(node, ast.Identifier):
            if converted is not None:
                return converted  # will be validated by _check_grouped
            return ColumnRef(node.name)
        if isinstance(node, ast.Constant):
            return Literal(node.value)
        if isinstance(node, ast.BinaryOp):
            left = self._post_group_expr(node.left, scope, key_by_repr, registry)
            right = self._post_group_expr(node.right, scope, key_by_repr, registry)
            if node.op == "AND":
                return And(left, right)
            if node.op == "OR":
                return Or(left, right)
            if node.op in ("=", "<>", "<", "<=", ">", ">="):
                return Comparison(node.op, left, right)
            return Arithmetic(node.op, left, right)
        if isinstance(node, ast.UnaryOp):
            operand = self._post_group_expr(node.operand, scope, key_by_repr, registry)
            if node.op == "NOT":
                return Not(operand)
            return Arithmetic("-", Literal(0), operand)
        if isinstance(node, ast.BetweenExpr):
            return Between(
                self._post_group_expr(node.value, scope, key_by_repr, registry),
                self._post_group_expr(node.low, scope, key_by_repr, registry),
                self._post_group_expr(node.high, scope, key_by_repr, registry),
            )
        if isinstance(node, ast.IsNullExpr):
            return IsNull(
                self._post_group_expr(node.value, scope, key_by_repr, registry),
                node.negated,
            )
        if converted is not None:
            return converted
        raise SqlAnalysisError(
            f"expression {type(node).__name__} is not valid after GROUP BY"
        )

    def _check_grouped(self, expr: Expr, key_by_repr, registry) -> None:
        valid = set(key_by_repr.values()) | {
            spec.output_name for spec in registry.values()
        }
        stray = expr.referenced_columns() - valid
        if stray:
            raise SqlAnalysisError(
                f"column(s) {sorted(stray)} must appear in GROUP BY or an "
                "aggregate function"
            )

    # -- windows --------------------------------------------------------------------------

    def _plan_windows(
        self, stmt, items, scope, plan, select_names, select_exprs, order_exprs
    ):
        specs: list[WindowSpec] = []
        for item in items:
            if isinstance(item.expr, ast.WindowCall):
                call = item.expr
                name = item.alias or self._fresh(call.func.name.lower())
                arg = None
                if call.func.args:
                    arg = self.convert(call.func.args[0], scope)
                specs.append(
                    WindowSpec(
                        call.func.name,
                        arg,
                        name,
                        partition_by=[
                            self.convert(e, scope) for e in call.partition_by
                        ],
                        order_by=[
                            (self.convert(e, scope), asc)
                            for e, asc in call.order_by
                        ],
                    )
                )
                select_names.append(name)
                select_exprs[name] = ColumnRef(name)
            else:
                expr = self.convert(item.expr, scope)
                name = item.alias or self._default_name(item.expr)
                select_names.append(name)
                select_exprs[name] = expr
        plan = AnalyticNode(plan, specs)
        for order_ast, ascending in stmt.order_by:
            if (
                isinstance(order_ast, ast.Identifier)
                and order_ast.qualifier is None
                and order_ast.name in select_exprs
            ):
                order_exprs.append((ColumnRef(order_ast.name), ascending))
            else:
                order_exprs.append((self.convert(order_ast, scope), ascending))
        return ProjectNode(plan, select_exprs)
