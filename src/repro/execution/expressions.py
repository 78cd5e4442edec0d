"""Scalar expressions with SQL NULL semantics.

Expressions evaluate vectorized over :class:`RowBlock` s.  Every
expression node can also *compile itself to a Python closure*
(:meth:`Expr.compiled`), removing per-row type/kind dispatch from the
inner loop — the spiritual equivalent of the paper's just-in-time
compilation of expression evaluation ("to avoid branching by compiling
the necessary assembly code on the fly", section 6.1), at the level
Python permits.

Three-valued logic is implemented throughout: any comparison or
arithmetic with NULL is NULL; AND/OR follow Kleene logic; predicates
treat NULL as not-passing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..columnar.row_block import RowBlock
from ..errors import ExecutionError

# ---------------------------------------------------------------------------
# base


class Expr:
    """Base class for scalar expression nodes."""

    def evaluate(self, block: RowBlock) -> list:
        """Evaluate over a block; returns one value per row."""
        return self.compiled()(block)

    def compiled(self):
        """Return a closure ``f(block) -> list`` specialized for this
        expression tree (cached)."""
        compiled = getattr(self, "_compiled", None)
        if compiled is None:
            compiled = self._compile()
            self._compiled = compiled
        return compiled

    def _compile(self):
        raise NotImplementedError

    def referenced_columns(self) -> set[str]:
        """Names of all columns this expression reads."""
        raise NotImplementedError

    def evaluate_row(self, row: dict):
        """Evaluate against a single row dict (planner/constant use)."""
        block = RowBlock(
            columns={name: [value] for name, value in row.items()}, row_count=1
        )
        return self.evaluate(block)[0]

    # sugar for building trees in Python (examples / designer / tests)
    def __eq__(self, other):  # type: ignore[override]
        return Comparison("=", self, _wrap(other))

    def __ne__(self, other):  # type: ignore[override]
        return Comparison("<>", self, _wrap(other))

    def __lt__(self, other):
        return Comparison("<", self, _wrap(other))

    def __le__(self, other):
        return Comparison("<=", self, _wrap(other))

    def __gt__(self, other):
        return Comparison(">", self, _wrap(other))

    def __ge__(self, other):
        return Comparison(">=", self, _wrap(other))

    def __add__(self, other):
        return Arithmetic("+", self, _wrap(other))

    def __sub__(self, other):
        return Arithmetic("-", self, _wrap(other))

    def __mul__(self, other):
        return Arithmetic("*", self, _wrap(other))

    def __truediv__(self, other):
        return Arithmetic("/", self, _wrap(other))

    def __repr__(self) -> str:
        """SQL text the parser reads back, made once by the subclass's
        ``_render``: an ``Expr`` is immutable, so its text is kept on it
        beside its compiled forms (a plan's Scans share one predicate)."""
        text = self.__dict__.get("_text")
        if text is None:
            text = self._text = self._render()
        return text

    def __hash__(self):
        return hash(repr(self))


def _wrap(value) -> "Expr":
    return value if isinstance(value, Expr) else Literal(value)


# ---------------------------------------------------------------------------
# leaves


class ColumnRef(Expr):
    """Reference to a column by name."""

    def __init__(self, name: str):
        self.name = name

    def _compile(self):
        name = self.name

        def run(block: RowBlock) -> list:
            return block.column(name)

        return run

    def referenced_columns(self) -> set[str]:
        return {self.name}

    def _render(self) -> str:
        return _sql_name(self.name)  # (a keyword double-quoted)


def _sql_name(name: str) -> str:
    global _sql_name  # the lexer's, bound at first use: repro.sql imports this module
    from ..sql.lexer import sql_name as _sql_name

    return _sql_name(name)


class Literal(Expr):
    """A constant value."""

    def __init__(self, value):
        self.value = value

    def _compile(self):
        value = self.value

        def run(block: RowBlock) -> list:
            return [value] * block.row_count

        return run

    def referenced_columns(self) -> set[str]:
        return set()

    def _render(self) -> str:
        # an expression's repr is SQL the parser reads back: the journal
        # keeps a partition expression so (``durability.codec`` checks it)
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return "NULL" if self.value is None else repr(self.value)


# ---------------------------------------------------------------------------
# comparisons

_COMPARATORS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Comparison(Expr):
    """Binary comparison with NULL -> NULL semantics."""

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _COMPARATORS:
            raise ExecutionError(f"unknown comparison {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def _compile(self):
        compare = _COMPARATORS[self.op]
        left = self.left.compiled()
        right = self.right.compiled()

        def run(block: RowBlock) -> list:
            return [
                None if a is None or b is None else compare(a, b)
                for a, b in zip(left(block), right(block))
            ]

        return run

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def _render(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Between(Expr):
    """``expr BETWEEN low AND high`` (inclusive)."""

    def __init__(self, value: Expr, low: Expr, high: Expr):
        self.value = value
        self.low = low
        self.high = high

    def _compile(self):
        value = self.value.compiled()
        low = self.low.compiled()
        high = self.high.compiled()

        def run(block: RowBlock) -> list:
            return [
                None if v is None or lo is None or hi is None else lo <= v <= hi
                for v, lo, hi in zip(value(block), low(block), high(block))
            ]

        return run

    def referenced_columns(self) -> set[str]:
        return (
            self.value.referenced_columns()
            | self.low.referenced_columns()
            | self.high.referenced_columns()
        )

    def _render(self) -> str:
        return f"({self.value!r} BETWEEN {self.low!r} AND {self.high!r})"


class InList(Expr):
    """``expr IN (v1, v2, ...)`` against constant values."""

    def __init__(self, value: Expr, options: list):
        self.value = value
        self.options = options

    def _compile(self):
        value = self.value.compiled()
        options = frozenset(self.options)
        # a miss against a list holding NULL is NULL, not FALSE
        miss = None if None in options else False

        def run(block: RowBlock) -> list:
            return [None if v is None else v in options or miss for v in value(block)]

        return run

    def referenced_columns(self) -> set[str]:
        return self.value.referenced_columns()

    def _render(self) -> str:
        options = ", ".join(sorted(repr(Literal(option)) for option in self.options))
        return f"({self.value!r} IN ({options}))"


class IsNull(Expr):
    """``expr IS [NOT] NULL``; never returns NULL itself."""

    def __init__(self, value: Expr, negated: bool = False):
        self.value = value
        self.negated = negated

    def _compile(self):
        value = self.value.compiled()
        negated = self.negated

        def run(block: RowBlock) -> list:
            if negated:
                return [v is not None for v in value(block)]
            return [v is None for v in value(block)]

        return run

    def referenced_columns(self) -> set[str]:
        return self.value.referenced_columns()

    def _render(self) -> str:
        middle = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.value!r} {middle})"


# ---------------------------------------------------------------------------
# boolean connectives (Kleene three-valued logic)


class And(Expr):
    """N-ary AND."""

    def __init__(self, *operands: Expr):
        if not operands:
            raise ExecutionError("AND needs operands")
        self.operands = list(operands)

    def _compile(self):
        compiled = [operand.compiled() for operand in self.operands]

        def run(block: RowBlock) -> list:
            result = compiled[0](block)
            for part in compiled[1:]:
                result = [_and3(a, b) for a, b in zip(result, part(block))]
            return result

        return run

    def referenced_columns(self) -> set[str]:
        out: set[str] = set()
        for operand in self.operands:
            out |= operand.referenced_columns()
        return out

    def _render(self) -> str:
        return "(" + " AND ".join(map(repr, self.operands)) + ")"


class Or(Expr):
    """N-ary OR."""

    def __init__(self, *operands: Expr):
        if not operands:
            raise ExecutionError("OR needs operands")
        self.operands = list(operands)

    def _compile(self):
        compiled = [operand.compiled() for operand in self.operands]

        def run(block: RowBlock) -> list:
            result = compiled[0](block)
            for part in compiled[1:]:
                result = [_or3(a, b) for a, b in zip(result, part(block))]
            return result

        return run

    def referenced_columns(self) -> set[str]:
        out: set[str] = set()
        for operand in self.operands:
            out |= operand.referenced_columns()
        return out

    def _render(self) -> str:
        return "(" + " OR ".join(map(repr, self.operands)) + ")"


class Not(Expr):
    """Logical NOT (NULL stays NULL)."""

    def __init__(self, operand: Expr):
        self.operand = operand

    def _compile(self):
        operand = self.operand.compiled()

        def run(block: RowBlock) -> list:
            return [None if v is None else not v for v in operand(block)]

        return run

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def _render(self) -> str:
        return f"(NOT {self.operand!r})"


def _and3(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _or3(a, b):
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


# ---------------------------------------------------------------------------
# arithmetic and functions


def _safe_div(a, b):
    if b == 0:
        raise ExecutionError("division by zero")
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    return a / b


_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _safe_div,
    "%": lambda a, b: a % b,
}


class Arithmetic(Expr):
    """Binary arithmetic with NULL propagation."""

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _ARITHMETIC:
            raise ExecutionError(f"unknown arithmetic op {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def _compile(self):
        apply = _ARITHMETIC[self.op]
        left = self.left.compiled()
        right = self.right.compiled()

        def run(block: RowBlock) -> list:
            return [
                None if a is None or b is None else apply(a, b)
                for a, b in zip(left(block), right(block))
            ]

        return run

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def _render(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


def _date_part(part: str):
    from ..types import days_to_date

    def extract(days: int) -> int:
        return getattr(days_to_date(days), part)

    return extract


_SCALAR_FUNCTIONS = {  # concurrency: immutable
    "ABS": abs,
    "LENGTH": len,
    "UPPER": str.upper,
    "LOWER": str.lower,
    "FLOOR": lambda v: int(v // 1),
    "CEIL": lambda v: -int(-v // 1),
    "ROUND": round,
    "NEGATE": lambda v: -v,
    # date parts over DATE day numbers (the paper's partition
    # expressions are typically month/year extractions, section 3.5)
    "YEAR": _date_part("year"),
    "MONTH": _date_part("month"),
    "DAY": _date_part("day"),
}


class FunctionCall(Expr):
    """Unary scalar function with NULL propagation."""

    def __init__(self, name: str, operand: Expr):
        key = name.upper()
        if key not in _SCALAR_FUNCTIONS:
            raise ExecutionError(f"unknown function {name!r}")
        self.name = key
        self.operand = operand

    def _compile(self):
        apply = _SCALAR_FUNCTIONS[self.name]
        operand = self.operand.compiled()

        def run(block: RowBlock) -> list:
            return [None if v is None else apply(v) for v in operand(block)]

        return run

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def _render(self) -> str:
        return f"{self.name}({self.operand!r})"


class Like(Expr):
    """SQL LIKE with ``%`` and ``_`` wildcards (NULL input -> NULL)."""

    def __init__(self, value: Expr, pattern: str, negated: bool = False):
        import re

        self.value = value
        self.pattern = pattern
        self.negated = negated
        regex_parts = []
        for char in pattern:
            if char == "%":
                regex_parts.append(".*")
            elif char == "_":
                regex_parts.append(".")
            else:
                regex_parts.append(re.escape(char))
        self._regex = re.compile("^" + "".join(regex_parts) + "$", re.DOTALL)

    def _compile(self):
        regex = self._regex
        negated = self.negated
        value = self.value.compiled()

        def run(block: RowBlock) -> list:
            out = []
            for v in value(block):
                if v is None:
                    out.append(None)
                else:
                    matched = regex.match(v) is not None
                    out.append(not matched if negated else matched)
            return out

        return run

    def referenced_columns(self) -> set[str]:
        return self.value.referenced_columns()

    def _render(self) -> str:
        middle = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.value!r} {middle} {Literal(self.pattern)!r})"


class CaseWhen(Expr):
    """``CASE WHEN cond THEN value ... ELSE default END``."""

    def __init__(self, branches: list[tuple[Expr, Expr]], default: Expr | None = None):
        self.branches = branches
        self.default = default or Literal(None)

    def _compile(self):
        compiled = [
            (condition.compiled(), value.compiled())
            for condition, value in self.branches
        ]
        default = self.default.compiled()

        def run(block: RowBlock) -> list:
            conditions = [(c(block), v(block)) for c, v in compiled]
            defaults = default(block)
            out = []
            for index in range(block.row_count):
                for condition_values, branch_values in conditions:
                    if condition_values[index] is True:
                        out.append(branch_values[index])
                        break
                else:
                    out.append(defaults[index])
            return out

        return run

    def referenced_columns(self) -> set[str]:
        out = self.default.referenced_columns()
        for condition, value in self.branches:
            out |= condition.referenced_columns() | value.referenced_columns()
        return out

    def _render(self) -> str:
        parts = " ".join(
            f"WHEN {condition!r} THEN {value!r}"
            for condition, value in self.branches
        )
        return f"(CASE {parts} ELSE {self.default!r} END)"


# ---------------------------------------------------------------------------
# tree rewriting


def substitute_columns(expr: Expr, mapping: dict[str, str]) -> Expr:
    """Return a copy of ``expr`` with column names rewritten per
    ``mapping`` (used to translate aliased output names back to stored
    column names when pushing predicates into scans)."""
    if isinstance(expr, ColumnRef):
        return ColumnRef(mapping.get(expr.name, expr.name))
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, Comparison):
        return Comparison(
            expr.op,
            substitute_columns(expr.left, mapping),
            substitute_columns(expr.right, mapping),
        )
    if isinstance(expr, Arithmetic):
        return Arithmetic(
            expr.op,
            substitute_columns(expr.left, mapping),
            substitute_columns(expr.right, mapping),
        )
    if isinstance(expr, Between):
        return Between(
            substitute_columns(expr.value, mapping),
            substitute_columns(expr.low, mapping),
            substitute_columns(expr.high, mapping),
        )
    if isinstance(expr, InList):
        return InList(substitute_columns(expr.value, mapping), expr.options)
    if isinstance(expr, IsNull):
        return IsNull(substitute_columns(expr.value, mapping), expr.negated)
    if isinstance(expr, And):
        return And(*(substitute_columns(op, mapping) for op in expr.operands))
    if isinstance(expr, Or):
        return Or(*(substitute_columns(op, mapping) for op in expr.operands))
    if isinstance(expr, Not):
        return Not(substitute_columns(expr.operand, mapping))
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, substitute_columns(expr.operand, mapping))
    if isinstance(expr, Like):
        return Like(substitute_columns(expr.value, mapping), expr.pattern, expr.negated)
    if isinstance(expr, CaseWhen):
        return CaseWhen(
            [
                (
                    substitute_columns(condition, mapping),
                    substitute_columns(value, mapping),
                )
                for condition, value in expr.branches
            ],
            substitute_columns(expr.default, mapping),
        )
    raise ExecutionError(f"cannot substitute into {type(expr).__name__}")


# ---------------------------------------------------------------------------
# predicate analysis helpers (used by Scan push-down and the optimizer)


def column_range_from_predicate(expr: Expr | None) -> dict[str, tuple]:
    """Extract per-column (low, high) bounds from a conjunctive
    predicate, for ROS container / block pruning.

    Understands ``col <op> literal`` (and the mirrored form), BETWEEN,
    and conjunctions thereof.  Anything else contributes no bound.
    Derived once per expression and cached on it (as its kernel is), so
    every node's Scan of one plan shares the result: callers only read it.
    """
    if expr is None:
        return {}
    cached = getattr(expr, "_prune_bounds", None)
    if cached is not None:
        return cached
    bounds: dict[str, tuple] = {}
    unordered: set[str] = set()

    def tighten(column: str, low, high):
        if column in unordered:
            return
        current_low, current_high = bounds.get(column, (None, None))
        try:
            if low is not None and (current_low is None or low > current_low):
                current_low = low
            if high is not None and (current_high is None or high < current_high):
                current_high = high
        except TypeError:
            # literals that do not order against each other: one of
            # them does not order against the column, so no bound
            unordered.add(column)
            bounds.pop(column, None)
            return
        bounds[column] = (current_low, current_high)

    def walk(node: Expr):
        if isinstance(node, And):
            for operand in node.operands:
                walk(operand)
            return
        if isinstance(node, Between) and isinstance(node.value, ColumnRef):
            if isinstance(node.low, Literal) and isinstance(node.high, Literal):
                tighten(node.value.name, node.low.value, node.high.value)
            return
        if isinstance(node, Comparison):
            column, op, literal = None, node.op, None
            if isinstance(node.left, ColumnRef) and isinstance(node.right, Literal):
                column, literal = node.left.name, node.right.value
            elif isinstance(node.right, ColumnRef) and isinstance(node.left, Literal):
                column, literal = node.right.name, node.left.value
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            if column is None or literal is None:
                return
            if op == "=":
                tighten(column, literal, literal)
            elif op in ("<", "<="):
                tighten(column, None, literal)
            elif op in (">", ">="):
                tighten(column, literal, None)

    walk(expr)
    expr._prune_bounds = bounds
    return bounds
