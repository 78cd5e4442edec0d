"""SQL parser: recursive descent for statements, precedence climbing
for expressions.

An expression is one loop over a binding-power table (:data:`_POWER`):
an operand, then every infix operator that binds at least as tightly as
the caller asked for.  Prefix ``NOT`` binds between ``AND`` and the
comparisons; the comparisons do not chain, and BETWEEN / IN / LIKE /
IS [NOT] NULL and their NOT forms are postfix at comparison level.
"""

from __future__ import annotations

import datetime as _dt

from ..errors import SqlSyntaxError
from ..types import date_to_days, timestamp_to_seconds
from . import ast
from .lexer import Token, tokenize

_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
_WINDOW_ONLY = {"ROW_NUMBER", "RANK", "DENSE_RANK"}

#: Binding power of each infix operator and postfix comparison word,
#: loosest first (``op`` and ``keyword`` token values never coincide).
_OR, _AND, _NOT, _COMPARE, _ADD, _MULTIPLY = 1, 2, 3, 4, 5, 6
_POWER = {"OR": _OR, "AND": _AND, "+": _ADD, "-": _ADD, "*": _MULTIPLY, "/": _MULTIPLY,
          "%": _MULTIPLY, **dict.fromkeys(("=", "<>", "!=", "<", "<=", ">", ">=", "NOT",
                                          "BETWEEN", "IN", "LIKE", "IS"), _COMPARE)}
_CONSTANTS = {"NULL": None, "TRUE": True, "FALSE": False}


class Parser:
    """One-statement-at-a-time parser.  The token list always ends with
    its ``eof`` token and the position never passes it, so the helpers
    index the list directly."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.position = 0

    # -- token helpers ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.position + offset]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "eof":
            self.position += 1
        return token

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        token = self.tokens[self.position]
        if token.kind != kind or (value is not None and token.value != value):
            return None
        if kind != "eof":
            self.position += 1
        return token

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            actual = self.tokens[self.position]
            raise SqlSyntaxError(
                f"expected {value or kind}, found {actual.value or actual.kind!r} "
                f"at position {actual.position}"
            )
        return token

    def _integer(self) -> int:
        """A LIMIT, OFFSET or AT EPOCH operand: digits only."""
        token = self.expect("number")
        if token.value.isdecimal():
            return int(token.value)
        raise SqlSyntaxError(f"expected an integer, found {token.value!r} at {token.position}")

    def _list(self, item) -> list:
        """``item()`` once, then again after each comma."""
        items = [item()]
        while self.accept("op", ","):
            items.append(item())
        return items

    def _ident(self) -> str:
        return self.expect("ident").value

    def _idents(self) -> list[str]:
        """A parenthesised list of identifiers."""
        self.expect("op", "(")
        names = self._list(self._ident)
        self.expect("op", ")")
        return names

    def accept_keyword(self, *words: str) -> bool:
        saved = self.position
        for word in words:
            if not self.accept("keyword", word):
                self.position = saved
                return False
        return True

    # -- entry points -----------------------------------------------------------

    def parse_statement(self):
        """Parse exactly one statement."""
        statement = self._statement()
        self.accept("op", ";")
        self.expect("eof")
        return statement

    def _statement(self):
        token = self.peek()
        word = token.value if token.kind == "keyword" else None
        if word == "EXPLAIN":
            self.advance()
            analyze = self.accept("keyword", "ANALYZE") is not None
            return ast.ExplainStatement(self._select(), analyze=analyze)
        if word == "PROFILE":
            self.advance()
            return ast.ExplainStatement(self._select(), analyze=True)
        if word == "AT" or word == "SELECT":
            return self._select()
        if word == "INSERT":
            return self._insert()
        if word == "UPDATE":
            return self._update()
        if word == "DELETE":
            return self._delete()
        if word == "CREATE":
            self.advance()
            if self.peek().matches("keyword", "TABLE"):
                return self._create_table()
            if self.peek().matches("keyword", "PROJECTION"):
                return self._create_projection()
            raise SqlSyntaxError("expected TABLE or PROJECTION after CREATE")
        if word == "DROP":
            self.advance()
            self.expect("keyword", "TABLE")
            return ast.DropTableStatement(self._ident())
        if word == "COPY":
            return self._copy()
        raise SqlSyntaxError(f"cannot parse statement starting with {token.value!r}")

    # -- SELECT --------------------------------------------------------------------

    def _select(self) -> ast.SelectStatement:
        at_epoch = None
        if self.accept("keyword", "AT"):
            self.expect("keyword", "EPOCH")
            at_epoch = self._integer()
        self.expect("keyword", "SELECT")
        distinct = bool(self.accept("keyword", "DISTINCT"))
        statement = ast.SelectStatement(
            items=self._list(self._select_item), distinct=distinct, at_epoch=at_epoch
        )
        if self.accept("keyword", "FROM"):
            statement.from_tables.append(self._table_ref())
            while True:
                if self.accept("op", ","):
                    statement.from_tables.append(self._table_ref())
                    continue
                join_type = self._join_type()
                if join_type is None:
                    break
                table = self._table_ref()
                condition = None
                if self.accept("keyword", "ON"):
                    condition = self._expr()
                statement.joins.append(
                    ast.JoinClause(join_type, table, condition)
                )
        if self.accept("keyword", "WHERE"):
            statement.where = self._expr()
        if self.accept_keyword("GROUP", "BY"):
            statement.group_by = self._list(self._expr)
        if self.accept("keyword", "HAVING"):
            statement.having = self._expr()
        if self.accept_keyword("ORDER", "BY"):
            statement.order_by = self._list(self._order_item)
        if self.accept("keyword", "LIMIT"):
            statement.limit = self._integer()
        if self.accept("keyword", "OFFSET"):
            statement.offset = self._integer()
        return statement

    def _select_item(self) -> ast.SelectItem:
        token = self.peek()
        if token.matches("op", "*"):
            self.advance()
            return ast.SelectItem(ast.Star())
        if (
            token.kind == "ident"
            and self.peek(1).matches("op", ".")
            and self.peek(2).matches("op", "*")
        ):
            self.position += 3
            return ast.SelectItem(ast.Star(token.value))
        expr = self._expr()
        token = self.peek()
        if token.kind == "ident":
            self.position += 1
            return ast.SelectItem(expr, token.value)
        if token.matches("keyword", "AS"):
            self.position += 1
            return ast.SelectItem(expr, self._name())
        return ast.SelectItem(expr)

    def _name(self) -> str:
        token = self.advance()
        if token.kind == "ident" or token.kind == "keyword":
            return token.value if token.kind == "ident" else token.value.lower()
        raise SqlSyntaxError(f"expected name, found {token.value!r}")

    def _table_ref(self) -> ast.TableRef:
        table = self._ident()
        # schema-qualified names (v_monitor.query_profiles)
        while self.accept("op", "."):
            table += "." + self._ident()
        alias = None
        if self.accept("keyword", "AS"):
            alias = self._ident()
        elif self.peek().kind == "ident":
            alias = self.advance().value
        return ast.TableRef(table, alias)

    def _join_type(self) -> str | None:
        token = self.peek()
        word = token.value if token.kind == "keyword" else None
        if word in ("INNER", "LEFT", "RIGHT", "FULL", "SEMI", "ANTI"):
            self.advance()
            if word in ("LEFT", "RIGHT", "FULL"):
                self.accept("keyword", "OUTER")
        elif word != "JOIN":
            return None
        self.expect("keyword", "JOIN")
        return "INNER" if word == "JOIN" else word

    def _order_item(self) -> tuple[ast.SqlExpr, bool]:
        expr = self._expr()
        if self.accept("keyword", "DESC"):
            return expr, False
        self.accept("keyword", "ASC")
        return expr, True

    # -- DML --------------------------------------------------------------------------

    def _insert(self) -> ast.InsertStatement:
        self.expect("keyword", "INSERT")
        self.expect("keyword", "INTO")
        table = self._ident()
        columns = self._idents() if self.peek().matches("op", "(") else []
        self.expect("keyword", "VALUES")
        return ast.InsertStatement(table, columns, self._list(self._value_row))

    def _value_row(self) -> list[ast.SqlExpr]:
        self.expect("op", "(")
        values = self._list(self._expr)
        self.expect("op", ")")
        return values

    def _update(self) -> ast.UpdateStatement:
        self.expect("keyword", "UPDATE")
        table = self._ident()
        self.expect("keyword", "SET")

        def assignment() -> tuple[str, ast.SqlExpr]:
            column = self._ident()
            self.expect("op", "=")
            return column, self._expr()

        assignments = dict(self._list(assignment))
        where = self._expr() if self.accept("keyword", "WHERE") else None
        return ast.UpdateStatement(table, assignments, where)

    def _delete(self) -> ast.DeleteStatement:
        self.expect("keyword", "DELETE")
        self.expect("keyword", "FROM")
        table = self._ident()
        where = self._expr() if self.accept("keyword", "WHERE") else None
        return ast.DeleteStatement(table, where)

    # -- DDL ------------------------------------------------------------------------------

    def _create_table(self) -> ast.CreateTableStatement:
        self.expect("keyword", "TABLE")
        name = self._ident()
        self.expect("op", "(")
        columns: list[ast.ColumnSpec] = []
        primary_key: list[str] = []
        while True:
            if self.accept_keyword("PRIMARY", "KEY"):
                primary_key += self._idents()
            else:
                column = self._ident()
                type_token = self.peek()
                if type_token.kind in ("ident", "keyword"):
                    self.advance()
                    type_name = type_token.value
                else:
                    raise SqlSyntaxError(f"expected type after column {column!r}")
                if self.accept("op", "("):  # VARCHAR(20) etc: size ignored
                    self.expect("number")
                    self.expect("op", ")")
                encoding = None
                if self.accept("keyword", "ENCODING"):
                    encoding = self._ident()
                columns.append(ast.ColumnSpec(column, type_name, encoding))
            if not self.accept("op", ","):
                break
        self.expect("op", ")")
        partition_by = None
        if self.accept_keyword("PARTITION", "BY"):
            partition_by = self._expr()
        return ast.CreateTableStatement(name, columns, primary_key, partition_by)

    def _create_projection(self) -> ast.CreateProjectionStatement:
        self.expect("keyword", "PROJECTION")
        name = self._ident()

        def column() -> ast.ColumnSpec:
            column = self._ident()
            encoding = self.advance().value if self.accept("keyword", "ENCODING") else None
            return ast.ColumnSpec(column, "", encoding)

        self.expect("op", "(")
        columns = self._list(column)
        self.expect("op", ")")
        self.expect("keyword", "AS")
        self.expect("keyword", "SELECT")
        select_columns = [] if self.accept("op", "*") else self._list(self._ident)
        self.expect("keyword", "FROM")
        table = self._ident()
        order_by = self._list(self._ident) if self.accept_keyword("ORDER", "BY") else []
        segmented_by: list[str] | None = None
        if self.accept("keyword", "SEGMENTED"):
            self.expect("keyword", "BY")
            self.expect("keyword", "HASH")
            segmented_by = self._idents()
            self.accept_keyword("ALL", "NODES")
        elif self.accept("keyword", "UNSEGMENTED"):
            self.accept_keyword("ALL", "NODES")
            segmented_by = None
        return ast.CreateProjectionStatement(
            name, columns, table, select_columns, order_by, segmented_by
        )

    def _copy(self) -> ast.CopyStatement:
        self.expect("keyword", "COPY")
        table = self._ident()
        columns = self._idents() if self.peek().matches("op", "(") else []
        self.expect("keyword", "FROM")
        self.expect("keyword", "STDIN")
        return ast.CopyStatement(table, columns)

    # -- expressions ---------------------------------------------------------------------

    def _expr(self, floor: int = 0) -> ast.SqlExpr:
        """An expression of operators binding at least ``floor``.

        Precedence climbing: an operand (a prefix NOT takes the rest of
        its level), then each infix operator in ``[floor, ceiling]``
        with its right side parsed one level tighter, so the binary
        operators associate to the left.  After a comparison the
        ceiling drops below the comparisons, which therefore do not
        chain; after a prefix NOT it drops below NOT."""
        tokens = self.tokens
        token = tokens[self.position]
        if floor <= _NOT and token.kind == "keyword" and token.value == "NOT":
            self.position += 1
            left: ast.SqlExpr = ast.UnaryOp("NOT", self._expr(_NOT))
            ceiling = _NOT - 1
        else:
            left = self._unary()
            ceiling = _MULTIPLY
        while True:
            token = tokens[self.position]
            if token.kind != "op" and token.kind != "keyword":
                return left
            power = _POWER.get(token.value)
            if power is None or power < floor or power > ceiling:
                return left
            self.position += 1
            if power == _COMPARE:
                left = self._comparison(left, token.value)
                ceiling = _COMPARE - 1
            else:
                left = ast.BinaryOp(token.value, left, self._expr(power + 1))
                ceiling = power

    def _comparison(self, left: ast.SqlExpr, word: str) -> ast.SqlExpr:
        """The rest of a comparison whose operator word was just read."""
        if word == "IS":
            negated = self.accept("keyword", "NOT") is not None
            self.expect("keyword", "NULL")
            return ast.IsNullExpr(left, negated)
        negated = word == "NOT"
        if negated:
            token = self.advance()
            word = token.value if token.kind == "keyword" else ""
        if word == "BETWEEN":
            low = self._expr(_ADD)
            self.expect("keyword", "AND")
            return ast.BetweenExpr(left, low, self._expr(_ADD), negated)
        if word == "IN":
            self.expect("op", "(")
            if self.peek().matches("keyword", "SELECT"):
                subquery = self._select()
                self.expect("op", ")")
                return ast.InSubquery(left, subquery, negated)
            options = self._list(self._expr)
            self.expect("op", ")")
            return ast.InExpr(left, options, negated)
        if word == "LIKE":
            return ast.LikeExpr(left, self.expect("string").value, negated)
        if negated:
            raise SqlSyntaxError("dangling NOT")
        return ast.BinaryOp("<>" if word == "!=" else word, left, self._expr(_ADD))

    def _unary(self) -> ast.SqlExpr:
        token = self.tokens[self.position]
        if token.kind == "op" and token.value in ("-", "+"):
            self.position += 1
            operand = self._unary()
            return ast.UnaryOp("-", operand) if token.value == "-" else operand
        return self._primary()

    def _primary(self) -> ast.SqlExpr:
        token = self.advance()
        kind, value = token.kind, token.value
        if kind == "number":
            if "." in value or "e" in value or "E" in value:
                return ast.Constant(float(value))
            return ast.Constant(int(value))
        if kind == "string":
            return ast.Constant(value)
        if kind == "ident":
            following = self.tokens[self.position]
            if following.kind == "op" and following.value == "(":
                return self._function_call(value)
            if self.accept("op", "."):
                return ast.Identifier(self._name(), qualifier=value)
            return ast.Identifier(value)
        if kind == "keyword":
            if value in _AGGREGATES:
                return self._function_call(value)
            if value in _CONSTANTS:
                return ast.Constant(_CONSTANTS[value])
            if value == "DATE":
                text = self.expect("string").value
                return ast.Constant(date_to_days(_dt.date.fromisoformat(text)))
            if value == "TIMESTAMP":
                text = self.expect("string").value
                return ast.Constant(
                    timestamp_to_seconds(_dt.datetime.fromisoformat(text))
                )
            if value == "CASE":
                branches = []
                while self.accept("keyword", "WHEN"):
                    condition = self._expr()
                    self.expect("keyword", "THEN")
                    branches.append((condition, self._expr()))
                default = self._expr() if self.accept("keyword", "ELSE") else None
                self.expect("keyword", "END")
                return ast.CaseExpr(branches, default)
        if kind == "op" and value == "(":
            expr = self._expr()
            self.expect("op", ")")
            return expr
        raise SqlSyntaxError(
            f"unexpected token {value or kind!r} at {token.position}"
        )

    def _function_call(self, name: str) -> ast.SqlExpr:
        self.expect("op", "(")
        distinct = bool(self.accept("keyword", "DISTINCT"))
        star = bool(self.accept("op", "*"))
        args = [] if star or self.peek().matches("op", ")") else self._list(self._expr)
        self.expect("op", ")")
        call = ast.FuncCall(name.upper(), args, distinct, star)
        if not self.accept("keyword", "OVER"):
            return call
        self.expect("op", "(")
        partition_by = self._list(self._expr) if self.accept_keyword("PARTITION", "BY") else []
        order_by = self._list(self._order_item) if self.accept_keyword("ORDER", "BY") else []
        self.expect("op", ")")
        return ast.WindowCall(call, partition_by, order_by)

def parse(text: str):
    """Parse one SQL statement."""
    return Parser(text).parse_statement()


def parse_expression(text: str) -> ast.SqlExpr:
    """Parse one scalar expression (a journalled ``PARTITION BY``)."""
    parser = Parser(text)
    expr = parser._expr()
    parser.expect("eof")
    return expr
