"""Recursive-descent SQL parser."""

from __future__ import annotations

import datetime as _dt

from ..errors import SqlSyntaxError
from ..types import date_to_days, timestamp_to_seconds
from . import ast
from .lexer import Token, tokenize

_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
_WINDOW_ONLY = {"ROW_NUMBER", "RANK", "DENSE_RANK"}


class Parser:
    """One-statement-at-a-time recursive descent parser."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.position = 0

    # -- token helpers ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self.position += 1
        return token

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        if self.peek().matches(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            actual = self.peek()
            raise SqlSyntaxError(
                f"expected {value or kind}, found {actual.value or actual.kind!r} "
                f"at position {actual.position}"
            )
        return token

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
        if token.matches("keyword", "EXPLAIN"):
            self.advance()
            analyze = self.accept("keyword", "ANALYZE") is not None
            return ast.ExplainStatement(self._select(), analyze=analyze)
        if token.matches("keyword", "PROFILE"):
            self.advance()
            return ast.ExplainStatement(self._select(), analyze=True)
        if token.matches("keyword", "AT") or token.matches("keyword", "SELECT"):
            return self._select()
        if token.matches("keyword", "INSERT"):
            return self._insert()
        if token.matches("keyword", "UPDATE"):
            return self._update()
        if token.matches("keyword", "DELETE"):
            return self._delete()
        if token.matches("keyword", "CREATE"):
            self.advance()
            if self.peek().matches("keyword", "TABLE"):
                return self._create_table()
            if self.peek().matches("keyword", "PROJECTION"):
                return self._create_projection()
            raise SqlSyntaxError("expected TABLE or PROJECTION after CREATE")
        if token.matches("keyword", "DROP"):
            self.advance()
            self.expect("keyword", "TABLE")
            return ast.DropTableStatement(self.expect("ident").value)
        if token.matches("keyword", "COPY"):
            return self._copy()
        raise SqlSyntaxError(f"cannot parse statement starting with {token.value!r}")

    # -- SELECT --------------------------------------------------------------------

    def _select(self) -> ast.SelectStatement:
        at_epoch = None
        if self.accept("keyword", "AT"):
            self.expect("keyword", "EPOCH")
            at_epoch = int(self.expect("number").value)
        self.expect("keyword", "SELECT")
        distinct = bool(self.accept("keyword", "DISTINCT"))
        items = [self._select_item()]
        while self.accept("op", ","):
            items.append(self._select_item())
        statement = ast.SelectStatement(
            items=items, distinct=distinct, at_epoch=at_epoch
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
            statement.group_by.append(self._expr())
            while self.accept("op", ","):
                statement.group_by.append(self._expr())
        if self.accept("keyword", "HAVING"):
            statement.having = self._expr()
        if self.accept_keyword("ORDER", "BY"):
            statement.order_by.append(self._order_item())
            while self.accept("op", ","):
                statement.order_by.append(self._order_item())
        if self.accept("keyword", "LIMIT"):
            statement.limit = int(self.expect("number").value)
        if self.accept("keyword", "OFFSET"):
            statement.offset = int(self.expect("number").value)
        return statement

    def _select_item(self) -> ast.SelectItem:
        if self.peek().matches("op", "*"):
            self.advance()
            return ast.SelectItem(ast.Star())
        if (
            self.peek().kind == "ident"
            and self.peek(1).matches("op", ".")
            and self.peek(2).matches("op", "*")
        ):
            qualifier = self.advance().value
            self.advance()
            self.advance()
            return ast.SelectItem(ast.Star(qualifier))
        expr = self._expr()
        alias = None
        if self.accept("keyword", "AS"):
            alias = self._name()
        elif self.peek().kind == "ident":
            alias = self.advance().value
        return ast.SelectItem(expr, alias)

    def _name(self) -> str:
        token = self.peek()
        if token.kind in ("ident",) or token.kind == "keyword":
            self.advance()
            return token.value if token.kind == "ident" else token.value.lower()
        raise SqlSyntaxError(f"expected name, found {token.value!r}")

    def _table_ref(self) -> ast.TableRef:
        table = self.expect("ident").value
        # schema-qualified names (v_monitor.query_profiles)
        while self.accept("op", "."):
            table += "." + self.expect("ident").value
        alias = None
        if self.accept("keyword", "AS"):
            alias = self.expect("ident").value
        elif self.peek().kind == "ident":
            alias = self.advance().value
        return ast.TableRef(table, alias)

    def _join_type(self) -> str | None:
        for keywords, join_type in (
            (("INNER", "JOIN"), "INNER"),
            (("LEFT", "OUTER", "JOIN"), "LEFT"),
            (("LEFT", "JOIN"), "LEFT"),
            (("RIGHT", "OUTER", "JOIN"), "RIGHT"),
            (("RIGHT", "JOIN"), "RIGHT"),
            (("FULL", "OUTER", "JOIN"), "FULL"),
            (("FULL", "JOIN"), "FULL"),
            (("SEMI", "JOIN"), "SEMI"),
            (("ANTI", "JOIN"), "ANTI"),
            (("JOIN",), "INNER"),
        ):
            if self.accept_keyword(*keywords):
                return join_type
        return None

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
        table = self.expect("ident").value
        columns: list[str] = []
        if self.accept("op", "("):
            columns.append(self.expect("ident").value)
            while self.accept("op", ","):
                columns.append(self.expect("ident").value)
            self.expect("op", ")")
        self.expect("keyword", "VALUES")
        rows = [self._value_row()]
        while self.accept("op", ","):
            rows.append(self._value_row())
        return ast.InsertStatement(table, columns, rows)

    def _value_row(self) -> list[ast.SqlExpr]:
        self.expect("op", "(")
        values = [self._expr()]
        while self.accept("op", ","):
            values.append(self._expr())
        self.expect("op", ")")
        return values

    def _update(self) -> ast.UpdateStatement:
        self.expect("keyword", "UPDATE")
        table = self.expect("ident").value
        self.expect("keyword", "SET")
        assignments: dict[str, ast.SqlExpr] = {}
        while True:
            column = self.expect("ident").value
            self.expect("op", "=")
            assignments[column] = self._expr()
            if not self.accept("op", ","):
                break
        where = self._expr() if self.accept("keyword", "WHERE") else None
        return ast.UpdateStatement(table, assignments, where)

    def _delete(self) -> ast.DeleteStatement:
        self.expect("keyword", "DELETE")
        self.expect("keyword", "FROM")
        table = self.expect("ident").value
        where = self._expr() if self.accept("keyword", "WHERE") else None
        return ast.DeleteStatement(table, where)

    # -- DDL ------------------------------------------------------------------------------

    def _create_table(self) -> ast.CreateTableStatement:
        self.expect("keyword", "TABLE")
        name = self.expect("ident").value
        self.expect("op", "(")
        columns: list[ast.ColumnSpec] = []
        primary_key: list[str] = []
        while True:
            if self.accept_keyword("PRIMARY", "KEY"):
                self.expect("op", "(")
                primary_key.append(self.expect("ident").value)
                while self.accept("op", ","):
                    primary_key.append(self.expect("ident").value)
                self.expect("op", ")")
            else:
                column = self.expect("ident").value
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
                    encoding = self.expect("ident").value
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
        name = self.expect("ident").value
        self.expect("op", "(")
        columns: list[ast.ColumnSpec] = []
        while True:
            column = self.expect("ident").value
            encoding = None
            if self.accept("keyword", "ENCODING"):
                encoding_token = self.peek()
                self.advance()
                encoding = encoding_token.value
            columns.append(ast.ColumnSpec(column, "", encoding))
            if not self.accept("op", ","):
                break
        self.expect("op", ")")
        self.expect("keyword", "AS")
        self.expect("keyword", "SELECT")
        select_columns: list[str] = []
        if self.accept("op", "*"):
            pass
        else:
            select_columns.append(self.expect("ident").value)
            while self.accept("op", ","):
                select_columns.append(self.expect("ident").value)
        self.expect("keyword", "FROM")
        table = self.expect("ident").value
        order_by: list[str] = []
        if self.accept_keyword("ORDER", "BY"):
            order_by.append(self.expect("ident").value)
            while self.accept("op", ","):
                order_by.append(self.expect("ident").value)
        segmented_by: list[str] | None = None
        if self.accept("keyword", "SEGMENTED"):
            self.expect("keyword", "BY")
            self.expect("keyword", "HASH")
            self.expect("op", "(")
            segmented_by = [self.expect("ident").value]
            while self.accept("op", ","):
                segmented_by.append(self.expect("ident").value)
            self.expect("op", ")")
            self.accept_keyword("ALL", "NODES")
        elif self.accept("keyword", "UNSEGMENTED"):
            self.accept_keyword("ALL", "NODES")
            segmented_by = None
        return ast.CreateProjectionStatement(
            name, columns, table, select_columns, order_by, segmented_by
        )

    def _copy(self) -> ast.CopyStatement:
        self.expect("keyword", "COPY")
        table = self.expect("ident").value
        columns: list[str] = []
        if self.accept("op", "("):
            columns.append(self.expect("ident").value)
            while self.accept("op", ","):
                columns.append(self.expect("ident").value)
            self.expect("op", ")")
        self.expect("keyword", "FROM")
        self.expect("keyword", "STDIN")
        return ast.CopyStatement(table, columns)

    # -- expressions ---------------------------------------------------------------------

    def _expr(self) -> ast.SqlExpr:
        return self._or_expr()

    def _or_expr(self) -> ast.SqlExpr:
        left = self._and_expr()
        while self.accept("keyword", "OR"):
            left = ast.BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.SqlExpr:
        left = self._not_expr()
        while self.accept("keyword", "AND"):
            left = ast.BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.SqlExpr:
        if self.accept("keyword", "NOT"):
            return ast.UnaryOp("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self) -> ast.SqlExpr:
        left = self._additive()
        token = self.peek()
        if token.kind == "op" and token.value in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self.advance()
            op = "<>" if token.value == "!=" else token.value
            return ast.BinaryOp(op, left, self._additive())
        negated = bool(self.accept("keyword", "NOT"))
        if self.accept("keyword", "BETWEEN"):
            low = self._additive()
            self.expect("keyword", "AND")
            high = self._additive()
            return ast.BetweenExpr(left, low, high, negated)
        if self.accept("keyword", "IN"):
            self.expect("op", "(")
            if self.peek().matches("keyword", "SELECT"):
                subquery = self._select()
                self.expect("op", ")")
                return ast.InSubquery(left, subquery, negated)
            options = [self._expr()]
            while self.accept("op", ","):
                options.append(self._expr())
            self.expect("op", ")")
            return ast.InExpr(left, options, negated)
        if self.accept("keyword", "LIKE"):
            pattern = self.expect("string").value
            return ast.LikeExpr(left, pattern, negated)
        if self.accept("keyword", "IS"):
            is_negated = bool(self.accept("keyword", "NOT"))
            self.expect("keyword", "NULL")
            return ast.IsNullExpr(left, is_negated)
        if negated:
            raise SqlSyntaxError("dangling NOT")
        return left

    def _additive(self) -> ast.SqlExpr:
        left = self._multiplicative()
        while True:
            token = self.peek()
            if token.kind == "op" and token.value in ("+", "-"):
                self.advance()
                left = ast.BinaryOp(token.value, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.SqlExpr:
        left = self._unary()
        while True:
            token = self.peek()
            if token.kind == "op" and token.value in ("*", "/", "%"):
                self.advance()
                left = ast.BinaryOp(token.value, left, self._unary())
            else:
                return left

    def _unary(self) -> ast.SqlExpr:
        if self.accept("op", "-"):
            return ast.UnaryOp("-", self._unary())
        if self.accept("op", "+"):
            return self._unary()
        return self._primary()

    def _primary(self) -> ast.SqlExpr:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return ast.Constant(float(text))
            return ast.Constant(int(text))
        if token.kind == "string":
            self.advance()
            return ast.Constant(token.value)
        if token.matches("keyword", "NULL"):
            self.advance()
            return ast.Constant(None)
        if token.matches("keyword", "TRUE"):
            self.advance()
            return ast.Constant(True)
        if token.matches("keyword", "FALSE"):
            self.advance()
            return ast.Constant(False)
        if token.matches("keyword", "DATE"):
            self.advance()
            text = self.expect("string").value
            return ast.Constant(date_to_days(_dt.date.fromisoformat(text)))
        if token.matches("keyword", "TIMESTAMP"):
            self.advance()
            text = self.expect("string").value
            return ast.Constant(
                timestamp_to_seconds(_dt.datetime.fromisoformat(text))
            )
        if token.matches("keyword", "CASE"):
            self.advance()
            branches = []
            while self.accept("keyword", "WHEN"):
                condition = self._expr()
                self.expect("keyword", "THEN")
                branches.append((condition, self._expr()))
            default = self._expr() if self.accept("keyword", "ELSE") else None
            self.expect("keyword", "END")
            return ast.CaseExpr(branches, default)
        if token.kind == "keyword" and token.value in _AGGREGATES:
            self.advance()
            return self._function_call(token.value)
        if token.kind == "ident":
            if self.peek(1).matches("op", "("):
                self.advance()
                return self._function_call(token.value)
            self.advance()
            if self.accept("op", "."):
                column = self._name()
                return ast.Identifier(column, qualifier=token.value)
            return ast.Identifier(token.value)
        if token.matches("op", "("):
            self.advance()
            expr = self._expr()
            self.expect("op", ")")
            return expr
        raise SqlSyntaxError(
            f"unexpected token {token.value or token.kind!r} at {token.position}"
        )

    def _function_call(self, name: str) -> ast.SqlExpr:
        self.expect("op", "(")
        distinct = bool(self.accept("keyword", "DISTINCT"))
        star = False
        args: list[ast.SqlExpr] = []
        if self.accept("op", "*"):
            star = True
        elif not self.peek().matches("op", ")"):
            args.append(self._expr())
            while self.accept("op", ","):
                args.append(self._expr())
        self.expect("op", ")")
        call = ast.FuncCall(name.upper(), args, distinct, star)
        if self.accept("keyword", "OVER"):
            self.expect("op", "(")
            partition_by: list[ast.SqlExpr] = []
            order_by: list[tuple[ast.SqlExpr, bool]] = []
            if self.accept_keyword("PARTITION", "BY"):
                partition_by.append(self._expr())
                while self.accept("op", ","):
                    partition_by.append(self._expr())
            if self.accept_keyword("ORDER", "BY"):
                order_by.append(self._order_item())
                while self.accept("op", ","):
                    order_by.append(self._order_item())
            self.expect("op", ")")
            return ast.WindowCall(call, partition_by, order_by)
        return call


def parse(text: str):
    """Parse one SQL statement."""
    return Parser(text).parse_statement()


def parse_expression(text: str) -> ast.SqlExpr:
    """Parse one scalar expression (a journalled ``PARTITION BY``)."""
    parser = Parser(text)
    expr = parser._expr()
    parser.expect("eof")
    return expr
