"""Unit tests for the SQL lexer and parser."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql import ast, parse, tokenize


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT a, 1.5 FROM t WHERE b = 'x''y'")
        kinds = [(t.kind, t.value) for t in tokens[:-1]]
        assert ("keyword", "SELECT") in kinds
        assert ("ident", "a") in kinds
        assert ("number", "1.5") in kinds
        assert ("string", "x'y") in kinds

    def test_comments_skipped(self):
        tokens = tokenize("SELECT 1 -- a comment\n, 2")
        assert [t.value for t in tokens if t.kind == "number"] == ["1", "2"]

    def test_quoted_identifier(self):
        tokens = tokenize('SELECT "Weird Name" FROM t')
        assert any(t.kind == "ident" and t.value == "Weird Name" for t in tokens)

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT 'oops")

    def test_operators(self):
        tokens = tokenize("a <> b >= c != d")
        ops = [t.value for t in tokens if t.kind == "op"]
        assert ops == ["<>", ">=", "!="]


class TestSelectParsing:
    def test_simple(self):
        stmt = parse("SELECT a, b FROM t")
        assert isinstance(stmt, ast.SelectStatement)
        assert len(stmt.items) == 2
        assert stmt.from_tables[0].table == "t"

    def test_star_and_qualified_star(self):
        stmt = parse("SELECT *, t.* FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)
        assert stmt.items[1].expr.qualifier == "t"

    def test_aliases(self):
        stmt = parse("SELECT a AS x, b y FROM t AS u")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.from_tables[0].alias == "u"

    def test_where_precedence(self):
        stmt = parse("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
        assert isinstance(stmt.where, ast.BinaryOp)
        assert stmt.where.op == "OR"
        assert stmt.where.right.op == "AND"

    def test_arithmetic_precedence(self):
        stmt = parse("SELECT a + b * c FROM t")
        expr = stmt.items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_group_having_order_limit(self):
        stmt = parse(
            "SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 2 "
            "ORDER BY a DESC LIMIT 10 OFFSET 5"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0][1] is False
        assert stmt.limit == 10 and stmt.offset == 5

    def test_joins(self):
        stmt = parse(
            "SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c ON b.z = c.w"
        )
        assert [j.join_type for j in stmt.joins] == ["INNER", "LEFT"]

    def test_comma_join(self):
        stmt = parse("SELECT * FROM a, b WHERE a.x = b.y")
        assert len(stmt.from_tables) == 2

    def test_between_in_like_isnull(self):
        stmt = parse(
            "SELECT * FROM t WHERE a BETWEEN 1 AND 2 AND b IN (1, 2) "
            "AND c LIKE 'x%' AND d IS NOT NULL"
        )
        assert stmt.where is not None

    def test_case(self):
        stmt = parse(
            "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t"
        )
        assert isinstance(stmt.items[0].expr, ast.CaseExpr)

    def test_aggregates(self):
        stmt = parse("SELECT count(*), sum(x), count(DISTINCT y) FROM t")
        count, total, distinct = (item.expr for item in stmt.items)
        assert count.star and count.name == "COUNT"
        assert total.name == "SUM"
        assert distinct.distinct

    def test_window(self):
        stmt = parse(
            "SELECT ROW_NUMBER() OVER (PARTITION BY a ORDER BY b DESC) FROM t"
        )
        window = stmt.items[0].expr
        assert isinstance(window, ast.WindowCall)
        assert window.order_by[0][1] is False

    def test_date_literal(self):
        stmt = parse("SELECT * FROM t WHERE d = DATE '2006-01-01'")
        assert isinstance(stmt.where.right, ast.Constant)

    def test_at_epoch(self):
        stmt = parse("AT EPOCH 5 SELECT * FROM t")
        assert stmt.at_epoch == 5

    def test_syntax_error(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT FROM")
        with pytest.raises(SqlSyntaxError):
            parse("SELEC a FROM t")


class TestDmlDdlParsing:
    def test_insert(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
        assert stmt.columns == ["a", "b"]
        assert len(stmt.rows) == 2
        assert stmt.rows[1][1].value is None

    def test_update(self):
        stmt = parse("UPDATE t SET a = 1, b = b + 1 WHERE c = 2")
        assert set(stmt.assignments) == {"a", "b"}

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE a < 5")
        assert stmt.table == "t"

    def test_create_table(self):
        stmt = parse(
            "CREATE TABLE sales (sale_id INTEGER, cust VARCHAR(20), "
            "price FLOAT, PRIMARY KEY (sale_id)) PARTITION BY sale_id % 12"
        )
        assert [c.name for c in stmt.columns] == ["sale_id", "cust", "price"]
        assert stmt.primary_key == ["sale_id"]
        assert stmt.partition_by is not None

    def test_create_projection(self):
        stmt = parse(
            "CREATE PROJECTION p (cust ENCODING RLE, price) AS "
            "SELECT cust, price FROM sales ORDER BY cust "
            "SEGMENTED BY HASH(cust) ALL NODES"
        )
        assert stmt.name == "p"
        assert stmt.columns[0].encoding == "RLE"
        assert stmt.order_by == ["cust"]
        assert stmt.segmented_by == ["cust"]

    def test_create_unsegmented_projection(self):
        stmt = parse(
            "CREATE PROJECTION p (a) AS SELECT a FROM t ORDER BY a "
            "UNSEGMENTED ALL NODES"
        )
        assert stmt.segmented_by is None

    def test_copy(self):
        stmt = parse("COPY t (a, b) FROM STDIN")
        assert stmt.columns == ["a", "b"]

    def test_drop(self):
        stmt = parse("DROP TABLE t")
        assert stmt.name == "t"

    def test_explain(self):
        stmt = parse("EXPLAIN SELECT a FROM t")
        assert isinstance(stmt, ast.ExplainStatement)


class TestMalformedInput:
    """Bad input is a :class:`SqlSyntaxError` naming where it is, never a
    ``ValueError`` from converting a token."""

    @pytest.mark.parametrize(
        "text, position",
        [
            # str.isdigit accepts "²"; int() does not
            ("SELECT ² FROM t", 7),
            # an exponent sign with no digit after it
            ("SELECT a FROM t WHERE b = 1e+", 26),
            ("SELECT a FROM t WHERE b = 2e-", 26),
        ],
    )
    def test_a_malformed_number_is_a_syntax_error(self, text, position):
        with pytest.raises(SqlSyntaxError, match=f"at {position}$"):
            parse(text)

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT a FROM t LIMIT 1.5",
            "SELECT a FROM t OFFSET 1e1",
            "AT EPOCH 1.5 SELECT a FROM t",
        ],
    )
    def test_an_integer_clause_takes_only_an_integer(self, text, tmp_path):
        from repro import ColumnDef, Database, TableDefinition, types
        from repro.service import SqlService

        with pytest.raises(SqlSyntaxError, match="expected an integer"):
            parse(text)
        db = Database(str(tmp_path / "db"), node_count=1, k_safety=0)
        db.create_table(TableDefinition("t", [ColumnDef("a", types.INTEGER)]))
        with pytest.raises(SqlSyntaxError, match="expected an integer"):
            db.sql(text)
        service = SqlService(db)
        try:
            with pytest.raises(SqlSyntaxError, match="expected an integer"):
                service.connect().execute(text)
        finally:
            service.shutdown()

    def test_not_before_is_null_is_refused(self):
        # it used to parse as plain IS NULL, silently dropping the NOT
        with pytest.raises(SqlSyntaxError, match="dangling NOT"):
            parse("SELECT a FROM t WHERE a NOT IS NULL")
        where = parse("SELECT a FROM t WHERE a IS NOT NULL").where
        assert where == ast.IsNullExpr(ast.Identifier("a"), negated=True)
