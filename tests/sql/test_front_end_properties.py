"""The fast front end against its oracles.

* The one-pattern lexer against the character walk it replaced
  (``tests/sql/reference_lexer.py``): over text drawn from the SQL
  alphabet both give the same token list or refuse the input with the
  same error.  The only differences allowed are the walk's two defects:
  it starts a number at a digit ``int`` cannot read (``²``) and takes an
  exponent sign with no digit after it (``1e+``), leaving a ``number``
  token ``float`` cannot read; the product lexer never returns one.
* The precedence-climbing expression parser against the grammar: an
  expression tree printed with every operator parenthesised and printed
  with only the parentheses precedence needs parses back to the tree.

``REPRO_FUZZ_SEEDS`` (``tools/check.sh``) adds seeded runs of each.
"""

import os

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.parser import parse_expression

from reference_lexer import tokenize as reference_tokenize

EXTRA_SEEDS = [int(s) for s in os.environ.get("REPRO_FUZZ_SEEDS", "").split(",") if s]
PROPERTY = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def seeded(test, seed_index):
    """``test`` as is, or pinned to the ``seed_index``-th extra seed."""
    return seed(EXTRA_SEEDS[seed_index - 1])(test) if seed_index else test


# -- the lexer ----------------------------------------------------------------

#: Characters and fragments the SQL dialect is written in, plus the
#: neighbours that probe each rule: Unicode letters and digits, a digit
#: ``int`` cannot read, non-ASCII whitespace, characters no rule takes.
FRAGMENTS = [
    *"abzAZ_0123456789.,;()*/%+-<>=!'\" \t\n",
    "SELECT", "from", "And", "NOT", "IS", "null", "e", "E", "1e", "2.5", ".5",
    "--", "''", '""', "<>", "!=", ">=", "<=", "é", "ſ", "١", "²", "½", "\xa0",
    " ", "?", "#", "$",
]
TEXTS = st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join)


def lex(tokenizer, text):
    try:
        return tokenizer(text)
    except SqlSyntaxError as error:
        return error


def unreadable(result) -> bool:
    """A ``number`` token ``float`` cannot read (the walk's defects)."""
    if not isinstance(result, list):
        return False
    for token in result:
        if token.kind == "number":
            try:
                float(token.value)
            except ValueError:
                return True
    return False


def refused_a_defect(result) -> bool:
    """The product refusing where the walk would misread a number: an
    exponent sign with no digit, or a digit ``int`` cannot read."""
    if not isinstance(result, SqlSyntaxError):
        return False
    message = str(result)
    if message.startswith("malformed number"):
        return True
    return message.startswith("unexpected character") and message.split("'")[1].isdigit()


def misread(text, expected) -> bool:
    """Whether the walk misread a number on its way through ``text``:
    in the tokens it returned, or, where it refused the text, in the
    tokens before the place it refused."""
    if isinstance(expected, SqlSyntaxError):
        refused_at = int(str(expected).rsplit(" ", 1)[1])
        expected = lex(reference_tokenize, text[:refused_at])
    return unreadable(expected)


def check_lexers_agree(text):
    expected = lex(reference_tokenize, text)
    actual = lex(tokenize, text)
    assert not unreadable(actual)
    if misread(text, expected) or refused_a_defect(actual):
        return
    if isinstance(expected, SqlSyntaxError):
        assert isinstance(actual, SqlSyntaxError), (text, actual)
        assert str(actual) == str(expected)
    else:
        assert actual == expected


@pytest.mark.parametrize("seed_index", range(len(EXTRA_SEEDS) + 1))
def test_one_pattern_lexes_as_the_character_walk(seed_index):
    @PROPERTY
    @given(TEXTS)
    def run(text):
        check_lexers_agree(text)

    seeded(run, seed_index)()


@pytest.mark.parametrize(
    "text",
    [
        "SELECT ts, value FROM meter_readings WHERE metric = 'metric_0013' AND meter = 53",
        "SELECT 'it''s', \"Odd Name\", 1.5e-3, .5, 7. FROM t -- trailing comment",
        "a<>b!=c>=d<=e",
        "'it''s",  # unterminated: refused at the opening quote
        '"unterminated',
        "1e5e3 1.2.3 ١٢",
        "SELECT 1 -- no newline at the end",
    ],
)
def test_one_pattern_lexes_as_the_character_walk_on_known_text(text):
    check_lexers_agree(text)


@pytest.mark.parametrize("text", ["SELECT ²", "x = 1e+", "x = 2.5e-", "1e+x", ".5E-)"])
def test_the_walks_defects_are_refusals(text):
    assert unreadable(reference_tokenize(text))
    assert refused_a_defect(lex(tokenize, text))


def test_a_defect_before_a_refusal_is_one():
    # the walk reads "1e²" as a number, then refuses "½"; the product
    # lexer reads "1", then the word "e²½"
    assert misread("1e²½", lex(reference_tokenize, "1e²½"))
    check_lexers_agree("1e²½")


# -- precedence ---------------------------------------------------------------

#: Binding power of each binary operator; the comparisons do not chain.
POWER = {"OR": 1, "AND": 2, "=": 4, "<>": 4, "<": 4, ">=": 4,
         "+": 5, "-": 5, "*": 6, "/": 6, "%": 6}
NOT, COMPARE, NEGATE, ATOM = 3, 4, 7, 8


def render(expr, minimal: bool) -> tuple[str, int]:
    """``expr``'s text and the binding power of its outermost operator."""

    def operand(child, need: int) -> str:
        text, power = render(child, minimal)
        return text if minimal and power >= need else f"({text})"

    if isinstance(expr, ast.Identifier):
        return expr.name, ATOM
    if isinstance(expr, ast.Constant):
        return str(expr.value), ATOM
    if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
        return f"NOT {operand(expr.operand, NOT)}", NOT
    if isinstance(expr, ast.UnaryOp):
        return f"- {operand(expr.operand, NEGATE)}", NEGATE
    if isinstance(expr, ast.BetweenExpr):
        word = "NOT BETWEEN" if expr.negated else "BETWEEN"
        low, high = operand(expr.low, COMPARE + 1), operand(expr.high, COMPARE + 1)
        return f"{operand(expr.value, COMPARE + 1)} {word} {low} AND {high}", COMPARE
    if isinstance(expr, ast.IsNullExpr):
        word = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{operand(expr.value, COMPARE + 1)} {word}", COMPARE
    if isinstance(expr, ast.InExpr):
        word = "NOT IN" if expr.negated else "IN"
        options = ", ".join(render(option, minimal)[0] for option in expr.options)
        return f"{operand(expr.value, COMPARE + 1)} {word} ({options})", COMPARE
    power = POWER[expr.op]
    # left-associative; a comparison takes additive operands on both sides
    left_need, right_need = (power + 1, power + 1) if power == COMPARE else (power, power + 1)
    return f"{operand(expr.left, left_need)} {expr.op} {operand(expr.right, right_need)}", power


LEAVES = st.one_of(
    st.sampled_from(["a", "b", "c", "x1"]).map(ast.Identifier),
    st.integers(0, 99).map(ast.Constant),
)


def extend(children):
    return st.one_of(
        st.builds(ast.BinaryOp, st.sampled_from(sorted(POWER)), children, children),
        st.builds(ast.UnaryOp, st.just("NOT"), children),
        st.builds(ast.UnaryOp, st.just("-"), children),
        st.builds(ast.BetweenExpr, children, children, children, st.booleans()),
        st.builds(ast.IsNullExpr, children, st.booleans()),
        st.builds(ast.InExpr, children, st.lists(children, min_size=1, max_size=2),
                  st.booleans()),
    )


TREES = st.recursive(LEAVES, extend, max_leaves=8)


@pytest.mark.parametrize("seed_index", range(len(EXTRA_SEEDS) + 1))
def test_minimal_parentheses_parse_as_full_ones(seed_index):
    @PROPERTY
    @given(TREES)
    def run(tree):
        full, minimal = render(tree, False)[0], render(tree, True)[0]
        assert parse_expression(full) == tree, full
        assert parse_expression(minimal) == tree, minimal

    seeded(run, seed_index)()


@pytest.mark.parametrize(
    "text, tree",
    [
        ("NOT a = 1 AND b", "((NOT (a = 1)) AND b)"),
        ("a OR b AND NOT c", "(a OR (b AND (NOT c)))"),
        ("- a * b - c % 2", "(((- a) * b) - (c % 2))"),
        ("a + b NOT BETWEEN 1 AND c * 2", "((a + b) NOT BETWEEN 1 AND (c * 2))"),
    ],
)
def test_precedence_on_known_text(text, tree):
    assert parse_expression(text) == parse_expression(tree)


@pytest.mark.parametrize("text", ["a = b = c", "a < b IS NULL", "a + NOT b", "NOT a NOT LIKE 'x' = 1"])
def test_comparisons_do_not_chain(text):
    with pytest.raises(SqlSyntaxError):
        parse_expression(text)
