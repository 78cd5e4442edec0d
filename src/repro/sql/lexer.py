"""SQL lexer.

One compiled pattern tokenizes a statement: leading whitespace, then an
alternation of named groups — comments, numbers, words, strings, quoted
identifiers, operators, the end of the text — walked once with
``finditer``, the way sqlparser-rs lexes in one linear pass.  A last
catch-all group matches any other character, so bad input raises
:class:`SqlSyntaxError` at its position instead of being skipped.  (The real Vertica borrowed
PostgreSQL's parser — section 2.1; we implement a compact dialect
covering everything the paper's examples and experiments need.)

A number is decimal digits (``\\d``: what ``int`` and ``float`` read)
with an optional fraction and exponent; an exponent sign with no digit
after it is refused, and a word may not start with a digit ``int``
cannot read (``²``).
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from typing import NamedTuple

from ..errors import SqlSyntaxError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "OFFSET", "AS", "AND", "OR", "NOT", "IN", "IS", "NULL", "BETWEEN",
    "LIKE", "TRUE", "FALSE", "JOIN", "INNER", "LEFT", "RIGHT", "FULL",
    "OUTER", "SEMI", "ANTI", "ON", "ASC", "DESC", "DISTINCT", "CASE",
    "WHEN", "THEN", "ELSE", "END", "INSERT", "INTO", "VALUES", "UPDATE",
    "SET", "DELETE", "CREATE", "TABLE", "PROJECTION", "DROP", "PRIMARY",
    "KEY", "PARTITION", "ENCODING", "SEGMENTED", "UNSEGMENTED", "HASH",
    "ALL", "NODES", "COPY", "STDIN", "OVER", "ROWS", "AT", "EPOCH",
    "COUNT", "SUM", "AVG", "MIN", "MAX", "DATE", "TIMESTAMP", "CAST",
    "EXPLAIN", "ANALYZE", "PROFILE",
}

_MANTISSA = r"(?:\d+(?:\.\d*)?|\.\d+)"

#: The whole lexical grammar; the group that matched names the token.
#: Alternatives are tried in order: a comment before the ``-``
#: operator, a number before a word and before the ``.`` operator.  A
#: string's closing quote may not be followed by another, so an
#: unterminated ``'it''s`` is not read as ``'it'`` plus a stray quote.
_TOKEN = re.compile(
    rf"""
    \s*                          # whitespace belongs to the match after it
    (?:
      (?P<comment>--[^\n]*)
    | (?P<malformed>{_MANTISSA}[eE][+-](?!\d))
    | (?P<number>{_MANTISSA}(?:[eE][+-]?\d+)?)
    | (?P<word>\w+)
    | (?P<string>'[^']*(?:''[^']*)*'(?!'))
    | (?P<quoted>"[^"]*")
    | (?P<op><>|!=|>=|<=|[=<>+\-*/%(),.;])
    | (?P<end>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    """One lexical token."""

    kind: str  # 'keyword' | 'ident' | 'number' | 'string' | 'op' | 'eof'
    value: str
    position: int

    def matches(self, kind: str, value: str | None = None) -> bool:
        if self.kind != kind:
            return False
        return value is None or self.value == value


#: A ``Token`` made by ``tuple.__new__`` directly, skipping the
#: Python-level ``__new__`` a ``NamedTuple`` generates.
_token = partial(tuple.__new__, Token)


@lru_cache(maxsize=4096)
def sql_name(name: str) -> str:
    """``name`` double-quoted unless each dotted part is one plain, non-keyword word."""
    plain = (
        (w[:1].isalpha() or w[:1] == "_") and w.upper() not in KEYWORDS
        and all(c.isalnum() or c == "_" for c in w) for w in name.split(".")
    )
    return name if all(plain) else f'"{name}"'


def _refuse(kind: str, text: str, position: int) -> SqlSyntaxError:
    if kind == "malformed":
        return SqlSyntaxError(f"malformed number {text!r} at {position}")
    if text == "'":
        return SqlSyntaxError(f"unterminated string at {position}")
    if text == '"':
        return SqlSyntaxError(f"unterminated quoted identifier at {position}")
    return SqlSyntaxError(f"unexpected character {text[0]!r} at {position}")


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SqlSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "comment":
            continue
        if kind == "end":
            break
        value = match.group(kind)
        position = match.start(kind)
        if kind == "word":
            upper = value.upper()
            if upper in KEYWORDS:
                kind, value = "keyword", upper
            elif value[0].isalpha() or value[0] == "_":
                kind = "ident"
            else:
                kind = "bad"
        elif kind == "string":
            value = value[1:-1].replace("''", "'")
        elif kind == "quoted":
            kind, value = "ident", value[1:-1]
        if kind == "bad" or kind == "malformed":
            raise _refuse(kind, value, position)
        append(_token((kind, value, position)))
    append(_token(("eof", "", len(text))))
    return tokens
