"""SQL lexer.

Hand-written tokenizer for the supported SQL dialect.  (The real
Vertica borrowed PostgreSQL's parser — section 2.1; we implement a
compact dialect covering everything the paper's examples and
experiments need.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

#: Multi-character operators, longest first.
OPERATORS = ["<>", "!=", ">=", "<=", "=", "<", ">", "+", "-", "*", "/", "%",
             "(", ")", ",", ".", ";"]


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str  # 'keyword' | 'ident' | 'number' | 'string' | 'op' | 'eof'
    value: str
    position: int

    def matches(self, kind: str, value: str | None = None) -> bool:
        if self.kind != kind:
            return False
        return value is None or self.value == value


@lru_cache(maxsize=4096)
def sql_name(name: str) -> str:
    """``name`` double-quoted unless each dotted part is one plain, non-keyword word."""
    plain = (
        (w[:1].isalpha() or w[:1] == "_") and w.upper() not in KEYWORDS
        and all(c.isalnum() or c == "_" for c in w) for w in name.split(".")
    )
    return name if all(plain) else f'"{name}"'


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SqlSyntaxError` on bad input."""
    tokens: list[Token] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if text.startswith("--", index):
            newline = text.find("\n", index)
            index = length if newline < 0 else newline + 1
            continue
        if char == "'":
            end = index + 1
            parts = []
            while True:
                if end >= length:
                    raise SqlSyntaxError(f"unterminated string at {index}")
                if text[end] == "'":
                    if end + 1 < length and text[end + 1] == "'":
                        parts.append("'")
                        end += 2
                        continue
                    break
                parts.append(text[end])
                end += 1
            tokens.append(Token("string", "".join(parts), index))
            index = end + 1
            continue
        if char.isdigit() or (
            char == "." and index + 1 < length and text[index + 1].isdigit()
        ):
            end = index
            seen_dot = False
            seen_exp = False
            while end < length:
                c = text[end]
                if c.isdigit():
                    end += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    end += 1
                elif c in "eE" and not seen_exp and end + 1 < length and (
                    text[end + 1].isdigit() or text[end + 1] in "+-"
                ):
                    seen_exp = True
                    end += 2 if text[end + 1] in "+-" else 1
                else:
                    break
            tokens.append(Token("number", text[index:end], index))
            index = end
            continue
        if char.isalpha() or char == "_":
            end = index
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[index:end]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("keyword", upper, index))
            else:
                tokens.append(Token("ident", word, index))
            index = end
            continue
        if char == '"':
            end = text.find('"', index + 1)
            if end < 0:
                raise SqlSyntaxError(f"unterminated quoted identifier at {index}")
            tokens.append(Token("ident", text[index + 1 : end], index))
            index = end + 1
            continue
        for operator in OPERATORS:
            if text.startswith(operator, index):
                tokens.append(Token("op", operator, index))
                index += len(operator)
                break
        else:
            raise SqlSyntaxError(f"unexpected character {char!r} at {index}")
    tokens.append(Token("eof", "", length))
    return tokens
