"""The character-walking tokenizer the product lexer replaced, as an oracle.

The product lexes with one compiled pattern (:func:`repro.sql.lexer.tokenize`).
This is the hand-written walk it replaced, kept verbatim but for its
imports: it steps over the text one character at a time with the same
rules, so the lexer property test can hold the two to the same token
list on any text.  It keeps its two known defects — a digit that
``str.isdigit`` accepts but ``int`` does not (``²``) starts a number,
and an exponent sign is taken without a digit after it (``1e+``) — so
it returns a ``number`` token ``float`` cannot read where the product
lexer raises :class:`SqlSyntaxError`.
"""

from __future__ import annotations

from repro.errors import SqlSyntaxError
from repro.sql.lexer import KEYWORDS, Token

#: Multi-character operators, longest first.
OPERATORS = ["<>", "!=", ">=", "<=", "=", "<", ">", "+", "-", "*", "/", "%",
             "(", ")", ",", ".", ";"]


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
