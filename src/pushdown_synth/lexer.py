"""Tokenizer for the pipeline DSL: one compiled pattern, a named group per
token class, states the lexical grammar, and `tokenize` builds a `Token` per
match.

Comments run from '#' to end of line. Whitespace (including newlines) only
separates tokens. Numbers are ASCII digits. Signed numeric literals and -inf
are lexed as single tokens when the minus cannot be a binary operator, -inf
only when no word character follows it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .syntax import CALL_FORMS, OPERATOR_LEVELS, TYPE_KEYWORDS, Span

# the value of each keyword token that is a literal
_CONSTANTS = {"True": True, "False": False, "None": None}
_OPERATORS = {op for level in OPERATOR_LEVELS for op in level}
KEYWORDS = {
    *filter(str.isidentifier, _OPERATORS), *_CONSTANTS, "if", "else",
    "match", "case", "lambda", "fix", "inf", *CALL_FORMS, *TYPE_KEYWORDS,
}
# longest first, so `==` is not read as two `=`
_SYMBOLS = sorted((_OPERATORS - KEYWORDS) | set("=()[],:"),
                  key=lambda s: (-len(s), s))

# `\w` is a character that passes `str.isalnum()` or is `_`; a word must also
# start with one that passes `str.isalpha()` or is `_`, which `tokenize` checks
_TOKEN = re.compile("|".join(f"(?P<{group}>{pattern})" for group, pattern in (
    ("skip", r"[ \t\r]+|#[^\n]*"),
    ("newline", r"\n"),
    ("string", r'"[^"\n]*"'),
    ("unterminated", '"'),
    ("number", r"-?[0-9]+(?:\.[0-9]*)?|-inf(?!\w)"),
    ("word", r"\w+"),
    ("symbol", "|".join(map(re.escape, _SYMBOLS))),
    ("unexpected", "."),
)))


class Token(NamedTuple):
    """A lexed token: a tuple, the cheapest immutable record to build."""

    kind: str  # IDENT, INT, FLOAT, STRING, keyword text, or symbol text
    text: str
    value: object
    span: Span


class DslSyntaxError(Exception):
    def __init__(self, message: str, span: Span, expected=None):
        self.message = message
        self.span = span
        self.expected = sorted(expected) if expected else []
        detail = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{span}: {message}{detail}")


# token kinds after which a '-' must be a binary operator
_OPERAND_END = {"IDENT", "INT", "FLOAT", "NEGINF", "STRING", ")", "]", "True",
                "False", "None"}


def tokenize(source: str):
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        group, text, pos = m.lastgroup, m.group(), m.end()
        if group == "skip":
            continue
        span = Span(line, m.start() - line_start + 1)
        if group == "word" and not (text[0].isalpha() or text[0] == "_"):
            group, text = "unexpected", text[0]
        if group == "newline":
            line, line_start = line + 1, pos
        elif group == "string":
            tokens.append(Token("STRING", text[1:-1], text[1:-1], span))
        elif group == "unterminated":
            raise DslSyntaxError("unterminated string literal", span)
        elif group == "unexpected":
            raise DslSyntaxError(f"unexpected character {text!r}", span)
        elif group == "number":
            if text[0] == "-" and tokens and tokens[-1].kind in _OPERAND_END:
                # a binary minus: the operand after it is read next
                tokens.append(Token("-", "-", "-", span))
                pos = m.start() + 1
            elif text == "-inf":
                tokens.append(Token("NEGINF", text, None, span))
            elif "." in text:
                tokens.append(Token("FLOAT", text, Fraction(text), span))
            else:
                tokens.append(Token("INT", text, int(text), span))
        elif group == "word":
            kind = text if text in KEYWORDS else "IDENT"
            tokens.append(Token(kind, text, _CONSTANTS.get(text, text), span))
        else:
            tokens.append(Token(text, text, text, span))
    tokens.append(Token("EOF", "", None, Span(line, pos - line_start + 1)))
    return tokens
