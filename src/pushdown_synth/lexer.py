"""Tokenizer for the pipeline DSL.

Comments run from '#' to end of line. Whitespace (including newlines) only
separates tokens. Signed numeric literals and -inf are lexed as single tokens
when the minus cannot be a binary operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .syntax import CALL_FORMS, TYPE_KEYWORDS, Span


KEYWORDS = {
    "not", "and", "or", "if", "else", "match", "case", "None",
    "True", "False", "lambda", "fix", "inf", *CALL_FORMS, *TYPE_KEYWORDS,
}
# the value of each keyword token that is a literal
_CONSTANTS = {"True": True, "False": False, "None": None}

SYMBOLS = [
    "==", ">=", "<=", "=", ">", "<", "+", "-", "*", "/",
    "(", ")", "[", "]", ",", ":",
]


@dataclass(frozen=True)
class Token:
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
_OPERAND_END = {"IDENT", "INT", "FLOAT", "STRING", ")", "]", "True", "False", "None", "inf"}


def tokenize(source: str):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(source)

    def span():
        return Span(line, col)

    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start = span()

        if c == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    raise DslSyntaxError("unterminated string literal", start)
                j += 1
            if j >= n:
                raise DslSyntaxError("unterminated string literal", start)
            text = source[i + 1 : j]
            tokens.append(Token("STRING", text, text, start))
            col += j + 1 - i
            i = j + 1
            continue

        if c.isdigit() or (
            c == "-"
            and (not tokens or tokens[-1].kind not in _OPERAND_END)
            and i + 1 < n
            and (source[i + 1].isdigit() or source[i + 1 :].startswith("inf"))
        ):
            j = i + 1 if c == "-" else i
            if source[j : j + 3] == "inf":
                # bare 'inf' is handled as a keyword below; only -inf is a literal
                tokens.append(Token("NEGINF", "-inf", None, start))
                adv = (j + 3) - i
                col += adv
                i += adv
                continue
            k = j
            while k < n and source[k].isdigit():
                k += 1
            is_float = False
            if k < n and source[k] == ".":
                is_float = True
                k += 1
                while k < n and source[k].isdigit():
                    k += 1
            text = source[i:k]
            if is_float:
                tokens.append(Token("FLOAT", text, Fraction(text), start))
            else:
                tokens.append(Token("INT", text, int(text), start))
            col += k - i
            i = k
            continue

        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = text if text in KEYWORDS else "IDENT"
            tokens.append(Token(kind, text, _CONSTANTS.get(text, text), start))
            col += j - i
            i = j
            continue

        for sym in SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(Token(sym, sym, sym, start))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise DslSyntaxError(f"unexpected character {c!r}", start)

    tokens.append(Token("EOF", "", None, Span(line, col)))
    return tokens
