"""Recursive-descent parser producing the DSL AST, reading the grammar
tables of `syntax`; binary operators by precedence climbing."""

from __future__ import annotations

from .lexer import DslSyntaxError, Token, tokenize
from .syntax import (
    CALL_ARGS, CALL_FORMS, COMPARISONS, GENERIC_TYPES, LITERAL_TOKENS,
    OPERATOR_LEVELS, SCALAR_TYPES, TYPE_KEYWORDS, BinOp, Case, Cond, Expr,
    Index, Lambda, ListExpr, Lit, Match, Name, Not, Program, SliceFrom, Stmt,
    TTuple, TupleExpr, TypeTuple,
)

# the level of each binary operator, and that of the `not` prefix
_LEVEL = {op: i for i, ops in enumerate(OPERATOR_LEVELS) for op in ops}
_NOT = _LEVEL.pop("not")
_ATOM_START = {"literal", "IDENT", "(", "[", *CALL_FORMS}


def _unexpected(tok: Token, expected, where="") -> DslSyntaxError:
    """The error for `tok` where one of `expected` was due; the end of the
    input shows as 'EOF'."""
    return DslSyntaxError(f"unexpected token {tok.text or 'EOF'!r}{where}",
                          tok.span, expected)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        # `advance` stops at the final EOF token
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise _unexpected(tok, {kind})
        return self.advance()

    # -- program ------------------------------------------------------------

    def parse_program(self, source="") -> Program:
        stmts = []
        if self.peek().kind == "EOF":
            raise DslSyntaxError(
                "empty program", self.peek().span, {"IDENT"}
            )
        while self.peek().kind != "EOF":
            stmts.append(self.parse_stmt())
        return Program(stmts, source=source)

    def parse_stmt(self) -> Stmt:
        name_tok = self.expect("IDENT")
        annot = None
        if self.peek().kind == ":":
            self.advance()
            self.expect("(")
            annot = TTuple(self.parse_types())
        self.expect("=")
        expr = self.parse_expr()
        return Stmt(name_tok.text, expr, annot=annot, span=name_tok.span)

    # -- types --------------------------------------------------------------

    def parse_types(self) -> tuple:
        """One or more types up to a closing parenthesis."""
        first = self.parse_type()
        return tuple(self.parse_items(self.parse_type, ")", [first]))

    def parse_type(self):
        tok = self.peek()
        if tok.kind in SCALAR_TYPES:
            self.advance()
            return SCALAR_TYPES[tok.kind]
        if tok.kind in GENERIC_TYPES:
            self.advance()
            self.expect("[")
            elem = self.parse_type()
            self.expect("]")
            return GENERIC_TYPES[tok.kind](elem)
        raise _unexpected(tok, TYPE_KEYWORDS, " in type")

    def parse_items(self, item, close, items) -> list:
        """`items` and the further items `item` reads, each after a comma, up
        to the `close` token, which is consumed; a comma may come last."""
        while self.peek().kind == ",":
            self.advance()
            if self.peek().kind == close:
                break
            items.append(item())
        self.expect(close)
        return items

    # -- expressions ----------------------------------------------------------
    # precedence: conditional < the levels of `OPERATOR_LEVELS` < postfix

    def parse_expr(self) -> Expr:
        if self.peek().kind == "match":
            return self.parse_match()
        expr = self.parse_binary()
        if self.peek().kind == "if":
            span = self.advance().span
            test = self.parse_binary()
            self.expect("else")
            other = self.parse_expr()
            return Cond(span=span, then=expr, test=test, other=other)
        return expr

    def parse_match(self) -> Match:
        span = self.expect("match").span
        scrutinee = self.parse_binary()
        self.expect(":")
        cases = []
        while self.peek().kind == "case":
            case_span = self.advance().span
            pat_tok = self.peek()
            if pat_tok.kind == "None":
                self.advance()
                pattern = None
            elif pat_tok.kind == "IDENT":
                self.advance()
                pattern = pat_tok.text
            else:
                raise DslSyntaxError(
                    f"unsupported match pattern {pat_tok.text!r}",
                    pat_tok.span,
                    {"None", "IDENT"},
                )
            self.expect(":")
            body = self.parse_expr()
            cases.append(Case(pattern=pattern, body=body, span=case_span))
        if not cases:
            tok = self.peek()
            raise DslSyntaxError("match requires at least one case", tok.span, {"case"})
        return Match(span=span, scrutinee=scrutinee, cases=cases)

    def parse_binary(self, level=0) -> Expr:
        """An operand and the operators of `level` or tighter after it, by
        precedence climbing. After a comparison or a `not` operand, whose
        operators of that level or tighter were taken or refused, only a
        looser operator may follow."""
        tok = self.peek()
        if tok.kind == "not" and level <= _NOT:
            self.advance()
            left = Not(span=tok.span, operand=self.parse_binary(_NOT))
            ceiling = _NOT - 1
        else:
            left = self.parse_postfix()
            ceiling = len(OPERATOR_LEVELS)
        while True:
            tok = self.peek()
            p = _LEVEL.get(tok.kind, -1)
            if not level <= p <= ceiling:
                return left
            self.advance()
            right = self.parse_binary(p + 1)
            left = BinOp(span=tok.span, op=tok.kind, left=left, right=right)
            ceiling = p - 1 if tok.kind in COMPARISONS else p

    def parse_postfix(self) -> Expr:
        expr = self.parse_atom()
        while self.peek().kind == "[":
            span = self.advance().span
            idx_tok = self.expect("INT")
            if self.peek().kind == ":":
                self.advance()
                self.expect("]")
                expr = SliceFrom(span=span, base=expr, start=idx_tok.value)
            else:
                self.expect("]")
                expr = Index(span=span, base=expr, index=idx_tok.value)
        return expr

    def parse_lambda(self) -> Lambda:
        tok = self.peek()
        if tok.kind not in ("lambda", "fix"):
            raise DslSyntaxError(
                f"expected lambda, got {tok.text!r}", tok.span, {"lambda", "fix"}
            )
        self.advance()
        params = []
        if self.peek().kind == "IDENT":
            params.append(self.advance().text)
            while self.peek().kind == ",":
                self.advance()
                params.append(self.expect("IDENT").text)
        self.expect(":")
        body = self.parse_expr()
        return Lambda(span=tok.span, params=params, body=body, is_fix=tok.kind == "fix")

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind in LITERAL_TOKENS:
            self.advance()
            return Lit(span=tok.span, kind=LITERAL_TOKENS[tok.kind],
                       value=tok.value)
        if tok.kind == "IDENT":
            self.advance()
            return Name(span=tok.span, ident=tok.text)
        if tok.kind in CALL_FORMS:
            self.advance()
            node = CALL_FORMS[tok.kind]
            args = {}
            for i, field in enumerate(CALL_ARGS[node]):
                self.expect("," if i else "(")
                args[field] = self.parse_lambda() if field == "fn" \
                    else self.parse_expr()
            self.expect(")")
            return node(span=tok.span, **args)
        if tok.kind == "[":
            self.advance()
            items = [] if self.peek().kind == "]" else [self.parse_expr()]
            items = self.parse_items(self.parse_expr, "]", items)
            return ListExpr(span=tok.span, items=items)
        if tok.kind == "(":
            self.advance()
            if self.peek().kind in TYPE_KEYWORDS:
                return TypeTuple(span=tok.span, types=self.parse_types())
            items = [] if self.peek().kind == ")" else [self.parse_expr()]
            if len(items) == 1 and self.peek().kind != ",":
                self.expect(")")
                return items[0]
            items = self.parse_items(self.parse_expr, ")", items)
            return TupleExpr(span=tok.span, items=items)
        raise _unexpected(tok, _ATOM_START)


def parse(source: str) -> Program:
    parser = _Parser(tokenize(source))
    return parser.parse_program(source)


def parse_expression(source: str) -> Expr:
    """Parse a single expression (used for atoms supplied to `verify`)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise DslSyntaxError(f"trailing input {tok.text!r}", tok.span)
    return expr
