"""AST -> DSL source. Output always re-parses to a structurally equal tree."""

from __future__ import annotations

from .syntax import (
    BinOp, Cond, CoerceSome, Expr, Filter, Fold, Index, Insert, IsNone,
    Lambda, ListExpr, Lit, Match, Name, Not, Program, SliceFrom, SomeVal,
    TupleExpr, TypeTuple,
)
from .values import LITERALS, fmt_value, tuple_text

# precedence levels, loosest to tightest
_PREC_COND = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_NOT = 4
_PREC_CMP = 5
_PREC_ADD = 6
_PREC_MUL = 7
_PREC_ATOM = 9

_BINOP_PREC = {
    "or": _PREC_OR, "and": _PREC_AND,
    "==": _PREC_CMP, ">=": _PREC_CMP, ">": _PREC_CMP, "<=": _PREC_CMP, "<": _PREC_CMP,
    "+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL,
}


def fmt_expr(node: Expr, prec: int = 0) -> str:
    if isinstance(node, Lit):
        text = fmt_value(LITERALS[node.kind](node.value))
        # negative literals need parens wherever a binary op could capture them
        if text.startswith("-") and prec >= _PREC_CMP:
            return f"({text})"
        return text
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, CoerceSome):
        return fmt_expr(node.operand, prec)
    if isinstance(node, SomeVal):
        # payload projections only appear in internal atom forms; callers that
        # emit DSL source use the match-based display form instead
        return fmt_expr(node.operand, prec)
    if isinstance(node, IsNone):
        return fmt_expr(
            BinOp(op="==", left=node.operand, right=Lit(kind="none", value=None)), prec
        )
    if isinstance(node, BinOp):
        p = _BINOP_PREC[node.op]
        # comparisons are non-associative; arithmetic is left-associative
        left = fmt_expr(node.left, p if node.op in ("==", ">=", ">", "<=", "<") else p - 1)
        right = fmt_expr(node.right, p)
        text = f"{left} {node.op} {right}"
        return f"({text})" if p <= prec else text
    if isinstance(node, Not):
        text = f"not {fmt_expr(node.operand, _PREC_NOT)}"
        return f"({text})" if _PREC_NOT <= prec else text
    if isinstance(node, Cond):
        text = (
            f"{fmt_expr(node.then, _PREC_COND)} if {fmt_expr(node.test, _PREC_COND)} "
            f"else {fmt_expr(node.other, 0)}"
        )
        return f"({text})" if prec >= _PREC_COND else text
    if isinstance(node, Match):
        cases = " ".join(
            f"case {c.pattern if c.pattern is not None else 'None'}: "
            f"{fmt_expr(c.body, _PREC_COND)}"
            for c in node.cases
        )
        return f"(match {fmt_expr(node.scrutinee, _PREC_AND)}: {cases})"
    if isinstance(node, TypeTuple):
        return tuple_text(str(t) for t in node.types)
    if isinstance(node, TupleExpr):
        return tuple_text(fmt_expr(e, 0) for e in node.items)
    if isinstance(node, ListExpr):
        return "[" + ", ".join(fmt_expr(e, 0) for e in node.items) + "]"
    if isinstance(node, Index):
        return f"{fmt_expr(node.base, _PREC_ATOM)}[{node.index}]"
    if isinstance(node, SliceFrom):
        return f"{fmt_expr(node.base, _PREC_ATOM)}[{node.start}:]"
    if isinstance(node, Insert):
        return f"insert({fmt_expr(node.target, 0)}, {fmt_expr(node.item, 0)})"
    if isinstance(node, Lambda):
        kw = "fix" if node.is_fix else "lambda"
        return f"{kw} {', '.join(node.params)}: {fmt_expr(node.body, 0)}"
    if isinstance(node, Fold):
        return (
            f"fold({fmt_expr(node.source, 0)}, {fmt_expr(node.init, 0)}, "
            f"{fmt_expr(node.fn, 0)})"
        )
    if isinstance(node, Filter):
        return f"filter({fmt_expr(node.source, 0)}, {fmt_expr(node.fn, 0)})"
    raise TypeError(f"cannot pretty-print {type(node)}")


def fmt_program(program: Program) -> str:
    lines = []
    for stmt in program.stmts:
        annot = "" if stmt.annot is None else f": {stmt.annot}"
        lines.append(f"{stmt.name}{annot} = {fmt_expr(stmt.expr, 0)}")
    return "\n".join(lines) + "\n"
