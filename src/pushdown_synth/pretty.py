"""AST -> DSL source. Output always re-parses to a structurally equal tree."""

from __future__ import annotations

from .syntax import (
    CALL_ARGS, CALL_FORMS, COMPARISONS, OPERATOR_LEVELS, BinOp, Cond,
    CoerceSome, Expr, Index, IsNone, Lambda, ListExpr, Lit, Match, Name, Not,
    Program, SliceFrom, SomeVal, TupleExpr, TypeTuple,
)
from .values import LITERALS, fmt_value, tuple_text

# precedence, loosest to tightest: the conditional, the operator levels of
# `OPERATOR_LEVELS`, then the postfix forms
_COND = 1
_PREC = {op: _COND + 1 + i for i, ops in enumerate(OPERATOR_LEVELS)
         for op in ops}
_POSTFIX = _COND + 1 + len(OPERATOR_LEVELS)
_CALL_KEYWORD = {node: kw for kw, node in CALL_FORMS.items()}


def fmt_expr(node: Expr, prec: int = 0) -> str:
    if isinstance(node, Lit):
        text = fmt_value(LITERALS[node.kind](node.value))
        # negative literals need parens wherever a binary op could capture them
        if text.startswith("-") and prec >= _PREC["=="]:
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
        p = _PREC[node.op]
        # comparisons do not associate; the other operators associate left
        left = fmt_expr(node.left, p if node.op in COMPARISONS else p - 1)
        right = fmt_expr(node.right, p)
        text = f"{left} {node.op} {right}"
        return f"({text})" if p <= prec else text
    if isinstance(node, Not):
        text = f"not {fmt_expr(node.operand, _PREC['not'])}"
        return f"({text})" if _PREC["not"] <= prec else text
    if isinstance(node, Cond):
        text = (
            f"{fmt_expr(node.then, _COND)} if {fmt_expr(node.test, _COND)} "
            f"else {fmt_expr(node.other, 0)}"
        )
        return f"({text})" if prec >= _COND else text
    if isinstance(node, Match):
        cases = " ".join(
            f"case {c.pattern if c.pattern is not None else 'None'}: "
            f"{fmt_expr(c.body, _COND)}"
            for c in node.cases
        )
        return f"(match {fmt_expr(node.scrutinee, _PREC['and'])}: {cases})"
    if isinstance(node, TypeTuple):
        return tuple_text(str(t) for t in node.types)
    if isinstance(node, TupleExpr):
        return tuple_text(fmt_expr(e, 0) for e in node.items)
    if isinstance(node, ListExpr):
        return "[" + ", ".join(fmt_expr(e, 0) for e in node.items) + "]"
    if isinstance(node, Index):
        return f"{fmt_expr(node.base, _POSTFIX)}[{node.index}]"
    if isinstance(node, SliceFrom):
        return f"{fmt_expr(node.base, _POSTFIX)}[{node.start}:]"
    if isinstance(node, Lambda):
        kw = "fix" if node.is_fix else "lambda"
        return f"{kw} {', '.join(node.params)}: {fmt_expr(node.body, 0)}"
    if type(node) in _CALL_KEYWORD:
        args = (fmt_expr(getattr(node, f), 0) for f in CALL_ARGS[type(node)])
        return f"{_CALL_KEYWORD[type(node)]}({', '.join(args)})"
    raise TypeError(f"cannot pretty-print {type(node)}")


def fmt_program(program: Program) -> str:
    lines = []
    for stmt in program.stmts:
        annot = "" if stmt.annot is None else f": {stmt.annot}"
        lines.append(f"{stmt.name}{annot} = {fmt_expr(stmt.expr, 0)}")
    return "\n".join(lines) + "\n"
