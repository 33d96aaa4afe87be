"""Reference tree-walking evaluator for DSL expressions.

The evaluator `pushdown_synth.interp` generates one Python function per
expression; this walker re-dispatches on every node instead. The tests keep it as the
reference the compiled form is checked against.
"""

from __future__ import annotations

from fractions import Fraction

from pushdown_synth.interp import UNDEF
from pushdown_synth.syntax import (
    BinOp, Cond, CoerceSome, Expr, Index, Insert, IsNone, ListExpr, Lit,
    Match, Name, Not, SliceFrom, SomeVal, TupleExpr,
)
from pushdown_synth.values import (
    NEG_INF, NONE, EvalError, Some, Value, num_le, num_lt, values_equal,
)


def eval_expr(expr: Expr, env: dict) -> Value:
    if isinstance(expr, Lit):
        if expr.kind == "int":
            return int(expr.value)
        if expr.kind == "float":
            return Fraction(expr.value)
        if expr.kind == "neginf":
            return NEG_INF
        if expr.kind == "bool":
            return bool(expr.value)
        if expr.kind == "str":
            return str(expr.value)
        if expr.kind == "none":
            return NONE
        raise EvalError(f"bad literal kind {expr.kind}")
    if isinstance(expr, Name):
        try:
            return env[expr.ident]
        except KeyError:
            raise EvalError(f"unbound name {expr.ident!r} at {expr.span}")
    if isinstance(expr, Not):
        val = eval_expr(expr.operand, env)
        return UNDEF if val is UNDEF else not val
    if isinstance(expr, BinOp):
        op = expr.op
        if op in ("and", "or"):
            left = eval_expr(expr.left, env)
            right = eval_expr(expr.right, env)
            if op == "and":
                if left is False or right is False:
                    return False
                if left is UNDEF or right is UNDEF:
                    return UNDEF
                return bool(left) and bool(right)
            if left is True or right is True:
                return True
            if left is UNDEF or right is UNDEF:
                return UNDEF
            return bool(left) or bool(right)
        left = eval_expr(expr.left, env)
        right = eval_expr(expr.right, env)
        if left is UNDEF or right is UNDEF:
            return UNDEF
        if op == "==":
            return values_equal(left, right)
        if op == ">":
            return num_lt(right, left)
        if op == ">=":
            return num_le(right, left)
        if op == "<":
            return num_lt(left, right)
        if op == "<=":
            return num_le(left, right)
        if left is NEG_INF or right is NEG_INF:
            raise EvalError("arithmetic on -inf")
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise EvalError("division by zero")
            return Fraction(left) / Fraction(right)
        raise EvalError(f"bad operator {op}")
    if isinstance(expr, Cond):
        test = eval_expr(expr.test, env)
        if test is UNDEF:
            return UNDEF
        if test:
            return eval_expr(expr.then, env)
        return eval_expr(expr.other, env)
    if isinstance(expr, Match):
        scrutinee = eval_expr(expr.scrutinee, env)
        none_case = next(c for c in expr.cases if c.pattern is None)
        bind_case = next(c for c in expr.cases if c.pattern is not None)
        if scrutinee is NONE:
            return eval_expr(none_case.body, env)
        if not isinstance(scrutinee, Some):
            raise EvalError("match scrutinee is not Optional")
        inner = dict(env)
        inner[bind_case.pattern] = scrutinee.value
        return eval_expr(bind_case.body, inner)
    if isinstance(expr, TupleExpr):
        return tuple(eval_expr(e, env) for e in expr.items)
    if isinstance(expr, ListExpr):
        return [eval_expr(e, env) for e in expr.items]
    if isinstance(expr, Index):
        base = eval_expr(expr.base, env)
        if isinstance(base, tuple):
            return base[expr.index]
        if isinstance(base, list):
            try:
                return base[expr.index]
            except IndexError:
                raise EvalError(f"list index {expr.index} out of range")
        raise EvalError("cannot index non-sequence")
    if isinstance(expr, SliceFrom):
        base = eval_expr(expr.base, env)
        if not isinstance(base, list):
            raise EvalError("cannot slice non-list")
        return base[expr.start :]
    if isinstance(expr, Insert):
        target = eval_expr(expr.target, env)
        item = eval_expr(expr.item, env)
        if not isinstance(target, list):
            raise EvalError("insert target is not a list")
        out = list(target)
        lo = 0
        while lo < len(out) and num_lt(out[lo], item):
            lo += 1
        out.insert(lo, item)
        return out
    if isinstance(expr, CoerceSome):
        return Some(eval_expr(expr.operand, env))
    if isinstance(expr, SomeVal):
        val = eval_expr(expr.operand, env)
        if not isinstance(val, Some):
            return UNDEF
        return val.value
    if isinstance(expr, IsNone):
        return eval_expr(expr.operand, env) is NONE
    raise EvalError(f"cannot evaluate {type(expr).__name__}")
