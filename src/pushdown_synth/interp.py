"""Concrete evaluator for DSL expressions, folds, and Lift semantics.

Expressions are compiled once into closures: node dispatch, literal
conversion and the choice of operator happen at compile time."""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from fractions import Fraction

from .syntax import (
    BinOp, Cond, CoerceSome, Expr, Index, Insert, IsNone, ListExpr, Lit,
    Match, Name, Not, SliceFrom, SomeVal, TupleExpr,
)
from .values import (
    NEG_INF, NONE, EvalError, Some, Value, num_le, num_lt, values_equal,
)

BOTTOM = object()  # distinguished undefined result of empty folds

UNDEF = object()  # payload of a None value; absorbed by guarding connectives


@dataclass
class LiftResult:
    value: object  # Value or BOTTOM

    @property
    def is_bottom(self) -> bool:
        return self.value is BOTTOM

    def __eq__(self, other):
        if not isinstance(other, LiftResult):
            return NotImplemented
        if self.is_bottom or other.is_bottom:
            return self.is_bottom and other.is_bottom
        return values_equal(self.value, other.value)

    def __repr__(self):
        return "Bottom" if self.is_bottom else f"Defined({self.value!r})"


def eval_expr(expr: Expr, env: dict) -> Value:
    return compiled(expr)(env)


_COMPILED = weakref.WeakKeyDictionary()  # root node -> its closure


def compiled(expr: Expr):
    """The closure `env -> Value` of a typed expression, compiled on first
    use and cached per root node for the node's lifetime."""
    fn = _COMPILED.get(expr)
    if fn is None:
        fn = _COMPILED[expr] = _compile(expr)
    return fn


def _fail(message):
    def fail(env):
        raise EvalError(message)
    return fail


# BinOp operators on two defined operands; arithmetic rejects -inf first
def _div(left, right):
    if right == 0:
        raise EvalError("division by zero")
    return Fraction(left) / Fraction(right)


_COMPARE = {"==": values_equal, "<": num_lt, "<=": num_le,
            ">": lambda lhs, rhs: num_lt(rhs, lhs),
            ">=": lambda lhs, rhs: num_le(rhs, lhs)}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div}
_LITERALS = {"int": int, "float": Fraction, "bool": bool, "str": str,
             "neginf": lambda v: NEG_INF, "none": lambda v: NONE}


# Closures capture a node's fields, never the node itself, so a cache entry
# does not keep its own key alive.
def _compile(expr: Expr):
    if isinstance(expr, Lit):
        convert = _LITERALS.get(expr.kind)
        if convert is None:
            return _fail(f"bad literal kind {expr.kind}")
        value = convert(expr.value)
        return lambda env: value
    if isinstance(expr, Name):
        ident, span = expr.ident, expr.span

        def name(env):
            try:
                return env[ident]
            except KeyError:
                raise EvalError(f"unbound name {ident!r} at {span}")
        return name
    if isinstance(expr, Not):
        operand = _compile(expr.operand)

        def negate(env):
            val = operand(env)
            return UNDEF if val is UNDEF else not val
        return negate
    if isinstance(expr, BinOp):
        return _compile_binop(expr.op, _compile(expr.left),
                              _compile(expr.right))
    if isinstance(expr, Cond):
        test, then, other = (_compile(expr.test), _compile(expr.then),
                             _compile(expr.other))

        def cond(env):
            val = test(env)
            if val is UNDEF:
                return UNDEF
            return then(env) if val else other(env)
        return cond
    if isinstance(expr, Match):
        scrutinee = _compile(expr.scrutinee)
        none_body = _compile(
            next(c for c in expr.cases if c.pattern is None).body)
        bind_case = next(c for c in expr.cases if c.pattern is not None)
        binder, bind_body = bind_case.pattern, _compile(bind_case.body)

        def match(env):
            val = scrutinee(env)
            if val is NONE:
                return none_body(env)
            if not isinstance(val, Some):
                raise EvalError("match scrutinee is not Optional")
            inner = dict(env)
            inner[binder] = val.value
            return bind_body(inner)
        return match
    if isinstance(expr, TupleExpr):
        items = [_compile(e) for e in expr.items]
        return lambda env: tuple([item(env) for item in items])
    if isinstance(expr, ListExpr):
        items = [_compile(e) for e in expr.items]
        return lambda env: [item(env) for item in items]
    if isinstance(expr, Index):
        base, i = _compile(expr.base), expr.index

        def index(env):
            seq = base(env)
            if isinstance(seq, tuple):
                return seq[i]
            if isinstance(seq, list):
                try:
                    return seq[i]
                except IndexError:
                    raise EvalError(f"list index {i} out of range")
            raise EvalError("cannot index non-sequence")
        return index
    if isinstance(expr, SliceFrom):
        base, start = _compile(expr.base), expr.start

        def suffix(env):
            seq = base(env)
            if not isinstance(seq, list):
                raise EvalError("cannot slice non-list")
            return seq[start:]
        return suffix
    if isinstance(expr, Insert):
        target, item = _compile(expr.target), _compile(expr.item)

        def insert(env):
            seq, val = target(env), item(env)
            if not isinstance(seq, list):
                raise EvalError("insert target is not a list")
            lo = 0
            while lo < len(seq) and num_lt(seq[lo], val):
                lo += 1
            return seq[:lo] + [val] + seq[lo:]
        return insert
    if isinstance(expr, CoerceSome):
        operand = _compile(expr.operand)
        return lambda env: Some(operand(env))
    if isinstance(expr, SomeVal):
        operand = _compile(expr.operand)

        def payload(env):
            val = operand(env)
            return val.value if isinstance(val, Some) else UNDEF
        return payload
    if isinstance(expr, IsNone):
        operand = _compile(expr.operand)
        return lambda env: operand(env) is NONE
    return _fail(f"cannot evaluate {type(expr).__name__}")


def _compile_binop(op, left, right):
    """Both operands are always evaluated, left first: `and` and `or` do not
    short-circuit, so an error on either side is raised."""
    if op in ("and", "or"):
        decisive = op == "or"  # the operand value that decides the result
        combine = operator.or_ if decisive else operator.and_

        def connective(env):
            lhs, rhs = left(env), right(env)
            if lhs is decisive or rhs is decisive:
                return decisive
            if lhs is UNDEF or rhs is UNDEF:
                return UNDEF
            return combine(bool(lhs), bool(rhs))
        return connective
    compare = _COMPARE.get(op)
    if compare is not None:
        def comparison(env):
            lhs, rhs = left(env), right(env)
            if lhs is UNDEF or rhs is UNDEF:
                return UNDEF
            return compare(lhs, rhs)
        return comparison
    arith = _ARITH.get(op)

    def arithmetic(env):
        lhs, rhs = left(env), right(env)
        if lhs is UNDEF or rhs is UNDEF:
            return UNDEF
        if lhs is NEG_INF or rhs is NEG_INF:
            raise EvalError("arithmetic on -inf")
        if arith is None:
            raise EvalError(f"bad operator {op}")
        return arith(lhs, rhs)
    return arithmetic


def eval_atom(expr: Expr, env: dict) -> bool:
    """Ground truth value of a predicate; well-guarded atoms never stay UNDEF."""
    return _holds((compiled(expr),), env)


def eval_fold(task, dataframe) -> LiftResult:
    """Left fold of the task's accumulator over the rows; empty input is Bottom."""
    if not dataframe:
        return LiftResult(BOTTOM)
    step = compiled(task.f_body)
    n_columns = task.n_columns
    acc: Value = task.init_values
    for row in dataframe:
        if len(row) != n_columns:
            raise EvalError("row does not conform to schema")
        acc = step({"a": acc, "r": tuple(row)})
    return LiftResult(acc)


def lift_eval(pred_exprs, result: LiftResult, var: str = "a") -> LiftResult:
    if result.is_bottom:
        return result
    if _holds([compiled(p) for p in pred_exprs], {var: result.value}):
        return result
    return LiftResult(BOTTOM)


def filter_rows(pred_exprs, dataframe):
    preds = [compiled(p) for p in pred_exprs]
    return [row for row in dataframe if _holds(preds, {"r": tuple(row)})]


def _holds(preds, env) -> bool:
    """The conjunction of compiled atoms, evaluated left to right."""
    for pred in preds:
        val = pred(env)
        if val is UNDEF:
            raise EvalError("atom is undefined under the given assignment")
        if not val:
            return False
    return True


def run_pipeline(task, dataframe) -> LiftResult:
    """Execute a typechecked pipeline (prefilters, fold, post-filter) on rows."""
    rows = dataframe
    if task.prefilters:
        rows = filter_rows(task.prefilters, rows)
    result = eval_fold(task, rows)
    if task.post_pred is not None:
        result = lift_eval([task.post_pred], result)
    return result
