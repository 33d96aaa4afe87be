"""Concrete evaluator for DSL expressions, folds, and Lift semantics.

Expressions are compiled once into closures: node dispatch, literal
conversion and the choice of operator happen at compile time."""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from fractions import Fraction

from .syntax import (
    BOOL, FLOAT, INT, STR, BinOp, Cond, CoerceSome, Expr, Index, Insert,
    IsNone, ListExpr, Lit, Match, Name, Not, SliceFrom, SomeVal, TBool,
    TFloat, TInt, TStr, TTuple, TupleExpr, walk,
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
    use and cached per root node for the node's lifetime. Only `SomeVal`
    yields UNDEF, so a tree without one is compiled without UNDEF checks."""
    fn = _COMPILED.get(expr)
    if fn is None:
        guard = any(isinstance(node, SomeVal) for node in walk(expr))
        fn = _COMPILED[expr] = _compile(expr, guard)
    return fn


def _fail(message):
    def fail(env):
        raise EvalError(message)
    return fail


# Operators on two defined operands. The generic ones work on any value; the
# typed ones are chosen at compile time from the operands' static types.
def _div(left, right):
    if right == 0:
        raise EvalError("division by zero")
    return Fraction(left) / Fraction(right)


def _num_gt(lhs, rhs):
    if rhs is NEG_INF:
        return lhs is not NEG_INF
    if lhs is NEG_INF:
        return False
    return lhs > rhs


def _num_ge(lhs, rhs):
    if rhs is NEG_INF:
        return True
    if lhs is NEG_INF:
        return False
    return lhs >= rhs


_COMPARE = {"==": values_equal, "<": num_lt, "<=": num_le,
            ">": lambda lhs, rhs: num_lt(rhs, lhs),
            ">=": lambda lhs, rhs: num_le(rhs, lhs)}
# int operands are never -inf (the `-inf` literal is a float); `==` needs no
# -inf guard on numbers: -inf is a singleton equal only to itself
_INT_COMPARE = {"==": operator.eq, "<": operator.lt, "<=": operator.le,
                ">": operator.gt, ">=": operator.ge}
_FLOAT_COMPARE = {"==": operator.eq, "<": num_lt, "<=": num_le,
                  ">": _num_gt, ">=": _num_ge}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div}
_LITERALS = {"int": int, "float": Fraction, "bool": bool, "str": str,
             "neginf": lambda v: NEG_INF, "none": lambda v: NONE}
_LITERAL_TYPES = {"int": INT, "float": FLOAT, "neginf": FLOAT, "bool": BOOL,
                  "str": STR}


def _static_type(expr: Expr):
    """The checker's type of `expr`; an unannotated literal's follows from
    its kind. None when unknown."""
    if expr.ty is None and isinstance(expr, Lit):
        return _LITERAL_TYPES.get(expr.kind)
    return expr.ty


def _typed_compare(op, left: Expr, right: Expr):
    """The comparison of two defined operands picked from their static
    types, or None when the types do not settle it."""
    lt, rt = _static_type(left), _static_type(right)
    if isinstance(lt, TInt) and isinstance(rt, TInt):
        return _INT_COMPARE[op]
    if isinstance(lt, (TInt, TFloat)) and isinstance(rt, (TInt, TFloat)):
        return _FLOAT_COMPARE[op]
    if op == "==" and isinstance(lt, (TStr, TBool)) and lt == rt:
        return operator.eq
    return None


def _finite(arith):
    def checked(lhs, rhs):
        if lhs is NEG_INF or rhs is NEG_INF:
            raise EvalError("arithmetic on -inf")
        return arith(lhs, rhs)
    return checked


def _bad_operator(op):
    def bad(lhs, rhs):
        raise EvalError(f"bad operator {op}")
    return bad


# Closures capture a node's fields, never the node itself, so a cache entry
# does not keep its own key alive. `guard` says whether the root contains a
# `SomeVal`; without one no operand is ever UNDEF.
def _compile(expr: Expr, guard: bool):
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
        operand = _compile(expr.operand, guard)
        if not guard:
            return lambda env: not operand(env)

        def negate(env):
            val = operand(env)
            return UNDEF if val is UNDEF else not val
        return negate
    if isinstance(expr, BinOp):
        return _compile_binop(expr, guard)
    if isinstance(expr, Cond):
        test, then, other = (_compile(expr.test, guard),
                             _compile(expr.then, guard),
                             _compile(expr.other, guard))
        if not guard:
            return lambda env: then(env) if test(env) else other(env)

        def cond(env):
            val = test(env)
            if val is UNDEF:
                return UNDEF
            return then(env) if val else other(env)
        return cond
    if isinstance(expr, Match):
        scrutinee = _compile(expr.scrutinee, guard)
        none_body = _compile(
            next(c for c in expr.cases if c.pattern is None).body, guard)
        bind_case = next(c for c in expr.cases if c.pattern is not None)
        binder, bind_body = bind_case.pattern, _compile(bind_case.body, guard)

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
        items = [_compile(e, guard) for e in expr.items]
        return lambda env: tuple([item(env) for item in items])
    if isinstance(expr, ListExpr):
        items = [_compile(e, guard) for e in expr.items]
        return lambda env: [item(env) for item in items]
    if isinstance(expr, Index):
        return _compile_index(expr, guard)
    if isinstance(expr, SliceFrom):
        base, start = _compile(expr.base, guard), expr.start

        def suffix(env):
            seq = base(env)
            if not isinstance(seq, list):
                raise EvalError("cannot slice non-list")
            return seq[start:]
        return suffix
    if isinstance(expr, Insert):
        target, item = _compile(expr.target, guard), _compile(expr.item, guard)

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
        operand = _compile(expr.operand, guard)
        return lambda env: Some(operand(env))
    if isinstance(expr, SomeVal):
        operand = _compile(expr.operand, guard)

        def payload(env):
            val = operand(env)
            return val.value if isinstance(val, Some) else UNDEF
        return payload
    if isinstance(expr, IsNone):
        operand = _compile(expr.operand, guard)
        return lambda env: operand(env) is NONE
    return _fail(f"cannot evaluate {type(expr).__name__}")


def _compile_index(expr: Index, guard: bool):
    """A tuple-typed base is indexed directly (the checker bounds the index);
    a `Name` base is looked up in the same step. A base that may be UNDEF,
    or whose type is not a tuple, is checked at run time."""
    i = expr.index
    if isinstance(expr.base.ty, TTuple):
        if isinstance(expr.base, Name):
            ident, span = expr.base.ident, expr.base.span

            def field(env):
                try:
                    return env[ident][i]
                except KeyError:
                    raise EvalError(f"unbound name {ident!r} at {span}")
            return field
        if not guard:
            tuple_base = _compile(expr.base, guard)
            return lambda env: tuple_base(env)[i]
    base = _compile(expr.base, guard)

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


def _compile_binop(expr: BinOp, guard: bool):
    """Both operands are always evaluated, left first: `and` and `or` do not
    short-circuit, so an error on either side is raised."""
    op = expr.op
    left, right = _compile(expr.left, guard), _compile(expr.right, guard)
    if op in ("and", "or"):
        decisive = op == "or"  # the operand value that decides the result
        if not guard:
            if decisive:
                def disjunction(env):
                    lhs, rhs = left(env), right(env)
                    return True if lhs or rhs else False
                return disjunction

            def conjunction(env):
                lhs, rhs = left(env), right(env)
                return True if lhs and rhs else False
            return conjunction
        combine = operator.or_ if decisive else operator.and_

        def connective(env):
            lhs, rhs = left(env), right(env)
            if lhs is decisive or rhs is decisive:
                return decisive
            if lhs is UNDEF or rhs is UNDEF:
                return UNDEF
            return combine(bool(lhs), bool(rhs))
        return connective
    arith = _ARITH.get(op) or _bad_operator(op)
    if op in _COMPARE:
        pair = _typed_compare(op, expr.left, expr.right) or _COMPARE[op]
    elif op in ("+", "-", "*") and isinstance(_static_type(expr.left), TInt) \
            and isinstance(_static_type(expr.right), TInt):
        pair = arith  # int operands are never -inf
    else:
        pair = _finite(arith)
    if not guard:
        return lambda env: pair(left(env), right(env))

    def guarded(env):
        lhs, rhs = left(env), right(env)
        if lhs is UNDEF or rhs is UNDEF:
            return UNDEF
        return pair(lhs, rhs)
    return guarded


def eval_atom(expr: Expr, env: dict) -> bool:
    """Ground truth value of a predicate; well-guarded atoms never stay UNDEF."""
    return _holds((compiled(expr),), env)


def eval_fold(task, dataframe, start=None) -> LiftResult:
    """Left fold of the task's accumulator over the rows, from `start` (by
    default the task's initial value); empty input is Bottom."""
    if not dataframe:
        return LiftResult(BOTTOM)
    step = compiled(task.f_body)
    n_columns = task.n_columns
    # one env per fold; `match` copies it
    env = {"a": task.init_values if start is None else start}
    for row in dataframe:
        if len(row) != n_columns:
            raise EvalError("row does not conform to schema")
        env["r"] = tuple(row)
        env["a"] = step(env)
    return LiftResult(env["a"])


def lift_eval(pred_exprs, result: LiftResult, var: str = "a") -> LiftResult:
    if result.is_bottom:
        return result
    if _holds([compiled(p) for p in pred_exprs], {var: result.value}):
        return result
    return LiftResult(BOTTOM)


def filter_rows(pred_exprs, dataframe, n_columns: int):
    """The rows of `dataframe`, each `n_columns` wide, on which every
    predicate holds."""
    preds = [compiled(p) for p in pred_exprs]
    env = {}
    kept = []
    for row in dataframe:
        if len(row) != n_columns:
            raise EvalError("row does not conform to schema")
        env["r"] = tuple(row)
        if _holds(preds, env):
            kept.append(row)
    return kept


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
        rows = filter_rows(task.prefilters, rows, task.n_columns)
    result = eval_fold(task, rows)
    if task.post_pred is not None:
        result = lift_eval([task.post_pred], result)
    return result
