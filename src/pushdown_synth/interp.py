"""Concrete evaluator for DSL expressions, folds, and Lift semantics.

Each typed root is compiled once into a generated Python function whose body
is a single expression: node dispatch, literal conversion and the choice of
operator happen while the source text is built, so a call runs straight-line
bytecode with no interpreter frame per node. The source names only generated
identifiers; every constant, string labels included, lives in the function's
globals, so no DSL text ever reaches `compile()`."""

from __future__ import annotations

import itertools
import linecache
import weakref
from dataclasses import dataclass
from fractions import Fraction

from .syntax import (
    LITERAL_TYPES, OPERATORS, BinOp, Cond, CoerceSome, Expr, Index, Insert,
    IsNone, ListExpr, Lit, Match, Name, Not, SliceFrom, SomeVal, TBool,
    TFloat, TInt, TStr, TTuple, TupleExpr, walk,
)
from .values import (
    LITERALS, NEG_INF, NONE, EvalError, Some, Value, num_le, num_lt,
    values_equal,
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


# id of a root node -> {parameters: generated function}; `None` keys the
# `env`-dict form, a tuple of identifiers a kernel taking those names
# positionally. An entry leaves with its root (`weakref.finalize`), so no id
# is reused while it is cached.
_COMPILED = {}


def compiled(expr: Expr):
    """The function `env -> Value` of a typed expression, generated on first
    use and cached per root node for the node's lifetime."""
    return _kernel(expr, None)


def _kernel(expr: Expr, params):
    """The generated function of `expr` taking the values of the names
    `params` positionally (`env` when `params` is None). A name outside
    `params` is unbound in a kernel."""
    key = id(expr)
    try:
        return _COMPILED[key][params]
    except KeyError:
        pass
    fns = _COMPILED.get(key)
    if fns is None:
        fns = _COMPILED[key] = {}
        weakref.finalize(expr, _COMPILED.pop, key, None).atexit = False
    fn = fns[params] = _Generator(expr, params).function()
    return fn


# Operators on two defined operands. The generic ones work on any value; the
# typed ones are chosen at generation time from the operands' static types.
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


_COMPARE = {"==": values_equal, "<": num_lt, "<=": num_le,
            ">": lambda lhs, rhs: num_lt(rhs, lhs),
            ">=": lambda lhs, rhs: num_le(rhs, lhs)}
# Python's own operators; on typed numbers they are exact except where an
# operand is -inf (the `-inf` literal is a float, so never on ints), and `==`
# needs no -inf check: -inf is a singleton equal only to itself
_NATIVE = {"==": "==", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
           "+": "+", "-": "-", "*": "*"}
_NEG_INF_COMPARE = {"<": num_lt, "<=": num_le, ">": _num_gt, ">=": _num_ge}
_FINITE = {op: _finite(_div if op == "/" else OPERATORS[op])
           for op in ("+", "-", "*", "/")}


def _static_type(expr: Expr):
    """The checker's type of `expr`; an unannotated literal's follows from
    its kind. None when unknown."""
    if expr.ty is None and isinstance(expr, Lit):
        return LITERAL_TYPES.get(expr.kind)
    return expr.ty


def _pair(op, left: Expr, right: Expr):
    """How two defined operands of `op` combine, as `(native, helper)`: the
    Python operator alone, the helper function alone, or both, where the
    native operator is exact unless an operand is -inf and the helper then
    decides."""
    lt, rt = _static_type(left), _static_type(right)
    ints = isinstance(lt, TInt) and isinstance(rt, TInt)
    nums = isinstance(lt, (TInt, TFloat)) and isinstance(rt, (TInt, TFloat))
    if op in _COMPARE:
        if ints or (nums and op == "=="):
            return _NATIVE[op], None
        if nums:
            return _NATIVE[op], _NEG_INF_COMPARE[op]
        if op == "==" and isinstance(lt, (TStr, TBool)) and lt == rt:
            return "==", None
        return None, _COMPARE[op]
    if ints and op in ("+", "-", "*"):
        return _NATIVE[op], None
    return None, _FINITE.get(op) or _finite(_bad_operator(op))


# Run-time helpers of the generated code, for the nodes that need a check or
# a loop; each raises the evaluator's error for a value the types rule out.
def _fail(message):
    raise EvalError(message)


def _index(seq, i):
    if isinstance(seq, tuple):
        return seq[i]
    if isinstance(seq, list):
        try:
            return seq[i]
        except IndexError:
            raise EvalError(f"list index {i} out of range")
    raise EvalError("cannot index non-sequence")


def _suffix(seq, start):
    if not isinstance(seq, list):
        raise EvalError("cannot slice non-list")
    return seq[start:]


def _insert(seq, val):
    if not isinstance(seq, list):
        raise EvalError("insert target is not a list")
    lo = 0
    while lo < len(seq) and num_lt(seq[lo], val):
        lo += 1
    return seq[:lo] + [val] + seq[lo:]


_RUNTIME = {"_U": UNDEF, "_NONE": NONE, "_NI": NEG_INF, "_Some": Some,
            "_fail": _fail, "_index": _index, "_suffix": _suffix,
            "_insert": _insert}

_SPLIT_DEPTH = 24  # tree levels per generated function; see `_Generator.emit`
_SERIAL = itertools.count(1)


class _Generator:
    """Builds and compiles the source of one root's function.

    Every DSL name resolves through `scope` (identifier -> Python local) or,
    in the `env` form, through the dict; a kernel's parameters and each
    `match` binder get fresh locals, so a rebound binder shadows exactly as a
    nested environment would. `guard` says whether the root contains a
    `SomeVal`; without one no operand is ever UNDEF and no check is emitted.
    Operands that must be tested after evaluation go through walrus
    temporaries, and both operands of every binary node are evaluated, left
    first."""

    def __init__(self, root: Expr, params):
        self.root = root
        self.params = params
        self.guard = any(isinstance(node, SomeVal) for node in walk(root))
        self.namespace = dict(_RUNTIME)
        self.defs = []
        self.pending = []  # split-off subtrees: (name, args, expr, scope)
        self._fresh = itertools.count()

    def fresh(self, prefix):
        return f"{prefix}{next(self._fresh)}"

    def const(self, value):
        name = self.fresh("_k")
        self.namespace[name] = value
        return name

    def fail(self, message):
        return f"_fail({self.const(message)})"

    def function(self):
        if self.params is None:
            args, scope = ["env"], {}
        else:
            scope = {ident: self.fresh("_p") for ident in self.params}
            args = list(scope.values())
        self.define("_dsl", args, self.emit(self.root, scope, 0))
        while self.pending:
            name, args, expr, scope = self.pending.pop()
            self.define(name, args, self.emit(expr, scope, 0))
        source = "".join(self.defs)
        filename = f"<dsl {self.root.span} #{next(_SERIAL)}>"
        exec(compile(source, filename, "exec"), self.namespace)
        # the source stays readable to tracebacks and profilers while the
        # root lives
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(True), filename)
        weakref.finalize(self.root, linecache.cache.pop, filename,
                         None).atexit = False
        return self.namespace.pop("_dsl")

    def define(self, name, args, body):
        self.defs.append(f"def {name}({', '.join(args)}):\n"
                         f"    return {body}\n")

    def emit(self, expr: Expr, scope: dict, depth: int) -> str:
        """The source of `expr`. A subtree `_SPLIT_DEPTH` levels down becomes
        a function of its own, called with the locals in scope and generated
        after the current one: every body stays well inside CPython's
        nesting limits, and generation recurses at most that deep."""
        if depth == _SPLIT_DEPTH:
            name = self.fresh("_f")
            args = sorted(set(scope.values()))
            if self.params is None:
                args.insert(0, "env")
            self.pending.append((name, args, expr, scope))
            return f"{name}({', '.join(args)})"
        return self.node(expr, scope, depth + 1)

    def node(self, expr: Expr, scope: dict, depth: int) -> str:
        guard = self.guard
        if isinstance(expr, Lit):
            convert = LITERALS.get(expr.kind)
            if convert is None:
                return self.fail(f"bad literal kind {expr.kind}")
            return self.const(convert(expr.value))
        if isinstance(expr, Name):
            local = scope.get(expr.ident)
            if local is not None:
                return local
            unbound = self.fail(f"unbound name {expr.ident!r} at {expr.span}")
            if self.params is not None:
                return unbound
            key = self.const(expr.ident)
            return f"(env[{key}] if {key} in env else {unbound})"
        if isinstance(expr, Not):
            operand = self.emit(expr.operand, scope, depth)
            if not guard:
                return f"(not {operand})"
            t = self.fresh("_t")
            return f"(_U if ({t} := {operand}) is _U else not {t})"
        if isinstance(expr, BinOp):
            if expr.op in ("and", "or"):
                return self.connective(expr, scope, depth)
            return self.binop(expr, scope, depth)
        if isinstance(expr, Cond):
            test = self.emit(expr.test, scope, depth)
            then = self.emit(expr.then, scope, depth)
            other = self.emit(expr.other, scope, depth)
            if not guard:
                return f"({then} if {test} else {other})"
            t = self.fresh("_t")
            return (f"(_U if ({t} := {test}) is _U else "
                    f"({then} if {t} else {other}))")
        if isinstance(expr, Match):
            return self.match(expr, scope, depth)
        if isinstance(expr, TupleExpr):
            items = [self.emit(e, scope, depth) for e in expr.items]
            return f"({', '.join(items)}{',' if len(items) == 1 else ''})"
        if isinstance(expr, ListExpr):
            items = [self.emit(e, scope, depth) for e in expr.items]
            return f"[{', '.join(items)}]"
        if isinstance(expr, Index):
            # a tuple-typed base is indexed directly (the checker bounds the
            # index) unless it may be UNDEF; a name never is
            base = self.emit(expr.base, scope, depth)
            i = self.const(expr.index)
            if isinstance(expr.base.ty, TTuple) and (
                    not guard or isinstance(expr.base, Name)):
                return f"{base}[{i}]"
            return f"_index({base}, {i})"
        if isinstance(expr, SliceFrom):
            base = self.emit(expr.base, scope, depth)
            return f"_suffix({base}, {self.const(expr.start)})"
        if isinstance(expr, Insert):
            target = self.emit(expr.target, scope, depth)
            item = self.emit(expr.item, scope, depth)
            return f"_insert({target}, {item})"
        if isinstance(expr, CoerceSome):
            return f"_Some({self.emit(expr.operand, scope, depth)})"
        if isinstance(expr, SomeVal):
            operand = self.emit(expr.operand, scope, depth)
            t = self.fresh("_t")
            return f"({t}.value if isinstance(({t} := {operand}), _Some) " \
                   f"else _U)"
        if isinstance(expr, IsNone):
            return f"({self.emit(expr.operand, scope, depth)} is _NONE)"
        return self.fail(f"cannot evaluate {type(expr).__name__}")

    def connective(self, expr: BinOp, scope, depth):
        """`and` and `or` do not short-circuit: both operands are evaluated,
        left first, so an error on either side is raised."""
        bitwise = "|" if expr.op == "or" else "&"
        left = self.emit(expr.left, scope, depth)
        right = self.emit(expr.right, scope, depth)
        if not self.guard:
            return f"((not not {left}) {bitwise} (not not {right}))"
        decisive = "True" if expr.op == "or" else "False"
        a, b = self.fresh("_t"), self.fresh("_t")
        return (f"({decisive} if (({a} := {left}) is {decisive}) | "
                f"(({b} := {right}) is {decisive}) else "
                f"(_U if ({a} is _U) | ({b} is _U) else "
                f"(not not {a}) {bitwise} (not not {b})))")

    def binop(self, expr: BinOp, scope, depth):
        native, helper = _pair(expr.op, expr.left, expr.right)
        left = self.emit(expr.left, scope, depth)
        right = self.emit(expr.right, scope, depth)
        if helper is not None:
            helper = self.const(helper)
        a, b = self.fresh("_t"), self.fresh("_t")
        if self.guard:  # a helper alone is exact on any defined operands
            pair = f"{a} {native} {b}" if helper is None else \
                f"{helper}({a}, {b})"
            return (f"(_U if (({a} := {left}) is _U) | "
                    f"(({b} := {right}) is _U) else {pair})")
        if helper is None:
            return f"({left} {native} {right})"
        if native is None:
            return f"{helper}({left}, {right})"
        return (f"({helper}({a}, {b}) if (({a} := {left}) is _NI) | "
                f"(({b} := {right}) is _NI) else {a} {native} {b})")

    def match(self, expr: Match, scope, depth):
        scrutinee = self.emit(expr.scrutinee, scope, depth)
        none_case = next(c for c in expr.cases if c.pattern is None)
        bind_case = next(c for c in expr.cases if c.pattern is not None)
        none_body = self.emit(none_case.body, scope, depth)
        s, binder = self.fresh("_s"), self.fresh("_b")
        bind_body = self.emit(bind_case.body,
                              {**scope, bind_case.pattern: binder}, depth)
        not_optional = self.fail("match scrutinee is not Optional")
        # `(b := payload) is b` always holds: it binds the payload before
        # the body runs
        return (f"({none_body} if ({s} := {scrutinee}) is _NONE else "
                f"({bind_body} if isinstance({s}, _Some) and "
                f"(({binder} := {s}.value) is {binder}) else {not_optional}))")


def eval_atom(expr: Expr, env: dict) -> bool:
    """Ground truth value of a predicate; well-guarded atoms never stay UNDEF."""
    return _holds((compiled(expr),), env)


_FOLD_PARAMS = ("a", "r")
_ROW_PARAMS = ("r",)
_ACC_PARAMS = ("a",)


def eval_fold(task, dataframe, start=None) -> LiftResult:
    """Left fold of the task's accumulator over the rows, from `start` (by
    default the task's initial value); empty input is Bottom."""
    if not dataframe:
        return LiftResult(BOTTOM)
    step = _kernel(task.f_body, _FOLD_PARAMS)
    n_columns = task.n_columns
    a = task.init_values if start is None else start
    for row in dataframe:
        if len(row) != n_columns:
            raise EvalError("row does not conform to schema")
        a = step(a, tuple(row))
    return LiftResult(a)


def lift_eval(pred_exprs, result: LiftResult) -> LiftResult:
    if result.is_bottom:
        return result
    if _holds([_kernel(p, _ACC_PARAMS) for p in pred_exprs], result.value):
        return result
    return LiftResult(BOTTOM)


def filter_rows(pred_exprs, dataframe, n_columns: int):
    """The rows of `dataframe`, each `n_columns` wide, on which every
    predicate holds."""
    preds = [_kernel(p, _ROW_PARAMS) for p in pred_exprs]
    kept = []
    for row in dataframe:
        if len(row) != n_columns:
            raise EvalError("row does not conform to schema")
        if _holds(preds, tuple(row)):
            kept.append(row)
    return kept


def _holds(preds, arg) -> bool:
    """The conjunction of generated atoms on one argument, evaluated left to
    right."""
    for pred in preds:
        val = pred(arg)
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
