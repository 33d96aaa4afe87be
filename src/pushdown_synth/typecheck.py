"""Type checking and pipeline extraction.

Produces a PipelineTask: schema, initializer, accumulator function, and the
post-filter split into CNF conjuncts. Lambda parameters are alpha-renamed to
the canonical names `a` (accumulator) and `r` (row).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional as Opt

from .syntax import (
    BOOL, FLOAT, INT, STR,
    BinOp, Cond, CoerceSome, Expr, Filter, Fold, Index, Insert, IsNone,
    Lambda, ListExpr, Lit, Match, Name, Not, Program, SliceFrom, SomeVal,
    Span, TBool, TFloat, TInt, TList, TOpt, TTuple, TVar, Type,
    TupleExpr, TypeTuple, map_children, rebuild_match, walk,
)
from .values import NEG_INF, NONE, Some, Value


class DslTypeError(Exception):
    def __init__(self, message: str, span: Span = Span(0, 0)):
        self.message = message
        self.span = span
        super().__init__(f"{span}: {message}")


@dataclass(frozen=True)
class TFrame(Type):
    """Internal type of a dataframe value; never written in source."""

    schema: TTuple

    def __str__(self):
        return f"Frame{self.schema}"


@dataclass
class PipelineTask:
    name: str
    schema: tuple
    init_exprs: list
    init_values: tuple
    acc_type: TTuple
    f_body: Expr
    post_pred: Opt[Expr]
    post_conjuncts: list
    prefilters: list = field(default_factory=list)
    uses_neginf: bool = False
    str_labels: tuple = ()
    source: str = ""
    neginf_taint: tuple = ()

    @property
    def arity(self) -> int:
        return len(self.init_values)

    @property
    def n_columns(self) -> int:
        return len(self.schema)


CNF_CLAUSE_CAP = 64


# ---------------------------------------------------------------------------
# unification


class _Unifier:
    def __init__(self):
        self.subst = {}
        self.counter = 0

    def fresh(self) -> TVar:
        self.counter += 1
        return TVar(self.counter)

    def resolve(self, t: Type) -> Type:
        while isinstance(t, TVar) and t.uid in self.subst:
            t = self.subst[t.uid]
        if isinstance(t, TList):
            return TList(self.resolve(t.elem))
        if isinstance(t, TOpt):
            return TOpt(self.resolve(t.elem))
        if isinstance(t, TTuple):
            return TTuple(tuple(self.resolve(e) for e in t.elems))
        if isinstance(t, TFrame):
            return TFrame(self.resolve(t.schema))
        return t

    def unify(self, t1: Type, t2: Type, span: Span):
        t1, t2 = self.resolve(t1), self.resolve(t2)
        if t1 == t2:
            return
        if isinstance(t1, TVar):
            self.subst[t1.uid] = t2
            return
        if isinstance(t2, TVar):
            self.subst[t2.uid] = t1
            return
        if isinstance(t1, TList) and isinstance(t2, TList):
            self.unify(t1.elem, t2.elem, span)
            return
        if isinstance(t1, TOpt) and isinstance(t2, TOpt):
            self.unify(t1.elem, t2.elem, span)
            return
        if isinstance(t1, TTuple) and isinstance(t2, TTuple) and len(t1.elems) == len(t2.elems):
            for a, b in zip(t1.elems, t2.elems):
                self.unify(a, b, span)
            return
        raise DslTypeError(f"type mismatch: {t1} vs {t2}", span)


# ---------------------------------------------------------------------------
# checker


class _Checker:
    def __init__(self, program: Program):
        self.program = program
        self.uni = _Unifier()
        self.bindings = {}  # name -> (expr, type)

    # -- helpers

    def check(self, expr: Expr, env: dict) -> Type:
        ty = self._check(expr, env)
        expr.ty = ty
        return ty

    def _numeric(self, t: Type, span: Span) -> Type:
        t = self.uni.resolve(t)
        if isinstance(t, TVar):
            # default unconstrained numeric vars to int
            self.uni.unify(t, INT, span)
            return INT
        if not isinstance(t, (TInt, TFloat)):
            raise DslTypeError(f"numeric operand expected, got {t}", span)
        return t

    def join(self, e1: Expr, e2: Expr, span: Span):
        """Unify branch types, inserting Optional coercions when needed.

        Returns (type, e1', e2')."""
        t1, t2 = self.uni.resolve(e1.ty), self.uni.resolve(e2.ty)
        try:
            self.uni.unify(t1, t2, span)
            return self.uni.resolve(t1), e1, e2
        except DslTypeError:
            pass
        if isinstance(t1, TOpt) and not isinstance(t2, TOpt):
            self.uni.unify(t1.elem, t2, span)
            wrapped = CoerceSome(span=e2.span, operand=e2, ty=self.uni.resolve(t1))
            return wrapped.ty, e1, wrapped
        if isinstance(t2, TOpt) and not isinstance(t1, TOpt):
            self.uni.unify(t2.elem, t1, span)
            wrapped = CoerceSome(span=e1.span, operand=e1, ty=self.uni.resolve(t2))
            return wrapped.ty, wrapped, e2
        raise DslTypeError(f"type mismatch: {t1} vs {t2}", span)

    # -- expression typing

    def _check(self, expr: Expr, env: dict) -> Type:
        if isinstance(expr, Lit):
            return {
                "int": INT, "float": FLOAT, "neginf": FLOAT, "bool": BOOL,
                "str": STR,
            }.get(expr.kind) or (
                TOpt(self.uni.fresh()) if expr.kind == "none" else None
            )
        if isinstance(expr, Name):
            if expr.ident in env:
                return env[expr.ident]
            if expr.ident in self.bindings:
                return self.bindings[expr.ident][1]
            raise DslTypeError(f"unbound identifier {expr.ident!r}", expr.span)
        if isinstance(expr, Not):
            t = self.check(expr.operand, env)
            self.uni.unify(t, BOOL, expr.span)
            return BOOL
        if isinstance(expr, BinOp):
            lt = self.check(expr.left, env)
            rt = self.check(expr.right, env)
            if expr.op in ("and", "or"):
                self.uni.unify(lt, BOOL, expr.span)
                self.uni.unify(rt, BOOL, expr.span)
                return BOOL
            if expr.op == "==":
                _, expr.left, expr.right = self.join(expr.left, expr.right, expr.span)
                return BOOL
            if expr.op in (">=", ">", "<=", "<"):
                ltr = self._numeric(lt, expr.span)
                rtr = self._numeric(rt, expr.span)
                self.uni.unify(ltr, rtr, expr.span)
                return BOOL
            # arithmetic
            ltr = self._numeric(lt, expr.span)
            rtr = self._numeric(rt, expr.span)
            self.uni.unify(ltr, rtr, expr.span)
            ty = self.uni.resolve(ltr)
            if expr.op == "/":
                if not isinstance(ty, TFloat):
                    raise DslTypeError("division is defined on float only", expr.span)
                divisor = expr.right
                if not (isinstance(divisor, Lit) and divisor.kind == "float"
                        and Fraction(divisor.value) != 0):
                    raise DslTypeError(
                        "divisor must be a provably nonzero float constant", expr.span
                    )
            return ty
        if isinstance(expr, Cond):
            tt = self.check(expr.test, env)
            self.uni.unify(tt, BOOL, expr.test.span)
            self.check(expr.then, env)
            self.check(expr.other, env)
            ty, expr.then, expr.other = self.join(expr.then, expr.other, expr.span)
            return ty
        if isinstance(expr, Match):
            st = self.check(expr.scrutinee, env)
            elem = self.uni.fresh()
            self.uni.unify(st, TOpt(elem), expr.scrutinee.span)
            none_cases = [c for c in expr.cases if c.pattern is None]
            bind_cases = [c for c in expr.cases if c.pattern is not None]
            if len(none_cases) != 1 or len(bind_cases) != 1:
                raise DslTypeError(
                    "non-exhaustive match: need exactly one `case None` and one binder case",
                    expr.span,
                )
            self.check(none_cases[0].body, env)
            binder = bind_cases[0]
            inner_env = dict(env)
            inner_env[binder.pattern] = self.uni.resolve(elem)
            self.check(binder.body, inner_env)
            ty, none_cases[0].body, binder.body = self.join(
                none_cases[0].body, binder.body, expr.span
            )
            return ty
        if isinstance(expr, TupleExpr):
            if not expr.items:
                raise DslTypeError("tuple arity must be >= 1", expr.span)
            elems = tuple(self.check(item, env) for item in expr.items)
            for item in expr.items:
                t = self.uni.resolve(item.ty)
                if isinstance(t, TTuple):
                    raise DslTypeError("nested tuples are not allowed", item.span)
            return TTuple(elems)
        if isinstance(expr, ListExpr):
            elem = self.uni.fresh()
            for item in expr.items:
                t = self.check(item, env)
                self.uni.unify(t, elem, item.span)
            return TList(elem)
        if isinstance(expr, Index):
            bt = self.uni.resolve(self.check(expr.base, env))
            if isinstance(bt, TTuple):
                if not 0 <= expr.index < len(bt.elems):
                    raise DslTypeError(
                        f"tuple index {expr.index} out of range for {bt}", expr.span
                    )
                return bt.elems[expr.index]
            if isinstance(bt, TList):
                return bt.elem
            raise DslTypeError(f"cannot index value of type {bt}", expr.span)
        if isinstance(expr, SliceFrom):
            bt = self.uni.resolve(self.check(expr.base, env))
            if not isinstance(bt, TList):
                raise DslTypeError(f"cannot slice value of type {bt}", expr.span)
            return bt
        if isinstance(expr, Insert):
            tt = self.uni.resolve(self.check(expr.target, env))
            it = self.check(expr.item, env)
            if not isinstance(tt, TList):
                raise DslTypeError(f"insert target must be a list, got {tt}", expr.span)
            self.uni.unify(tt.elem, it, expr.span)
            elem = self.uni.resolve(tt.elem)
            if not isinstance(elem, (TInt, TFloat)):
                raise DslTypeError("insert requires a numeric element type", expr.span)
            return tt
        if isinstance(expr, CoerceSome):
            t = self.check(expr.operand, env)
            return TOpt(t)
        if isinstance(expr, IsNone):
            t = self.check(expr.operand, env)
            self.uni.unify(t, TOpt(self.uni.fresh()), expr.span)
            return BOOL
        if isinstance(expr, SomeVal):
            t = self.uni.resolve(self.check(expr.operand, env))
            elem = self.uni.fresh()
            self.uni.unify(t, TOpt(elem), expr.span)
            return self.uni.resolve(elem)
        if isinstance(expr, (Fold, Filter, Lambda, TypeTuple)):
            raise DslTypeError(
                f"{type(expr).__name__.lower()} is not allowed in this position",
                expr.span,
            )
        raise DslTypeError(f"cannot type {type(expr).__name__}", expr.span)

    def zonk(self, expr: Expr):
        for node in walk(expr):
            if isinstance(node, Expr) and node.ty is not None:
                node.ty = self.uni.resolve(node.ty)
                if any(isinstance(t, TVar) for t in _type_leaves(node.ty)):
                    raise DslTypeError("ambiguous type; add a concrete value", node.span)


def _type_leaves(t: Type):
    if isinstance(t, (TList, TOpt)):
        yield from _type_leaves(t.elem)
    elif isinstance(t, TTuple):
        for e in t.elems:
            yield from _type_leaves(e)
    else:
        yield t


# ---------------------------------------------------------------------------
# name inlining


def _inline_names(expr: Expr, bindings: dict, bound: set) -> Expr:
    if isinstance(expr, Name) and expr.ident not in bound:
        if expr.ident in bindings:
            # a copy per use: `_Checker.check` annotates each use site on its own
            binding = copy.deepcopy(bindings[expr.ident][0])
            return _inline_names(binding, bindings, set())
        raise DslTypeError(f"unbound identifier {expr.ident!r}", expr.span)
    if isinstance(expr, (Fold, Filter, Lambda)):
        return expr  # the checker rejects them; their lambdas bind names of their own
    if isinstance(expr, Match):
        return rebuild_match(
            expr, _inline_names(expr.scrutinee, bindings, bound),
            [_inline_names(c.body, bindings, bound | {c.pattern})
             for c in expr.cases],
        )
    return map_children(expr, lambda e: _inline_names(e, bindings, bound))


def _rename(expr: Expr, mapping: dict) -> Expr:
    if isinstance(expr, Name) and expr.ident in mapping:
        return replace(expr, ident=mapping[expr.ident])
    if isinstance(expr, Match):
        return rebuild_match(
            expr, _rename(expr.scrutinee, mapping),
            [_rename(c.body, {k: v for k, v in mapping.items() if k != c.pattern})
             for c in expr.cases],
        )
    return map_children(expr, lambda e: _rename(e, mapping))


# ---------------------------------------------------------------------------
# constant evaluation (initializers)


def eval_const(expr: Expr) -> Value:
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
    if isinstance(expr, CoerceSome):
        return Some(eval_const(expr.operand))
    if isinstance(expr, TupleExpr):
        return tuple(eval_const(e) for e in expr.items)
    if isinstance(expr, ListExpr):
        return [eval_const(e) for e in expr.items]
    if isinstance(expr, Not):
        return not eval_const(expr.operand)
    if isinstance(expr, BinOp) and expr.op in ("+", "-", "*"):
        left, right = eval_const(expr.left), eval_const(expr.right)
        if left is NEG_INF or right is NEG_INF:
            raise DslTypeError("arithmetic on -inf in constant", expr.span)
        return {"+": left + right, "-": left - right, "*": left * right}[expr.op]
    raise DslTypeError("initializer components must be constants", expr.span)


# ---------------------------------------------------------------------------
# boolean normalization (match/conditional compilation, NNF, CNF)


def _true() -> Lit:
    return Lit(kind="bool", value=True, ty=BOOL)


def _false() -> Lit:
    return Lit(kind="bool", value=False, ty=BOOL)


def _not(e: Expr) -> Expr:
    return Not(operand=e, ty=BOOL)


def _or(a: Expr, b: Expr) -> Expr:
    return BinOp(op="or", left=a, right=b, ty=BOOL)


def _and(a: Expr, b: Expr) -> Expr:
    return BinOp(op="and", left=a, right=b, ty=BOOL)


def _subst_binder(expr: Expr, binder: str, replacement: Expr) -> Expr:
    if isinstance(expr, Name) and expr.ident == binder:
        return replacement
    if isinstance(expr, Match):
        return rebuild_match(
            expr, _subst_binder(expr.scrutinee, binder, replacement),
            [c.body if c.pattern == binder
             else _subst_binder(c.body, binder, replacement) for c in expr.cases],
        )
    return map_children(expr, lambda e: _subst_binder(e, binder, replacement))


def compile_bool(expr: Expr) -> Expr:
    """Lower match/conditional inside a Boolean expression to and/or/not.

    match x: case None: b1 case v: b2 becomes
    (not IsNone(x) or b1) and (IsNone(x) or b2[v := SomeVal(x)]).
    """
    if isinstance(expr, Match):
        none_case = next(c for c in expr.cases if c.pattern is None)
        bind_case = next(c for c in expr.cases if c.pattern is not None)
        isnone = IsNone(operand=expr.scrutinee, ty=BOOL)
        payload = SomeVal(operand=expr.scrutinee, ty=expr.scrutinee.ty.elem)
        b1 = compile_bool(none_case.body)
        b2 = compile_bool(_subst_binder(bind_case.body, bind_case.pattern, payload))
        return _and(_or(_not(isnone), b1), _or(isnone, b2))
    if isinstance(expr, Cond):
        test = compile_bool(expr.test)
        then = compile_bool(expr.then)
        other = compile_bool(expr.other)
        return _and(_or(_not(test), then), _or(test, other))
    if isinstance(expr, BinOp) and expr.op in ("and", "or"):
        return BinOp(op=expr.op, left=compile_bool(expr.left),
                     right=compile_bool(expr.right), span=expr.span)
    if isinstance(expr, Not):
        return _not(compile_bool(expr.operand))
    return expr


def to_nnf(expr: Expr, negate: bool = False) -> Expr:
    if isinstance(expr, Not):
        return to_nnf(expr.operand, not negate)
    if isinstance(expr, BinOp) and expr.op in ("and", "or"):
        op = expr.op
        if negate:
            op = "and" if op == "or" else "or"
        return BinOp(op=op, left=to_nnf(expr.left, negate),
                     right=to_nnf(expr.right, negate), ty=BOOL)
    if isinstance(expr, Lit) and expr.kind == "bool":
        return Lit(kind="bool", value=(not expr.value) if negate else expr.value)
    if negate:
        if isinstance(expr, BinOp) and expr.op in (">", ">=", "<", "<="):
            flipped = {">": "<=", ">=": "<", "<": ">=", "<=": ">"}[expr.op]
            return BinOp(op=flipped, left=expr.left, right=expr.right, ty=BOOL)
        return _not(expr)
    return expr


def cnf_clauses(expr: Expr, cap: int = CNF_CLAUSE_CAP):
    """Return the CNF of a lowered, NNF Boolean expression as a clause list.

    Each clause is a list of literal expressions (interpreted as a disjunction).
    """
    expr = to_nnf(compile_bool(expr))

    def go(e):
        if isinstance(e, BinOp) and e.op == "and":
            return go(e.left) + go(e.right)
        if isinstance(e, BinOp) and e.op == "or":
            left, right = go(e.left), go(e.right)
            clauses = [lc + rc for lc in left for rc in right]
            if len(clauses) > cap:
                raise DslTypeError(
                    f"CNF of the post-filter exceeds {cap} clauses", e.span
                )
            return clauses
        if isinstance(e, Lit) and e.kind == "bool":
            return [] if e.value else [[]]
        return [[e]]

    clauses = go(expr)
    if len(clauses) > cap:
        raise DslTypeError(f"CNF of the post-filter exceeds {cap} clauses", expr.span)
    return clauses


# ---------------------------------------------------------------------------
# -inf taint: arithmetic must not touch possibly-sentinel floats


def _taint_check(task: PipelineTask):
    arity = task.arity
    taint = [v is NEG_INF for v in task.init_values]

    def expr_taint(expr: Expr, acc_taint, binders):
        """Returns whether expr may evaluate to -inf; raises on tainted arithmetic."""
        if isinstance(expr, Lit):
            return expr.kind == "neginf"
        if isinstance(expr, Name):
            return binders.get(expr.ident, False)
        if isinstance(expr, Index):
            if isinstance(expr.base, Name) and expr.base.ident == "a":
                return acc_taint[expr.index]
            if isinstance(expr.base, Name) and expr.base.ident == "r":
                return False
            return expr_taint(expr.base, acc_taint, binders)
        if isinstance(expr, BinOp):
            lt = expr_taint(expr.left, acc_taint, binders)
            rt = expr_taint(expr.right, acc_taint, binders)
            if expr.op in ("+", "-", "*", "/"):
                if lt or rt:
                    raise DslTypeError(
                        "arithmetic on a float that may be -inf", expr.span
                    )
                return False
            return False
        if isinstance(expr, Not):
            expr_taint(expr.operand, acc_taint, binders)
            return False
        if isinstance(expr, (CoerceSome, SomeVal, IsNone)):
            return expr_taint(expr.operand, acc_taint, binders)
        if isinstance(expr, Cond):
            expr_taint(expr.test, acc_taint, binders)
            t1 = expr_taint(expr.then, acc_taint, binders)
            t2 = expr_taint(expr.other, acc_taint, binders)
            return t1 or t2
        if isinstance(expr, Match):
            expr_taint(expr.scrutinee, acc_taint, binders)
            out = False
            for case in expr.cases:
                inner = dict(binders)
                if case.pattern is not None:
                    inner[case.pattern] = expr_taint(
                        expr.scrutinee, acc_taint, binders
                    )
                out = expr_taint(case.body, acc_taint, inner) or out
            return out
        if isinstance(expr, (TupleExpr, ListExpr)):
            return any(expr_taint(e, acc_taint, binders) for e in expr.items)
        if isinstance(expr, (SliceFrom,)):
            return expr_taint(expr.base, acc_taint, binders)
        if isinstance(expr, Insert):
            t1 = expr_taint(expr.target, acc_taint, binders)
            t2 = expr_taint(expr.item, acc_taint, binders)
            return t1 or t2
        return False

    # fixpoint over accumulator components (the check itself must run even on
    # components already known tainted, so no short-circuiting)
    for _ in range(arity + 1):
        body = task.f_body
        if isinstance(body, TupleExpr):
            component = [expr_taint(body.items[i], taint, {}) for i in range(arity)]
            new = [taint[i] or component[i] for i in range(arity)]
        else:
            whole = expr_taint(body, taint, {})
            new = [True] * arity if whole else taint
        if new == taint:
            break
        taint = new
    if task.post_pred is not None:
        expr_taint(task.post_pred, taint, {})
    for conjunct in task.post_conjuncts:
        expr_taint(conjunct, taint, {})
    task.neginf_taint = tuple(taint)


# ---------------------------------------------------------------------------
# entry point


def typecheck(program: Program, name: str = "task") -> PipelineTask:
    checker = _Checker(program)
    uni = checker.uni

    schema: Opt[TTuple] = None
    frame_vars = {}  # name -> list of prefilter (Lambda) applied so far
    fold_stmt = None
    fold_var = None
    acc_type: Opt[TTuple] = None
    init_expr = None
    f_body = None
    post_bodies = []
    post_var = None
    prefilters = []

    fold_count = sum(
        1 for s in program.stmts for n in walk(s.expr) if isinstance(n, Fold)
    )
    if fold_count == 0:
        raise DslTypeError("program contains no fold", Span(0, 0))
    if fold_count > 1:
        raise DslTypeError("program contains multiple folds", Span(0, 0))

    for stmt in program.stmts:
        rhs = stmt.expr
        if isinstance(rhs, TypeTuple):
            if schema is not None:
                raise DslTypeError("multiple schema declarations", stmt.span)
            if not rhs.types:
                raise DslTypeError("schema must have at least one column", stmt.span)
            schema = TTuple(tuple(rhs.types))
            rhs.ty = TFrame(schema)
            frame_vars[stmt.name] = []
            checker.bindings[stmt.name] = (rhs, rhs.ty)
            continue
        if isinstance(rhs, Filter) and isinstance(rhs.source, Name) \
                and rhs.source.ident in frame_vars:
            # row prefilter (appears in rewritten pipelines)
            if schema is None:
                raise DslTypeError("filter before schema declaration", stmt.span)
            lam = rhs.fn
            if lam.is_fix:
                raise DslTypeError("fix lambdas are not supported", lam.span)
            if len(lam.params) != 1:
                raise DslTypeError("row filter lambda takes one parameter", lam.span)
            body = _inline_names(
                _rename(lam.body, {lam.params[0]: "r"}), checker.bindings, {"r"}
            )
            t = checker.check(body, {"r": schema})
            uni.unify(t, BOOL, body.span)
            frame_vars[stmt.name] = frame_vars[rhs.source.ident] + [body]
            rhs.ty = TFrame(schema)
            checker.bindings[stmt.name] = (rhs, rhs.ty)
            continue
        if isinstance(rhs, Fold):
            if schema is None:
                raise DslTypeError("fold before schema declaration", stmt.span)
            if not (isinstance(rhs.source, Name) and rhs.source.ident in frame_vars):
                raise DslTypeError(
                    "fold must consume the declared input dataframe", stmt.span
                )
            prefilters = frame_vars[rhs.source.ident]
            lam = rhs.fn
            if lam.is_fix:
                raise DslTypeError("fix lambdas are not supported", lam.span)
            if len(lam.params) != 2:
                raise DslTypeError(
                    "fold lambda takes two parameters (accumulator, row)", lam.span
                )
            init_expr = rhs.init
            if not isinstance(init_expr, TupleExpr):
                raise DslTypeError(
                    "fold initializer must be a tuple of constants", rhs.init.span
                )
            init_expr = _inline_names(init_expr, checker.bindings, set())
            it = checker.check(init_expr, {})
            f_body = _inline_names(
                _rename(lam.body, {lam.params[0]: "a", lam.params[1]: "r"}),
                checker.bindings, {"a", "r"},
            )
            bt = checker.check(f_body, {"a": it, "r": schema})
            uni.unify(bt, it, f_body.span)
            acc_type = uni.resolve(it)
            fold_stmt, fold_var = stmt, stmt.name
            rhs.ty = acc_type
            checker.bindings[stmt.name] = (Name(ident=stmt.name), acc_type)
            post_var = stmt.name
            continue
        if isinstance(rhs, Filter) and isinstance(rhs.source, Name) \
                and fold_var is not None and rhs.source.ident == post_var:
            lam = rhs.fn
            if lam.is_fix:
                raise DslTypeError("fix lambdas are not supported", lam.span)
            if len(lam.params) != 1:
                raise DslTypeError("post filter lambda takes one parameter", lam.span)
            body = _inline_names(
                _rename(lam.body, {lam.params[0]: "a"}), checker.bindings, {"a"}
            )
            t = checker.check(body, {"a": acc_type})
            uni.unify(t, BOOL, body.span)
            post_bodies.append(body)
            rhs.ty = acc_type
            checker.bindings[stmt.name] = (Name(ident=stmt.name), acc_type)
            post_var = stmt.name
            continue
        if any(isinstance(n, (Fold, Filter)) for n in walk(rhs)):
            raise DslTypeError(
                "fold/filter must be the whole right-hand side of a statement",
                stmt.span,
            )
        # plain constant binding
        ty = checker.check(rhs, {})
        if stmt.annot is not None:
            uni.unify(ty, TTuple(tuple(stmt.annot.elems)), stmt.span)
        checker.bindings[stmt.name] = (rhs, uni.resolve(ty))

    if fold_stmt is None:
        raise DslTypeError("program contains no fold", Span(0, 0))
    if isinstance(fold_stmt.expr, Fold) and fold_stmt.annot is not None:
        uni.unify(acc_type, TTuple(tuple(fold_stmt.annot.elems)), fold_stmt.span)

    acc_type = uni.resolve(acc_type)
    if not isinstance(acc_type, TTuple):
        raise DslTypeError("accumulator must be a tuple", fold_stmt.span)

    # combined post-filter
    post_pred: Opt[Expr] = None
    for body in post_bodies:
        post_pred = body if post_pred is None else _and(post_pred, body)

    checker.zonk(f_body)
    checker.zonk(init_expr)
    if post_pred is not None:
        checker.zonk(post_pred)
        t = post_pred.ty
        if not isinstance(t, TBool):
            raise DslTypeError("post-filter is not Boolean", post_pred.span)
    for pf in prefilters:
        checker.zonk(pf)

    init_values = tuple(eval_const(e) for e in init_expr.items)
    conjuncts = []
    if post_pred is not None:
        for clause in cnf_clauses(post_pred):
            conjuncts.append(_clause_to_expr(clause))

    source = program.source
    uses_neginf = any(
        isinstance(n, Lit) and n.kind == "neginf"
        for s in program.stmts
        for n in walk(s.expr)
    )
    labels = sorted(
        {
            n.value
            for s in program.stmts
            for n in walk(s.expr)
            if isinstance(n, Lit) and n.kind == "str"
        }
    )

    task = PipelineTask(
        name=name,
        schema=tuple(schema.elems),
        init_exprs=list(init_expr.items),
        init_values=init_values,
        acc_type=acc_type,
        f_body=f_body,
        post_pred=post_pred,
        post_conjuncts=conjuncts,
        prefilters=list(prefilters),
        uses_neginf=uses_neginf,
        str_labels=tuple(labels),
        source=source,
    )
    _taint_check(task)
    return task


def _clause_to_expr(literals) -> Expr:
    if not literals:
        return _false()
    expr = literals[0]
    for lit in literals[1:]:
        expr = _or(expr, lit)
    return expr


def type_predicate(expr: Expr, env: dict, expect: Opt[Type] = BOOL) -> Expr:
    """Type a standalone predicate/term over the given variable typing.

    Used for universe atoms built programmatically and for triples supplied to
    the verify subcommand. Mutates and returns `expr` with types annotated.
    """
    checker = _Checker(Program([], ""))
    ty = checker.check(expr, dict(env))
    if expect is not None:
        checker.uni.unify(ty, expect, expr.span)
    checker.zonk(expr)
    return expr
