"""Type checking and pipeline extraction.

Produces a PipelineTask: schema, initializer, accumulator function, and the
post-filter split into CNF conjuncts.

Every name is closed before it is checked (`_close`): a lambda parameter is
renamed to its canonical name, `a` (accumulator) or `r` (row); a constant
becomes a copy of its value; a match binder shadows both. A binder that would
capture a renamed parameter is an error, and any other name, the input frame
and the stages of the pipeline included, is unbound.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional as Opt

from .syntax import (
    BOOL, INT, LITERAL_TYPES, OPERATORS,
    BinOp, Cond, CoerceSome, Expr, Filter, Fold, Index, Insert, IsNone,
    Lambda, ListExpr, Lit, Match, Name, Not, Program, SliceFrom, SomeVal,
    Span, TFloat, TInt, TList, TOpt, TTuple, TVar, Type,
    TupleExpr, TypeTuple, children, map_children, mk_and, mk_not, mk_or,
    negate, rebuild_match, substitute, type_leaves, walk,
)
from .values import LITERALS, NEG_INF, Some, Value


class DslTypeError(Exception):
    def __init__(self, message: str, span: Span = Span(0, 0)):
        self.message = message
        self.span = span
        super().__init__(f"{span}: {message}")


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
    def __init__(self):
        self.uni = _Unifier()

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
            return LITERAL_TYPES.get(expr.kind) or (
                TOpt(self.uni.fresh()) if expr.kind == "none" else None
            )
        if isinstance(expr, Name):
            if expr.ident in env:
                return env[expr.ident]
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
        raise DslTypeError(
            f"{type(expr).__name__.lower()} is not allowed in this position",
            expr.span,
        )

    def zonk(self, expr: Expr):
        for node in walk(expr):
            if isinstance(node, Expr) and node.ty is not None:
                node.ty = self.uni.resolve(node.ty)
                if any(isinstance(t, TVar) for t in type_leaves(node.ty)):
                    raise DslTypeError("ambiguous type; add a concrete value", node.span)


# ---------------------------------------------------------------------------
# names


def _close(expr: Expr, params: dict, constants: dict) -> Expr:
    """`expr` with each parameter in `params` renamed to its canonical name and
    each constant replaced by a copy of its closed value; a match binder
    shadows both. Any other name is unbound."""
    if isinstance(expr, Name):
        if expr.ident in params:
            return replace(expr, ident=params[expr.ident])
        if expr.ident in constants:
            # a copy per use: `_Checker.check` annotates each use site on its own
            return copy.deepcopy(constants[expr.ident])
        raise DslTypeError(f"unbound identifier {expr.ident!r}", expr.span)
    if isinstance(expr, (Fold, Filter, Lambda)):
        return expr  # the checker rejects them; their lambdas bind names of their own
    if not isinstance(expr, Match):
        return map_children(expr, lambda e: _close(e, params, constants))
    scrutinee = _close(expr.scrutinee, params, constants)
    bodies = []
    for case in expr.cases:
        inner = params
        if case.pattern is not None:
            for param, canonical in params.items():
                if canonical == case.pattern != param:
                    raise DslTypeError(
                        f"match binder {case.pattern!r} would capture parameter "
                        f"{param!r}, which is renamed to {canonical!r}", case.span)
            inner = {**params, case.pattern: case.pattern}
        bodies.append(_close(case.body, inner, constants))
    return rebuild_match(expr, scrutinee, bodies)


def _params(lam: Lambda, canonical: tuple, arity_error: str) -> dict:
    """The renaming of `lam`'s parameters to their canonical names."""
    if lam.is_fix:
        raise DslTypeError("fix lambdas are not supported", lam.span)
    if len(lam.params) != len(canonical):
        raise DslTypeError(arity_error, lam.span)
    return dict(zip(lam.params, canonical))


# ---------------------------------------------------------------------------
# constant evaluation (initializers)


def eval_const(expr: Expr) -> Value:
    if isinstance(expr, Lit) and expr.kind in LITERALS:
        return LITERALS[expr.kind](expr.value)
    if isinstance(expr, CoerceSome):
        return Some(eval_const(expr.operand))
    if isinstance(expr, TupleExpr):
        return tuple(eval_const(e) for e in expr.items)
    if isinstance(expr, ListExpr):
        return [eval_const(e) for e in expr.items]
    if isinstance(expr, Not):
        return not eval_const(expr.operand)
    if isinstance(expr, BinOp) and expr.op in ("+", "-", "*", "/"):
        left, right = eval_const(expr.left), eval_const(expr.right)
        if left is NEG_INF or right is NEG_INF:
            raise DslTypeError("arithmetic on -inf in constant", expr.span)
        return OPERATORS[expr.op](left, right)
    raise DslTypeError("initializer components must be constants", expr.span)


# ---------------------------------------------------------------------------
# boolean normalization (match/conditional compilation, NNF, CNF)


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
        b2 = compile_bool(substitute(bind_case.body, {bind_case.pattern: payload}))
        return mk_and(mk_or(mk_not(isnone), b1), mk_or(isnone, b2))
    if isinstance(expr, Cond):
        test = compile_bool(expr.test)
        then = compile_bool(expr.then)
        other = compile_bool(expr.other)
        return mk_and(mk_or(mk_not(test), then), mk_or(test, other))
    if isinstance(expr, BinOp) and expr.op in ("and", "or"):
        return BinOp(op=expr.op, left=compile_bool(expr.left),
                     right=compile_bool(expr.right), span=expr.span)
    if isinstance(expr, Not):
        return mk_not(compile_bool(expr.operand))
    return expr


def to_nnf(expr: Expr, negated: bool = False) -> Expr:
    if isinstance(expr, Not):
        return to_nnf(expr.operand, not negated)
    if isinstance(expr, BinOp) and expr.op in ("and", "or"):
        # De Morgan: a negated `and` is an `or` of negations, and vice versa
        join = mk_and if (expr.op == "and") != negated else mk_or
        return join(to_nnf(expr.left, negated), to_nnf(expr.right, negated))
    return negate(expr) if negated else expr


def cnf_clauses(*exprs: Expr):
    """Return the CNF of the conjunction of Boolean expressions as a clause
    list, each expression's clauses in turn.

    Each clause is a list of literal expressions (interpreted as a disjunction).
    Exceeding the clause cap is an error at the span of the expression whose
    clauses pass it: the lowered nodes carry none.
    """
    clauses = []
    for expr in exprs:
        clauses += _cnf(to_nnf(compile_bool(expr)), expr.span)
        if len(clauses) > CNF_CLAUSE_CAP:
            raise DslTypeError(
                f"CNF of the post-filter exceeds {CNF_CLAUSE_CAP} clauses", expr.span)
    return clauses


def _cnf(e: Expr, span: Span):
    if isinstance(e, BinOp) and e.op == "and":
        return _cnf(e.left, span) + _cnf(e.right, span)
    if isinstance(e, BinOp) and e.op == "or":
        clauses = [lc + rc for lc in _cnf(e.left, span) for rc in _cnf(e.right, span)]
        if len(clauses) > CNF_CLAUSE_CAP:
            raise DslTypeError(
                f"CNF of the post-filter exceeds {CNF_CLAUSE_CAP} clauses", span)
        return clauses
    if isinstance(e, Lit) and e.kind == "bool":
        return [] if e.value else [[]]
    return [[e]]


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
        if isinstance(expr, Index) and isinstance(expr.base, Name) \
                and expr.base.ident in ("a", "r"):
            return expr.base.ident == "a" and acc_taint[expr.index]
        if isinstance(expr, Match):
            tainted = expr_taint(expr.scrutinee, acc_taint, binders)
            return any([expr_taint(c.body, acc_taint, {**binders, c.pattern: tainted})
                        for c in expr.cases])
        if isinstance(expr, Cond):
            # the test first, so that its error is the one reported
            expr_taint(expr.test, acc_taint, binders)
            kids = [expr.then, expr.other]
        else:
            kids = children(expr)
        tainted = [expr_taint(e, acc_taint, binders) for e in kids]
        if isinstance(expr, BinOp) and expr.op in ("+", "-", "*", "/") \
                and any(tainted):
            raise DslTypeError("arithmetic on a float that may be -inf", expr.span)
        # neither a Boolean nor the result of arithmetic is ever -inf
        return not isinstance(expr, (BinOp, Not)) and any(tainted)

    def vector_taint(expr: Expr, acc_taint, binders):
        """Per component of the accumulator-typed `expr`, whether it may be
        -inf; raises on tainted arithmetic. A conditional or `match` joins
        its branches component by component."""
        if isinstance(expr, TupleExpr):
            return [expr_taint(e, acc_taint, binders) for e in expr.items]
        if isinstance(expr, Name) and expr.ident == "a" and "a" not in binders:
            return list(acc_taint)
        if isinstance(expr, Cond):
            expr_taint(expr.test, acc_taint, binders)
            branches = [vector_taint(e, acc_taint, binders)
                        for e in (expr.then, expr.other)]
        elif isinstance(expr, Match):
            tainted = expr_taint(expr.scrutinee, acc_taint, binders)
            branches = [vector_taint(c.body, acc_taint,
                                     {**binders, c.pattern: tainted})
                        for c in expr.cases]
        else:
            return [expr_taint(expr, acc_taint, binders)] * arity
        return [any(column) for column in zip(*branches)]

    # fixpoint over accumulator components (the check itself must run even on
    # components already known tainted, so no short-circuiting)
    for _ in range(arity + 1):
        component = vector_taint(task.f_body, taint, {})
        new = [t or c for t, c in zip(taint, component)]
        if new == taint:
            break
        taint = new
    if task.post_pred is not None:
        expr_taint(task.post_pred, taint, {})
    for conjunct in task.post_conjuncts:
        expr_taint(conjunct, taint, {})


# ---------------------------------------------------------------------------
# entry point


def typecheck(program: Program, name: str = "task") -> PipelineTask:
    checker = _Checker()
    uni = checker.uni

    schema: Opt[TTuple] = None
    frames = {}  # frame name -> the prefilters (bodies) applied so far
    constants = {}  # constant name -> its closed, typed value
    fold_stmt = None
    acc_type: Opt[TTuple] = None
    init_expr = None
    f_body = None
    post_bodies = []
    post_var = None
    prefilters = []

    def filter_body(lam: Lambda, var: str, ty: Type, arity_error: str) -> Expr:
        body = _close(lam.body, _params(lam, (var,), arity_error), constants)
        uni.unify(checker.check(body, {var: ty}), BOOL, body.span)
        return body

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
            frames[stmt.name] = []
            continue
        if isinstance(rhs, Filter) and isinstance(rhs.source, Name) \
                and rhs.source.ident in frames:
            # row prefilter (appears in rewritten pipelines)
            body = filter_body(rhs.fn, "r", schema,
                               "row filter lambda takes one parameter")
            frames[stmt.name] = frames[rhs.source.ident] + [body]
            continue
        if isinstance(rhs, Fold):
            if schema is None:
                raise DslTypeError("fold before schema declaration", stmt.span)
            if not (isinstance(rhs.source, Name) and rhs.source.ident in frames):
                raise DslTypeError(
                    "fold must consume the declared input dataframe", stmt.span
                )
            prefilters = frames[rhs.source.ident]
            params = _params(rhs.fn, ("a", "r"),
                             "fold lambda takes two parameters (accumulator, row)")
            if not isinstance(rhs.init, TupleExpr):
                raise DslTypeError(
                    "fold initializer must be a tuple of constants", rhs.init.span
                )
            init_expr = _close(rhs.init, {}, constants)
            it = checker.check(init_expr, {})
            f_body = _close(rhs.fn.body, params, constants)
            bt = checker.check(f_body, {"a": it, "r": schema})
            uni.unify(bt, it, f_body.span)
            acc_type = uni.resolve(it)
            fold_stmt, post_var = stmt, stmt.name
            continue
        if isinstance(rhs, Filter) and isinstance(rhs.source, Name) \
                and rhs.source.ident == post_var:
            post_bodies.append(filter_body(
                rhs.fn, "a", acc_type, "post filter lambda takes one parameter"))
            post_var = stmt.name
            continue
        if any(isinstance(n, (Fold, Filter)) for n in walk(rhs)):
            raise DslTypeError(
                "fold/filter must be the whole right-hand side of a statement",
                stmt.span,
            )
        # a constant, closed and typed once here and copied at each use
        value = _close(rhs, {}, constants)
        ty = checker.check(value, {})
        if stmt.annot is not None:
            uni.unify(ty, TTuple(tuple(stmt.annot.elems)), stmt.span)
        constants[stmt.name] = value

    # one fold was counted, and a statement that holds it is either the fold
    # branch above or an error
    if fold_stmt.annot is not None:
        uni.unify(acc_type, TTuple(tuple(fold_stmt.annot.elems)), fold_stmt.span)
    acc_type = uni.resolve(acc_type)

    # combined post-filter
    post_pred: Opt[Expr] = mk_and(*post_bodies) if post_bodies else None

    checker.zonk(f_body)
    checker.zonk(init_expr)
    if post_pred is not None:
        checker.zonk(post_pred)
    for pf in prefilters:
        checker.zonk(pf)

    init_values = tuple(eval_const(e) for e in init_expr.items)
    # per stage, so that a clause-cap error names the stage that passed it
    conjuncts = [mk_or(*clause) for clause in cnf_clauses(*post_bodies)]

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
    )
    _taint_check(task)
    return task


def type_predicate(expr: Expr, env: dict, expect: Opt[Type] = BOOL) -> Expr:
    """Type a standalone predicate/term over the given variable typing.

    Used for the `Q` pool's atoms (`analysis._typed`) and for triples supplied
    to the verify subcommand. Mutates and returns `expr` with types annotated.
    """
    checker = _Checker()
    ty = checker.check(expr, dict(env))
    if expect is not None:
        checker.uni.unify(ty, expect, expr.span)
    checker.zonk(expr)
    return expr
