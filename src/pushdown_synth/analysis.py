"""Data-flow analyses over the accumulator and predicate-universe construction.

The analyses are deliberately syntactic (pattern matching on update shapes);
they feed the finite atom pools from which pre-filters, residuals, and
bisimulation invariants are drawn.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple, Optional as Opt

from .pretty import fmt_expr
from .syntax import (
    BOOL, FLOAT, INT, MIRRORED, OPERATORS,
    BinOp, Case, Cond, CoerceSome, Expr, Index, Insert, IsNone, ListExpr,
    Lit, Match, Name, Not, SliceFrom, SomeVal, TInt, TOpt, TTuple, TupleExpr,
    Type, bool_lit, children, map_children, mk_and, mk_not, mk_or, negate,
    rebuild_match, structurally_equal, substitute, walk,
)
from .typecheck import PipelineTask, cnf_clauses, type_predicate
from .values import NEG_INF, NONE, Some, Value


# ---------------------------------------------------------------------------
# small AST builders


def value_to_lit(v: Value, ty: Type) -> Expr:
    """The literal of the accumulator component value `v`, of type `ty`."""
    if v is NEG_INF:
        return Lit(kind="neginf", value=None, ty=ty)
    if v is NONE:
        return Lit(kind="none", value=None, ty=ty)
    if isinstance(v, Some):
        return CoerceSome(operand=value_to_lit(v.value, ty.elem), ty=ty)
    if isinstance(v, bool):
        return Lit(kind="bool", value=v, ty=ty)
    if isinstance(v, Fraction):
        return Lit(kind="float", value=v, ty=ty)
    if isinstance(v, int):
        return Lit(kind="int", value=v, ty=ty)
    if isinstance(v, str):
        return Lit(kind="str", value=v, ty=ty)
    if isinstance(v, list):
        return ListExpr(items=[value_to_lit(x, ty.elem) for x in v], ty=ty)
    raise TypeError(f"cannot embed value {v!r}")


def mk_eq(a: Expr, b: Expr) -> Expr:
    return BinOp(op="==", left=a, right=b, ty=BOOL)


# ---------------------------------------------------------------------------
# canonical keys and normalization


class NormalMemo:
    """Normal forms, canonical keys and disjunct facts, memoized by node
    identity. `normalize` and `expr_key` make a memo per call unless given
    one; `build_universes` passes one to every call of the build, so each
    part its candidates share is normalized and keyed once. An entry holds
    its node, so no id is reused while the memo lives; a node must not
    change once memoized.

    An `or`'s disjuncts are the normal forms of its raw leaves, each
    flattened (`disjuncts`), never a part's already reduced `or`: `x > 3 or
    x == 5` is `x > 3`, yet beside `not (x == 5)` the whole is a tautology
    only while `x == 5` stays. `facts` keeps what `_or_core` reads of one."""

    def __init__(self):
        self._forms = {}
        self._keys = {}
        self._facts = {}
        self._disjuncts = {}

    def normalize(self, e: Expr) -> Expr:
        hit = self._forms.get(id(e))
        if hit is None:
            hit = self._forms[id(e)] = (e, _normalize(e, self))
        return hit[1]

    def key(self, e: Expr) -> str:
        hit = self._keys.get(id(e))
        if hit is None:
            hit = self._keys[id(e)] = (e, _key(e, self))
        return hit[1]

    def facts(self, e: Expr) -> Facts:
        hit = self._facts.get(id(e))
        if hit is None:
            term = number = None
            if isinstance(e, BinOp) and e.op in MIRRORED:
                number = _const_of(e.right)
                if number is not None:
                    term = self.key(e.left)
            negated = self.key(self.normalize(negate(e)))
            hit = Facts(self.key(e), negated, e, term, number)
            self._facts[id(e)] = hit
        return hit

    def disjuncts(self, e: Expr) -> tuple:
        """The facts of the normal forms of `e`'s raw `or` leaves, each
        flattened, in order."""
        hit = self._disjuncts.get(id(e))
        if hit is None:
            if isinstance(e, BinOp) and e.op == "or":
                out = self.disjuncts(e.left) + self.disjuncts(e.right)
            else:
                out = tuple(map(self.facts, _flatten("or", self.normalize(e))))
            hit = self._disjuncts[id(e)] = (e, out)
        return hit[1]


class Facts(NamedTuple):
    """What `_or_core` reads of a disjunct: its key, the key of its
    negation's normal form, the node, and, when it compares a term with a
    number, the term's key and the number."""
    key: str
    negated: Opt[str]
    node: Expr
    term: Opt[str] = None
    number: Opt[Fraction] = None


def expr_key(e: Expr, memo: Opt[NormalMemo] = None) -> str:
    return (memo or NormalMemo()).key(e)


def _key(e: Expr, memo: NormalMemo) -> str:
    if isinstance(e, Lit):
        if e.kind in ("int", "float"):
            frac = Fraction(e.value)
            return f"(num {frac.numerator}/{frac.denominator})"
        return f"({e.kind} {e.value})"
    if isinstance(e, Name):
        return f"(var {e.ident})"
    if isinstance(e, Index):
        return f"(idx {memo.key(e.base)} {e.index})"
    if isinstance(e, SliceFrom):
        return f"(slice {memo.key(e.base)} {e.start})"
    if isinstance(e, Not):
        return f"(not {memo.key(e.operand)})"
    if isinstance(e, IsNone):
        return f"(isnone {memo.key(e.operand)})"
    if isinstance(e, SomeVal):
        return f"(val {memo.key(e.operand)})"
    if isinstance(e, CoerceSome):
        return f"(some {memo.key(e.operand)})"
    if isinstance(e, BinOp):
        lk, rk = memo.key(e.left), memo.key(e.right)
        if e.op in ("and", "or", "==", "+", "*") and rk < lk:
            lk, rk = rk, lk
        return f"({e.op} {lk} {rk})"
    if isinstance(e, Cond):
        return f"(ite {memo.key(e.test)} {memo.key(e.then)} {memo.key(e.other)})"
    if isinstance(e, Match):
        cases = " ".join(
            f"(case {c.pattern or 'None'} {memo.key(c.body)})" for c in e.cases
        )
        return f"(match {memo.key(e.scrutinee)} {cases})"
    if isinstance(e, TupleExpr):
        return "(tup " + " ".join(memo.key(x) for x in e.items) + ")"
    if isinstance(e, ListExpr):
        return "(list " + " ".join(memo.key(x) for x in e.items) + ")"
    if isinstance(e, Insert):
        return f"(insert {memo.key(e.target)} {memo.key(e.item)})"
    raise TypeError(f"no key for {type(e)}")


def _const_of(e: Expr):
    if isinstance(e, Lit) and e.kind in ("int", "float"):
        return Fraction(e.value)
    return None


def _is_int_expr(e: Expr) -> bool:
    return isinstance(e.ty, TInt) if e.ty is not None else (
        isinstance(e, Lit) and e.kind == "int"
    )


def _mk_num_lit(value: Fraction, like: Expr) -> Lit:
    """`value` as a literal to compare with or add to `like`: an `int` when
    `like` is one and `value` is whole, else a `float`."""
    if _is_int_expr(like) and value.denominator == 1:
        return Lit(kind="int", value=int(value), ty=INT)
    return Lit(kind="float", value=value, ty=FLOAT)


def normalize(e: Expr, memo: Opt[NormalMemo] = None) -> Expr:
    """Canonicalize a predicate AST: constants folded and moved to the right
    of comparisons, linear terms solved for the variable side, commutative
    operands ordered, or/and chains flattened, interval tautologies removed."""
    return (memo or NormalMemo()).normalize(e)


def _normalize(e: Expr, memo: NormalMemo) -> Expr:
    if isinstance(e, Not):
        neg = negate(memo.normalize(e.operand))
        return neg if isinstance(neg, Not) else memo.normalize(neg)
    if isinstance(e, BinOp) and e.op == "or":
        out = _or_core(memo.disjuncts(e), memo)
        return bool_lit(True) if out is None else mk_or(*(f.node for f in out))
    if isinstance(e, BinOp) and e.op == "and":
        # a literal may itself normalize into a chain of the same operator
        out = {}
        for x in _flatten("and", e):
            for lit in _flatten("and", memo.normalize(x)):
                if not (isinstance(lit, Lit) and lit.kind == "bool"):
                    out.setdefault(memo.key(lit), lit)
                elif not lit.value:
                    return bool_lit(False)
        return mk_and(*(out[k] for k in sorted(out)))
    if isinstance(e, BinOp) and e.op in (">", ">=", "<", "<=", "=="):
        left, right = normalize_term(e.left), normalize_term(e.right)
        lc, rc = _const_of(left), _const_of(right)
        if lc is not None and rc is not None:
            return bool_lit(OPERATORS[e.op](lc, rc))
        if lc is not None:
            left, right, op = right, left, MIRRORED[e.op]
        else:
            op = e.op
        # solve linear shapes: (c * X) rel d, (X * c) rel d, (X + c) rel d, ...
        changed = True
        while changed and _const_of(right) is not None:
            changed = False
            d = _const_of(right)
            if isinstance(left, BinOp) and left.op in ("*", "+", "-", "/"):
                a_const = _const_of(left.left)
                b_const = _const_of(left.right)
                if left.op == "*" and (a_const is not None) != (b_const is not None):
                    c = a_const if a_const is not None else b_const
                    term = left.right if a_const is not None else left.left
                    if c != 0 and not _is_int_expr(term):
                        if c < 0:
                            op = MIRRORED[op]
                        left = term
                        right = _mk_num_lit(d / c, term)
                        changed = True
                elif left.op == "/" and b_const not in (None, 0):
                    term = left.left
                    c = b_const
                    if c < 0:
                        op = MIRRORED[op]
                    left = term
                    right = _mk_num_lit(d * c, term)
                    changed = True
                elif left.op in ("+", "-") and b_const is not None:
                    sign = 1 if left.op == "+" else -1
                    left = left.left
                    right = _mk_num_lit(d - sign * b_const, left)
                    changed = True
                elif left.op == "+" and a_const is not None:
                    left = left.right
                    right = _mk_num_lit(d - a_const, left)
                    changed = True
        if op == "==" and not isinstance(right, Lit):
            if isinstance(left, Lit) or memo.key(right) < memo.key(left):
                left, right = right, left
        if memo.key(left) == memo.key(right):
            return bool_lit(op in (">=", "<=", "=="))
        if op == e.op and left is e.left and right is e.right and e.ty is BOOL:
            return e  # unchanged: its keys and facts are memoized once
        return BinOp(op=op, left=left, right=right, ty=BOOL)
    if isinstance(e, BinOp) and e.op in ("+", "-", "*", "/"):
        return normalize_term(e)
    if isinstance(e, IsNone):
        none_lit = Lit(kind="none", value=None, ty=e.operand.ty)
        return BinOp(op="==", left=normalize_term(e.operand), right=none_lit, ty=BOOL)
    return e


def normalize_term(e: Expr) -> Expr:
    if isinstance(e, BinOp) and e.op in ("+", "-", "*", "/"):
        left, right = normalize_term(e.left), normalize_term(e.right)
        lc, rc = _const_of(left), _const_of(right)
        if lc is not None and rc is not None and (e.op != "/" or rc != 0):
            return _mk_num_lit(OPERATORS[e.op](lc, rc), left)
        if left is e.left and right is e.right:
            return e
        return BinOp(op=e.op, left=left, right=right, ty=e.ty)
    if isinstance(e, SomeVal):
        operand = normalize_term(e.operand)
        return e if operand is e.operand else SomeVal(operand=operand, ty=e.ty)
    return e


def _flatten(op: str, e: Expr):
    if isinstance(e, BinOp) and e.op == op:
        return _flatten(op, e.left) + _flatten(op, e.right)
    return [e]


def _or_core(facts, memo: NormalMemo):
    """The facts of an `or`'s disjuncts, `False` and repeated keys dropped
    (the first kept), intervals merged, sorted by key; None when the `or`
    is a tautology. The one `or` reduction of `normalize` and `add`."""
    kept = {}
    for f in facts:
        lit = f.node
        if isinstance(lit, Lit) and lit.kind == "bool":
            if lit.value:
                return None
            continue
        kept.setdefault(f.key, f)
    out = list(kept.values())
    if any(f.negated in kept for f in out):
        return None
    if sum(f.term is not None for f in out) > 1:
        out = _simplify_or_intervals(out, memo)
        if out is None:
            return None
    out.sort(key=attrgetter("key"))
    return out


def _simplify_or_intervals(facts, memo: NormalMemo):
    """Absorb/merge same-term comparison disjuncts; detect tautologies.

    Returns None when the disjunction covers everything, else the facts of
    the reduced list.
    """
    groups = {}
    out = []
    for f in facts:
        if f.term is None:
            out.append(f)
        else:
            groups.setdefault(f.term, []).append(f)
    for _, items in sorted(groups.items()):
        if len(items) == 1:
            out.append(items[0])
            continue
        is_int = _is_int_expr(items[0].node.left)
        lower = None  # strongest upper ray: (const, inclusive) meaning term >= / > const
        upper = None  # (const, inclusive) meaning term <= / < const
        points = []
        for f in items:
            lit, c = f.node, f.number
            if lit.op == "==":
                points.append((c, f))
                continue
            cand = (c, lit.op in (">=", "<="))
            if lit.op in (">", ">="):
                if lower is None or cand[0] < lower[0] or (
                    cand[0] == lower[0] and cand[1] and not lower[1]
                ):
                    lower = cand
            else:
                if upper is None or cand[0] > upper[0] or (
                    cand[0] == upper[0] and cand[1] and not upper[1]
                ):
                    upper = cand
        if lower is not None and upper is not None:
            lo_c, lo_inc = lower  # term > / >= lo_c
            up_c, up_inc = upper  # term < / <= up_c
            # union covers everything iff the rays overlap or touch
            if lo_c < up_c:
                return None
            if lo_c == up_c and (lo_inc or up_inc):
                return None
            if is_int and lo_c.denominator == 1 and up_c.denominator == 1:
                lowest_kept = lo_c if lo_inc else lo_c + 1
                highest_kept = up_c if up_inc else up_c - 1
                if highest_kept >= lowest_kept - 1:
                    return None
        base = items[0].node.left
        rays = []
        if lower is not None:
            rays.append(BinOp(op=">=" if lower[1] else ">", left=base,
                              right=_mk_num_lit(lower[0], base), ty=BOOL))
        if upper is not None:
            rays.append(BinOp(op="<=" if upper[1] else "<", left=base,
                              right=_mk_num_lit(upper[0], base), ty=BOOL))
        # a merged ray is only keyed and built
        kept = [Facts(memo.key(ray), None, ray) for ray in rays]
        for c, f in points:
            absorbed = False
            if lower is not None and (c > lower[0] or (c == lower[0] and lower[1])):
                absorbed = True
            if upper is not None and (c < upper[0] or (c == upper[0] and upper[1])):
                absorbed = True
            if not absorbed:
                kept.append(f)
        out.extend(kept)
    return out


def is_trivially_true(e: Expr) -> bool:
    return isinstance(e, Lit) and e.kind == "bool" and e.value is True


def is_trivially_false(e: Expr) -> bool:
    return isinstance(e, Lit) and e.kind == "bool" and e.value is False


# ---------------------------------------------------------------------------
# atoms and universes


@dataclass
class Atom:
    index: int
    role: str  # 'q' | 'residual' | 'psi'
    expr: Expr  # normalized semantic form
    display: Expr  # DSL-printable form (differs for match-derived residuals)
    key: str

    def __repr__(self):
        return f"Atom#{self.index}[{self.role}]({fmt_expr(self.display)})"


class Universe:
    def __init__(self, role: str):
        self.role = role
        self.atoms = []
        self._by_key = {}

    def add(self, expr: Expr, display: Opt[Expr] = None,
            memo: Opt[NormalMemo] = None) -> Opt[Atom]:
        """The atom of `expr`'s normal form, or None when that is trivial.
        An `or` goes key-first: its key is folded from its reduced disjuncts'
        keys, and its chain is built only for a key no atom holds yet."""
        memo = memo or NormalMemo()
        if isinstance(expr, BinOp) and expr.op == "or":
            out = _or_core(memo.disjuncts(expr), memo)
            if not out:
                return None
            key = out[0].key  # `_key` of the chain `mk_or` would build
            for k in [f.key for f in out[1:]]:
                key = f"(or {k} {key})" if k < key else f"(or {key} {k})"
            if key in self._by_key:
                return self._by_key[key]
            expr = mk_or(*(f.node for f in out))
        else:
            expr = memo.normalize(expr)
            if is_trivially_true(expr) or is_trivially_false(expr):
                return None
            key = memo.key(expr)
            if key in self._by_key:
                return self._by_key[key]
        atom = Atom(
            index=len(self.atoms),
            role=self.role,
            expr=expr,
            display=display if display is not None else expr,
            key=key,
        )
        self.atoms.append(atom)
        self._by_key[key] = atom
        return atom

    def __len__(self):
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __getitem__(self, i):
        return self.atoms[i]


def _fields(expr: Expr):
    """The row columns and the accumulator components that `expr` indexes."""
    row, acc = set(), set()
    for node in walk(expr):
        if isinstance(node, Index) and isinstance(node.base, Name):
            if node.base.ident == "r":
                row.add(node.index)
            elif node.base.ident in ("a", "a1", "a2"):
                acc.add(node.index)
    return row, acc


# ---------------------------------------------------------------------------
# dependence and monotonicity


@dataclass
class DepInfo:
    is_dep: tuple  # is_dep[i][j]: state of i feeds the computation of j
    is_dep_row: tuple
    mono: tuple  # per component: ('inc', bound) | ('dec', bound) | ('none', None)
    contrib: tuple  # per component: canonical row expression or None


def project_component(body: Expr, i: int) -> Expr:
    """Definition of result component i, collapsing branch-insensitive nodes."""
    if isinstance(body, TupleExpr):
        return body.items[i]
    if isinstance(body, Name):
        ty = body.ty.elems[i] if hasattr(body.ty, "elems") else None
        return Index(base=body, index=i, ty=ty)
    if isinstance(body, Index):
        # e.g. the whole accumulator selected from something; keep as-is
        return Index(base=body, index=i)
    if isinstance(body, Cond):
        then = project_component(body.then, i)
        other = project_component(body.other, i)
        if structurally_equal(then, other):
            return then
        return Cond(then=then, test=body.test, other=other, ty=then.ty)
    if isinstance(body, Match):
        cases = []
        bodies = []
        for case in body.cases:
            projected = project_component(case.body, i)
            cases.append(Case(pattern=case.pattern, body=projected))
            bodies.append(projected)
        if all(
            structurally_equal(b, bodies[0]) for b in bodies[1:]
        ) and not any(
            c.pattern is not None and _mentions_name(cs.body, c.pattern)
            for c, cs in zip(body.cases, cases)
        ):
            return bodies[0]
        return Match(scrutinee=body.scrutinee, cases=cases, ty=bodies[0].ty)
    raise ValueError(f"cannot project component from {type(body).__name__}")


def _mentions_name(expr: Expr, ident: str) -> bool:
    return any(isinstance(n, Name) and n.ident == ident for n in walk(expr))


def _resolve_binders(expr: Expr) -> Expr:
    """`expr` with each match binder replaced by `SomeVal` of its scrutinee,
    which is resolved first: what the analyses read through a binder."""
    if isinstance(expr, Match):
        scrutinee = _resolve_binders(expr.scrutinee)
        payload = SomeVal(operand=scrutinee)
        bodies = [c.body if c.pattern is None
                  else substitute(c.body, {c.pattern: payload})
                  for c in expr.cases]
        return rebuild_match(expr, scrutinee,
                             [_resolve_binders(b) for b in bodies])
    return map_children(expr, _resolve_binders)


def _strip_some(e: Expr) -> Expr:
    while isinstance(e, CoerceSome):
        e = e.operand
    return e


def _is_acc_i(e: Expr, i: int) -> bool:
    return (
        isinstance(e, Index)
        and isinstance(e.base, Name)
        and e.base.ident == "a"
        and e.index == i
    )


def _detect_mono(defn: Expr, i: int, init: Value):
    """('inc'|'dec', bound) for counter / running-extremum shapes, else none."""
    # counter: a[i] + c, possibly guarded by a condition with a[i] unchanged
    def counter_dir(e):
        if isinstance(e, BinOp) and e.op in ("+", "-"):
            lhs, rhs = e.left, e.right
            c = _const_of(rhs)
            if _is_acc_i(lhs, i) and c is not None and c != 0:
                delta = c if e.op == "+" else -c
                return "inc" if delta > 0 else "dec"
            c = _const_of(lhs)
            if e.op == "+" and _is_acc_i(rhs, i) and c is not None and c != 0:
                return "inc" if c > 0 else "dec"
        return None

    d = counter_dir(defn)
    if d:
        return (d, init)
    if isinstance(defn, Cond):
        for branch, other in ((defn.then, defn.other), (defn.other, defn.then)):
            d = counter_dir(branch)
            if d and _is_acc_i(other, i):
                return (d, init)
        # running extremum: keeps max/min of a[i] and a row expression g
        g = None
        direction = None
        test = defn.test
        if isinstance(test, BinOp) and test.op in (">", ">=", "<", "<="):
            gt = test.op in (">", ">=")
            if _is_acc_i(defn.other, i) and not _is_acc_i(defn.then, i):
                g = defn.then
                if structurally_equal(test.left, g) and _is_acc_i(test.right, i):
                    direction = "inc" if gt else "dec"
                elif structurally_equal(test.right, g) and _is_acc_i(test.left, i):
                    direction = "dec" if gt else "inc"
            elif _is_acc_i(defn.then, i) and not _is_acc_i(defn.other, i):
                g = defn.other
                if _is_acc_i(test.left, i) and structurally_equal(test.right, g):
                    direction = "inc" if gt else "dec"
                elif _is_acc_i(test.right, i) and structurally_equal(test.left, g):
                    direction = "dec" if gt else "inc"
        if direction is not None:
            return (direction, init)
    if isinstance(defn, Match):
        d = _detect_optional_extremum(defn, i)
        if d is not None:
            return (d, init)
    return ("none", None)


def _detect_optional_extremum(defn: Match, i: int):
    """Optional running extremum: None layers install Some(g); the innermost
    guarded update keeps a[i] unless g improves on the own payload."""

    def descend(m, own_binder):
        bind_case = next((c for c in m.cases if c.pattern is not None), None)
        if bind_case is None:
            return None
        own = bind_case.pattern if _is_acc_i(m.scrutinee, i) else own_binder
        body = bind_case.body
        if isinstance(body, Match):
            return descend(body, own)
        if isinstance(body, Cond) and own is not None:
            keep = body.other
            test = body.test
            if not _is_acc_i(_strip_some(keep), i):
                return None
            if isinstance(test, BinOp) and test.op in ("<", "<=", ">", ">="):
                lt = test.op in ("<", "<=")
                if isinstance(test.right, Name) and test.right.ident == own:
                    return "dec" if lt else "inc"
                if isinstance(test.left, Name) and test.left.ident == own:
                    return "inc" if lt else "dec"
        return None

    return descend(defn, None)


def _collect_value_leaves(defn: Expr, i: int) -> list:
    """Leaves assigned into component i, other than keeping the old value."""
    if isinstance(defn, Cond):
        return (_collect_value_leaves(defn.then, i)
                + _collect_value_leaves(defn.other, i))
    if isinstance(defn, Match):
        return [leaf for c in defn.cases
                for leaf in _collect_value_leaves(c.body, i)]
    leaf = _strip_some(defn)
    return [] if _is_acc_i(leaf, i) else [leaf]


def infer_dep_info(task: PipelineTask) -> DepInfo:
    arity = task.arity
    comp_defs = [project_component(task.f_body, i) for i in range(arity)]
    resolved = [_resolve_binders(defn) for defn in comp_defs]
    is_dep = [[i == j for j in range(arity)] for i in range(arity)]
    is_dep_row = [False] * arity
    for j, defn in enumerate(resolved):
        row, acc = _fields(defn)
        for i in acc:
            is_dep[i][j] = True
        is_dep_row[j] = bool(row)
    mono = tuple(
        _detect_mono(comp_defs[i], i, task.init_values[i]) for i in range(arity)
    )

    # row contribution: the row expressions whose values flow into component i
    BLOCKED = "blocked"
    own_exprs: list = []
    own_deps: list = []
    expr_by_key = {}
    for i in range(arity):
        exprs = set()
        deps = set()
        status = "ok"
        for leaf in _collect_value_leaves(resolved[i], i):
            comp = _acc_comp_of_term(leaf)
            if comp is not None:
                deps.add(comp)
                continue
            row, acc = _fields(leaf)
            if acc:
                status = BLOCKED
                break
            if row:
                canon = normalize_term(leaf)
                key = expr_key(canon)
                exprs.add(key)
                expr_by_key.setdefault(key, canon)
        own_exprs.append(exprs if status == "ok" else BLOCKED)
        own_deps.append(deps)

    flows: list = [e if e == BLOCKED else set(e) for e in own_exprs]
    for _ in range(arity + 1):
        changed = False
        for i in range(arity):
            if flows[i] == BLOCKED:
                continue
            for j in own_deps[i]:
                if j == i:
                    continue
                if flows[j] == BLOCKED:
                    flows[i] = BLOCKED
                    changed = True
                    break
                if not flows[j] <= flows[i]:
                    flows[i] |= flows[j]
                    changed = True
        if not changed:
            break

    contrib = tuple(
        expr_by_key[next(iter(f))] if f != BLOCKED and len(f) == 1 else None
        for f in flows
    )
    return DepInfo(
        is_dep=tuple(tuple(r) for r in is_dep),
        is_dep_row=tuple(is_dep_row),
        mono=mono,
        contrib=contrib,
    )


# ---------------------------------------------------------------------------
# clause utilities


def clause_literals(conjunct: Expr):
    return _flatten("or", conjunct)


def _acc_comp_of_term(e: Expr) -> Opt[int]:
    """Component index when e is a[i] or SomeVal(a[i])."""
    if isinstance(e, SomeVal):
        e = e.operand
    if isinstance(e, Index) and isinstance(e.base, Name) and e.base.ident == "a":
        return e.index
    return None


def _relax_clause(lits, dep: DepInfo):
    out = []
    for lit in lits:
        if isinstance(lit, BinOp) and lit.op == "==":
            if _const_of(lit.left) is not None \
                    and _acc_comp_of_term(lit.right) is not None:
                lit = replace(lit, left=lit.right, right=lit.left)
            comp = _acc_comp_of_term(lit.left)
            if comp is not None and _const_of(lit.right) is not None:
                kind, _ = dep.mono[comp]
                if kind in ("inc", "dec"):
                    lit = BinOp(op=">=" if kind == "inc" else "<=",
                                left=lit.left, right=lit.right, ty=BOOL)
        out.append(lit)
    return out


class _SubstFail(Exception):
    pass


def _substitute_clause(lits, dep: DepInfo):
    """Rewrite accumulator accesses to contributing row expressions.

    Null-test literals have no row counterpart and are dropped from the
    clause; a clause left with no literals, an unresolvable access or a
    term-level match over the accumulator (not descended) fails."""

    def transform(e: Expr) -> Expr:
        comp = _acc_comp_of_term(e)
        if comp is not None:
            if dep.contrib[comp] is None:
                raise _SubstFail()
            return dep.contrib[comp]
        if isinstance(e, Name) and e.ident == "a":
            raise _SubstFail()
        if isinstance(e, Match):
            if _fields(e)[1]:
                raise _SubstFail()
            return e  # not descended
        return map_children(e, transform)

    out = []
    for lit in lits:
        has_null_test = any(isinstance(n, IsNone) for n in walk(lit))
        if has_null_test:
            continue
        out.append(transform(lit))
    if not out:
        raise _SubstFail()
    return out


def _fresh_binder(counter=[0]):
    counter[0] += 1
    return f"v{counter[0]}"


def _null_tested(e: Expr):
    """The operand of a null test, `IsNone(x)` or its normal form `x ==
    None`; None for any other expression."""
    if isinstance(e, IsNone):
        return e.operand
    if isinstance(e, BinOp) and e.op == "==" and isinstance(e.right, Lit) \
            and e.right.kind == "none":
        return e.left
    return None


def _clause_display(lits, binders=None) -> Expr:
    """DSL-printable form of a clause: optional payload accesses become
    match. Binders are named by ``binders``, else by `_fresh_binder`."""
    base = next(
        (n.operand for lit in lits for n in walk(lit) if isinstance(n, SomeVal)),
        None,
    )
    if base is None:
        return mk_or(*lits)
    key = expr_key(base)
    binder = next(binders) if binders else _fresh_binder()

    def branch(lit, is_none):
        # returns transformed literal, or True/False when decided
        positive = not isinstance(lit, Not)
        tested = _null_tested(lit if positive else lit.operand)
        if tested is not None and expr_key(tested) == key:
            return is_none if positive else not is_none
        if is_none and any(
            isinstance(n, SomeVal) and expr_key(n.operand) == key
            for n in walk(lit)
        ):
            return False

        def sub(e):
            if isinstance(e, SomeVal) and expr_key(e.operand) == key:
                return Name(ident=binder)
            if isinstance(e, Match):
                return e  # not descended
            return map_children(e, sub)

        return sub(lit) if not is_none else lit

    def build(branch_lits):
        kept = []
        for b in branch_lits:
            if b is True:
                return bool_lit(True)
            if b is False:
                continue
            kept.append(b)
        if not kept:
            return bool_lit(False)
        return _clause_display(kept, binders)

    none_body = build([branch(l, True) for l in lits])
    some_body = build([branch(l, False) for l in lits])
    return Match(
        scrutinee=base,
        cases=[Case(pattern=None, body=none_body),
               Case(pattern=binder, body=some_body)],
    )


def printable(expr: Expr, binders) -> Expr:
    """`expr` as DSL source can state it: a clause that reads an Optional
    payload becomes a match, its binders named by ``binders``."""
    if any(isinstance(n, SomeVal) for n in walk(expr)):
        return _clause_display(clause_literals(expr), binders)
    return expr


# ---------------------------------------------------------------------------
# universe construction


def _typed(expr: Expr, env: dict) -> Expr:
    """A typed copy of `expr`, which may share nodes with other trees: the
    annotator behind `type_predicate` writes `ty` into every node it checks.

    Only the `Q` pool uses it. The other pools are built typed, but a `Q`
    atom can hold the `SomeVal` that `_resolve_binders` makes for a match
    binder, and that node has no type."""
    return type_predicate(copy.deepcopy(expr), env)


def _payload_reads(e: Expr) -> list:
    """The operand `x` of each payload read `SomeVal(x)` in `e`, once per
    key, outside any match: a match's cases guard their own reads."""
    reads, stack = {}, [e]
    while stack:
        node = stack.pop()
        if isinstance(node, SomeVal):
            reads.setdefault(expr_key(node.operand), node.operand)
        if not isinstance(node, Match):
            stack += children(node)
    return list(reads.values())


def _collect_guards(body: Expr) -> list:
    """The conditional tests of `body`, left to right in preorder."""
    guards = [body.test] if isinstance(body, Cond) else []
    for child in children(body):
        guards += _collect_guards(child)
    return guards


def build_universe_q(task: PipelineTask, dep: DepInfo,
                     memo: Opt[NormalMemo] = None):
    """Pre-filter atom pool: substituted P conjuncts, their disjunction, the
    disjunction of the UDF's guard conjuncts, the combined disjunction, and
    per-row-field disjunctions of related substituted P conjuncts."""
    env = {"r": TTuple(tuple(task.schema))}

    def finalize(expr):
        expr = normalize(expr, memo)
        if is_trivially_true(expr) or is_trivially_false(expr):
            return None
        if not _fields(expr)[0]:
            return None
        return _typed(expr, env)

    dropped = []
    sub_p = []
    for conj in task.post_conjuncts:
        lits = _relax_clause(clause_literals(conj), dep)
        try:
            expr = finalize(mk_or(*_substitute_clause(lits, dep)))
        except _SubstFail:
            expr = None
        if expr is None:
            dropped.append(fmt_expr(conj))
        else:
            sub_p.append(expr)

    sub_f = []
    for guard in _collect_guards(_resolve_binders(task.f_body)):
        for clause in cnf_clauses(guard):
            try:
                sub = _substitute_clause(clause, dep)
            except _SubstFail:
                continue
            expr = finalize(mk_or(*sub))
            if expr is not None:
                sub_f.append(expr)

    universe = Universe("q")

    def add(expr):
        """Add `expr`. A disjunct that reads an `Optional` payload is
        conjoined with the payload's null test, so it is false on None, and
        the atom is displayed as a match, as a residual is."""
        if expr is None:
            return
        lits = clause_literals(expr)
        reads = [_payload_reads(lit) for lit in lits]
        if not any(reads):
            universe.add(expr, memo=memo)
            return
        guarded = [
            mk_and(*(mk_not(IsNone(operand=x, ty=BOOL)) for x in xs), lit)
            for lit, xs in zip(lits, reads)]
        universe.add(mk_or(*guarded), display=_clause_display(lits),
                     memo=memo)

    for expr in sub_p:
        add(expr)
    if sub_p:
        add(finalize(mk_or(*sub_p)))
    if sub_f:
        add(finalize(mk_or(*sub_f)))
    if sub_p and sub_f:
        add(finalize(mk_or(*sub_p, *sub_f)))
    # related atoms: substituted P conjuncts over the same single row field
    by_field = {}
    for e in sub_p:
        fields = _fields(e)[0]
        if len(fields) == 1:
            by_field.setdefault(next(iter(fields)), []).append(e)
    for _, group in sorted(by_field.items()):
        if len(group) >= 2:
            add(finalize(mk_or(*group)))
    return universe, dropped


def build_universe_residual(task: PipelineTask,
                            memo: Opt[NormalMemo] = None):
    """Residual atom pool: initializer disequalities, then P's CNF conjuncts;
    and the ascending indices of the atoms P's conjuncts give.

    Index order matters: the residual worklist breaks cardinality ties
    lexicographically, so the weaker disequality forms come first."""
    acc = Name(ident="a", ty=task.acc_type)
    universe = Universe("residual")
    for i, (ty, init) in enumerate(zip(task.acc_type.elems, task.init_values)):
        target = Index(base=acc, index=i, ty=ty)
        universe.add(mk_not(mk_eq(target, value_to_lit(init, ty))), memo=memo)
    p_atoms = [universe.add(conj, memo=memo,
                            display=_clause_display(clause_literals(conj)))
               for conj in task.post_conjuncts]
    return universe, tuple(sorted(
        {atom.index for atom in p_atoms if atom is not None}))


def _is_sentinel(v: Value) -> bool:
    return v is NONE or v is NEG_INF


def build_universe_invariant(task: PipelineTask, dep: DepInfo,
                             memo: Opt[NormalMemo] = None) -> Universe:
    """Invariant atom pool: per-component equalities plus implication families
    drawn from the post-filter's atomic formulas, monotonicity bounds, and
    sentinel-initializer tests."""
    arity = task.arity
    memo = memo or NormalMemo()

    # single-component P clauses
    clauses_of = {i: [] for i in range(arity)}
    for conj in task.post_conjuncts:
        fields = _fields(conj)[1]
        if len(fields) == 1:
            clauses_of[next(iter(fields))].append(clause_literals(conj))

    def a_k(k):
        return Name(ident=f"a{k}", ty=task.acc_type)

    def a_ki(k, i):
        return Index(base=a_k(k), index=i, ty=task.acc_type.elems[i])

    def guarded(k, i, payload_pred_builder):
        """not IsNone(a_k[i]) and pred(SomeVal(a_k[i])) for optional comps."""
        target = a_ki(k, i)
        payload = SomeVal(operand=target, ty=task.acc_type.elems[i].elem)
        return mk_and(
            mk_not(IsNone(operand=target, ty=BOOL)),
            payload_pred_builder(payload),
        )

    def is_optional(i):
        return isinstance(task.acc_type.elems[i], TOpt)

    def init_lit(i):
        return value_to_lit(task.init_values[i], task.acc_type.elems[i])

    def phi_family(k, i):
        fams = []
        kind, bound = dep.mono[i]
        if not dep.is_dep_row[i] and kind in ("inc", "dec") \
                and isinstance(bound, (int, Fraction)) and bound is not NEG_INF:
            op = ">=" if kind == "inc" else "<="
            fams.append(BinOp(op=op, left=a_ki(k, i), ty=BOOL,
                              right=value_to_lit(bound, task.acc_type.elems[i])))
        for lits in clauses_of[i]:
            cmps = []
            eq_consts = []
            for lit in lits:
                # null tests, and matches _replace_someval does not enter
                if any(isinstance(n, IsNone)
                       or isinstance(n, Match) and _fields(n)[1]
                       for n in walk(lit)):
                    continue
                cmps.append(lit)
                if isinstance(lit, BinOp) and lit.op == "==" \
                        and _const_of(lit.right) is not None:
                    eq_consts.append(_const_of(lit.right))
                elif isinstance(lit, BinOp) and lit.op == "==" \
                        and _const_of(lit.left) is not None:
                    eq_consts.append(_const_of(lit.left))
            if cmps:
                if is_optional(i):
                    # a bare comparison, `a[0] == Some(5)`, keeps its `a`
                    def builder(payload, _cmps=cmps, _i=i):
                        return substitute(
                            mk_or(*(_replace_someval(c, _i, payload)
                                    for c in _cmps)), {"a": a_k(k)})

                    fams.append(guarded(k, i, builder))
                else:
                    fams.append(substitute(mk_or(*cmps), {"a": a_k(k)}))
            if kind in ("inc", "dec") and eq_consts:
                op = ">=" if kind == "inc" else "<="
                for c in sorted(eq_consts):
                    if is_optional(i):
                        fams.append(guarded(
                            k, i,
                            lambda payload, _op=op, _c=c: BinOp(
                                op=_op, left=payload,
                                right=_mk_num_lit(_c, payload), ty=BOOL
                            ),
                        ))
                    else:
                        target = a_ki(k, i)
                        fams.append(BinOp(op=op, left=target,
                                          right=_mk_num_lit(c, target), ty=BOOL))
        if _is_sentinel(task.init_values[i]):
            fams.append(mk_eq(a_ki(k, i), init_lit(i)))
        # dedup, preserving construction order
        seen, out = set(), []
        for f in fams:
            f = normalize(f, memo)
            key = expr_key(f, memo)
            if key not in seen:
                seen.add(key)
                out.append(f)
        return out

    def negations(phi):
        """The antecedent sides of `phi => c` and `not phi => c`."""
        return [negate(ante) for ante in (phi, negate(phi))]

    def implies(neg_ante, cons):
        """`ante => cons` from the typed parts `not ante` and `cons`."""
        if is_trivially_false(cons):
            return neg_ante
        return mk_or(neg_ante, cons)

    eqs = [mk_eq(a_ki(1, i), a_ki(2, i)) for i in range(arity)]
    l1 = [[bool_lit(False), eqs[i]] for i in range(arity)]
    l2 = []
    for j in range(arity):
        init_eq = mk_eq(a_ki(2, j), init_lit(j))
        l2.append([bool_lit(False), eqs[j], init_eq, mk_not(init_eq)])
    u1_formulas = [
        [implies(neg, cons) for phi in phi_family(1, i)
         for neg in negations(phi) for cons in l1[i]]
        for i in range(arity)
    ]

    universe = Universe("psi")
    for i in range(arity):
        universe.add(eqs[i], memo=memo)
        for formula in u1_formulas[i]:
            universe.add(formula, memo=memo)
        negs2 = [neg for phi in phi_family(2, i) for neg in negations(phi)]
        for neg in negs2:
            for j in range(arity):
                if dep.is_dep[i][j]:
                    for cons in l2[j]:
                        universe.add(implies(neg, cons), memo=memo)
        for neg in negs2:
            for j in range(arity):
                if j != i and dep.is_dep[j][i]:
                    for cons in u1_formulas[j]:
                        universe.add(implies(neg, cons), memo=memo)
    return universe


def _replace_someval(expr: Expr, comp: int, replacement: Expr) -> Expr:
    def go(e):
        if isinstance(e, SomeVal):
            inner = e.operand
            if isinstance(inner, Index) and isinstance(inner.base, Name) \
                    and inner.base.ident in ("a", "a1", "a2") \
                    and inner.index == comp:
                return replacement
        if isinstance(e, (TupleExpr, ListExpr, Match)):
            return e  # not descended
        return map_children(e, go)

    return go(expr)


@dataclass
class Universes:
    u_q: Universe
    u_residual: Universe
    u_psi: Universe
    dropped_q: list = field(default_factory=list)
    p_indices: tuple = ()

    def sizes(self):
        return (len(self.u_q), len(self.u_residual), len(self.u_psi))


def build_universes(task: PipelineTask) -> Universes:
    dep = infer_dep_info(task)
    memo = NormalMemo()
    u_q, dropped = build_universe_q(task, dep, memo)
    u_residual, p_indices = build_universe_residual(task, memo)
    u_psi = build_universe_invariant(task, dep, memo)
    return Universes(
        u_q=u_q,
        u_residual=u_residual,
        u_psi=u_psi,
        dropped_q=dropped,
        p_indices=p_indices,
    )
