"""Data-flow analyses over the accumulator and predicate-universe construction.

The analyses are deliberately syntactic (pattern matching on update shapes);
they feed the finite atom pools from which pre-filters, residuals, and
bisimulation invariants are drawn.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional as Opt

from .syntax import (
    BOOL,
    BinOp, Case, Cond, CoerceSome, Expr, Index, Insert, IsNone, ListExpr,
    Lit, Match, Name, Not, SliceFrom, SomeVal, TInt, TOpt, TTuple, TupleExpr,
    children, map_children, structurally_equal, walk,
)
from .typecheck import PipelineTask, cnf_clauses, type_predicate
from .values import NEG_INF, NONE, Some, Value


# ---------------------------------------------------------------------------
# small AST builders


def lit_true() -> Lit:
    return Lit(kind="bool", value=True)


def lit_false() -> Lit:
    return Lit(kind="bool", value=False)


def value_to_lit(v: Value) -> Expr:
    if v is NEG_INF:
        return Lit(kind="neginf", value=None)
    if v is NONE:
        return Lit(kind="none", value=None)
    if isinstance(v, Some):
        return CoerceSome(operand=value_to_lit(v.value))
    if isinstance(v, bool):
        return Lit(kind="bool", value=v)
    if isinstance(v, Fraction):
        return Lit(kind="float", value=v)
    if isinstance(v, int):
        return Lit(kind="int", value=v)
    if isinstance(v, str):
        return Lit(kind="str", value=v)
    if isinstance(v, list):
        return ListExpr(items=[value_to_lit(x) for x in v])
    if isinstance(v, tuple):
        return TupleExpr(items=[value_to_lit(x) for x in v])
    raise TypeError(f"cannot embed value {v!r}")


def acc_index(var: str, i: int) -> Index:
    return Index(base=Name(ident=var), index=i)


def row_index(j: int) -> Index:
    return Index(base=Name(ident="r"), index=j)


def mk_not(e: Expr) -> Expr:
    return Not(operand=e)


def mk_and(*es) -> Expr:
    out = es[0]
    for e in es[1:]:
        out = BinOp(op="and", left=out, right=e)
    return out


def mk_eq(a: Expr, b: Expr) -> Expr:
    return BinOp(op="==", left=a, right=b)


_FLIP = {">": "<=", ">=": "<", "<": ">=", "<=": ">"}


def negate(e: Expr) -> Expr:
    if isinstance(e, Not):
        return e.operand
    if isinstance(e, Lit) and e.kind == "bool":
        return Lit(kind="bool", value=not e.value)
    if isinstance(e, BinOp):
        if e.op in _FLIP:
            return BinOp(op=_FLIP[e.op], left=e.left, right=e.right)
        if e.op == "and":
            return BinOp(op="or", left=negate(e.left), right=negate(e.right))
        if e.op == "or":
            return BinOp(op="and", left=negate(e.left), right=negate(e.right))
    return Not(operand=e)


# ---------------------------------------------------------------------------
# canonical keys and normalization


class NormalMemo:
    """Normal forms and canonical keys, memoized by node identity.

    `normalize` and `expr_key` make a memo per call unless given one. A
    universe build passes one memo to all of its calls, so each typed part
    its candidates share is normalized and keyed once. An entry holds its
    node, so no id is reused while the memo lives; a node must not change
    once memoized, and the memo is dropped with the build."""

    def __init__(self):
        self._forms = {}
        self._keys = {}
        self._negated_keys = {}

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

    def negated_key(self, e: Expr) -> str:
        """The key of the normal form of `e`'s negation."""
        hit = self._negated_keys.get(id(e))
        if hit is None:
            key = self.key(self.normalize(negate(e)))
            hit = self._negated_keys[id(e)] = (e, key)
        return hit[1]


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
    if _is_int_expr(like) and value.denominator == 1:
        return Lit(kind="int", value=int(value))
    kind = "int" if (isinstance(like, Lit) and like.kind == "int") else "float"
    if value.denominator != 1:
        kind = "float"
    return Lit(kind=kind, value=value if kind == "float" else int(value))


def normalize(e: Expr, memo: Opt[NormalMemo] = None) -> Expr:
    """Canonicalize a predicate AST: constants folded and moved to the right
    of comparisons, linear terms solved for the variable side, commutative
    operands ordered, or/and chains flattened, interval tautologies removed."""
    return (memo or NormalMemo()).normalize(e)


def _normalize(e: Expr, memo: NormalMemo) -> Expr:
    if isinstance(e, Not):
        neg = negate(memo.normalize(e.operand))
        return neg if isinstance(neg, Not) else memo.normalize(neg)
    if isinstance(e, BinOp) and e.op in ("and", "or"):
        # a literal may itself normalize into a chain of the same operator
        lits = [
            sub
            for x in _flatten(e.op, e)
            for sub in _flatten(e.op, memo.normalize(x))
        ]
        return _rebuild_chain(e.op, lits, memo)
    if isinstance(e, BinOp) and e.op in (">", ">=", "<", "<=", "=="):
        left, right = normalize_term(e.left), normalize_term(e.right)
        lc, rc = _const_of(left), _const_of(right)
        if lc is not None and rc is not None:
            res = {
                ">": lc > rc, ">=": lc >= rc, "<": lc < rc,
                "<=": lc <= rc, "==": lc == rc,
            }[e.op]
            return Lit(kind="bool", value=res)
        if lc is not None:
            flip = {">": "<", ">=": "<=", "<": ">", "<=": ">=", "==": "=="}
            left, right, op = right, left, flip[e.op]
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
                            op = {">": "<", ">=": "<=", "<": ">", "<=": ">=", "==": "=="}[op]
                        left = term
                        right = _mk_num_lit(d / c, term)
                        changed = True
                elif left.op == "/" and b_const not in (None, 0):
                    term = left.left
                    c = b_const
                    if c < 0:
                        op = {">": "<", ">=": "<=", "<": ">", "<=": ">=", "==": "=="}[op]
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
            return Lit(kind="bool", value=op in (">=", "<=", "=="))
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
        if lc is not None and rc is not None:
            val = {
                "+": lc + rc, "-": lc - rc, "*": lc * rc,
                "/": lc / rc if rc != 0 else None,
            }[e.op]
            if val is not None:
                return _mk_num_lit(val, left)
        return BinOp(op=e.op, left=left, right=right, ty=e.ty)
    if isinstance(e, SomeVal):
        return SomeVal(operand=normalize_term(e.operand), ty=e.ty)
    return e


def _flatten(op: str, e: Expr):
    if isinstance(e, BinOp) and e.op == op:
        return _flatten(op, e.left) + _flatten(op, e.right)
    return [e]


def _rebuild_chain(op: str, lits, memo: NormalMemo) -> Expr:
    unit = op == "and"  # True is the unit of and, False of or
    out = []
    seen = set()
    for lit in lits:
        if isinstance(lit, Lit) and lit.kind == "bool":
            if lit.value == unit:
                continue
            return Lit(kind="bool", value=not unit)
        key = memo.key(lit)
        if key in seen:
            continue
        seen.add(key)
        out.append(lit)
    if op == "or":
        neg_keys = {memo.negated_key(lit) for lit in out}
        if seen & neg_keys:
            return lit_true()
        out = _simplify_or_intervals(out, memo)
        if out is True:
            return lit_true()
    if not out:
        return Lit(kind="bool", value=unit)
    out.sort(key=memo.key)
    expr = out[0]
    for lit in out[1:]:
        expr = BinOp(op=op, left=expr, right=lit, ty=BOOL)
    return expr


def _simplify_or_intervals(lits, memo: NormalMemo):
    """Absorb/merge same-term comparison disjuncts; detect tautologies.

    Returns True when the disjunction covers everything, else the reduced list.
    """
    groups = {}
    passthrough = []
    for lit in lits:
        if isinstance(lit, BinOp) and lit.op in (">", ">=", "<", "<=", "=="):
            c = _const_of(lit.right)
            if c is not None:
                groups.setdefault(memo.key(lit.left), []).append(lit)
                continue
        passthrough.append(lit)
    out = list(passthrough)
    for _, items in sorted(groups.items()):
        if len(items) == 1:
            out.append(items[0])
            continue
        is_int = _is_int_expr(items[0].left)
        lower = None  # strongest upper ray: (const, inclusive) meaning term >= / > const
        upper = None  # (const, inclusive) meaning term <= / < const
        points = []
        for lit in items:
            c = _const_of(lit.right)
            if lit.op == ">":
                cand = (c, False)
            elif lit.op == ">=":
                cand = (c, True)
            elif lit.op == "<":
                cand = (c, False)
            elif lit.op == "<=":
                cand = (c, True)
            else:
                points.append((c, lit))
                continue
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
                return True
            if lo_c == up_c and (lo_inc or up_inc):
                return True
            if is_int and lo_c.denominator == 1 and up_c.denominator == 1:
                lowest_kept = lo_c if lo_inc else lo_c + 1
                highest_kept = up_c if up_inc else up_c - 1
                if highest_kept >= lowest_kept - 1:
                    return True
        base = items[0].left
        kept = []
        if lower is not None:
            kept.append(BinOp(op=">=" if lower[1] else ">", left=base,
                              right=_mk_num_lit(lower[0], base), ty=BOOL))
        if upper is not None:
            kept.append(BinOp(op="<=" if upper[1] else "<", left=base,
                              right=_mk_num_lit(upper[0], base), ty=BOOL))
        for c, lit in points:
            absorbed = False
            if lower is not None and (c > lower[0] or (c == lower[0] and lower[1])):
                absorbed = True
            if upper is not None and (c < upper[0] or (c == upper[0] and upper[1])):
                absorbed = True
            if not absorbed:
                kept.append(lit)
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
    row_fields: frozenset = frozenset()
    acc_fields: frozenset = frozenset()

    def __repr__(self):
        from .pretty import fmt_expr

        return f"Atom#{self.index}[{self.role}]({fmt_expr(self.display)})"


class Universe:
    def __init__(self, role: str):
        self.role = role
        self.atoms = []
        self._by_key = {}

    def add(self, expr: Expr, display: Opt[Expr] = None,
            memo: Opt[NormalMemo] = None) -> Opt[Atom]:
        memo = memo or NormalMemo()
        expr = memo.normalize(expr)
        if is_trivially_true(expr) or is_trivially_false(expr):
            return None
        key = memo.key(expr)
        if key in self._by_key:
            return self._by_key[key]
        row_fields, acc_fields = _fields(expr)
        atom = Atom(
            index=len(self.atoms),
            role=self.role,
            expr=expr,
            display=display if display is not None else expr,
            key=key,
            row_fields=frozenset(row_fields),
            acc_fields=frozenset(acc_fields),
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
    comp_defs: tuple  # projected per-component definitions


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


def _reads(expr: Expr, binder_origins: Opt[dict] = None):
    """Accumulator components and row columns read by expr (guards included).

    binder_origins maps match binders to their replacement expressions."""
    binder_origins = binder_origins or {}
    acc, row = set(), set()

    def go(e, origins):
        if isinstance(e, Name):
            if e.ident in origins:
                go(origins[e.ident], {})
            return
        if isinstance(e, Index) and isinstance(e.base, Name):
            if e.base.ident in ("a", "a1", "a2"):
                acc.add(e.index)
                return
            if e.base.ident == "r":
                row.add(e.index)
                return
        if isinstance(e, Match):
            go(e.scrutinee, origins)
            for case in e.cases:
                inner = dict(origins)
                if case.pattern is not None:
                    payload = SomeVal(operand=_resolve_binders(e.scrutinee, origins))
                    inner[case.pattern] = payload
                go(case.body, inner)
            return
        for child in children(e):
            go(child, origins)

    go(expr, binder_origins)
    return acc, row


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


def _collect_value_leaves(defn: Expr, i: int, binder_origins: dict):
    """Leaves assigned into component i, other than keeping the old value."""
    leaves = []

    def go(e, origins):
        if isinstance(e, Cond):
            go(e.then, origins)
            go(e.other, origins)
            return
        if isinstance(e, Match):
            for case in e.cases:
                inner = dict(origins)
                if case.pattern is not None:
                    inner[case.pattern] = SomeVal(
                        operand=_resolve_binders(e.scrutinee, origins)
                    )
                go(case.body, inner)
            return
        stripped = _strip_some(e)
        if _is_acc_i(stripped, i):
            return
        leaves.append((stripped, dict(origins)))

    go(defn, binder_origins)
    return leaves


def infer_dep_info(task: PipelineTask) -> DepInfo:
    arity = task.arity
    comp_defs = tuple(project_component(task.f_body, i) for i in range(arity))
    is_dep = [[i == j for j in range(arity)] for i in range(arity)]
    is_dep_row = [False] * arity
    for j, defn in enumerate(comp_defs):
        acc, row = _reads(defn)
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
        for leaf, origins in _collect_value_leaves(comp_defs[i], i, {}):
            resolved_leaf = _strip_some(_resolve_binders(leaf, origins))
            under_some = _strip_some(resolved_leaf)
            if isinstance(under_some, SomeVal):
                under_some = under_some.operand
            if isinstance(under_some, Index) and isinstance(under_some.base, Name) \
                    and under_some.base.ident == "a":
                deps.add(under_some.index)
                continue
            acc, row = _reads(resolved_leaf)
            if acc:
                status = BLOCKED
                break
            if row:
                canon = normalize_term(resolved_leaf)
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
        comp_defs=comp_defs,
    )


def _resolve_binders(leaf: Expr, origins: dict) -> Expr:
    def go(e):
        if isinstance(e, Name) and e.ident in origins:
            return origins[e.ident]
        return map_children(e, go)

    return go(leaf) if origins else leaf


# ---------------------------------------------------------------------------
# clause utilities


def clause_literals(conjunct: Expr):
    return _flatten("or", conjunct)


def _or_chain(lits) -> Expr:
    if not lits:
        return lit_false()
    out = lits[0]
    for lit in lits[1:]:
        out = BinOp(op="or", left=out, right=lit, ty=BOOL)
    return out


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


def _clause_display(lits) -> Expr:
    """DSL-printable form of a clause: optional payload accesses become match."""
    base = next(
        (n.operand for lit in lits for n in walk(lit) if isinstance(n, SomeVal)),
        None,
    )
    if base is None:
        return _or_chain(lits)
    key = expr_key(base)
    binder = _fresh_binder()

    def branch(lit, is_none):
        # returns transformed literal, or True/False when decided
        decided = None
        if isinstance(lit, IsNone) and expr_key(lit.operand) == key:
            return is_none
        if isinstance(lit, Not) and isinstance(lit.operand, IsNone) \
                and expr_key(lit.operand.operand) == key:
            return not is_none
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
                return lit_true()
            if b is False:
                continue
            kept.append(b)
        if not kept:
            return lit_false()
        return _clause_display(kept)

    none_body = build([branch(l, True) for l in lits])
    some_body = build([branch(l, False) for l in lits])
    return Match(
        scrutinee=base,
        cases=[Case(pattern=None, body=none_body),
               Case(pattern=binder, body=some_body)],
    )


# ---------------------------------------------------------------------------
# universe construction


def _typed(expr: Expr, env: dict) -> Expr:
    """A typed copy of `expr`, which may share nodes with other trees: the
    annotator behind `type_predicate` writes `ty` into every node it checks.

    The ψ build calls it once per part (an antecedent's negation or a
    consequent) and composes candidates from the typed parts, which the
    annotator would type the same way inside the whole candidate."""
    return type_predicate(copy.deepcopy(expr), env)


def _collect_guards(body: Expr):
    """All conditional guards in the accumulator body, binder-resolved."""
    guards = []

    def go(e, origins):
        if isinstance(e, Cond):
            guards.append(_resolve_binders(e.test, origins))
            go(e.test, origins)
            go(e.then, origins)
            go(e.other, origins)
            return
        if isinstance(e, Match):
            go(e.scrutinee, origins)
            for case in e.cases:
                inner = dict(origins)
                if case.pattern is not None:
                    inner[case.pattern] = SomeVal(
                        operand=_resolve_binders(e.scrutinee, origins)
                    )
                go(case.body, inner)
            return
        for child in children(e):
            go(child, origins)

    go(body, {})
    return guards


def build_universe_q(task: PipelineTask, dep: DepInfo):
    """Pre-filter atom pool: substituted P conjuncts, their disjunction, the
    disjunction of the UDF's guard conjuncts, the combined disjunction, and
    per-row-field disjunctions of related substituted P conjuncts."""
    env = {"r": TTuple(tuple(task.schema))}

    def finalize(expr):
        expr = normalize(expr)
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
            sub = _substitute_clause(lits, dep)
        except _SubstFail:
            from .pretty import fmt_expr

            dropped.append(fmt_expr(conj))
            continue
        expr = finalize(_or_chain(sub))
        if expr is None:
            from .pretty import fmt_expr

            dropped.append(fmt_expr(conj))
            continue
        sub_p.append(expr)

    sub_f = []
    for guard in _collect_guards(task.f_body):
        for clause in cnf_clauses(guard):
            try:
                sub = _substitute_clause(clause, dep)
            except _SubstFail:
                continue
            expr = finalize(_or_chain(sub))
            if expr is not None:
                sub_f.append(expr)

    universe = Universe("q")
    for expr in sub_p:
        universe.add(expr)
    if sub_p:
        expr = finalize(_or_chain(sub_p))
        if expr is not None:
            universe.add(expr)
    if sub_f:
        expr = finalize(_or_chain(sub_f))
        if expr is not None:
            universe.add(expr)
    if sub_p and sub_f:
        expr = finalize(_or_chain(sub_p + sub_f))
        if expr is not None:
            universe.add(expr)
    # related atoms: substituted P conjuncts over the same single row field
    by_field = {}
    for e in sub_p:
        fields = _fields(e)[0]
        if len(fields) == 1:
            by_field.setdefault(next(iter(fields)), []).append(e)
    for _, group in sorted(by_field.items()):
        if len(group) >= 2:
            expr = finalize(_or_chain(group))
            if expr is not None:
                universe.add(expr)
    return universe, dropped


def build_universe_residual(task: PipelineTask) -> Universe:
    """Residual atom pool: initializer disequalities, then P's CNF conjuncts.

    Index order matters: the residual worklist breaks cardinality ties
    lexicographically, so the weaker disequality forms come first."""
    env = {"a": task.acc_type}
    universe = Universe("residual")
    for i in range(task.arity):
        dis = mk_not(mk_eq(acc_index("a", i), value_to_lit(task.init_values[i])))
        universe.add(type_predicate(dis, env))
    for conj in task.post_conjuncts:
        lits = clause_literals(conj)
        display = _clause_display(lits)
        universe.add(_typed(conj, env), display=display)
    return universe


def _subst_acc_var(expr: Expr, var: str) -> Expr:
    def go(e):
        if isinstance(e, Name) and e.ident == "a":
            return Name(ident=var)
        return map_children(e, go)

    return go(expr)


def _is_sentinel(v: Value) -> bool:
    return v is NONE or v is NEG_INF


def build_universe_invariant(task: PipelineTask, dep: DepInfo) -> Universe:
    """Invariant atom pool: per-component equalities plus implication families
    drawn from the post-filter's atomic formulas, monotonicity bounds, and
    sentinel-initializer tests."""
    env = {"a1": task.acc_type, "a2": task.acc_type}
    arity = task.arity
    memo = NormalMemo()

    # single-component P clauses
    clauses_of = {i: [] for i in range(arity)}
    for conj in task.post_conjuncts:
        fields = _fields(conj)[1]
        if len(fields) == 1:
            clauses_of[next(iter(fields))].append(clause_literals(conj))

    def a_ki(k, i):
        return Index(base=Name(ident=f"a{k}"), index=i, ty=task.acc_type.elems[i])

    def guarded(k, i, payload_pred_builder):
        """not IsNone(a_k[i]) and pred(SomeVal(a_k[i])) for optional comps."""
        target = a_ki(k, i)
        payload = SomeVal(operand=target, ty=task.acc_type.elems[i].elem)
        return mk_and(
            mk_not(IsNone(operand=target)),
            payload_pred_builder(payload),
        )

    def is_optional(i):
        return isinstance(task.acc_type.elems[i], TOpt)

    def num_lit(i, c: Fraction) -> Lit:
        ty = task.acc_type.elems[i]
        if isinstance(ty, TOpt):
            ty = ty.elem
        if isinstance(ty, TInt) and c.denominator == 1:
            return Lit(kind="int", value=int(c))
        return Lit(kind="float", value=c)

    def phi_family(k, i):
        fams = []
        kind, bound = dep.mono[i]
        if not dep.is_dep_row[i] and kind in ("inc", "dec") \
                and isinstance(bound, (int, Fraction)) and bound is not NEG_INF:
            op = ">=" if kind == "inc" else "<="
            fams.append(BinOp(op=op, left=a_ki(k, i), right=value_to_lit(bound)))
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
                    def builder(payload, _cmps=cmps, _i=i):
                        return _or_chain(
                            [_replace_someval(c, _i, payload) for c in _cmps])

                    fams.append(guarded(k, i, builder))
                else:
                    fams.append(_subst_acc_var(_or_chain(cmps), f"a{k}"))
            if kind in ("inc", "dec") and eq_consts:
                op = ">=" if kind == "inc" else "<="
                for c in sorted(eq_consts):
                    if is_optional(i):
                        fams.append(guarded(
                            k, i,
                            lambda payload, _op=op, _c=c, _i=i: BinOp(
                                op=_op, left=payload, right=num_lit(_i, _c)
                            ),
                        ))
                    else:
                        fams.append(BinOp(op=op, left=a_ki(k, i),
                                          right=num_lit(i, c)))
        if _is_sentinel(task.init_values[i]):
            fams.append(mk_eq(a_ki(k, i), value_to_lit(task.init_values[i])))
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
        """The typed antecedent sides of `phi => c` and `not phi => c`."""
        return [_typed(negate(ante), env) for ante in (phi, negate(phi))]

    def implies(neg_ante, cons):
        """`ante => cons` from the typed parts `not ante` and `cons`."""
        if is_trivially_false(cons):
            return neg_ante
        return BinOp(op="or", left=neg_ante, right=cons, ty=BOOL)

    eqs = [type_predicate(mk_eq(a_ki(1, i), a_ki(2, i)), env)
           for i in range(arity)]
    l1 = [[lit_false(), eqs[i]] for i in range(arity)]
    l2 = []
    for j in range(arity):
        init_eq = mk_eq(a_ki(2, j), value_to_lit(task.init_values[j]))
        l2.append([lit_false(), eqs[j], _typed(init_eq, env),
                   _typed(mk_not(init_eq), env)])
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
    dep: DepInfo
    dropped_q: list = field(default_factory=list)
    p_indices: tuple = ()

    def sizes(self):
        return (len(self.u_q), len(self.u_residual), len(self.u_psi))


def build_universes(task: PipelineTask) -> Universes:
    dep = infer_dep_info(task)
    u_q, dropped = build_universe_q(task, dep)
    u_residual = build_universe_residual(task)
    u_psi = build_universe_invariant(task, dep)
    p_indices = []
    for conj in task.post_conjuncts:
        expr = normalize(_typed(conj, {"a": task.acc_type}))
        atom = u_residual._by_key.get(expr_key(expr))
        if atom is not None:
            p_indices.append(atom.index)
    return Universes(
        u_q=u_q,
        u_residual=u_residual,
        u_psi=u_psi,
        dep=dep,
        dropped_q=dropped,
        p_indices=tuple(sorted(set(p_indices))),
    )
