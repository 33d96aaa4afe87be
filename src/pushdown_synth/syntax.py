"""AST nodes and types for the pipeline DSL.

Ownership: trees may share subtrees, so code that rewrites a tree builds new
nodes (`map_children`) and never assigns into the nodes it walks. The only
writer of an existing node is the type annotator (`typecheck._Checker`, which
sets `ty` and wraps `CoerceSome` around operands), and it writes only to a
tree it owns: one it built, or a copy of a tree that may be shared.
Universe atoms may share typed parts with each other, so nothing writes to
an atom's nodes once its universe is built.

The evaluator reads `ty` too: `interp.compiled` picks each comparison,
index and arithmetic closure from the operands' static types, and caches
the result per root node without ever re-specialising it. So a node's `ty`
must be final before the first `interp.compiled` call on any tree that holds
it, and a node without a `ty` is evaluated by the generic, untyped path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional as Opt


@dataclass(frozen=True)
class Span:
    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}"


NO_SPAN = Span(0, 0)


# ---------------------------------------------------------------------------
# Types


class Type:
    pass


@dataclass(frozen=True)
class TBool(Type):
    def __str__(self):
        return "bool"


@dataclass(frozen=True)
class TInt(Type):
    def __str__(self):
        return "int"


@dataclass(frozen=True)
class TFloat(Type):
    def __str__(self):
        return "float"


@dataclass(frozen=True)
class TStr(Type):
    def __str__(self):
        return "str"


@dataclass(frozen=True)
class TList(Type):
    elem: Type

    def __str__(self):
        return f"List[{self.elem}]"


@dataclass(frozen=True)
class TOpt(Type):
    elem: Type

    def __str__(self):
        return f"Optional[{self.elem}]"


@dataclass(frozen=True)
class TTuple(Type):
    elems: tuple

    def __str__(self):
        inner = ", ".join(str(t) for t in self.elems)
        return f"({inner},)" if len(self.elems) == 1 else f"({inner})"


@dataclass(frozen=True)
class TVar(Type):
    uid: int

    def __str__(self):
        return f"?{self.uid}"


BOOL = TBool()
INT = TInt()
FLOAT = TFloat()
STR = TStr()


# ---------------------------------------------------------------------------
# Expressions

_node_counter = 0


@dataclass(eq=False)
class Expr:
    span: Span = field(default=NO_SPAN, repr=False)
    ty: Opt[Type] = field(default=None, repr=False)


@dataclass(eq=False)
class Lit(Expr):
    # kind: int | float | bool | str | none | neginf
    kind: str = "int"
    value: object = 0


@dataclass(eq=False)
class Name(Expr):
    ident: str = ""


@dataclass(eq=False)
class BinOp(Expr):
    op: str = "+"
    left: Expr = None
    right: Expr = None


@dataclass(eq=False)
class Not(Expr):
    operand: Expr = None


@dataclass(eq=False)
class TypeTuple(Expr):
    types: tuple = ()


@dataclass(eq=False)
class TupleExpr(Expr):
    items: list = field(default_factory=list)


@dataclass(eq=False)
class ListExpr(Expr):
    items: list = field(default_factory=list)


@dataclass(eq=False)
class Index(Expr):
    base: Expr = None
    index: int = 0


@dataclass(eq=False)
class SliceFrom(Expr):
    base: Expr = None
    start: int = 0


@dataclass(eq=False)
class Insert(Expr):
    target: Expr = None
    item: Expr = None


@dataclass(eq=False)
class Cond(Expr):
    then: Expr = None
    test: Expr = None
    other: Expr = None


@dataclass(eq=False)
class Case:
    pattern: Opt[str]  # None for `case None`, else binder identifier
    body: Expr = None
    span: Span = NO_SPAN


@dataclass(eq=False)
class Match(Expr):
    scrutinee: Expr = None
    cases: list = field(default_factory=list)


@dataclass(eq=False)
class Lambda(Expr):
    params: list = field(default_factory=list)
    body: Expr = None
    is_fix: bool = False


@dataclass(eq=False)
class Fold(Expr):
    source: Expr = None
    init: Expr = None
    fn: Lambda = None


@dataclass(eq=False)
class Filter(Expr):
    source: Expr = None
    fn: Lambda = None


@dataclass(eq=False)
class CoerceSome(Expr):
    """Implicit T -> Optional[T] coercion; invisible in surface syntax."""

    operand: Expr = None


@dataclass(eq=False)
class SomeVal(Expr):
    """Payload projection of an Optional; produced by match compilation only."""

    operand: Expr = None


@dataclass(eq=False)
class IsNone(Expr):
    """Null test; produced by match compilation only."""

    operand: Expr = None


@dataclass(eq=False)
class Stmt:
    name: str
    expr: Expr
    annot: Opt[TTuple] = None
    span: Span = NO_SPAN


@dataclass(eq=False)
class Program:
    stmts: list
    source: str = ""


COMPARISONS = ("==", ">=", ">", "<=", "<")
ARITH = ("+", "-", "*", "/")


def structurally_equal(a, b) -> bool:
    """AST equality ignoring spans and inferred types."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Lit):
        if a.kind != b.kind:
            return False
        if a.kind in ("int", "float"):
            return Fraction(a.value) == Fraction(b.value)
        return a.value == b.value
    if isinstance(a, Name):
        return a.ident == b.ident
    if isinstance(a, BinOp):
        return (
            a.op == b.op
            and structurally_equal(a.left, b.left)
            and structurally_equal(a.right, b.right)
        )
    if isinstance(a, Not):
        return structurally_equal(a.operand, b.operand)
    if isinstance(a, TypeTuple):
        return a.types == b.types
    if isinstance(a, (TupleExpr, ListExpr)):
        return len(a.items) == len(b.items) and all(
            structurally_equal(x, y) for x, y in zip(a.items, b.items)
        )
    if isinstance(a, Index):
        return a.index == b.index and structurally_equal(a.base, b.base)
    if isinstance(a, SliceFrom):
        return a.start == b.start and structurally_equal(a.base, b.base)
    if isinstance(a, Insert):
        return structurally_equal(a.target, b.target) and structurally_equal(
            a.item, b.item
        )
    if isinstance(a, Cond):
        return (
            structurally_equal(a.then, b.then)
            and structurally_equal(a.test, b.test)
            and structurally_equal(a.other, b.other)
        )
    if isinstance(a, Match):
        if len(a.cases) != len(b.cases):
            return False
        if not structurally_equal(a.scrutinee, b.scrutinee):
            return False
        return all(
            ca.pattern == cb.pattern and structurally_equal(ca.body, cb.body)
            for ca, cb in zip(a.cases, b.cases)
        )
    if isinstance(a, Lambda):
        return (
            a.params == b.params
            and a.is_fix == b.is_fix
            and structurally_equal(a.body, b.body)
        )
    if isinstance(a, Fold):
        return (
            structurally_equal(a.source, b.source)
            and structurally_equal(a.init, b.init)
            and structurally_equal(a.fn, b.fn)
        )
    if isinstance(a, Filter):
        return structurally_equal(a.source, b.source) and structurally_equal(
            a.fn, b.fn
        )
    if isinstance(a, (CoerceSome, SomeVal, IsNone)):
        return structurally_equal(a.operand, b.operand)
    raise TypeError(f"unknown node {type(a)}")


_CHILD_FIELDS = {
    BinOp: ("left", "right"),
    Not: ("operand",),
    CoerceSome: ("operand",),
    SomeVal: ("operand",),
    IsNone: ("operand",),
    Index: ("base",),
    SliceFrom: ("base",),
    Insert: ("target", "item"),
    Cond: ("then", "test", "other"),
    Lambda: ("body",),
    Fold: ("source", "init", "fn"),
    Filter: ("source", "fn"),
}


def children(e) -> list:
    """The child expressions of `e` in field order; a Match's case bodies
    follow its scrutinee."""
    if isinstance(e, (TupleExpr, ListExpr)):
        return list(e.items)
    if isinstance(e, Match):
        return [e.scrutinee] + [c.body for c in e.cases]
    return [getattr(e, f) for f in _CHILD_FIELDS.get(type(e), ())]


def map_children(e, fn):
    """`e` with `fn` applied to each child; `e` itself when `fn` returns every
    child unchanged, else a new node that keeps `span` and `ty`."""
    if isinstance(e, (TupleExpr, ListExpr)):
        items = [fn(x) for x in e.items]
        return e if _same(items, e.items) else replace(e, items=items)
    if isinstance(e, Match):
        return rebuild_match(e, fn(e.scrutinee), [fn(c.body) for c in e.cases])
    changed = {}
    for f in _CHILD_FIELDS.get(type(e), ()):
        old = getattr(e, f)
        new = fn(old)
        if new is not old:
            changed[f] = new
    return replace(e, **changed) if changed else e


def rebuild_match(m: Match, scrutinee, bodies) -> Match:
    """`m` with a new scrutinee and case bodies; `m` itself when none changed.

    For rewriters whose treatment of a case body depends on its binder."""
    if scrutinee is m.scrutinee and _same(bodies, [c.body for c in m.cases]):
        return m
    cases = [c if b is c.body else replace(c, body=b)
             for c, b in zip(m.cases, bodies)]
    return replace(m, scrutinee=scrutinee, cases=cases)


def _same(new, old) -> bool:
    return all(a is b for a, b in zip(new, old))


def walk(expr):
    """Yield every node of the expression tree, preorder."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        yield node
        stack += children(node)
