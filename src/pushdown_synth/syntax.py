"""AST nodes and types for the pipeline DSL.

Ownership: trees may share subtrees, so code that rewrites a tree builds new
nodes (`map_children`) and never assigns into the nodes it walks. The only
writer of an existing node is the type annotator (`typecheck._Checker`, which
sets `ty` and wraps `CoerceSome` around operands), and it writes only to a
tree it owns: one it built, or a copy of a tree that may be shared.
Universe atoms may share typed nodes with each other and with the task's
trees, so nothing writes to an atom's nodes once its universe is built, and
every atom node carries its type.

The evaluator reads `ty` too: the function `interp` generates for a root
(through `eval_fold`, `filter_rows`, `lift_eval`, `frame_judge` or `truth`)
picks each comparison, index and arithmetic operator from the operands'
static types, and is cached per root node, never re-specialised. So a node's
`ty` must be final before the first evaluation of any tree that holds it,
and a node without a `ty` is evaluated by the generic, untyped path.

Which fields of a node hold its children is written down once, in
`_CHILD_FIELDS`. Equality (`structurally_equal`), traversal (`children`,
`map_children`, `walk`) and substitution (`substitute`) all go through it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import Optional as Opt

from .values import tuple_text


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
        return tuple_text(str(t) for t in self.elems)


@dataclass(frozen=True)
class TVar(Type):
    uid: int

    def __str__(self):
        return f"?{self.uid}"


BOOL = TBool()
INT = TInt()
FLOAT = TFloat()
STR = TStr()

# literal kind -> its static type; a `none` literal's is `Optional` of a
# type the checker infers
LITERAL_TYPES = {"int": INT, "float": FLOAT, "neginf": FLOAT, "bool": BOOL,
                 "str": STR}


def type_leaves(t: Type):
    """The scalar and variable types inside `t`, through every list, option
    and tuple."""
    if isinstance(t, (TList, TOpt)):
        yield from type_leaves(t.elem)
    elif isinstance(t, TTuple):
        for e in t.elems:
            yield from type_leaves(e)
    else:
        yield t


# ---------------------------------------------------------------------------
# Expressions


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
    # list-valued: `children` and `map_children` spell these out
    TupleExpr: ("items",),
    ListExpr: ("items",),
    Match: ("scrutinee", "cases"),
}

# the fields equality compares before the children
_SCALAR_FIELDS = {
    cls: tuple(f.name for f in fields(cls)
               if f.name not in ("span", "ty", *_CHILD_FIELDS.get(cls, ())))
    for cls in Expr.__subclasses__()
}


def _scalars(e) -> list:
    if isinstance(e, Lit) and e.kind in ("int", "float"):
        return [e.kind, Fraction(e.value)]
    if isinstance(e, Match):
        return [c.pattern for c in e.cases]
    return [getattr(e, f) for f in _SCALAR_FIELDS[type(e)]]


def structurally_equal(a, b) -> bool:
    """AST equality ignoring spans and inferred types: the same node type,
    equal non-child fields (numeric literals by value, a match's case
    patterns), then the children pairwise, left to right."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        if type(a) not in _SCALAR_FIELDS:
            raise TypeError(f"unknown node {type(a)}")
        if _scalars(a) != _scalars(b):
            return False
        kids_a, kids_b = children(a), children(b)
        if len(kids_a) != len(kids_b):
            return False
        stack += zip(reversed(kids_a), reversed(kids_b))
    return True


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


def substitute(expr, mapping: dict):
    """`expr` with each free `Name` whose ident `mapping` holds replaced by
    its expression; a match case that binds the ident shadows it."""
    if not mapping:
        return expr
    if isinstance(expr, Name):
        return mapping.get(expr.ident, expr)
    if isinstance(expr, Match):
        return rebuild_match(
            expr, substitute(expr.scrutinee, mapping),
            [substitute(c.body, {k: v for k, v in mapping.items()
                                 if k != c.pattern})
             for c in expr.cases])
    return map_children(expr, lambda e: substitute(e, mapping))


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


# ---------------------------------------------------------------------------
# Concrete syntax: the tables the lexer and the parser read and the printer
# derives its precedences from.

# the binary operators by level, loosest first, with the `not` prefix at its
# own level; a comparison does not associate, the other operators associate
# to the left
COMPARISONS = ("==", ">=", ">", "<=", "<")
OPERATOR_LEVELS = (("or",), ("and",), ("not",), COMPARISONS, ("+", "-"),
                   ("*", "/"))
# a scalar type is named by its own text, a generic one by its constructor
SCALAR_TYPES = {str(t): t for t in (BOOL, INT, FLOAT, STR)}
GENERIC_TYPES = {"List": TList, "Optional": TOpt}
TYPE_KEYWORDS = {*SCALAR_TYPES, *GENERIC_TYPES}
# literal token kind -> the kind of its `Lit`, whose value is the token's
LITERAL_TOKENS = {"INT": "int", "FLOAT": "float", "NEGINF": "neginf",
                  "STRING": "str", "True": "bool", "False": "bool",
                  "None": "none"}
# keyword -> the node a call form builds; its arguments are the node's child
# fields in order, and the `fn` argument is a lambda
CALL_FORMS = {"fold": Fold, "filter": Filter, "insert": Insert}
CALL_ARGS = {cls: _CHILD_FIELDS[cls] for cls in CALL_FORMS.values()}


# ---------------------------------------------------------------------------
# Predicates: the Boolean builders and operator tables of the checker, the
# analyses and the emitter. Every node built here is a `bool`.

# each comparison and arithmetic operator on constants, numbers as Fractions
OPERATORS = {"==": operator.eq, ">=": operator.ge, ">": operator.gt,
             "<=": operator.le, "<": operator.lt, "+": operator.add,
             "-": operator.sub, "*": operator.mul, "/": operator.truediv}
# `x op y` is `not (x _NEGATED[op] y)`
_NEGATED = {">": "<=", ">=": "<", "<": ">=", "<=": ">"}
# `x op y` is `y MIRRORED[op] x`
MIRRORED = {">": "<", ">=": "<=", "<": ">", "<=": ">=", "==": "=="}


def bool_lit(value: bool) -> Lit:
    return Lit(kind="bool", value=value, ty=BOOL)


def mk_not(e: Expr) -> Not:
    return Not(operand=e, ty=BOOL)


def mk_and(*es) -> Expr:
    """`es` joined left to right by `and`; True when there are none."""
    return _chain("and", es)


def mk_or(*es) -> Expr:
    """`es` joined left to right by `or`; False when there are none."""
    return _chain("or", es)


def _chain(op, es) -> Expr:
    if not es:
        return bool_lit(op == "and")
    out = es[0]
    for e in es[1:]:
        out = BinOp(op=op, left=out, right=e, ty=BOOL)
    return out


def negate(e: Expr) -> Expr:
    """The negation of `e`, pushed through `and`/`or` and into comparisons;
    a double negation cancels."""
    if isinstance(e, Not):
        return e.operand
    if isinstance(e, Lit) and e.kind == "bool":
        return bool_lit(not e.value)
    if isinstance(e, BinOp):
        if e.op in _NEGATED:
            return BinOp(op=_NEGATED[e.op], left=e.left, right=e.right, ty=BOOL)
        if e.op in ("and", "or"):
            dual = mk_or if e.op == "and" else mk_and
            return dual(negate(e.left), negate(e.right))
    return mk_not(e)
