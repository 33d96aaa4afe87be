"""Concrete evaluator for DSL expressions, folds, and Lift semantics.

Each typed root is compiled once into a generated Python function: node
dispatch, literal conversion and the choice of operator happen while the
source text is built, so a call runs straight-line bytecode with no
interpreter frame per node. The source names only generated identifiers;
every constant, string labels included, lives in the function's globals, so
no DSL text ever reaches `compile()`.

A root's code follows its static types (type-specialised nodes after
Würthinger et al., Onward! 2013). Two ints combine and compare through
Python's own operators. Numbers are exact: an `int` value is an int, and a
`float` value is a `Fraction` or the -inf sentinel. That is the evaluator's
contract, and every producer of values keeps it (literals, the fuzzer's
pools, decoded models and arithmetic on them). Where a `float` may appear the
generated code works on the integer parts, read from a `Fraction`'s own
slots, `_numerator` and `_denominator`, not through its properties:

- `<`, `<=`, `>` and `>=` compare cross-multiplied parts,
  `x._numerator * y._denominator < y._numerator * x._denominator`;
- `+`, `-` and `*` with a float literal build
  `Fraction(numerator, denominator)` from them, a `Fraction` exactly when
  Python's operator would give one, since the literal is one.

Such arithmetic read by another rational form stays unboxed (Leroy, POPL
1992): its literals are folded when the source is built, so `x * 0.9 + 1.0
> y` compares `(x._numerator * 9 + x._denominator * 10) * y._denominator`
with `y._numerator * x._denominator * 10` and builds no `Fraction`. A value
is boxed only where it escapes, into a tuple, a result or any other node.
A value that breaks the contract (an int, a bool or a Python float whose
parts a `float` leaf reads) has no slots: each generated function turns the
`AttributeError` into an `EvalError`, at no cost per row.

A literal operand's parts are ints fixed when the source is built. Any other
operand is first tested with `is` for UNDEF (only in a root that holds a
`SomeVal`) and for -inf, on which a comparison is decided by the value
domain's order and arithmetic raises. `==`, `/` and arithmetic between two
non-literal numbers keep Python's operators or their helpers.

A `Some` is allocated inline, `(_put(t := _new(_Some), x) or t)`: a bare
`object.__new__` instance, its `value` slot set by the slot's own setter,
with no call of the dataclass's `__init__`. It equals `Some(x)` in type,
`==`, hash and repr, and stays frozen.

A `match` on a pure read, a local or a constant index of a tuple-typed
local, tests it once per root (dominator-based value numbering; Click, PLDI
1995). Such a scrutinee is keyed by `(local, index)`, not by its source
text, in which every constant has a name of its own. A later match on the
same key that an earlier one dominates, one whose evaluation is certain to
come after the earlier one's, reuses its `_s`/`_b` locals as `(none_body
if _s is _NONE else bind_body)`, with no `isinstance`, payload read or
raise, since the earlier test has already raised on a value that is
neither. What a root knows holds to its end, or to the end of a split-off
function, and never leaves a `Cond` or `match` branch.

`and` and `or` evaluate their left operand first. In a root without a
`SomeVal`, a total right operand, one that cannot raise on values that keep
the contract, runs only if the left one does not decide (Python's `or` and
`and`): a value that breaks the contract in a skipped operand is not read.
Any other right operand runs either way, and its error is raised.

`eval_fold` and `filter_rows` each run one generated loop over the rows,
with the fold step or the conjunction of the row predicates inlined in its
body (per-row code fused into the loop, as in data-centric query compilation;
Neumann, VLDB 2011); `lift_eval` runs one generated conjunction. A loop keeps
its tuples in registers: each column a root reads is a local bound once per
row, the row is copied only for a root that reads it whole, and each field
of a tuple-typed accumulator is a local that the step assigns, the tuple
built only where it escapes (the result, a whole read, a comparison).
`frame_judge` fuses a whole comparison of two pipelines the same way: its
`judge` function folds the original and the `Q`-filtered accumulators in one
loop, `Q` inlined, then tests `P` and `P'` and compares the lifted
results. `truth` reads a whole universe in one call: bit k of its result is
the truth of atom k, so the synthesizer's atom sets are ints.

Generated functions are cached per root. Their compiled code is shared per
source text, in a bounded cache: roots that differ only in their constants,
such as `x + 1 > 2` and `x + 3 > 4`, generate the same source, and a process
that evaluates a task again reuses its code. Each reuse renames the code to
its own generation's `<dsl line:col #n>`, under which its source is in
`linecache` while its roots live."""

from __future__ import annotations

import itertools
import linecache
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from types import CodeType

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


# The shapes of generated function, each the first part of a `_COMPILED` key
_EXPR = "expr"      # (*values) -> the root's value, names bound as `_TRUTH`'s
_FOLD = "fold"      # (rows, a, width) -> the root folded over the rows from a
_FILTER = "filter"  # (rows, width) -> the rows on which every root holds
_TEST = "test"      # a -> whether every root holds
# (rows, width, init) -> whether the lifted original and rewritten pipelines
# differ on the rows; the roots are the fold step, then the groups `Q`, `P`
# and `P'`
_JUDGE = "judge"
# (want, *values) -> the int whose bit k is set when bit k of `want` is and
# root k holds on the values (bound to the names the groups give), the
# wanted roots read in ascending order
_TRUTH = "truth"

# (shape, the shape's groups if it takes any, id of each root) -> generated
# function. An entry leaves with any of its roots (`weakref.finalize`), so no
# id is reused while it is cached.
_COMPILED = {}


def eval_expr(expr: Expr, env: dict) -> Value:
    """The value of `expr` with its names bound to `env`'s values. Nothing
    under `src/` calls it: it is the evaluator tests' entry, the one shape
    whose names the caller chooses, each key order a kernel of its own."""
    return _kernel(_EXPR, expr, groups=tuple(env))(*env.values())


def _kernel(shape, *roots, groups=()):
    """The generated function of the given shape over `roots`, which
    `groups` splits into runs of the given sizes where the shape takes
    several (the expr and truth shapes' groups name their parameters). A
    name the shape does not bind is unbound."""
    key = (shape, *groups, *map(id, roots))
    fn = _COMPILED.get(key)
    if fn is None:
        fn = _COMPILED[key] = _Generator(shape, roots, groups).function()
        for root in roots:
            weakref.finalize(root, _COMPILED.pop, key, None).atexit = False
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


_NEG_INF_ARITH = "arithmetic on -inf"


def _finite(arith):
    def checked(lhs, rhs):
        if lhs is NEG_INF or rhs is NEG_INF:
            raise EvalError(_NEG_INF_ARITH)
        return arith(lhs, rhs)
    return checked


# the order on numbers, -inf included
_ORDER = {"<": num_lt, "<=": num_le, ">": _num_gt, ">=": _num_ge}
_COMPARE = {"==": values_equal, **_ORDER}
_FINITE = {op: _finite(_div if op == "/" else OPERATORS[op])
           for op in ("+", "-", "*", "/")}
_NUMBER = (TInt, TFloat)


def _static_type(expr: Expr):
    """The checker's type of `expr`; an unannotated literal's follows from
    its kind. None when unknown."""
    if expr.ty is None and isinstance(expr, Lit):
        return LITERAL_TYPES.get(expr.kind)
    return expr.ty


def _literal(expr: Expr):
    """The exact value of an int or float literal, as a `Fraction`; else
    None."""
    if isinstance(expr, Lit) and expr.kind in ("int", "float"):
        return Fraction(LITERALS[expr.kind](expr.value))
    return None


def _rational(expr: BinOp) -> bool:
    """Whether `expr` takes a rational form: an order comparison of two
    numbers not both int, or `+`, `-`, `*` of a number and a float
    literal."""
    lt, rt = _static_type(expr.left), _static_type(expr.right)
    if not (isinstance(lt, _NUMBER) and isinstance(rt, _NUMBER)):
        return False
    if expr.op in _ORDER:
        return not (isinstance(lt, TInt) and isinstance(rt, TInt))
    return expr.op in ("+", "-", "*") and any(
        isinstance(e, Lit) and e.kind == "float"
        for e in (expr.left, expr.right))


def _affine(expr: Expr):
    """`expr` as `(leaf, p, q)`: its value is `p * leaf + q`, for exact `p`
    and `q`. A rational arithmetic form, nested to any depth, has one
    operand at most that is not a literal, its leaf (None if none); any
    other expression is its own leaf, with `p = 1` and `q = 0`."""
    steps = []
    while (isinstance(expr, BinOp) and expr.op not in _ORDER
           and _rational(expr)):
        c = _literal(expr.right)
        if c is not None:
            steps.append((expr.op, c, False))
            expr = expr.left
        else:
            steps.append((expr.op, _literal(expr.left), True))
            expr = expr.right
    c = _literal(expr)
    leaf, p, q = (expr, Fraction(1), Fraction(0)) if c is None else \
        (None, Fraction(0), c)
    for op, c, on_left in reversed(steps):
        if op == "+":
            q += c
        elif op == "-":
            p, q = (-p, c - q) if on_left else (p, q - c)
        else:
            p, q = p * c, q * c
    return leaf, p, q


def _pair(op, left: Expr, right: Expr):
    """How two defined operands of `op` outside the rational forms combine,
    as `(native, helper)`: the Python operator or the helper function."""
    lt, rt = _static_type(left), _static_type(right)
    ints = isinstance(lt, TInt) and isinstance(rt, TInt)
    nums = isinstance(lt, _NUMBER) and isinstance(rt, _NUMBER)
    # an int is never -inf (the `-inf` literal is a float), and `==` needs
    # no -inf check: -inf is a singleton equal only to itself
    if op in _COMPARE:
        if ints or (nums and op == "=="):
            return op, None
        if op == "==" and isinstance(lt, (TStr, TBool)) and lt == rt:
            return op, None
        return None, _COMPARE[op]
    if ints and op in ("+", "-", "*"):
        return op, None
    return None, _FINITE[op]


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


# `_new` and `_put` build a `Some` without its `__init__`: a bare instance,
# then its value set by the slot's own descriptor, which the frozen
# `__setattr__` does not guard
_RUNTIME = {"_U": UNDEF, "_NONE": NONE, "_NI": NEG_INF, "_Some": Some,
            "_new": object.__new__, "_put": Some.__dict__["value"].__set__,
            "_Fraction": Fraction, "_fail": _fail, "_index": _index,
            "_suffix": _suffix, "_insert": _insert,
            "_values_equal": values_equal}

_BAD_ROW = "row does not conform to schema"
_NOT_FLOAT = "a float value is not a Fraction or -inf"
_UNDEFINED_ATOM = "atom is undefined under the given assignment"

_SPLIT_DEPTH = 24  # tree levels per generated function; see `_Generator.emit`
_SERIAL = itertools.count(1)


@lru_cache(maxsize=64)
def _code(source):
    """The compiled code of a generated source. The source names each
    constant by a generated identifier, bound in the namespace of the
    generation that runs it, so roots that differ only in constants share
    it."""
    return compile(source, "<dsl>", "exec")


def _renamed(code, filename):
    """`code` and every function code nested in it, named `filename`."""
    return code.replace(co_filename=filename, co_consts=tuple(
        _renamed(c, filename) if isinstance(c, CodeType) else c
        for c in code.co_consts))


class _Generator:
    """Builds and compiles the source of one generated function.

    Every DSL name resolves through `scope` (identifier -> Python local);
    the shape's parameters and each `match` binder get fresh locals, so a
    rebound binder shadows exactly as a nested environment would. `guard`
    says whether the root being emitted contains a `SomeVal`; without one
    no operand is ever UNDEF and no check is emitted. Operands that must be
    tested after evaluation go through walrus temporaries. Both operands of
    every binary node are evaluated, left first, but for the total right
    operands `connective` skips. In a row loop `r` is `_row`: a typed read
    `r[k]` is column k's local (`columns`), or `_row[k]` in a split-off,
    and a whole read copies the row. An accumulator with fields (`step`)
    reads `a[i]` as field i's local and a whole `a` as their tuple."""

    def __init__(self, shape, roots, groups=()):
        self.shape, self.roots, self.groups = shape, roots, groups
        self.guard = False
        self.namespace = dict(_RUNTIME)
        self.defs = []
        self.pending = []  # split-off subtrees: (name, args, expr, scope, guard)
        # scrutinee key -> (`_s` local, `_b` local) of each match whose test
        # has run; see `match`
        self.tested = {}
        self.columns = {}  # column index -> its local; None in split-offs
        self.fields = {}   # accumulator local -> its field locals
        self.may_raise = False  # whether emitted code may raise; `connective`
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
        args, lines = getattr(self, f"{self.shape}_shape")()
        self.define("_dsl", args, lines)
        self.columns = None
        while self.pending:
            name, args, expr, scope, self.guard = self.pending.pop()
            self.tested = {}
            self.define(name, args, [f"return {self.emit(expr, scope, 0)}"])
        source = "".join(self.defs)
        span = f"{self.roots[0].span} " if self.roots else ""
        filename = f"<dsl {span}#{next(_SERIAL)}>"
        exec(_renamed(_code(source), filename), self.namespace)
        # the source stays readable to tracebacks and profilers while the
        # roots live
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(True), filename)
        for root in self.roots:
            weakref.finalize(root, linecache.cache.pop, filename,
                             None).atexit = False
        return self.namespace.pop("_dsl")

    def define(self, name, args, lines):
        """A function of the given body that raises `EvalError` for a value
        without the slots a float leaf reads; nothing else in generated code
        raises `AttributeError`. The handler costs nothing per row."""
        body = "".join(f"        {line}\n" for line in lines)
        self.defs.append(f"def {name}({', '.join(args)}):\n    try:\n{body}"
                         f"    except AttributeError:\n"
                         f"        {self.fail(_NOT_FLOAT)}\n")

    # The shapes: each returns the parameters and body lines of `_dsl`.
    def expr_shape(self):
        (root,) = self.roots
        params = [self.fresh("_p") for _ in self.groups]
        scope = dict(zip(self.groups, params))
        return params, [f"return {self.root(root, scope)}"]

    def fold_shape(self):
        (root,) = self.roots
        a = self.fresh("_p")
        step = self.step_root(root, a)
        return ["_rows", "_init", "_width"], [
            self.assign(a, "_init"), *self.row_loop(step),
            f"return {self.whole(a)}"]

    def filter_shape(self):
        test = self.conjunction({"r": "_row"})
        return ["_rows", "_width"], [
            "_kept = []",
            *self.row_loop([f"if {test}:", "    _kept.append(_row)"]),
            "return _kept"]

    def test_shape(self):
        a = self.fresh("_p")
        return [a], [f"return {self.conjunction({'a': a})}"]

    def judge_shape(self):
        """One loop folds the original accumulator `a` over every row and,
        over the rows `Q` keeps, the rewritten one `b`: `b` is `a` while
        every row so far was kept, and steps itself after the first dropped
        row. Then `P` is tested on `a`, `P'` on `b` if some row was kept,
        and the two lifted results are compared as `LiftResult`s are."""
        step, *rest = self.roots
        n_q, n_p = self.groups
        q, p, res = rest[:n_q], rest[n_q:n_q + n_p], rest[n_q + n_p:]
        a, b = self.fresh("_p"), self.fresh("_p")
        stepped = self.step_root(step, a)
        kept = self.conjunction({"r": "_row"}, q)
        own = self.step_root(step, b)
        body = [*stepped, f"if {kept}:",
                "    if _prefix:", f"        {self.assign(b, self.whole(a))}",
                "    else:", *_indent(own, 2),
                "    _any = True",
                "else:", "    _prefix = False"]
        return ["_rows", "_width", "_init"], [
            "if not _rows:", "    return False",
            self.assign(a, "_init"), self.assign(b, "_init"),
            "_prefix = True", "_any = False",
            *self.row_loop(body),
            f"_lhs = not not ({self.conjunction({'a': a}, p)})",
            f"_rhs = _any and not not ({self.conjunction({'a': b}, res)})",
            "if _lhs and _rhs:",
            f"    return not _values_equal({self.whole(a)}, {self.whole(b)})",
            "return _lhs is not _rhs"]

    def truth_shape(self):
        params = [self.fresh("_p") for _ in self.groups]
        scope = dict(zip(self.groups, params))
        lines = ["_mask = 0"]
        for k, root in enumerate(self.roots):
            lines += [f"if _want & {1 << k} and "
                      f"{self.conjunction(scope, [root])}:",
                      f"    _mask |= {1 << k}"]
        return ["_want", *params], [*lines, "return _mask"]

    def row_loop(self, body):
        """A loop over the rows of `_rows` that checks each row's width,
        binds each column the roots read to its local (`columns`) and runs
        `body`, the lines of those roots."""
        return ["for _row in _rows:", "    if len(_row) != _width:",
                f"        {self.fail(_BAD_ROW)}",
                *(f"    {c} = _row[{self.const(k)}]"
                  for k, c in self.columns.items()),
                *_indent(body)]

    def root(self, expr: Expr, scope: dict) -> str:
        """The source of one root, with `guard` set for it and no scrutinee
        tested yet."""
        self.guard = any(isinstance(node, SomeVal) for node in walk(expr))
        self.tested = {}
        return self.emit(expr, scope, 0)

    def step_root(self, expr: Expr, a) -> list:
        """The lines of the fold step `expr` on `a` in a row loop, set up as
        `root` sets up a root. A step without a `SomeVal` whose tuple type
        is the one it reads `a` at keeps each field of `a` in a local
        (`fields`) across the loop; one walk decides both."""
        nodes = list(walk(expr))
        self.guard = any(isinstance(node, SomeVal) for node in nodes)
        self.tested = {}
        reads = [n.ty for n in nodes if isinstance(n, Name) and n.ident == "a"]
        if not self.guard and isinstance(expr.ty, TTuple) and reads and \
                all(ty == expr.ty for ty in reads) and a not in self.fields:
            self.fields[a] = [self.fresh("_v") for _ in expr.ty.elems]
        return self.step(expr, {"a": a, "r": "_row"}, 0)

    def step(self, expr: Expr, scope: dict, depth: int) -> list:
        """The lines that set the accumulator `a` of `scope` to the value of
        the fold step `expr`. When `a` has fields, a tuple literal assigns
        those whose value changes, a `Cond` becomes `if`/`else`, the bare
        `a` assigns nothing, and any other form is evaluated and unpacked;
        a `Cond` or tuple literal `_SPLIT_DEPTH` levels down is such another
        form, which `emit` splits off."""
        a = scope["a"]
        fields = self.fields.get(a)
        if fields is None:
            return [f"{a} = {self.emit(expr, scope, depth)}"]
        if isinstance(expr, Name) and scope.get(expr.ident) == a:
            return []
        if depth < _SPLIT_DEPTH and isinstance(expr, Cond):
            test = self.emit(expr.test, scope, depth + 1)
            then, other = (self.branch(e, scope, depth + 1, self.step)
                           for e in (expr.then, expr.other))
            return [f"if {test}:", *_indent(then or ["pass"]),
                    *(["else:", *_indent(other)] if other else [])]
        if depth < _SPLIT_DEPTH and isinstance(expr, TupleExpr):
            items = [self.emit(e, scope, depth + 1) for e in expr.items]
            changed = [(f, v) for f, v in zip(fields, items) if f != v]
            return [f"{', '.join(f for f, _ in changed)} = "
                    f"{', '.join(v for _, v in changed)}"] if changed else []
        return [self.assign(a, self.emit(expr, scope, depth))]

    def assign(self, a, value) -> str:
        """The statement that sets the accumulator `a` to the source
        `value`: field by field when it has fields."""
        fields = self.fields.get(a)  # as targets: the display's inside
        return f"{a if fields is None else _tuple(fields)[1:-1]} = {value}"

    def whole(self, a) -> str:
        """The source of the accumulator `a` as one value."""
        fields = self.fields.get(a)
        return a if fields is None else _tuple(fields)

    def conjunction(self, scope, roots=None) -> str:
        """The roots (by default all of them) joined by Python's `and`:
        evaluated left to right up to the first that fails. A root that may
        be UNDEF raises on it."""
        terms = []
        for expr in self.roots if roots is None else roots:
            term = self.root(expr, scope)
            if self.guard:
                t = self.fresh("_t")
                term = (f"{self.fail(_UNDEFINED_ATOM)} if ({t} := {term}) "
                        f"is _U else {t}")
            terms.append(f"({term})")
        return " and ".join(terms) or "True"

    def emit(self, expr: Expr, scope: dict, depth: int) -> str:
        """The source of `expr`. A subtree `_SPLIT_DEPTH` levels down becomes
        a function of its own, called with the locals in scope (field locals
        for an accumulator's) and generated after the current one: bodies
        stay inside CPython's nesting limits, generation recurses no deeper."""
        if depth == _SPLIT_DEPTH:
            name = self.fresh("_f")
            args = sorted({local for v in scope.values()
                           for local in self.fields.get(v, (v,))})
            self.pending.append((name, args, expr, scope, self.guard))
            self.may_raise = True
            return f"{name}({', '.join(args)})"
        return self.node(expr, scope, depth + 1)

    def node(self, expr: Expr, scope: dict, depth: int) -> str:
        guard = self.guard
        if isinstance(expr, Lit):
            convert = LITERALS.get(expr.kind)
            if convert is None:
                self.may_raise = True
                return self.fail(f"bad literal kind {expr.kind}")
            return self.const(convert(expr.value))
        if isinstance(expr, Name):
            local = scope.get(expr.ident)
            if local is None:
                self.may_raise = True
                return self.fail(f"unbound name {expr.ident!r} at {expr.span}")
            if local in self.fields:
                return _tuple(self.fields[local])
            return "tuple(_row)" if local == "_row" else local
        if isinstance(expr, Not):
            operand = self.emit(expr.operand, scope, depth)
            if not guard:
                return f"(not {operand})"
            t = self.fresh("_t")
            return f"(_U if ({t} := {operand}) is _U else not {t})"
        if isinstance(expr, BinOp):
            if expr.op in ("and", "or"):
                return self.connective(expr, scope, depth)
            if _rational(expr):
                return self.rational(expr, scope, depth)
            return self.binop(expr, scope, depth)
        if isinstance(expr, Cond):
            test = self.emit(expr.test, scope, depth)
            then = self.branch(expr.then, scope, depth)
            other = self.branch(expr.other, scope, depth)
            if not guard:
                return f"({then} if {test} else {other})"
            t = self.fresh("_t")
            return (f"(_U if ({t} := {test}) is _U else "
                    f"({then} if {t} else {other}))")
        if isinstance(expr, Match):
            return self.match(expr, scope, depth)
        if isinstance(expr, TupleExpr):
            return _tuple([self.emit(e, scope, depth) for e in expr.items])
        if isinstance(expr, ListExpr):
            items = [self.emit(e, scope, depth) for e in expr.items]
            return f"[{', '.join(items)}]"
        if isinstance(expr, Index):
            # a tuple-typed base is indexed directly (the checker bounds the
            # index) unless it may be UNDEF; a name never is. A name's field
            # or column is read from its local.
            tupled = isinstance(expr.base.ty, TTuple)
            local = scope.get(expr.base.ident) \
                if tupled and isinstance(expr.base, Name) else None
            if local in self.fields:
                return self.fields[local][expr.index]
            if local == "_row" and self.columns is not None:
                if expr.index not in self.columns:
                    self.columns[expr.index] = self.fresh("_c")
                return self.columns[expr.index]
            base = "_row" if local == "_row" else \
                self.emit(expr.base, scope, depth)
            i = self.const(expr.index)
            if tupled and (not guard or isinstance(expr.base, Name)):
                return f"{base}[{i}]"
            self.may_raise = True
            return f"_index({base}, {i})"
        if isinstance(expr, SliceFrom):
            base = self.emit(expr.base, scope, depth)
            self.may_raise = True
            return f"_suffix({base}, {self.const(expr.start)})"
        if isinstance(expr, Insert):
            target = self.emit(expr.target, scope, depth)
            item = self.emit(expr.item, scope, depth)
            self.may_raise = True
            return f"_insert({target}, {item})"
        if isinstance(expr, CoerceSome):
            t = self.fresh("_t")
            operand = self.emit(expr.operand, scope, depth)
            return f"(_put({t} := _new(_Some), {operand}) or {t})"
        if isinstance(expr, SomeVal):
            operand = self.emit(expr.operand, scope, depth)
            self.may_raise = True
            t = self.fresh("_t")
            return f"({t}.value if isinstance(({t} := {operand}), _Some) " \
                   f"else _U)"
        if isinstance(expr, IsNone):
            return f"({self.emit(expr.operand, scope, depth)} is _NONE)"
        self.may_raise = True
        return self.fail(f"cannot evaluate {type(expr).__name__}")

    def connective(self, expr: BinOp, scope, depth):
        """`and` and `or`, left operand first. In an unguarded root a total
        right operand, whose source sets no `may_raise` (arithmetic but int
        with int, `/`, a list `_index`, `_suffix` or `_insert`, `SomeVal`, a
        failing literal, an unbound name, a split-off), runs only if the
        left one does not decide: a value that breaks the contract in it
        may go unread, and its scrutinee tests dominate nothing after it.
        Any other right operand runs either way, so its error is raised."""
        bitwise = "|" if expr.op == "or" else "&"
        left = self.emit(expr.left, scope, depth)
        known, may_raise = self.tested, self.may_raise
        self.tested, self.may_raise = dict(known), False
        right = self.emit(expr.right, scope, depth)
        total, self.may_raise = not self.may_raise, self.may_raise or may_raise
        if not self.guard:
            if total:
                self.tested = known
                return f"({left} {expr.op} {right})"
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
            # the arithmetic helpers raise; the order helpers do not
            self.may_raise |= expr.op not in _COMPARE
            helper = self.const(helper)
        if self.guard:
            a, b = self.fresh("_t"), self.fresh("_t")
            pair = f"{a} {native} {b}" if helper is None else \
                f"{helper}({a}, {b})"
            return (f"(_U if (({a} := {left}) is _U) | "
                    f"(({b} := {right}) is _U) else {pair})")
        if helper is None:
            return f"({left} {native} {right})"
        return f"{helper}({left}, {right})"

    def rational(self, expr: BinOp, scope, depth):
        """An order comparison on cross-multiplied integer parts, or `+`,
        `-`, `*` as a `Fraction` of them. The form, or each operand of a
        comparison, is read as `p * leaf + q` (`_affine`): only the leaf is
        evaluated, into a temporary whose parts are read from it (`parts`),
        and its literals give the parts' known coefficients. Denominators
        are positive, so the cross-multiplied comparison is exact.

        Leaves are evaluated left first. One under arithmetic raises on
        -inf as soon as it is read; a comparison operand that is -inf
        decides by the order, now if the other side is finite, else by the
        order helper. In a guarded root an UNDEF leaf makes the result
        UNDEF once both are read."""
        order = expr.op in _ORDER
        # `at_neg_inf`: each operand's value when the one comparison operand
        # that may be -inf is; 0 stands for any finite value
        checks, plain, at_neg_inf, parts = [], [], [], []
        for operand in (expr.left, expr.right) if order else (expr,):
            leaf, p, q = _affine(operand)
            t = None if leaf is None else self.fresh("_t")
            parts.append(self.parts(t, p, q, leaf))
            at_neg_inf.append(NEG_INF if leaf is operand else 0)
            if t is None:
                continue
            bound = f"({t} := {self.emit(leaf, scope, depth)})"
            if leaf is operand:  # a comparison operand
                plain.append(t)
                checks.append(f"({bound} is {'_U' if self.guard else '_NI'})")
                continue
            # under arithmetic: False, or raises on -inf
            self.may_raise = True
            check = f"{bound} is _NI and {self.fail(_NEG_INF_ARITH)}"
            checks.append(f"({check} or {t} is _U)" if self.guard else
                          f"({check})")
        if not order:
            if not checks:  # literals only: the value is known now
                return self.const(q)
            ((n, d),) = parts
            exact = f"_Fraction({n}, {d})"
        else:
            (ln, ld), (rn, rd) = parts
            exact = f"{self.times(ln, rd)} {expr.op} {self.times(rn, ld)}"
        if not checks:
            return f"({exact})"
        checked = " | ".join(checks)
        if plain:
            on_neg_inf = (
                f"{self.const(_ORDER[expr.op])}({plain[0]}, {plain[1]})"
                if len(plain) == 2 else repr(_ORDER[expr.op](*at_neg_inf)))
        if not self.guard:
            if plain:
                return f"({on_neg_inf} if {checked} else {exact})"
            return f"({checked} or {exact})"
        if plain:
            tested = " | ".join(f"({t} is _NI)" for t in plain)
            exact = f"({on_neg_inf} if {tested} else {exact})"
        return f"(_U if {checked} else {exact})"

    def parts(self, t, p: Fraction, q: Fraction, leaf: Expr):
        """The integer numerator and denominator of `p * x + q`, each a
        known int or the source that reads it from the parts of `x`, the
        value of `leaf` bound to the local `t` (None: there is no `x`). A
        `float` leaf is a `Fraction`, whose parts are read from its slots;
        an int's are its properties. The denominator is positive, as a
        `Fraction`'s is."""
        if t is None:
            return q.numerator, q.denominator
        slot = "_" if isinstance(_static_type(leaf), TFloat) else ""
        n, d = f"{t}.{slot}numerator", f"{t}.{slot}denominator"
        scale = lcm(p.denominator, q.denominator)
        terms = [self.times(part, c.numerator * (scale // c.denominator))
                 for part, c in ((n, p), (d, q)) if c]
        if len(terms) == 2:
            return f"({terms[0]} + {terms[1]})", self.times(d, scale)
        return (terms[0] if terms else 0), self.times(d, scale)

    def times(self, x, y) -> str:
        """The source of the product of two integer parts, each a known int
        or the source that reads it; a known 1 drops out."""
        x, y = (self.const(v) if isinstance(v, int) and v != 1 else v
                for v in (x, y))
        if y == 1:
            return str(x)
        if x == 1:
            return y
        return f"{x} * {y}"

    def branch(self, expr: Expr, scope, depth, emit=None):
        """The source of a subtree that runs only on one branch of a `Cond`
        or `match`, by `emit` (by default `self.emit`): what it learns of
        the scrutinees it tests does not leave it."""
        known = self.tested
        self.tested = dict(known)
        source = (emit or self.emit)(expr, scope, depth)
        self.tested = known
        return source

    @staticmethod
    def read_key(expr: Expr, scope: dict):
        """`(local, index)` for a scrutinee that reads a constant index of a
        tuple-typed local, `(local, None)` for one that reads a local; else
        None."""
        index = None
        if isinstance(expr, Index) and isinstance(expr.base.ty, TTuple):
            expr, index = expr.base, expr.index
        local = scope.get(expr.ident) if isinstance(expr, Name) else None
        return None if local is None else (local, index)

    def match(self, expr: Match, scope, depth):
        """A test of the scrutinee for None, else for a `Some` whose payload
        the bind case's binder takes, else a raise.

        A scrutinee that is a pure read, a local or a constant index of a
        tuple-typed local, is keyed by `(local, index)` in `tested` before
        its branches are emitted: a later match on it in the same root,
        which that test dominates (its evaluation is certain to come first,
        inside a branch or after the match), reuses its `_s`/`_b` locals as
        `none_body if _s is _NONE else bind_body`, as a value that is
        neither has already raised. The facts hold until the end of the root
        or the split-off function, and never leave a branch."""
        none_case = next(c for c in expr.cases if c.pattern is None)
        bind_case = next(c for c in expr.cases if c.pattern is not None)
        key = self.read_key(expr.scrutinee, scope)
        known = self.tested.get(key)
        if known is None:
            scrutinee = self.emit(expr.scrutinee, scope, depth)
            s, binder = self.fresh("_s"), self.fresh("_b")
            if key is not None:
                self.tested[key] = s, binder
        else:
            s, binder = known
        none_body = self.branch(none_case.body, scope, depth)
        bind_body = self.branch(bind_case.body,
                                {**scope, bind_case.pattern: binder}, depth)
        if known is not None:
            return f"({none_body} if {s} is _NONE else {bind_body})"
        not_optional = self.fail("match scrutinee is not Optional")
        # `(b := payload) is b` always holds: it binds the payload before
        # the body runs
        return (f"({none_body} if ({s} := {scrutinee}) is _NONE else "
                f"({bind_body} if isinstance({s}, _Some) and "
                f"(({binder} := {s}.value) is {binder}) else {not_optional}))")


def _tuple(items):
    """The source of a tuple display of the given item sources."""
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


def _indent(lines, levels=1):
    return ["    " * levels + line for line in lines]


# the names the atoms of each universe read, in the order its kernel binds
_NAMES = {"q": ("r",), "residual": ("a",), "psi": ("a1", "a2")}


def truth(universe):
    """The `_TRUTH` function of a universe's atoms, each read as a
    predicate: an atom left UNDEF raises; generated on first use."""
    return _kernel(_TRUTH, *(atom.expr for atom in universe),
                   groups=_NAMES[universe.role])


def eval_fold(task, dataframe, start=None) -> LiftResult:
    """Left fold of the task's accumulator over the rows, from `start` (by
    default the task's initial value); empty input is Bottom."""
    if not dataframe:
        return LiftResult(BOTTOM)
    a = task.init_values if start is None else start
    return LiftResult(_kernel(_FOLD, task.f_body)(dataframe, a,
                                                  task.n_columns))


def lift_eval(pred_exprs, result: LiftResult) -> LiftResult:
    if result.is_bottom or _kernel(_TEST, *pred_exprs)(result.value):
        return result
    return LiftResult(BOTTOM)


def frame_judge(task, q_exprs, p_exprs, res_exprs):
    """The function `frame -> bool` that says whether the lifted original
    pipeline (fold, `P`) and the lifted rewritten one (`Q`, fold, `P'`)
    differ on a frame, with one generated loop over its rows.

    It makes, in another order, a subset of the pure evaluations of the
    reference judgment (`lift_eval` of `P` on `eval_fold` of the frame,
    `filter_rows` by `Q`, `lift_eval` of `P'` on `eval_fold` of the kept
    rows): the same fold steps from the same states (on a prefix of kept
    rows the rewritten fold's states are the original's, so it takes them
    over), `Q` on every row, `P` only on a frame with rows and `P'` only on
    one with a kept row; an `and` or `or` skips only a total operand, which
    raises in neither on values that keep the evaluator's contract. So when
    it returns, the reference judgment returns the same verdict; when it
    raises, the reference judgment raises too, though perhaps another
    error, and a caller that reports that error judges the frame again in
    the reference order. The function is cached per roots, so the task's
    initial accumulator and width are passed to it on each call."""
    judge = _kernel(_JUDGE, task.f_body, *q_exprs, *p_exprs, *res_exprs,
                    groups=(len(q_exprs), len(p_exprs)))
    init, width = task.init_values, task.n_columns
    return lambda frame: judge(frame, width, init)


def filter_rows(pred_exprs, dataframe, n_columns: int):
    """The rows of `dataframe`, each `n_columns` wide, on which every
    predicate holds, evaluated left to right."""
    return _kernel(_FILTER, *pred_exprs)(dataframe, n_columns)


def run_pipeline(task, dataframe) -> LiftResult:
    """Execute a typechecked pipeline (prefilters, fold, post-filter) on rows."""
    rows = dataframe
    if task.prefilters:
        rows = filter_rows(task.prefilters, rows, task.n_columns)
    result = eval_fold(task, rows)
    if task.post_pred is not None:
        result = lift_eval([task.post_pred], result)
    return result
