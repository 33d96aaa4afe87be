"""The compiled evaluator against the reference tree walker.

`interp.eval_expr` runs each expression as a function generated once;
`tree_eval.eval_expr` walks the tree. On every input below both must give
the same value (compared by `repr`, so types count too), the same UNDEF, and
the same exception with the same message. `check_kernels` does the same for
every kernel of a task; to check the tasks of further generator seeds:
`PYTHONPATH=src:. python tests/test_compiled_eval.py FIRST LAST`.
"""

import dataclasses
import gc
import itertools
import linecache
import operator
import random
import re
import sys
import traceback
import weakref
from fractions import Fraction
from types import SimpleNamespace

import pytest

from pushdown_synth import interp, values
from pushdown_synth.analysis import build_universes
from pushdown_synth.encode import TaskEncoding
from pushdown_synth.fuzz import column_pools, sample_dataframe
from pushdown_synth.parser import parse, parse_expression
from pushdown_synth.smt import parse_sexp
from pushdown_synth.syntax import (
    BOOL, FLOAT, INT, STR, BinOp, CoerceSome, Cond, Index, IsNone, Lit, Name,
    Not, SomeVal, TFloat, TList, TOpt, TTuple, TupleExpr, walk,
)
from pushdown_synth.typecheck import compile_bool, type_predicate, typecheck
from pushdown_synth.values import NEG_INF, NONE, Some

import tree_eval
from conftest import FIXTURES as FIXTURE_DIR, make_task
from perfbench.tasks import generate_frame
from test_normalize import _predicate, _rand_env

FIXTURES = ("top2", "discount", "frequent", "count_taut", "case_a", "case_b")


def _outcome(evaluate, *args):
    try:
        return "value", repr(evaluate(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _expr_kernel(expr, names):
    """The function `interp.eval_expr` runs for `expr`, its parameters bound
    to `names` in order."""
    return interp._kernel(interp._EXPR, expr, groups=tuple(names))


def assert_agree(expr, env):
    compiled = _outcome(interp.eval_expr, expr, env)
    walked = _outcome(tree_eval.eval_expr, expr, env)
    assert compiled == walked, (expr, env)


def _walk_frames(task, universes, seed, frames=30):
    """Checks every fold step on fuzzer frames; returns the rows and the fold
    states (initial state included) the frames reach."""
    rng = random.Random(seed)
    pools = column_pools(task, universes)
    rows, states = [], [task.init_values]
    for _ in range(frames):
        acc = task.init_values
        for row in sample_dataframe(rng, pools):
            env = {"a": acc, "r": tuple(row)}
            assert_agree(task.f_body, env)
            acc = tree_eval.eval_expr(task.f_body, env)
            rows.append(tuple(row))
            states.append(acc)
    return rows, states


@pytest.mark.parametrize("name", FIXTURES)
def test_compiled_agrees_with_walker_on_fixtures(name):
    task = make_task(name)
    universes = build_universes(task)
    rows, states = _walk_frames(task, universes, seed=len(name))
    assert rows
    for atom in universes.u_q:
        for row in rows:
            assert_agree(atom.expr, {"r": row})
    for atom in universes.u_residual:
        for acc in states:
            assert_agree(atom.expr, {"a": acc})
    rng = random.Random(1)
    pairs = [(rng.choice(states), rng.choice(states)) for _ in range(60)]
    pairs += [(acc, acc) for acc in states[:20]]
    for atom in universes.u_psi:
        for a1, a2 in pairs:
            assert_agree(atom.expr, {"a1": a1, "a2": a2})


def test_compiled_agrees_with_walker_on_random_predicates():
    rng = random.Random(20260808)
    for _ in range(300):
        pred = _predicate(rng, 3)
        for _ in range(10):
            assert_agree(pred, _rand_env(rng))


def _payload_gt(k):
    return BinOp(op=">", left=SomeVal(operand=Name(ident="x")),
                 right=Lit(kind="int", value=k))


def _is_none():
    return IsNone(operand=Name(ident="x"))


# Guarded payloads of an Optional `x`: on None, UNDEF propagates through
# comparisons, arithmetic and `not` (the first three), and `and`/`or` absorb
# it only when the other side decides.
UNDEF_CASES = [
    _payload_gt(3),
    BinOp(op="+", left=SomeVal(operand=Name(ident="x")),
          right=Lit(kind="int", value=1)),
    Not(operand=_payload_gt(3)),
    BinOp(op="and", left=_is_none(), right=_payload_gt(3)),
    BinOp(op="or", left=_is_none(), right=_payload_gt(3)),
    BinOp(op="and", left=Not(operand=_is_none()), right=_payload_gt(3)),
    BinOp(op="or", left=Not(operand=_is_none()), right=_payload_gt(3)),
    BinOp(op="and", left=_payload_gt(3), right=_payload_gt(9)),
]


@pytest.mark.parametrize("x", [NONE, Some(2), Some(5), Some(12)], ids=repr)
@pytest.mark.parametrize("case", range(len(UNDEF_CASES)))
def test_compiled_agrees_with_walker_on_undefined_payloads(case, x):
    expr = UNDEF_CASES[case]
    assert_agree(expr, {"x": x})
    if x is NONE and case < 3:
        assert interp.eval_expr(expr, {"x": x}) is interp.UNDEF


ERRORS = [
    ("a[0] + 1.0", {"a": (NEG_INF,)}),                    # -inf arithmetic
    ("a[0] * 2.0 > 1.0", {"a": (NEG_INF,)}),
    ("1.0 / a[0]", {"a": (Fraction(0),)}),                # division by zero
    ("2 / a[0]", {"a": (0,)}),
    ("a[0] / 2", {"a": (3,)}),                            # exact quotient
    ("y > 1", {"x": 1}),                                  # unbound name
    ("[1, 2][5]", {}),                                    # bad list index
    ("a[3]", {"a": (1, 2)}),                              # bad tuple index
    ("x[0]", {"x": 3}),                                   # not a sequence
    ("x[1:]", {"x": (1, 2)}),                             # not a list
    ("insert(x, 2)", {"x": 3}),
    ("match x: case None: 0 case v: v", {"x": 3}),        # not Optional
    ("a[0] > 1.0 or a[1] > 1.0", {"a": (Fraction(2),)}),  # both sides run
    ("a[0] > 1.0 and a[1] > 1.0", {"a": (Fraction(0),)}),
    ("-inf == a[0]", {"a": (NEG_INF,)}),
    ("a[0] >= -inf", {"a": (NEG_INF,)}),
    ("(1, -inf) == (1, -inf)", {}),
]


@pytest.mark.parametrize("source,env", ERRORS, ids=[s for s, _ in ERRORS])
def test_compiled_agrees_with_walker_on_errors_and_edges(source, env):
    assert_agree(parse_expression(source), env)


def test_compiled_form_is_cached_per_root_and_dies_with_it():
    expr = parse_expression("x + 1")
    fields = dict(vars(expr))
    fn = _expr_kernel(expr, ["x"])
    assert _expr_kernel(expr, ["x"]) is fn
    assert vars(expr) == fields  # nothing is stored on the node
    node = weakref.ref(expr)
    del expr
    gc.collect()
    assert node() is None  # the function does not keep its root alive
    assert fn(2) == 3


# Typed trees: the compiler picks each comparison from the operands' static
# types, so these run the specialised paths.

PYTHON_COMPARISONS = {"==": operator.eq, "<": operator.lt, "<=": operator.le,
                      ">": operator.gt, ">=": operator.ge}
COMPARISONS = tuple(PYTHON_COMPARISONS)


def _typed(source, **types):
    return type_predicate(parse_expression(source), types)


def _as_float(v):
    return float("-inf") if v is NEG_INF else v


@pytest.mark.parametrize("op", COMPARISONS)
def test_typed_int_comparisons(op):
    expr = _typed(f"x {op} y", x=INT, y=INT)
    for x, y in itertools.product((-3, 0, 2, 7), repeat=2):
        assert_agree(expr, {"x": x, "y": y})
        assert interp.eval_expr(expr, {"x": x, "y": y}) is \
            PYTHON_COMPARISONS[op](x, y)


@pytest.mark.parametrize("op", COMPARISONS)
def test_typed_float_comparisons_with_neg_inf(op):
    """-inf on the left, the right and both sides; the expected truth values
    come from IEEE floats, where -inf behaves as the DSL's -inf."""
    expr = _typed(f"x {op} y", x=FLOAT, y=FLOAT)
    operands = (NEG_INF, Fraction(-5, 2), Fraction(0), Fraction(7, 3))
    for x, y in itertools.product(operands, repeat=2):
        env = {"x": x, "y": y}
        assert_agree(expr, env)
        expected = PYTHON_COMPARISONS[op](_as_float(x), _as_float(y))
        assert interp.eval_expr(expr, env) is expected, env
    literal = _typed(f"-inf {op} x", x=FLOAT)
    for x in operands:
        assert_agree(literal, {"x": x})


@pytest.mark.parametrize("op", COMPARISONS)
@pytest.mark.parametrize("ty", [INT, FLOAT], ids=str)
def test_typed_comparisons_of_int_and_fraction_values(op, ty):
    """At `int` both agree with the walker. At `float` an int breaks the
    contract: an order comparison reads its `Fraction` slots and raises
    `EvalError`, and `==` compares by value."""
    expr = _typed(f"x {op} y", x=ty, y=ty)
    for x, y in [(2, Fraction(2)), (Fraction(2), 2), (1, Fraction(3, 2)),
                 (Fraction(3, 2), 1)]:
        if ty == FLOAT and op != "==":
            with pytest.raises(values.EvalError, match=interp._NOT_FLOAT):
                interp.eval_expr(expr, {"x": x, "y": y})
        else:
            assert_agree(expr, {"x": x, "y": y})


@pytest.mark.parametrize("ty,operands", [
    (STR, ("time", "price", "")), (BOOL, (True, False)),
], ids=["str", "bool"])
def test_typed_str_and_bool_equality(ty, operands):
    expr = _typed("x == y", x=ty, y=ty)
    for x, y in itertools.product(operands, repeat=2):
        assert_agree(expr, {"x": x, "y": y})


@pytest.mark.parametrize("source,env", [
    ("r[1] > 2 and r[0] == \"a\"", {"r": ("a", 3)}),
    ("r[1] > 2", {"a": ("a", 3)}),                    # unbound tuple name
    ("(r[1], 1)[0] + r[1] * 2 == 9", {"r": ("a", 3)}),
], ids=["fields", "unbound", "tuple-literal"])
def test_typed_tuple_indexing(source, env):
    assert_agree(_typed(source, r=TTuple((STR, INT))), env)


MATCH = "match x: case None: y > 3 case v: v > y and not v == 9"


def test_guarded_root_from_a_lowered_match():
    """`compile_bool` lowers the match to a tree with `SomeVal` payloads, so
    its root keeps the UNDEF guards; on None the payload side is UNDEF and
    `or` absorbs it."""
    lowered = compile_bool(_typed(MATCH, x=TOpt(INT), y=INT))
    assert any(isinstance(node, SomeVal) for node in walk(lowered))
    for x, y in itertools.product([NONE, Some(2), Some(9), Some(12)],
                                  (1, 5)):
        assert_agree(lowered, {"x": x, "y": y})
    assert interp.eval_expr(lowered, {"x": NONE, "y": 5}) is True


def test_untyped_comparison_takes_the_generic_path():
    """Without types `==` is the value domain's: a bool never equals an int,
    although Python's `True == 1` holds."""
    expr = BinOp(op="==", left=Name(ident="x"), right=Name(ident="y"))
    assert expr.ty is None and expr.left.ty is None
    for x, y in [(True, 1), (0, False), (NEG_INF, NEG_INF), (Some(1), 1)]:
        assert_agree(expr, {"x": x, "y": y})
    assert interp.eval_expr(expr, {"x": True, "y": 1}) is False


def _calls_to(function, thunk):
    """How often `thunk()` enters the Python function `function`."""
    code, calls = function.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)
    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return len(calls)


@pytest.mark.parametrize("source,types,env", [
    ("x == y", {"x": INT, "y": INT}, {"x": 2, "y": 2}),
    ("x <= y", {"x": INT, "y": INT}, {"x": 2, "y": 3}),
    ("x == y", {"x": FLOAT, "y": FLOAT}, {"x": Fraction(1, 2), "y": NEG_INF}),
    ("x <= y", {"x": FLOAT, "y": FLOAT}, {"x": NEG_INF, "y": NEG_INF}),
    ("x >= y", {"x": FLOAT, "y": FLOAT}, {"x": Fraction(1), "y": Fraction(1)}),
    ("x == y", {"x": STR, "y": STR}, {"x": "a", "y": "a"}),
    ("x == y", {"x": BOOL, "y": BOOL}, {"x": True, "y": False}),
    ("r[0] >= 2 and r[1] == \"a\"", {"r": TTuple((INT, STR))},
     {"r": (2, "a")}),
])
def test_typed_comparisons_do_not_reach_values_equal(source, types, env):
    expr = _typed(source, **types)
    fn = _expr_kernel(expr, env)
    assert _calls_to(values.values_equal, lambda: fn(*env.values())) == 0


@pytest.mark.parametrize("source,types,env", [
    ("x == y", {"x": TOpt(INT), "y": TOpt(INT)}, {"x": Some(1), "y": NONE}),
    ("x == (1, 2)", {"x": TTuple((INT, INT))}, {"x": (1, 2)}),
])
def test_structured_equality_keeps_values_equal(source, types, env):
    fn = _expr_kernel(_typed(source, **types), env)
    assert _calls_to(values.values_equal, lambda: fn(*env.values())) > 0


# Rational forms: an order comparison of numbers not both int works on
# cross-multiplied integer parts, and `+`, `-`, `*` with a float literal
# build a `Fraction` from them. A float value is a `Fraction` or -inf;
# `fmt_value` prints `5` and `5.0` differently, so the type of an arithmetic
# result must be the walker's too.

ORDER = ("<", "<=", ">", ">=")
ARITHMETIC = ("+", "-", "*")
RATIONAL_OPERANDS = (Fraction(-3), Fraction(0), Fraction(2), Fraction(-5, 2),
                     Fraction(4), Fraction(7, 3), NEG_INF)
RATIONAL_LITERALS = (Fraction(5, 2), Fraction(-3, 4), Fraction(3),
                     Fraction(0), 3, -2)


def _number(guarded, ident="x"):
    """`x`, or in the guarded form the payload of an Optional `x`."""
    if not guarded:
        return Name(ident=ident, ty=FLOAT)
    return SomeVal(operand=Name(ident=ident, ty=TOpt(FLOAT)), ty=FLOAT)


def _rational_tree(op, literal, on_left, guarded):
    kind = "int" if isinstance(literal, int) else "float"
    lit = Lit(kind=kind, value=literal)  # typed by its kind
    var = _number(guarded)
    left, right = (lit, var) if on_left else (var, lit)
    return BinOp(op=op, left=left, right=right,
                 ty=BOOL if op in ORDER else FLOAT)


def _rational_envs(guarded, names=("x",)):
    wrap = Some if guarded else (lambda v: v)
    pools = [[wrap(v) for v in RATIONAL_OPERANDS] + ([NONE] if guarded else [])
             for _ in names]
    return [dict(zip(names, values)) for values in itertools.product(*pools)]


def _assert_same_type(expr, env):
    try:
        walked = tree_eval.eval_expr(expr, env)
    except values.EvalError:
        return
    assert type(interp.eval_expr(expr, env)) is type(walked), env


@pytest.mark.parametrize("guarded", [False, True], ids=["plain", "guarded"])
@pytest.mark.parametrize("on_left", [False, True], ids=["right", "left"])
@pytest.mark.parametrize("op", ORDER + ARITHMETIC)
def test_rational_forms_with_a_literal_agree_with_walker(op, on_left,
                                                         guarded):
    for literal in RATIONAL_LITERALS:
        expr = _rational_tree(op, literal, on_left, guarded)
        for env in _rational_envs(guarded):
            assert_agree(expr, env)
            _assert_same_type(expr, env)


@pytest.mark.parametrize("guarded", [False, True], ids=["plain", "guarded"])
@pytest.mark.parametrize("op", ORDER)
def test_rational_comparisons_of_two_operands_agree_with_walker(op, guarded):
    expr = BinOp(op=op, left=_number(guarded, "x"),
                 right=_number(guarded, "y"), ty=BOOL)
    for env in _rational_envs(guarded, ("x", "y")):
        assert_agree(expr, env)


@pytest.mark.parametrize("op", ORDER + ARITHMETIC)
def test_rational_forms_of_two_literals_agree_with_walker(op):
    for left, right in itertools.product(RATIONAL_LITERALS, repeat=2):
        lits = [Lit(kind="int" if isinstance(v, int) else "float", value=v)
                for v in (left, right)]
        expr = BinOp(op=op, left=lits[0], right=lits[1])
        assert_agree(expr, {})
        _assert_same_type(expr, {})


@pytest.mark.parametrize("op", ORDER + ARITHMETIC)
def test_rational_forms_call_no_fraction_operator(op):
    """On finite operands the rational forms run without entering
    `Fraction`'s comparison or arithmetic methods."""
    expr = _rational_tree(op, Fraction(9, 10), False, False)
    fn = _expr_kernel(expr, ["x"])
    env = {"x": Fraction(7, 3)}
    for method in (Fraction._richcmp, Fraction._add, Fraction._sub,
                   Fraction._mul):
        assert _calls_to(method, lambda: fn(*env.values())) == 0
    assert "numerator" in _source_of(fn)


# Generated functions: deep trees, binder shadowing, hostile literals, folds
# from a given state, and tracebacks that name the DSL expression.

DEPTH = 260  # deeper than CPython's 200 nested parentheses


def _int_gt(k):
    return BinOp(op=">", left=Name(ident="x", ty=INT),
                 right=Lit(kind="int", value=k, ty=INT), ty=BOOL)


def _deep_and(guarded):
    atom = _payload_gt if guarded else _int_gt
    expr = atom(0)
    for k in range(1, DEPTH):
        expr = BinOp(op="and", left=expr, right=atom(k), ty=BOOL)
    return expr


def _deep_not():
    expr = _int_gt(3)
    for _ in range(DEPTH):
        expr = Not(operand=expr, ty=BOOL)
    return expr


def _deep_cond():
    expr = Lit(kind="int", value=-1, ty=INT)
    for k in range(DEPTH):
        expr = Cond(test=_int_gt(k), then=Lit(kind="int", value=k, ty=INT),
                    other=expr, ty=INT)
    return expr


def _source_of(fn):
    return "".join(linecache.getlines(fn.__code__.co_filename))


@pytest.mark.parametrize("build,envs", [
    (lambda: _deep_and(False), [{"x": x} for x in (-1, 100, DEPTH)]),
    (lambda: _deep_and(True),
     [{"x": x} for x in (NONE, Some(0), Some(DEPTH))]),
    (_deep_not, [{"x": x} for x in (2, 4)]),
    (_deep_cond, [{"x": x} for x in (-5, 0, 7, DEPTH + 1)]),
], ids=["and", "guarded-and", "not", "cond"])
def test_deep_trees_agree_with_walker(build, envs):
    expr = build()
    for env in envs:
        assert_agree(expr, env)
    assert _source_of(_expr_kernel(expr, ["x"])).count("def ") > 1  # split


NESTED_MATCH = ("match x: case None: 0 case v: "
                "(match y: case None: v case v: v * 10) + v")


@pytest.mark.parametrize("typed", [False, True], ids=["untyped", "typed"])
def test_nested_match_rebinding_a_binder(typed):
    """The inner `case v` shadows the outer binder only inside its body; the
    `+ v` after it reads the outer payload again."""
    expr = parse_expression(NESTED_MATCH)
    if typed:
        expr = type_predicate(expr, {"x": TOpt(INT), "y": TOpt(INT)},
                              expect=None)
    for x, y in itertools.product([NONE, Some(1), Some(4)],
                                  [NONE, Some(0), Some(3)]):
        assert_agree(expr, {"x": x, "y": y})
    assert interp.eval_expr(expr, {"x": Some(4), "y": Some(3)}) == 34
    assert interp.eval_expr(expr, {"x": Some(4), "y": NONE}) == 8


def test_nested_match_in_a_kernel():
    """The same shadowing through `lift_eval`, whose kernel takes `a` as a
    positional argument."""
    pred = parse_expression(
        "(match a[0]: case None: 0 case v: "
        "(match a[1]: case None: v case v: v * 10) + v) == 34")
    for pair in itertools.product([NONE, Some(1), Some(4)],
                                  [NONE, Some(0), Some(3)]):
        expected = tree_eval.eval_expr(pred, {"a": pair})
        result = interp.lift_eval([pred], interp.LiftResult(pair))
        assert result.is_bottom is not expected, pair
    assert not interp.lift_eval([pred], interp.LiftResult(
        (Some(4), Some(3)))).is_bottom


# Scrutinees tested once per root: a later match on a local, or on a constant
# index of a tuple-typed one, reuses the test of an earlier match it is
# certain to run after. Each case runs as a fold step, where `a` and `r` are
# locals, and is checked against the walker; an int stands where an
# Optional belongs.

OPT_PAIR = {"a": TTuple((TOpt(INT), TOpt(INT))), "r": TTuple((INT,))}
OPT_STATES = list(itertools.product((NONE, Some(-2), Some(7), 5), repeat=2))
NOT_OPTIONAL = ("EvalError", "match scrutinee is not Optional")


def _opt_step(source):
    return type_predicate(parse_expression(source), OPT_PAIR, expect=None)


def _step_outcome(expr, a, row):
    """The fold kernel's step on `row` from `a`, against the walker's."""
    fold = interp._kernel(interp._FOLD, expr)
    compiled = _outcome(lambda: fold([row], a, len(row)))
    assert compiled == _outcome(tree_eval.eval_expr, expr,
                                {"a": a, "r": tuple(row)}), (a, row)
    return compiled


def _scrutinee_tests(fn):
    """How many scrutinee tests a generated function's source holds."""
    return len(re.findall(r"isinstance\(_s\d+, _Some\)", _source_of(fn)))


# (source, scrutinee tests in its fold kernel): a[0] matched again in a
# later tuple item and inside a[1]'s match; a[0] matched in an untaken
# `Cond` branch or `match` branch, then again after it, which tests again;
# a[0] matched again inside each branch of its own match
REMATCHES = [
    ("((match a[0]: case None: r[0] case v: v + r[0]),"
     " (match a[0]: case None: 0 case w: w * 2),"
     " (match a[1]: case None: 1 case u:"
     "  (match a[0]: case None: u case v: v - u)))", 2),
    ("((match a[0]: case None: 0 case v: v) if r[0] > 0 else 5,"
     " (match a[0]: case None: 1 case w: w))", 2),
    ("((match a[1]: case None: (match a[0]: case None: 0 case v: v)"
     "  case u: u),"
     " (match a[0]: case None: 1 case w: w))", 3),
    ("((match a[0]: case None: (match a[0]: case None: r[0] case v: v)"
     "  case w: (match a[0]: case None: 0 case v: v + w)), 1)", 1),
]


@pytest.mark.parametrize("source,tests", REMATCHES,
                         ids=["later-item", "after-cond", "after-match",
                              "in-branch"])
def test_a_scrutinee_matched_again_agrees_with_walker(source, tests):
    expr = _opt_step(source)
    outcomes = {_step_outcome(expr, a, row)
                for a in OPT_STATES for row in ((0,), (3,))}
    assert NOT_OPTIONAL in outcomes and len(outcomes) > 2
    assert _scrutinee_tests(interp._kernel(interp._FOLD, expr)) == tests


def test_case_a_cross_matches_agree_with_walker():
    """case_a's step matches a[2] and then a[3] inside it, and a[3] and
    then a[2] inside it, which reuses the first test of a[2]; every mix of
    None, payloads and a non-Optional in the two fields."""
    task = make_task("case_a")
    fields = (NONE, Some(1985), Some(1999), Some(2003), 1990)
    outcomes = set()
    for lo, hi in itertools.product(fields, repeat=2):
        for row in (("time", 1970), ("price", 1990), ("x", 2010)):
            outcomes.add(_step_outcome(task.f_body, (2, 3, lo, hi), row))
    assert NOT_OPTIONAL in outcomes and len(outcomes) > 10


def test_a_rematch_split_past_the_depth_tests_again():
    """A chain of `Cond`s deeper than `_SPLIT_DEPTH` ends in two matches on
    a[0]: the split-off function that holds them cannot see the first
    item's test, so it tests once itself and reuses that test."""
    inner = ("(match a[0]: case None: 0 case v: v)"
             " + (match a[0]: case None: 1 case w: w)")
    for k in range(interp._SPLIT_DEPTH + 6):
        inner = f"({k} if r[0] > {k} else {inner})"
    expr = _opt_step(f"((match a[0]: case None: 0 case v: v), {inner})")
    for a in OPT_STATES:
        for row in ((-1,), (4,)):
            _step_outcome(expr, a, row)
    fn = interp._kernel(interp._FOLD, expr)
    assert _source_of(fn).count("def ") > 1
    assert _scrutinee_tests(fn) == 2


def test_an_undefined_scrutinee_raises_as_the_walker_does():
    """In a guarded root a binder may hold UNDEF, the payload of `Some`
    around an undefined `SomeVal`: the first match on it raises, and the
    second, which reuses its test, is never reached."""
    expr = parse_expression(
        "match a[0]: case None: 0 case w:"
        " (match w: case None: 1 case u: 2) + (match w: case None: 3"
        " case u: 4)")
    expr.scrutinee = CoerceSome(operand=SomeVal(operand=expr.scrutinee))
    outcomes = [_step_outcome(expr, (x,), ())
                for x in (NONE, Some(NONE), Some(Some(5)), Some(7))]
    assert outcomes == [NOT_OPTIONAL, ("value", "4"), ("value", "6"),
                        NOT_OPTIONAL]
    assert _scrutinee_tests(interp._kernel(interp._FOLD, expr)) == 2


def test_a_kernel_built_some_is_a_some():
    """case_b's step builds its `Some`s inline, without `__init__`: each is
    a `Some` in type, equality, hash and repr, and stays frozen."""
    built = interp.eval_fold(make_task("case_b"), [(Fraction(7), 40)]).value
    some = built[1]
    assert type(some) is Some
    assert some == Some(40) and Some(40) == some and some != Some(41)
    assert hash(some) == hash(Some(40)) and repr(some) == "Some(40)"
    assert values.values_equal(some, Some(40))
    with pytest.raises(dataclasses.FrozenInstanceError):
        some.value = 41
    assert some.value == 40


HOSTILE = 'say "hi"\n__import__(\'os\').system("true")'


def test_string_literals_and_names_stay_data():
    literal = Lit(kind="str", value=HOSTILE, ty=STR)
    assert_agree(literal, {})
    assert interp.eval_expr(literal, {}) == HOSTILE
    ident = 'r")\nimport os\n("'
    expr = BinOp(op="==", left=Name(ident=ident, ty=STR), right=literal,
                 ty=BOOL)
    for value in (HOSTILE, "x"):
        assert_agree(expr, {ident: value})
    assert_agree(expr, {})  # unbound: the identifier is only in the message
    for fn in (_expr_kernel(literal, []), _expr_kernel(expr, [ident])):
        assert "import" not in _source_of(fn)


# `eval_expr` binds each name of its env to a parameter of the generated
# function, as the truth kernel binds `r`, `a`, `a1` and `a2`

def test_eval_expr_keeps_a_hostile_identifier_as_data():
    ident = 'x")\nimport os\n("'
    expr = BinOp(op="+", left=Name(ident=ident, ty=INT),
                 right=Lit(kind="int", value=1, ty=INT), ty=INT)
    assert interp.eval_expr(expr, {ident: 2}) == 3
    assert interp.eval_expr(expr, {"y": 0, ident: 4}) == 5
    assert ident not in _source_of(_expr_kernel(expr, [ident]))
    assert _outcome(interp.eval_expr, expr, {"x": 2}) == (
        "EvalError", f"unbound name {ident!r} at {expr.left.span}")


def test_eval_expr_lets_a_match_binder_shadow_an_env_name():
    expr = parse_expression("(match x: case None: y case y: y * 10) + y")
    for x in (NONE, Some(4), 3):
        assert_agree(expr, {"x": x, "y": 1})
    assert interp.eval_expr(expr, {"x": Some(4), "y": 1}) == 41
    assert interp.eval_expr(expr, {"y": 1, "x": NONE}) == 2


def test_eval_expr_binds_one_root_under_two_key_orders():
    expr = parse_expression("x - y * 2")
    assert interp.eval_expr(expr, {"x": 7, "y": 3}) == 1
    assert interp.eval_expr(expr, {"y": 3, "x": 7}) == 1
    xy, yx = _expr_kernel(expr, ["x", "y"]), _expr_kernel(expr, ["y", "x"])
    assert xy is not yx and xy(7, 3) == yx(3, 7) == 1


def _tree_fold(task, frame, start):
    acc = start
    for row in frame:
        acc = tree_eval.eval_expr(task.f_body, {"a": acc, "r": tuple(row)})
    return acc


@pytest.mark.parametrize("name", FIXTURES)
def test_eval_fold_from_a_start_state_agrees_with_walker(name):
    task = make_task(name)
    universes = build_universes(task)
    _, states = _walk_frames(task, universes, seed=3 * len(name), frames=10)
    rng = random.Random(len(name))
    pools = column_pools(task, universes)
    for _ in range(40):
        frame = sample_dataframe(rng, pools)
        start = rng.choice(states)
        result = interp.eval_fold(task, frame, start=start)
        if not frame:
            assert result.is_bottom
            continue
        assert repr(result.value) == repr(_tree_fold(task, frame, start))


# Loop kernels: `eval_fold` and `filter_rows` each run one generated loop;
# the reference below is the row loop they replace, on the walker.

def _check_width(row, width):
    if len(row) != width:
        raise values.EvalError("row does not conform to schema")


def _reference_fold(task, frame, start=None):
    if not frame:
        return interp.BOTTOM
    acc = task.init_values if start is None else start
    for row in frame:
        _check_width(row, task.n_columns)
        acc = tree_eval.eval_expr(task.f_body, {"a": acc, "r": tuple(row)})
    return acc


def _reference_filter(preds, frame, width):
    kept = []
    for row in frame:
        _check_width(row, width)
        for pred in preds:
            val = tree_eval.eval_expr(pred, {"r": tuple(row)})
            if val is interp.UNDEF:
                raise values.EvalError(
                    "atom is undefined under the given assignment")
            if not val:
                break
        else:
            kept.append(row)
    return kept


def _float_row_pred(source):
    return _typed(source, r=TTuple((FLOAT,)))


# each frame meets a wrong-width row and a row whose step raises, in
# either order, after rows that run
_WIDTH_FRAMES = [
    [(Fraction(5),), (NEG_INF,), (Fraction(1), Fraction(2))],
    [(Fraction(5),), (Fraction(1), Fraction(2)), (NEG_INF,)],
    [(Fraction(5),), ()],
]


@pytest.mark.parametrize("frame", _WIDTH_FRAMES,
                         ids=["step-first", "width-first", "empty-row"])
def test_loop_kernels_raise_at_the_row_the_row_loop_does(frame):
    task = make_task("discount")  # `r[0] * 0.9` raises on -inf
    preds = [_float_row_pred("r[0] * 0.9 > 100.0")]
    for start in (None, (Fraction(7),)):
        assert _outcome(lambda t, f: interp.eval_fold(t, f, start).value,
                        task, frame) == \
            _outcome(lambda t, f: _reference_fold(t, f, start), task, frame)
    assert _outcome(lambda p, f: interp.filter_rows(p, f, 1), preds, frame) \
        == _outcome(lambda p, f: _reference_filter(p, f, 1), preds, frame)


# values that break the contract in a float slot: none has the slots of a
# `Fraction`
NOT_FLOATS = (95, True, 95.0)


def _not_float_runs(bad):
    """Each generated kernel's run on top2 with `bad` in a float slot."""
    task = make_task("top2")
    q, p = _float_row_pred("r[0] > 90.0"), _typed("a[0] > 90.0",
                                                  a=task.acc_type)
    # -inf is decided by the order without a slot read, so the fold reads
    # `bad` against the first row's value
    frame = [(Fraction(92),), (bad,)]
    u_q = build_universes(task).u_q
    return {
        "compiled": lambda: interp.eval_expr(q, {"r": (bad,)}),
        "fold": lambda: interp.eval_fold(task, frame),
        "fold-start": lambda: interp.eval_fold(task, frame[:1],
                                               start=(bad, bad)),
        "filter": lambda: interp.filter_rows([q], [(bad,)], 1),
        "test": lambda: interp.lift_eval([p], interp.LiftResult((bad, bad))),
        "judge": lambda: interp.frame_judge(task, [q], [p], [p])(frame),
        "truth": lambda: interp.truth(u_q)((1 << len(u_q)) - 1, (bad,)),
    }


@pytest.mark.parametrize("shape", ["compiled", "fold", "fold-start",
                                   "filter", "test", "judge", "truth"])
def test_a_float_slot_without_a_fraction_is_an_eval_error(shape):
    """A `float` value is a `Fraction` or -inf; an int, a bool or a Python
    float where a kernel reads one raises `EvalError`, not the
    `AttributeError` of the missing slot."""
    for bad in NOT_FLOATS:
        with pytest.raises(values.EvalError, match=interp._NOT_FLOAT):
            _not_float_runs(bad)[shape]()
    _not_float_runs(Fraction(95))[shape]()  # a Fraction runs


def _kernel_sources(name):
    """The generated source of each kernel shape over a fixture's fold step
    and universes."""
    task = make_task(name)
    universes = build_universes(task)
    q, res = ([atom.expr for atom in universe]
              for universe in (universes.u_q, universes.u_residual))
    kernels = {
        "fold": interp._kernel(interp._FOLD, task.f_body),
        "filter": interp._kernel(interp._FILTER, *q),
        "test": interp._kernel(interp._TEST, *res),
        "judge": interp._kernel(interp._JUDGE, task.f_body, *q,
                                *task.post_conjuncts, *res,
                                groups=(len(q), len(task.post_conjuncts))),
        **({"expr": _expr_kernel(q[0], ["r"])} if q else {}),
        **{f"truth-{u.role}": interp.truth(u) for u in
           (universes.u_q, universes.u_residual, universes.u_psi)},
    }
    return {shape: _source_of(fn) for shape, fn in kernels.items()}


@pytest.mark.parametrize("name,tests", [("case_a", 3), ("case_b", 2)])
def test_each_scrutinee_is_tested_once_per_fold_step(name, tests):
    """case_b's step matches a[1] and a[3] twice each, and case_a's matches
    a[2] a second time where its first test has run: their fold kernels
    test 2 and 3 scrutinees, not 4 each."""
    task = make_task(name)  # the source stays in linecache while it lives
    assert _scrutinee_tests(interp._kernel(interp._FOLD, task.f_body)) == \
        tests


@pytest.mark.parametrize("name", FIXTURES)
def test_kernels_allocate_some_inline(name):
    for shape, source in _kernel_sources(name).items():
        assert "_Some(" not in source, shape


@pytest.mark.parametrize("name", ["top2", "discount"])
def test_float_leaves_read_the_fraction_slots(name):
    """Every number these fixtures read is a `float`: each kernel reads the
    parts of its leaves from the `_numerator` and `_denominator` slots and
    never through the properties."""
    for shape, source in _kernel_sources(name).items():
        assert not re.search(r"\.(numerator|denominator)\b", source), shape
        if shape in ("fold", "filter", "judge", "expr", "truth-q"):
            assert "._numerator" in source and "._denominator" in source, \
                shape


def _float_values(value, ty):
    """The values at the `float` positions of `value`, of type `ty`."""
    if isinstance(ty, TFloat):
        yield value
    elif isinstance(ty, TTuple):
        for item, elem in zip(value, ty.elems):
            yield from _float_values(item, elem)
    elif isinstance(ty, TOpt) and isinstance(value, Some):
        yield from _float_values(value.value, ty.elem)


def _is_float_value(value):
    return type(value) is Fraction or value is NEG_INF


@pytest.mark.parametrize("name", FIXTURES)
def test_float_producers_give_fractions(name):
    """The float values that enter the kernels: a task's initial value and
    the fuzzer's column pools. Each is a `Fraction` or -inf."""
    task = make_task(name)
    floats = list(_float_values(task.init_values, task.acc_type))
    for pool, ty in zip(column_pools(task, build_universes(task)),
                        task.schema):
        floats += [v for value in pool for v in _float_values(value, ty)]
    assert all(map(_is_float_value, floats)), floats
    if name in ("top2", "discount", "case_b"):
        assert floats


def test_decoded_float_models_are_fractions():
    encoding = TaskEncoding(make_task("top2"))  # floats are NegInf | Fin
    for text in ("3", "(/ 1 2)", "(- 2)", "(Fin 3)", "NegInf"):
        value = encoding.decode(parse_sexp(text)[0], FLOAT)
        assert _is_float_value(value), (text, value)


def test_loop_kernels_accept_list_rows():
    task = make_task("top2")
    rows = [[Fraction(95)], [Fraction(80)], [Fraction(92)]]
    result = interp.eval_fold(task, rows)
    assert result == interp.eval_fold(task, [tuple(row) for row in rows])
    assert repr(result.value) == repr(_reference_fold(task, rows))
    kept = interp.filter_rows([_float_row_pred("r[0] > 90.0")], rows, 1)
    assert kept == [rows[0], rows[2]] and kept[0] is rows[0]


def _optional_pred(k, ident="r"):
    """The payload of `ident[0]`, an Optional int, exceeds `k`: UNDEF when
    it is None."""
    base = Name(ident=ident, ty=TTuple((TOpt(INT),)))
    payload = SomeVal(operand=Index(base=base, index=0, ty=TOpt(INT)), ty=INT)
    return BinOp(op=">", left=payload, right=Lit(kind="int", value=k),
                 ty=BOOL)


def test_an_undefined_filter_atom_raises():
    plain = _typed("r[1] > 2", r=TTuple((TOpt(INT), INT)))
    guarded = _optional_pred(3)
    frame = [(Some(5), 3), (Some(1), 3)]
    assert interp.filter_rows([plain, guarded], frame, 2) == [frame[0]]
    # the conjunction stops at the first atom that fails, left to right
    assert interp.filter_rows([plain, guarded], [(NONE, 1)], 2) == []
    for preds in ([guarded], [plain, guarded]):
        with pytest.raises(values.EvalError, match="atom is undefined"):
            interp.filter_rows(preds, frame + [(NONE, 3)], 2)
    with pytest.raises(values.EvalError, match="atom is undefined"):
        interp.lift_eval([_optional_pred(3, "a")], interp.LiftResult((NONE,)))


def test_an_empty_frame_folds_to_bottom_and_keeps_nothing():
    task = make_task("top2")
    assert interp.eval_fold(task, [], start=(Fraction(1), NEG_INF)).is_bottom
    assert interp.filter_rows([_float_row_pred("r[0] > 1.0")], [], 1) == []
    assert interp.filter_rows([], [(Fraction(1),)], 1) == [(Fraction(1),)]


def test_a_kernel_of_several_roots_leaves_the_cache_with_either():
    first, second = (_float_row_pred("r[0] > 1.0"),
                     _float_row_pred("r[0] < 5.0"))
    keys = (id(first), id(second))
    assert interp.filter_rows([first, second], [(Fraction(3),)], 1)
    assert (interp._FILTER, *keys) in interp._COMPILED
    del second
    gc.collect()
    assert (interp._FILTER, *keys) not in interp._COMPILED
    assert interp.filter_rows([first], [(Fraction(9),)], 1) == [(Fraction(9),)]


def test_judges_of_one_root_list_split_differently_are_distinct():
    """The same fold step and two false atoms: as `Q` and `P` both sides
    are Bottom; as `Q` and `P'` the original side is defined."""
    task = make_task("top2")
    false, also_false = parse_expression("1 > 2"), parse_expression("2 > 3")
    frame = [(Fraction(95),)]
    assert not interp.frame_judge(task, [false], [also_false], [])(frame)
    assert interp.frame_judge(task, [false], [], [also_false])(frame)
    assert not interp.frame_judge(task, [false], [], [also_false])([])


# Nested rational forms: an arithmetic operand of a comparison, or of
# another arithmetic form, is read as integer parts and boxed only where it
# escapes. Each shape below runs the same comparison against its reference
# on the walker, with the arithmetic operand on the left, the right or both
# sides, nested once or twice.

# the literal of the inner and the outer form
NESTED_LITERALS = (Fraction(9, 10), Fraction(-3, 2))
NESTED_VALUES = (Fraction(-3), Fraction(2), Fraction(-5, 2), Fraction(7, 3),
                 NEG_INF)


def _lit(value):
    return Lit(kind="int" if isinstance(value, int) else "float", value=value)


def _field(base, i, guarded):
    """Field `i` of the number pair `base`; guarded, the payload of an
    Optional field."""
    ty = TOpt(FLOAT) if guarded else FLOAT
    node = Index(base=Name(ident=base, ty=TTuple((ty, ty))), index=i, ty=ty)
    return SomeVal(operand=node, ty=FLOAT) if guarded else node


def _nested(op, operand, depth):
    """`operand op c` nested `depth` times; the outer form takes its literal
    on the left, so both literal positions are read."""
    inner, outer = NESTED_LITERALS
    expr = BinOp(op=op, left=operand, right=_lit(inner), ty=FLOAT)
    if depth == 2:
        expr = BinOp(op=op, left=_lit(outer), right=expr, ty=FLOAT)
    return expr


def _compare(cmp, op, left, right, position, depth):
    if position in ("left", "both"):
        left = _nested(op, left, depth)
    if position in ("right", "both"):
        right = _nested(op, right, depth)
    return BinOp(op=cmp, left=left, right=right, ty=BOOL)


def _reference_lift(preds, acc):
    if acc is interp.BOTTOM:
        return acc
    for pred in preds:
        val = tree_eval.eval_expr(pred, {"a": acc})
        if val is interp.UNDEF:
            raise values.EvalError(
                "atom is undefined under the given assignment")
        if not val:
            return interp.BOTTOM
    return acc


def _reference_judge(task, q, p, res, frame):
    lhs = _reference_lift(p, _reference_fold(task, frame))
    kept = _reference_filter(q, frame, task.n_columns)
    rhs = _reference_lift(res, _reference_fold(task, kept))
    return interp.LiftResult(lhs) != interp.LiftResult(rhs)


def _fold_task(cmp, op, position, depth, guarded, init):
    """A discount-like step: the row's field, or its arithmetic form,
    compared with the accumulator's; the arithmetic form of the row's field
    is kept when the comparison holds."""
    row, acc = _field("r", 0, guarded), _field("a", 0, guarded)
    kept = _nested(op, _field("r", 0, guarded), depth)
    if guarded:
        kept = CoerceSome(operand=kept, ty=TOpt(FLOAT))
    step = Cond(test=_compare(cmp, op, row, acc, position, depth), then=kept,
                other=Index(base=Name(ident="a"), index=0), ty=FLOAT)
    return SimpleNamespace(f_body=TupleExpr(items=[step]), init_values=init,
                           n_columns=2)


def _shape_runs(shape, cmp, op, position, depth, guarded):
    """The function `(x, y) -> (generated, reference)` outcomes of one
    comparison in `shape`, its roots built once."""
    def compare(base, i, j):
        return _compare(cmp, op, _field(base, i, guarded),
                        _field(base, j, guarded), position, depth)
    pred, rows, accs, twice = (compare("x", 0, 1), compare("r", 0, 1),
                               compare("a", 0, 1), compare("a", 0, 0))
    tasks = {}

    def task(y):  # the step folds from `y`
        if repr(y) not in tasks:
            tasks[repr(y)] = _fold_task(cmp, op, position, depth, guarded,
                                        (y,))
        return tasks[repr(y)]

    # `Q` compares the row's fields and `P` the fold result with itself
    return {
        "compiled": lambda x, y: (
            _outcome(lambda: interp.eval_expr(pred, {"x": (x, y)})),
            _outcome(lambda: tree_eval.eval_expr(pred, {"x": (x, y)}))),
        "filter": lambda x, y: (
            _outcome(lambda: interp.filter_rows([rows], [(x, y)], 2)),
            _outcome(lambda: _reference_filter([rows], [(x, y)], 2))),
        "test": lambda x, y: (
            _outcome(lambda: interp.lift_eval([accs],
                                             interp.LiftResult((x, y)))),
            _outcome(lambda: interp.LiftResult(_reference_lift([accs],
                                                              (x, y))))),
        "fold": lambda x, y: (
            _outcome(lambda: interp.eval_fold(task(y), [(x, y)]).value),
            _outcome(lambda: _reference_fold(task(y), [(x, y)]))),
        "judge": lambda x, y: (
            _outcome(lambda: interp.frame_judge(task(y), [rows], [twice], [])(
                [(x, y)])),
            _outcome(_reference_judge, task(y), [rows], [twice], [],
                     [(x, y)])),
    }[shape]


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("position", ["left", "right", "both"])
@pytest.mark.parametrize("shape",
                         ["compiled", "fold", "filter", "test", "judge"])
def test_nested_rational_operands_agree_with_walker(shape, position, depth):
    for cmp, op, guarded in itertools.product(ORDER, ARITHMETIC,
                                              (False, True)):
        run = _shape_runs(shape, cmp, op, position, depth, guarded)
        pool = [Some(v) for v in NESTED_VALUES] + [NONE] if guarded \
            else NESTED_VALUES
        for x, y in itertools.product(pool, repeat=2):
            got, want = run(x, y)
            if shape == "judge" and got[0] != "value" != want[0]:
                continue  # the judge may raise another error than the
                # reference order, never give another verdict
            assert got == want, (cmp, op, guarded, x, y)


@pytest.mark.parametrize("shape",
                         ["compiled", "fold", "filter", "test", "judge"])
def test_a_left_operand_raises_before_the_right_one_runs(shape):
    """-inf under the left arithmetic form raises before the right operand,
    a division by zero here, is evaluated; and the other way round."""
    for cmp, op in itertools.product(ORDER, ARITHMETIC):
        for left_first in (True, False):
            def build(base):
                arith = _nested(op, _field(base, 0, False), 1)
                quotient = BinOp(op="/", left=_lit(Fraction(1)),
                                 right=_field(base, 1, False), ty=FLOAT)
                left, right = (arith, quotient) if left_first else \
                    (quotient, arith)
                return BinOp(op=cmp, left=left, right=right, ty=BOOL)
            x, y = NEG_INF, Fraction(0)
            expected = "arithmetic on -inf" if left_first else \
                "division by zero"
            task = SimpleNamespace(f_body=TupleExpr(items=[build("r")]),
                                   init_values=(x,), n_columns=2)
            run = {
                "compiled": lambda: interp.eval_expr(build("x"),
                                                     {"x": (x, y)}),
                "fold": lambda: interp.eval_fold(task, [(x, y)]),
                "filter": lambda: interp.filter_rows([build("r")], [(x, y)],
                                                     2),
                "test": lambda: interp.lift_eval(
                    [build("a")], interp.LiftResult((x, y))),
                "judge": lambda: interp.frame_judge(
                    task, [build("r")], [], [])([(x, y)]),
            }[shape]
            assert _outcome(run) == ("EvalError", expected), (cmp, op)


# `and`/`or` in a root without `SomeVal`: a right operand that may raise on
# values that keep the contract runs even when the left one decides, so
# every kernel shape raises what the walker raises; a total one is Python's
# short-circuit. The quadruple holds -inf, a zero, a two-item list and a
# payload.

QUAD = TTuple((FLOAT, FLOAT, TList(INT), TOpt(INT)))
QUAD_VALUE = (NEG_INF, Fraction(0), [1, 2], Some(5))


def _quotient(base):
    """`1.0 / base[1] > 0.0`, built past the checker, which takes only a
    nonzero literal divisor."""
    field = Index(base=Name(ident=base, ty=QUAD), index=1, ty=FLOAT)
    quotient = BinOp(op="/", left=_lit(Fraction(1)), right=field, ty=FLOAT)
    return BinOp(op=">", left=quotient, right=_lit(Fraction(0)), ty=BOOL)


# right operands over a base that raise on QUAD_VALUE, each with the
# walker's message
PARTIAL_OPERANDS = [
    (lambda b: _typed(f"{b}[0] * 2.0 > 1.0", **{b: QUAD}),
     "arithmetic on -inf"),
    (_quotient, "division by zero"),
    (lambda b: _typed(f"{b}[2][5] > 0", **{b: QUAD}),
     "list index 5 out of range"),
]


def _decided(op, right, guarded, base):
    """`left op right(base)`, whose left operand decides `op` on
    QUAD_VALUE: `True` for `or`, `False` for `and`. Guarded, the left
    operand reads the payload of field 3."""
    left = _typed(f"{base}[1] {'==' if op == 'or' else '>'} 0.0",
                  **{base: QUAD})
    if guarded:
        field = Index(base=Name(ident=base, ty=QUAD), index=3, ty=TOpt(INT))
        left = BinOp(op=">", left=SomeVal(operand=field, ty=INT),
                     right=Lit(kind="int", value=3 if op == "or" else 9,
                               ty=INT), ty=BOOL)
    return BinOp(op=op, left=left, right=right(base), ty=BOOL)


def _decided_runs(op, right, guarded):
    """The walker's run of `left op right` and each kernel shape's: the
    fold steps on it as its `Cond`'s test, the judge filters by it."""
    def pred(base):
        return _decided(op, right, guarded, base)
    step = type_predicate(parse_expression(
        "(a[0], a[1] + 1.0, a[2], a[3]) if True else a"), {"a": QUAD},
        expect=None)
    step.test = pred("a")
    task = SimpleNamespace(f_body=step, init_values=QUAD_VALUE, n_columns=4)
    row, frame = pred("r"), [QUAD_VALUE]
    return {
        "walker": lambda: tree_eval.eval_expr(pred("x"), {"x": QUAD_VALUE}),
        "compiled": lambda: interp.eval_expr(pred("x"), {"x": QUAD_VALUE}),
        "fold": lambda: interp.eval_fold(task, frame),
        "filter": lambda: interp.filter_rows([row], frame, 4),
        "test": lambda: interp.lift_eval([pred("a")],
                                         interp.LiftResult(QUAD_VALUE)),
        "judge": lambda: interp.frame_judge(task, [row], [], [])(frame),
        "truth": lambda: interp._kernel(interp._TRUTH, row,
                                        groups=("r",))(1, QUAD_VALUE),
    }


@pytest.mark.parametrize("guarded", [False, True], ids=["plain", "guarded"])
@pytest.mark.parametrize("right,message", PARTIAL_OPERANDS,
                         ids=["neg-inf", "zero", "index"])
@pytest.mark.parametrize("op", ["or", "and"])
def test_a_right_operand_that_may_raise_runs_when_the_left_decides(
        op, right, message, guarded):
    for shape, run in _decided_runs(op, right, guarded).items():
        assert _outcome(run) == ("EvalError", message), shape


def test_a_skipped_total_operand_reads_nothing():
    """A total right operand that the left one makes irrelevant does not
    run: an int where its float belongs goes unread, as it does in the
    walker, while one the left operand does not skip is an error."""
    row = (95, Fraction(0), [1, 2], NONE)
    skipped = _typed("r[1] == 0.0 or r[0] > 1.0", r=QUAD)
    assert interp.filter_rows([skipped], [row], 4) == [row]
    assert tree_eval.eval_expr(skipped, {"r": row}) is True
    read = _typed("r[1] == 0.0 and r[0] > 1.0", r=QUAD)
    with pytest.raises(values.EvalError, match=interp._NOT_FLOAT):
        interp.filter_rows([read], [row], 4)


def test_a_scrutinee_tested_in_a_skipped_operand_is_tested_again():
    """A match inside a short-circuited right operand may not run, so a
    later match on the same column tests it again; reusing its locals would
    read the previous row's payload."""
    root = _typed("(r[1] == 0 or (match r[0]: case None: False case v: v > 0))"
                  " and (match r[0]: case None: True case w: w < 5)",
                  r=TTuple((TOpt(INT), INT)))
    frame = [(Some(9), 1), (NONE, 0), (Some(2), 0), (Some(3), 1), (7, 1)]
    for rows in (frame[:-1], frame):
        assert _outcome(interp.filter_rows, [root], rows, 2) == \
            _outcome(_reference_filter, [root], rows, 2)
    assert _outcome(interp.filter_rows, [root], frame, 2) == NOT_OPTIONAL
    source = _source_of(interp._kernel(interp._FILTER, root))
    assert len(re.findall(r"isinstance\(_s\d+, _Some\)", source)) == 2


def test_case_a_filters_with_a_short_circuit():
    """case_a's reference `Q` is four total disjuncts: its filter kernel
    joins them with Python's `or` and evaluates no `|`."""
    from perfbench.workloads import load_reference, rewritten_source
    spec = load_reference()["triples"]["case_a"]
    source = (FIXTURE_DIR / "case_a.pdsl").read_text()
    task = typecheck(parse(rewritten_source(source, spec["q"], [])), "case_a")
    (q,) = task.prefilters
    kernel = _source_of(interp._kernel(interp._FILTER, q))
    assert kernel.count(" or ") == 3 and "|" not in kernel


# Row loops keep their tuples in registers: each column a root reads is a
# local bound once per row, and a tuple-typed accumulator's fields are
# locals across the loop. Each case agrees with the walker.

def _loop_runs(task, frame, q):
    """The fold, filter and judge kernels of `task` and `q` on `frame`,
    each against its reference."""
    width = task.n_columns
    _agree(lambda: interp.eval_fold(task, frame).value,
           lambda: _reference_fold(task, frame))
    _agree(lambda: interp.filter_rows(q, frame, width),
           lambda: _reference_filter(q, frame, width))
    got = _outcome(interp.frame_judge(task, q, [], []), frame)
    want = _outcome(_reference_judge, task, q, [], [], frame)
    assert got == want or "value" not in (got[0], want[0])


def _loop_task(step, init, **types):
    return SimpleNamespace(
        f_body=type_predicate(parse_expression(step), types, expect=None),
        init_values=init, n_columns=len(types["r"].elems))


def _field_assignments(source):
    return len(re.findall(r"^ +_v\d+(?:, _v\d+)* = ", source, re.M))


def test_top2_keeps_its_fields_when_the_step_is_a():
    """top2's step is `(r[0], a[0])`, `(a[0], r[0])` or the bare `a`: its
    fold kernel unpacks the start once and assigns both fields, then only
    `a[1]`, and nothing on `else a`."""
    task = make_task("top2")
    rows = [(Fraction(v),) for v in (95, 80, 92, 10, 99, 99)] + [(NEG_INF,)]
    q = [_float_row_pred("r[0] > 90.0")]
    for k in range(len(rows)):
        _loop_runs(task, rows[k:] + rows[:k], q)
    source = _source_of(interp._kernel(interp._FOLD, task.f_body))
    assert _field_assignments(source) == 3


@pytest.mark.parametrize("step,init,acc", [
    ("(a[0] + r[0] if r[0] > 0 else a[0],)", (0,), TTuple((INT,))),
    ("a + r[0] if r[0] > 0 else a", 0, INT),
    ("(a[0] + r[0], a[1]) if r[0] > 0 else (a[1], a[0])", (0, 1),
     TTuple((INT, INT))),
], ids=["one-field", "int", "swap"])
def test_field_locals_agree_with_walker(step, init, acc):
    task = _loop_task(step, init, a=acc, r=TTuple((INT,)))
    q = [_typed("r[0] > -2", r=TTuple((INT,)))]
    for frame in ([(3,), (-1,), (5,)], [(-3,)], [(1,), (2,), (-2,), (4,)]):
        _loop_runs(task, frame, q)
    source = _source_of(interp._kernel(interp._FOLD, task.f_body))
    assert bool(_field_assignments(source)) == isinstance(acc, TTuple)


def test_an_optional_column_matched_twice_is_tested_once():
    """Two matches on column 0 in one step: the second reuses the first
    test, keyed by the row and the index, in the fold and judge kernels."""
    types = {"a": TTuple((INT, INT)), "r": TTuple((TOpt(INT), INT))}
    task = _loop_task(
        "((match r[0]: case None: a[0] case v: a[0] + v),"
        " (match r[0]: case None: a[1] + r[1] case w: w))", (0, 0), **types)
    q = [_typed("r[1] > 0", r=types["r"])]
    for frame in ([(Some(2), 1), (NONE, 3), (Some(-4), 0)],
                  [(NONE, 1), (5, 1)]):
        _loop_runs(task, frame, q)
    assert _scrutinee_tests(interp._kernel(interp._FOLD, task.f_body)) == 1
    judge = interp._kernel(interp._JUDGE, task.f_body, *q, groups=(1, 0))
    assert _scrutinee_tests(judge) == 2


def test_a_step_split_past_the_depth_reads_its_columns_and_fields():
    """A `Cond` chain deeper than `_SPLIT_DEPTH`, whose innermost step reads
    column 1 and the whole `a` and `r` only there: the split-off function
    gets the row and the field locals."""
    inner = "(a[0] + r[1], a[1]) if a == r else (a[1], a[0] - 1)"
    for k in range(interp._SPLIT_DEPTH + 6):
        inner = f"(a[0] + {k}, a[1]) if r[0] > {k} else {inner}"
    types = {"a": TTuple((INT, INT)), "r": TTuple((INT, INT))}
    task = _loop_task(inner, (0, 0), **types)
    q = [_typed("r[1] > 0 or r == (0, 0)", r=types["r"])]
    for frame in ([(-1, 0), (-1, 3), (40, 1), (5, 2)],
                  [(-1, 2), (0, 0), (0, -1), (-5, 0)]):
        _loop_runs(task, frame, q)
    source = _source_of(interp._kernel(interp._FOLD, task.f_body))
    assert source.count("def ") > 1


def test_roots_of_different_widths_bind_only_the_columns_they_read():
    """Roots that type `r` one and three columns wide, on rows three wide:
    the filter kernel binds the two columns they read, not the row."""
    preds = [_typed("r[0] > 1", r=TTuple((INT,))),
             _typed("r[2] < 5", r=TTuple((INT, INT, INT)))]
    frame = [(2, 0, 4), (2, 9, 6), (0, 0, 0)]
    assert interp.filter_rows(preds, frame, 3) == [frame[0]]
    source = _source_of(interp._kernel(interp._FILTER, *preds))
    assert source.count("= _row[") == 2 and "tuple(_row)" not in source


@pytest.mark.parametrize("bad", [("time",), ("time", 1990, 3), ()],
                         ids=["short", "long", "empty"])
def test_a_wrong_width_row_raises_before_its_columns_are_read(bad):
    task = make_task("case_a")
    q = [_typed('r[1] <= 1990 or r[0] == "price"', r=TTuple((STR, INT)))]
    frame = [("price", 1990), bad, ("time", 1980)]
    for run in (lambda: interp.eval_fold(task, frame),
                lambda: interp.filter_rows(q, frame, 2),
                lambda: interp.frame_judge(task, q, [], [])(frame)):
        assert _outcome(run) == ("EvalError", interp._BAD_ROW)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_loop_kernels_copy_no_row(name):
    sources = _kernel_sources(name)
    for shape in ("fold", "filter", "judge"):
        assert "tuple(_row)" not in sources[shape], shape


def test_discount_boxes_a_fraction_only_where_it_is_kept(monkeypatch):
    """Over a pipeline-sized frame, discount's fold builds one `Fraction`
    per row on which `r[0] * 0.9 > a[0]` holds, for the value it keeps, and
    none for the comparison."""
    calls = []

    def counted(numerator, denominator):
        calls.append(1)
        return Fraction(numerator, denominator)
    # generated functions copy the runtime names when they are built, and a
    # fresh task's roots get fresh ones
    monkeypatch.setitem(interp._RUNTIME, "_Fraction", counted)
    task = make_task("discount")
    frame = generate_frame(random.Random(1), "discount", 10_000)
    result = interp.eval_fold(task, frame)
    (step,) = task.f_body.items
    kept, acc = 0, task.init_values
    for row in frame:
        env = {"a": acc, "r": row}
        kept += tree_eval.eval_expr(step.test, env)
        acc = tree_eval.eval_expr(task.f_body, env)
    assert repr(result.value) == repr(acc)
    assert 0 < kept < len(frame)
    assert len(calls) == kept
    source = _source_of(interp._kernel(interp._FOLD, task.f_body))
    assert source.count("_Fraction(") == 1


# two roots on different lines whose generated source is the same: they
# differ only in their constants
TWINS = ("x + 1 > 2", "\n\n  x + 3 > 2")


def test_roots_with_the_same_source_share_one_compile(monkeypatch):
    compiles = []

    def counted(*args):
        compiles.append(args[0])
        return compile(*args)

    interp._code.cache_clear()
    monkeypatch.setattr(interp, "compile", counted, raising=False)
    first, second = map(parse_expression, TWINS)
    fns = _expr_kernel(first, ["x"]), _expr_kernel(second, ["x"])
    assert len(compiles) == 1
    # each answers with its own constants: x + 1 > 2 and x + 3 > 2
    assert [fn(0) for fn in fns] == [False, True]
    assert [fn(2) for fn in fns] == [True, True]
    assert fns[0].__code__.co_code == fns[1].__code__.co_code
    assert fns[0].__code__.co_filename != fns[1].__code__.co_filename


@pytest.mark.parametrize("source,env,twin", [
    ("1.0 / a[0] > 2.0", {"a": (Fraction(0),)}, None),
    ("y > 1", {"x": 1}, None),
    ("\n  y + 3 > 2", {"x": 1}, "y + 1 > 2"),
], ids=["helper", "unbound", "shared"])
def test_tracebacks_name_the_dsl_expression(source, env, twin):
    """With `twin`, a root on another line that generates the same source
    is evaluated first; each traceback names its own root's span."""
    for expr in map(parse_expression, filter(None, (twin, source))):
        with pytest.raises(values.EvalError) as info:
            interp.eval_expr(expr, env)
        text = "".join(traceback.format_exception(info.value))
        assert f'File "<dsl {expr.span} #' in text
        assert "return " in text  # the generated line, read from linecache


def test_generated_source_leaves_linecache_with_its_root():
    """The source of each generated function is in linecache while its root
    lives: for one root, and for two whose functions share their code."""
    for sources in (TWINS[:1], TWINS):
        roots = list(map(parse_expression, sources))
        filenames = [[fn.__code__.co_filename for fn in (
            _expr_kernel(expr, ["x"]), interp._kernel(interp._TEST, expr))]
            for expr in roots]
        assert len(set(sum(filenames, []))) == 2 * len(roots)
        for k in range(len(roots)):
            assert all(name in linecache.cache
                       for names in filenames[k:] for name in names)
            roots[k] = None
            gc.collect()
            assert not any(name in linecache.cache for name in filenames[k])


def test_generated_functions_leave_the_cache_with_their_root():
    expr = parse_expression("x + 1 > 2")
    key = id(expr)
    interp._kernel(interp._EXPR, expr)
    interp._kernel(interp._TEST, expr)
    assert {(interp._EXPR, key), (interp._TEST, key)} <= set(interp._COMPILED)
    del expr
    gc.collect()
    assert not any(key in ids[1:] for ids in interp._COMPILED)


# Every kernel of a task against the walker: the fold, filter, test and
# judge kernels over all of a universe's atoms, and each universe's truth
# kernel, on seeded fuzzer frames and the fold states they reach

def _reference_truth(universe, *values):
    env = dict(zip(interp._NAMES[universe.role], values))
    mask = 0
    for atom in universe:
        val = tree_eval.eval_expr(atom.expr, env)
        if val is interp.UNDEF:
            raise values.EvalError(interp._UNDEFINED_ATOM)
        mask |= bool(val) << atom.index
    return mask


def _agree(generated, walked):
    assert _outcome(generated) == _outcome(walked)


def check_kernels(task, universes, seed, frames=4):
    """Checks the fold, filter, test and judge kernels and the three truth
    kernels of `task` on `frames` seeded frames. A judge that raises needs
    only the reference judgment to raise too (see `interp.frame_judge`)."""
    rng = random.Random(seed)
    pools = column_pools(task, universes)
    u_q, u_res, u_psi = universes.u_q, universes.u_residual, universes.u_psi
    q, res = [a.expr for a in u_q], [a.expr for a in u_res]
    post, width = list(task.post_conjuncts), task.n_columns
    judge = interp.frame_judge(task, q, post, res)
    states = [task.init_values]
    for _ in range(frames):
        frame = sample_dataframe(rng, pools)
        _agree(lambda: interp.eval_fold(task, frame).value,
               lambda: _reference_fold(task, frame))
        _agree(lambda: interp.filter_rows(q, frame, width),
               lambda: _reference_filter(q, frame, width))
        got = _outcome(judge, frame)
        want = _outcome(_reference_judge, task, q, post, res, frame)
        assert got == want or "value" not in (got[0], want[0])
        acc = task.init_values
        for row in frame:
            _agree(lambda: interp.truth(u_q)((1 << len(u_q)) - 1, row),
                   lambda: _reference_truth(u_q, row))
        for row in frame:
            try:
                acc = _reference_fold(task, [row], acc)
            except values.EvalError:
                break
            states.append(acc)
    for acc in states:
        _agree(lambda: interp.lift_eval(res, interp.LiftResult(acc)),
               lambda: interp.LiftResult(_reference_lift(res, acc)))
        _agree(lambda: interp.truth(u_res)((1 << len(u_res)) - 1, acc),
               lambda: _reference_truth(u_res, acc))
        for pair in ((acc, acc), (acc, rng.choice(states))):
            _agree(lambda: interp.truth(u_psi)((1 << len(u_psi)) - 1, *pair),
                   lambda: _reference_truth(u_psi, *pair))


@pytest.mark.parametrize("name", FIXTURES)
def test_every_kernel_of_a_fixture_agrees_with_walker(name):
    task = make_task(name)
    check_kernels(task, build_universes(task), len(name), frames=20)


if __name__ == "__main__":
    from perfbench.tasks import generate_tasks

    first, last = map(int, sys.argv[1:3])
    count = 0
    for seed in range(first, last + 1):
        for name, source in generate_tasks(seed):
            task = typecheck(parse(source), name)
            check_kernels(task, build_universes(task), seed)
            count += 1
    print(f"seeds {first}-{last}: the fold, filter, test, judge and truth "
          f"kernels of {count} tasks agree with the walker")
