"""The compiled evaluator against the reference tree walker.

`interp.eval_expr` runs each expression as closures compiled once;
`tree_eval.eval_expr` walks the tree. On every input below both must give
the same value (compared by `repr`, so types count too), the same UNDEF, and
the same exception with the same message.
"""

import gc
import itertools
import operator
import random
import sys
import weakref
from fractions import Fraction

import pytest

from pushdown_synth import interp, values
from pushdown_synth.analysis import build_universes
from pushdown_synth.fuzz import column_pools, sample_dataframe
from pushdown_synth.parser import parse_expression
from pushdown_synth.syntax import (
    BOOL, FLOAT, INT, STR, BinOp, IsNone, Lit, Name, Not, SomeVal, TOpt,
    TTuple, walk,
)
from pushdown_synth.typecheck import compile_bool, type_predicate
from pushdown_synth.values import NEG_INF, NONE, Some

import tree_eval
from conftest import make_task
from test_normalize import _predicate, _rand_env

FIXTURES = ("top2", "discount", "frequent", "count_taut", "case_a", "case_b")


def _outcome(evaluate, expr, env):
    try:
        return "value", repr(evaluate(expr, env))
    except Exception as exc:
        return type(exc).__name__, str(exc)


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
    fn = interp.compiled(expr)
    assert interp.compiled(expr) is fn
    assert vars(expr) == fields  # nothing is stored on the node
    node = weakref.ref(expr)
    del expr
    gc.collect()
    assert node() is None  # the closure does not keep its root alive
    assert fn({"x": 2}) == 3


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
    expr = _typed(f"x {op} y", x=ty, y=ty)
    for x, y in [(2, Fraction(2)), (Fraction(2), 2), (1, Fraction(3, 2)),
                 (Fraction(3, 2), 1)]:
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
    ("x >= y", {"x": FLOAT, "y": FLOAT}, {"x": Fraction(1), "y": 1}),
    ("x == y", {"x": STR, "y": STR}, {"x": "a", "y": "a"}),
    ("x == y", {"x": BOOL, "y": BOOL}, {"x": True, "y": False}),
    ("r[0] >= 2 and r[1] == \"a\"", {"r": TTuple((INT, STR))},
     {"r": (2, "a")}),
])
def test_typed_comparisons_do_not_reach_values_equal(source, types, env):
    expr = _typed(source, **types)
    fn = interp.compiled(expr)
    assert _calls_to(values.values_equal, lambda: fn(env)) == 0


@pytest.mark.parametrize("source,types,env", [
    ("x == y", {"x": TOpt(INT), "y": TOpt(INT)}, {"x": Some(1), "y": NONE}),
    ("x == (1, 2)", {"x": TTuple((INT, INT))}, {"x": (1, 2)}),
])
def test_structured_equality_keeps_values_equal(source, types, env):
    fn = interp.compiled(_typed(source, **types))
    assert _calls_to(values.values_equal, lambda: fn(env)) > 0
