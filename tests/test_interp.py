"""Concrete evaluation: folds, Lift semantics, filters."""

import random
from fractions import Fraction

import pytest

from pushdown_synth.interp import (
    BOTTOM, LiftResult, eval_expr, eval_fold, filter_rows, lift_eval,
    run_pipeline,
)
from pushdown_synth.parser import parse_expression
from pushdown_synth.syntax import INT, TTuple
from pushdown_synth.typecheck import type_predicate
from pushdown_synth.values import NEG_INF, NONE, EvalError, Some

from conftest import make_task


def frames(*rows):
    return [(Fraction(x),) for x in rows]


def test_top2_fold():
    task = make_task("top2")
    out = eval_fold(task, frames(95, 80, 92))
    assert out == LiftResult((Fraction(95), Fraction(92)))


def test_empty_fold_is_bottom():
    for name in ("top2", "discount"):
        assert eval_fold(make_task(name), []).is_bottom


def test_discount_single_row():
    task = make_task("discount")
    out = eval_fold(task, frames(1000))
    assert out == LiftResult((Fraction(900),))


def test_lift_bottom_fails_every_filter():
    assert lift_eval([], LiftResult(BOTTOM)).is_bottom


def test_lift_empty_conjunction_keeps_defined():
    res = LiftResult((Fraction(1),))
    assert lift_eval([], res) == res


def test_lift_sentinel_disequality():
    task = make_task("top2")
    pred = type_predicate(
        parse_expression("not (a[1] == -inf)"), {"a": task.acc_type}
    )
    out = lift_eval([pred], LiftResult((Fraction(95), NEG_INF)))
    assert out.is_bottom


def test_pipeline_end_to_end():
    task = make_task("top2")
    assert run_pipeline(task, frames(95, 92)) == LiftResult(
        (Fraction(95), Fraction(92))
    )
    assert run_pipeline(task, frames(95, 80)).is_bottom


def test_insert_is_sorted_ascending():
    expr = type_predicate(
        parse_expression("insert([1, 3], 2)"), {}, expect=None
    )
    assert eval_expr(expr, {}) == [1, 2, 3]


def test_suffix_slice():
    expr = type_predicate(parse_expression("[1, 2, 3][1:]"), {}, expect=None)
    assert eval_expr(expr, {}) == [2, 3]
    expr = type_predicate(parse_expression("[1, 2, 3][-2:]"), {}, expect=None)
    assert eval_expr(expr, {}) == [2, 3]


def test_match_evaluation():
    env_ty = {"x": None}
    from pushdown_synth.syntax import TOpt, TInt

    expr = type_predicate(
        parse_expression("match x: case None: 0 case v: v + 1"),
        {"x": TOpt(TInt())},
        expect=None,
    )
    assert eval_expr(expr, {"x": NONE}) == 0
    assert eval_expr(expr, {"x": Some(4)}) == 5


def test_filter_idempotence():
    task = make_task("top2")
    pred = type_predicate(
        parse_expression("r[0] > 90.0"),
        {"r": __import__("pushdown_synth.syntax", fromlist=["TTuple"]).TTuple(
            tuple(task.schema)
        )},
    )
    rng = random.Random(3)
    for _ in range(200):
        frame = frames(*[rng.uniform(80, 100) for _ in range(rng.randint(0, 8))])
        frame = [(Fraction(x).limit_denominator(100),) for (x,) in frame]
        once = filter_rows([pred], frame, task.n_columns)
        assert filter_rows([pred], once, task.n_columns) == once


def test_filter_rejects_a_row_of_the_wrong_width():
    pred = type_predicate(parse_expression("r[1] > 2"), {"r": TTuple((INT, INT))})
    assert filter_rows([pred], [(1, 3), (4, 1)], 2) == [(1, 3)]
    for row in ((1,), (1, 3, 5)):
        with pytest.raises(EvalError, match="row does not conform to schema"):
            filter_rows([pred], [row], 2)
