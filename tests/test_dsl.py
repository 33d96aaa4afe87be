"""Parser, pretty-printer, and typechecker behavior."""

from fractions import Fraction

import pytest

from pushdown_synth.interp import eval_expr
from pushdown_synth.lexer import DslSyntaxError
from pushdown_synth.parser import parse, parse_expression
from pushdown_synth.pretty import fmt_expr, fmt_program
from pushdown_synth.syntax import (
    FLOAT, INT, BinOp, Case, CoerceSome, Cond, Filter, Fold, Index, Insert,
    IsNone, Lambda, ListExpr, Lit, Match, Name, Not, SliceFrom, SomeVal, Span,
    TFloat, TInt, TOpt, TupleExpr, TypeTuple, map_children, structurally_equal,
    walk,
)
from pushdown_synth.typecheck import DslTypeError, typecheck

from conftest import fixture_source, make_task

ALL_FIXTURES = ["top2", "discount", "case_a", "case_b", "count_taut"]


def test_top2_parses_to_one_fold():
    program = parse(fixture_source("top2"))
    folds = [n for s in program.stmts for n in walk(s.expr) if isinstance(n, Fold)]
    assert len(folds) == 1
    cond = folds[0].fn.body
    # two-branch conditional: the else arm is itself a conditional
    from pushdown_synth.syntax import Cond

    assert isinstance(cond, Cond) and isinstance(cond.other, Cond)


def test_empty_program_is_a_syntax_error():
    with pytest.raises(DslSyntaxError) as exc:
        parse("   # just a comment\n")
    assert "empty program" in str(exc.value)
    assert exc.value.expected  # expected-token set is reported


def test_syntax_error_carries_location_and_expectations():
    with pytest.raises(DslSyntaxError) as exc:
        parse("x = (1 +")
    assert exc.value.span.line == 1


def test_match_program_parses_with_two_cases():
    program = parse(fixture_source("case_b"))
    matches = [
        n for s in program.stmts for n in walk(s.expr) if isinstance(n, Match)
    ]
    assert matches and all(len(m.cases) == 2 for m in matches)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_pretty_roundtrip(name):
    program = parse(fixture_source(name))
    reparsed = parse(fmt_program(program))
    assert len(program.stmts) == len(reparsed.stmts)
    for a, b in zip(program.stmts, reparsed.stmts):
        assert a.name == b.name
        assert structurally_equal(a.expr, b.expr)


@pytest.mark.parametrize("value", [
    Fraction("1e-05"), Fraction("1.5e-20"), Fraction("-3e-7"), Fraction("0.9"),
    Fraction(10**16) + Fraction(1, 2), Fraction(1, 3),
], ids=str)
def test_float_literal_reparses_to_its_value(value):
    """The lexer reads no exponent notation, so none may be printed."""
    text = fmt_expr(Lit(kind="float", value=value))
    assert eval_expr(parse_expression(text), {}) == value, text
    comparison = fmt_expr(BinOp(op=">", left=Name(ident="x"),
                                right=Lit(kind="float", value=value)))
    assert eval_expr(parse_expression(comparison), {"x": value}) is False


def test_typecheck_top2():
    task = make_task("top2")
    assert task.schema == (FLOAT,)
    assert tuple(task.acc_type.elems) == (FLOAT, FLOAT)
    assert [fmt_expr(c) for c in task.post_conjuncts] == [
        "a[0] > 90.0", "a[1] > 90.0",
    ]


def test_typecheck_case_b_accumulator_type():
    task = make_task("case_b")
    elems = tuple(task.acc_type.elems)
    assert isinstance(elems[0], TFloat)
    assert elems[1] == TOpt(TInt())
    assert isinstance(elems[2], TFloat)
    assert elems[3] == TOpt(TInt())


def test_type_mismatch_int_vs_float():
    source = """
df = (float,)
agg = fold(df, (0.5,), lambda a, r: (a[0] + 1,))
out = filter(agg, lambda a: a[0] >= 0.0)
"""
    with pytest.raises(DslTypeError) as exc:
        typecheck(parse(source))
    assert "mismatch" in str(exc.value)


def test_missing_fold():
    with pytest.raises(DslTypeError) as exc:
        typecheck(parse("df = (float,)\n"))
    assert "no fold" in str(exc.value)


def test_multiple_folds():
    source = """
df = (float,)
a1 = fold(df, (0.0,), lambda a, r: (a[0],))
a2 = fold(df, (0.0,), lambda a, r: (a[0],))
"""
    with pytest.raises(DslTypeError) as exc:
        typecheck(parse(source))
    assert "multiple folds" in str(exc.value)


def test_post_filter_must_be_boolean():
    source = """
df = (float,)
agg = fold(df, (0.0,), lambda a, r: (r[0],))
out = filter(agg, lambda a: a[0] + 1.0)
"""
    with pytest.raises(DslTypeError):
        typecheck(parse(source))


def test_non_exhaustive_match():
    source = """
df = (int,)
agg = fold(df, (None,), lambda a, r: (match a[0]: case None: r[0],))
out = filter(agg, lambda a: True)
"""
    with pytest.raises(DslTypeError) as exc:
        typecheck(parse(source))
    assert "match" in str(exc.value)


def test_fix_lambda_is_rejected():
    source = """
df = (float,)
agg = fold(df, (0.0,), fix a, r: (r[0],))
out = filter(agg, lambda a: a[0] > 0.0)
"""
    with pytest.raises(DslTypeError) as exc:
        typecheck(parse(source))
    assert "fix" in str(exc.value)


def test_division_by_non_constant_rejected():
    source = """
df = (float,)
agg = fold(df, (1.0,), lambda a, r: (r[0] / a[0],))
out = filter(agg, lambda a: a[0] > 0.0)
"""
    with pytest.raises(DslTypeError) as exc:
        typecheck(parse(source))
    assert "divisor" in str(exc.value)


def test_arithmetic_on_possible_sentinel_rejected():
    source = """
df = (float,)
agg = fold(df, (-inf,), lambda a, r: (a[0] + r[0],))
out = filter(agg, lambda a: a[0] > 0.0)
"""
    with pytest.raises(DslTypeError) as exc:
        typecheck(parse(source))
    assert "-inf" in str(exc.value)


def test_typecheck_is_deterministic():
    t1 = make_task("case_a")
    t2 = make_task("case_a")
    assert [fmt_expr(c) for c in t1.post_conjuncts] == [
        fmt_expr(c) for c in t2.post_conjuncts
    ]


def test_parse_expression_rejects_trailing_tokens():
    with pytest.raises(DslSyntaxError):
        parse_expression("a[0] > 1.0 extra")


def _every_kind():
    """A tree with one node of every expression kind."""
    def n(ident):
        return Name(ident=ident)

    return Fold(
        source=Filter(source=n("df"),
                      fn=Lambda(params=["r"], body=IsNone(operand=n("r")))),
        init=TupleExpr(items=[Lit(value=0), TypeTuple(types=(INT,))]),
        fn=Lambda(params=["a", "r"], body=Cond(
            then=BinOp(op="+", left=Index(base=n("a"), index=0),
                       right=SomeVal(operand=n("x"))),
            test=Not(operand=Match(
                scrutinee=CoerceSome(operand=n("y")),
                cases=[Case(None, Lit(kind="bool", value=True)),
                       Case("v", n("v"))],
            )),
            other=Insert(
                target=SliceFrom(base=ListExpr(items=[n("p"), n("q")]), start=1),
                item=n("z"),
            ),
        )),
    )


def test_walk_order_covers_every_node_kind():
    order = [getattr(x, "ident", type(x).__name__) for x in walk(_every_kind())]
    # children are pushed in field order and popped last first
    assert order == [
        "Fold", "Lambda", "Cond", "Insert", "z", "SliceFrom", "ListExpr", "q",
        "p", "Not", "Match", "v", "Lit", "CoerceSome", "y", "BinOp", "SomeVal",
        "x", "Index", "a", "TupleExpr", "TypeTuple", "Lit", "Filter", "Lambda",
        "IsNone", "r", "df",
    ]


def test_map_children_is_copy_on_write():
    for node in walk(_every_kind()):
        assert map_children(node, lambda c: c) is node

    e = BinOp(op="+", left=Name(ident="x"), right=Lit(value=1),
              span=Span(3, 4), ty=INT)
    out = map_children(
        e, lambda c: Name(ident="y") if isinstance(c, Name) else c
    )
    assert out is not e and out.span == Span(3, 4) and out.ty == INT
    assert out.left.ident == "y" and out.right is e.right
    assert e.left.ident == "x"


def test_map_children_reaches_match_case_bodies():
    m = Match(scrutinee=Name(ident="s"),
              cases=[Case(None, Name(ident="b1")), Case("v", Name(ident="b2"))])
    seen = []
    assert map_children(m, lambda c: seen.append(c.ident) or c) is m
    assert seen == ["s", "b1", "b2"]

    out = map_children(
        m, lambda c: Lit(value=2) if getattr(c, "ident", "") == "b2" else c
    )
    assert out.cases[0] is m.cases[0] and out.cases[1].pattern == "v"
    assert isinstance(out.cases[1].body, Lit)
    assert m.cases[1].body.ident == "b2"
