"""Parser, pretty-printer, and typechecker behavior."""

from dataclasses import replace
from fractions import Fraction

import pytest

from pushdown_synth.interp import BOTTOM, LiftResult, eval_expr, run_pipeline
from pushdown_synth.lexer import DslSyntaxError, tokenize
from pushdown_synth.parser import parse, parse_expression
from pushdown_synth.pretty import fmt_expr, fmt_program
from pushdown_synth.syntax import (
    FLOAT, INT, BinOp, Case, CoerceSome, Cond, Expr, Filter, Fold, Index,
    Insert, IsNone, Lambda, ListExpr, Lit, Match, Name, Not, SliceFrom,
    SomeVal, Span, TFloat, TInt, TOpt, TupleExpr, TypeTuple, children,
    map_children, structurally_equal, substitute, walk,
)
from pushdown_synth.typecheck import DslTypeError, typecheck
from pushdown_synth.values import Some

from conftest import fixture_source, make_task
from test_universe_pin import SOURCES as PINNED


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


# -- the syntax errors: each message with its span and expected set

_S = "df = (float,)\n"
_F = "agg = fold(df, (0.0,), lambda a, r: (a[0],))\n"
_IN_FOLD = _S + "agg = fold(df, (0.0,), lambda a, r: ({}))\n"
_ATOM_START = ["(", "IDENT", "[", "filter", "fold", "insert", "literal"]
_TYPES = ["List", "Optional", "bool", "float", "int", "str"]

SYNTAX_ERRORS = {
    "empty": (parse, "   # just a comment\n",
              "empty program", (2, 1), ["IDENT"]),
    "statement-name": (parse, "(1,)\n",
                       "unexpected token '('", (1, 1), ["IDENT"]),
    "statement-equals": (parse, "df (float,)\n",
                         "unexpected token '('", (1, 4), ["="]),
    "annotation-paren": (parse, "df: int = (1,)\n",
                         "unexpected token 'int'", (1, 5), ["("]),
    "annotation-close": (parse, "c: (int, float = (1, 2.0)\n",
                         "unexpected token '='", (1, 16), [")"]),
    "type-keyword": (parse, "c: (int, foo) = (1, 2)\n",
                     "unexpected token 'foo' in type", (1, 10), _TYPES),
    "type-bracket": (parse, "df = (List int,)\n",
                     "unexpected token 'int'", (1, 12), ["["]),
    "type-close": (parse, "df = (Optional[int,)\n",
                   "unexpected token ','", (1, 19), ["]"]),
    "type-eof": (parse, "df = (int, List[",
                 "unexpected token 'EOF' in type", (1, 17), _TYPES),
    "atom": (parse, _IN_FOLD.format("a[0] + ,"),
             "unexpected token ','", (2, 45), _ATOM_START),
    "atom-eof": (parse, "x = (1 +",
                 "unexpected token 'EOF'", (1, 9), _ATOM_START),
    "index-literal": (parse, _IN_FOLD.format("a[r],"),
                      "unexpected token 'r'", (2, 40), ["INT"]),
    "slice-close": (parse, _IN_FOLD.format("a[1:,"),
                    "unexpected token ','", (2, 42), ["]"]),
    "conditional-else": (parse, _IN_FOLD.format("r[0] if r[0] > a[0],"),
                         "unexpected token ','", (2, 57), ["else"]),
    "match-colon": (parse, _IN_FOLD.format("match r[0] case None: a[0],"),
                    "unexpected token 'case'", (2, 49), [":"]),
    "match-pattern": (parse, _IN_FOLD.format("match r[0]: case 1: a[0],"),
                      "unsupported match pattern '1'", (2, 55),
                      ["IDENT", "None"]),
    "match-no-case": (parse, _IN_FOLD.format("match r[0]: a[0],"),
                      "match requires at least one case", (2, 50), ["case"]),
    "lambda": (parse, _S + "agg = fold(df, (0.0,), (a[0],))\n",
               "expected lambda, got '('", (2, 24), ["fix", "lambda"]),
    "lambda-param": (parse, _S + "agg = fold(df, (0.0,), lambda a, 1: a)\n",
                     "unexpected token '1'", (2, 34), ["IDENT"]),
    "lambda-colon": (parse, _S + "agg = fold(df, (0.0,), lambda a r: a)\n",
                     "unexpected token 'r'", (2, 33), [":"]),
    "fold-comma": (parse, _S + "agg = fold(df (0.0,), lambda a, r: a)\n",
                   "unexpected token '('", (2, 15), [","]),
    "filter-close": (parse, _S + _F + "out = filter(agg, lambda a: a[0]\n",
                     "unexpected token 'EOF'", (4, 1), [")"]),
    "insert-comma": (parse, _IN_FOLD.format("insert(a[0] r[0]),"),
                     "unexpected token 'r'", (2, 50), [","]),
    "list-close": (parse, "c = [1, 2\n",
                   "unexpected token 'EOF'", (2, 1), ["]"]),
    "tuple-close": (parse, "c = (1, 2\n",
                    "unexpected token 'EOF'", (2, 1), [")"]),
    "paren-close": (parse, "c = (1 + 2\n",
                    "unexpected token 'EOF'", (2, 1), [")"]),
    # comparisons do not associate
    "chained-comparison": (parse_expression, "a[0] > 1 > 0",
                           "trailing input '>'", (1, 10), []),
    "trailing-input": (parse_expression, "a[0] > 1.0 extra",
                       "trailing input 'extra'", (1, 12), []),
    "unterminated-string-line": (parse, 'lab = "x\ny"\n',
                                 "unterminated string literal", (1, 7), []),
    "unterminated-string-eof": (parse, 'lab = "xy',
                                "unterminated string literal", (1, 7), []),
    "unexpected-character": (parse, _S + "c = (1 $ 2)\n",
                             "unexpected character '$'", (2, 8), []),
    # digits outside ASCII start neither a number nor an identifier
    "superscript-digit": (parse, "x = \u00b2\n",
                          "unexpected character '\u00b2'", (1, 5), []),
    "arabic-indic-digit": (parse, "x = \u0663\n",
                           "unexpected character '\u0663'", (1, 5), []),
}


@pytest.mark.parametrize("fn, source, message, span, expected",
                         SYNTAX_ERRORS.values(), ids=SYNTAX_ERRORS)
def test_syntax_error_message_span_and_expected_set(fn, source, message,
                                                    span, expected):
    with pytest.raises(DslSyntaxError) as exc:
        fn(source)
    assert exc.value.message == message
    assert exc.value.span == Span(*span)
    assert exc.value.expected == expected


@pytest.mark.parametrize("source, tail", [
    # `-inf` is a literal only when no word character follows it
    ("x = -infinity", [("-", "-"), ("IDENT", "infinity")]),
    ("a - -infx", [("-", "-"), ("IDENT", "infx")]),
    # after an operand a minus is the binary operator
    ("a[0]-1", [("-", "-"), ("INT", "1")]),
    ("(a) -inf", [("-", "-"), ("inf", "inf")]),
    ("-inf -1", [("-", "-"), ("INT", "1")]),
    ("-inf-1", [("-", "-"), ("INT", "1")]),
])
def test_a_minus_that_starts_no_literal_is_an_operator(source, tail):
    tokens = [(t.kind, t.text) for t in tokenize(source)]
    assert tokens[-3:] == [*tail, ("EOF", "")]


@pytest.mark.parametrize("source", ["-inf -1", "-inf-1"])
def test_a_minus_after_neginf_subtracts(source):
    assert structurally_equal(parse_expression(source),
                              parse_expression("(-inf) - 1"))


def test_match_program_parses_with_two_cases():
    program = parse(fixture_source("case_b"))
    matches = [
        n for s in program.stmts for n in walk(s.expr) if isinstance(n, Match)
    ]
    assert matches and all(len(m.cases) == 2 for m in matches)


@pytest.mark.parametrize("task_id", sorted(PINNED))
def test_pretty_roundtrip(task_id):
    """The six fixtures, `generate_tasks(1..10)` and the extra programs of
    the universe pin."""
    program = parse(PINNED[task_id][1])
    reparsed = parse(fmt_program(program))
    assert len(program.stmts) == len(reparsed.stmts)
    for a, b in zip(program.stmts, reparsed.stmts):
        assert a.name == b.name and a.annot == b.annot
        assert structurally_equal(a.expr, b.expr)


@pytest.mark.parametrize("value", [
    Fraction("1e-05"), Fraction("1.5e-20"), Fraction("-3e-7"), Fraction("0.9"),
    Fraction(10**16) + Fraction(1, 2), Fraction(1, 3),
    Fraction(10**400) + Fraction(1, 2),  # past the float range
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


def test_constant_division_folds_in_the_initializer():
    source = """
df = (float,)
agg = fold(df, (1.0 / 2.0,), lambda a, r: (a[0] + r[0],))
out = filter(agg, lambda a: a[0] > 5.0)
"""
    assert typecheck(parse(source)).init_values == (Fraction(1, 2),)


def test_arithmetic_on_possible_sentinel_rejected():
    source = """
df = (float,)
agg = fold(df, (-inf,), lambda a, r: (a[0] + r[0],))
out = filter(agg, lambda a: a[0] > 0.0)
"""
    with pytest.raises(DslTypeError) as exc:
        typecheck(parse(source))
    assert "-inf" in str(exc.value)


_LABELLED = 'lab = "x y"\ndf = (str, float)\n'
_LABELLED_POST = "out = filter(agg, lambda a: a[0] > 1)\n"


@pytest.mark.parametrize("init, body", [
    # a conditional whose branches are tuples
    ("(0, -inf)", "((a[0] + 1, a[1]) if r[0] == lab else "
                  "(a[0], r[1] if r[1] > a[1] else a[1]))"),
    # a branch that is the accumulator itself
    ("(0, -inf)", "((a[0] + 1, a[1]) if r[1] > 0.0 else a)"),
    # a match whose cases are tuples
    ("(0, -inf, None)", "(match a[2]: case None: (a[0] + 1, a[1], a[2]) "
                        "case v: (a[0] + v, r[1] if r[1] > a[1] else a[1], "
                        "a[2]))"),
], ids=["cond", "self", "match"])
def test_the_neginf_taint_is_split_by_component(init, body):
    """Only the second component starts as -inf and only it may stay so;
    the int counter beside it is free for arithmetic."""
    typecheck(parse(_LABELLED + f"agg = fold(df, {init}, lambda a, r: {body})\n"
                    + _LABELLED_POST))


def test_arithmetic_on_a_tainted_component_is_still_rejected():
    source = (_LABELLED + "agg = fold(df, (0, -inf), lambda a, r: "
              "((a[0] + 1, a[1] + 1.0) if r[0] == lab else a))\n"
              + _LABELLED_POST)
    with pytest.raises(DslTypeError) as exc:
        typecheck(parse(source))
    assert str(exc.value) == "3:57: arithmetic on a float that may be -inf"


def test_typecheck_is_deterministic():
    t1 = make_task("case_a")
    t2 = make_task("case_a")
    assert [fmt_expr(c) for c in t1.post_conjuncts] == [
        fmt_expr(c) for c in t2.post_conjuncts
    ]


# -- the front end's errors: each message with its span

_SCHEMA = "df = (float,)\n"
_FOLD = "agg = fold(df, (0.0,), lambda a, r: (a[0] + r[0],))\n"
_POST = "out = filter(agg, lambda a: a[0] > 1.0)\n"
_KEPT_FOLD = "agg = fold(kept, (0.0,), lambda a, r: (a[0] + r[0],))\n"


def _with_fold(fold_stmt, post=_POST):
    return _SCHEMA + fold_stmt + "\n" + post


FRONT_END_ERRORS = {
    "multiple-schema": (_SCHEMA + "dg = (int,)\n" + _FOLD + _POST,
                        "2:1: multiple schema declarations"),
    "empty-schema": ("df = ()\n" + _FOLD + _POST,
                     "1:6: tuple arity must be >= 1"),
    "fold-before-schema": (_FOLD + _SCHEMA + _POST,
                           "1:1: fold before schema declaration"),
    "fold-source": (
        _SCHEMA + "x = (1.0,)\nagg = fold(x, (0.0,), lambda a, r: (a[0],))\n"
        + _POST, "3:1: fold must consume the declared input dataframe"),
    "fold-arity": (_with_fold("agg = fold(df, (0.0,), lambda a: (a[0],))"),
                   "2:24: fold lambda takes two parameters (accumulator, row)"),
    "prefilter-arity": (
        _SCHEMA + "kept = filter(df, lambda r, s: r[0] > 1.0)\n" + _KEPT_FOLD
        + _POST, "2:19: row filter lambda takes one parameter"),
    "post-arity": (_SCHEMA + _FOLD + "out = filter(agg, lambda a, b: True)\n",
                   "3:19: post filter lambda takes one parameter"),
    "prefilter-fix": (
        _SCHEMA + "kept = filter(df, fix r: r[0] > 1.0)\n" + _KEPT_FOLD
        + _POST, "2:19: fix lambdas are not supported"),
    "post-fix": (_SCHEMA + _FOLD + "out = filter(agg, fix a: a[0] > 1.0)\n",
                 "3:19: fix lambdas are not supported"),
    "non-tuple-initializer": (
        _with_fold("agg = fold(df, 0.0, lambda a, r: (a[0],))"),
        "2:16: fold initializer must be a tuple of constants"),
    "named-initializer": (
        _SCHEMA + "z = (0.0,)\nagg = fold(df, z, lambda a, r: (a[0],))\n"
        + _POST, "3:16: fold initializer must be a tuple of constants"),
    "nested-filter-statement": (
        _SCHEMA + _FOLD + "out = (1, filter(agg, lambda a: True))\n",
        "3:1: fold/filter must be the whole right-hand side of a statement"),
    "filter-in-a-lambda": (
        _with_fold("agg = fold(df, (0.0,), lambda a, r: "
                   "(a[0] if filter(df, lambda q: True) else r[0],))"),
        "2:46: filter is not allowed in this position"),
    "type-tuple-in-a-lambda": (
        _with_fold("agg = fold(df, (0.0,), lambda a, r: (int,))"),
        "2:37: typetuple is not allowed in this position"),
    "non-tuple-accumulator": (
        _with_fold("agg = fold(df, (0.0,), lambda a, r: r[0])"),
        "2:38: type mismatch: float vs (float,)"),
    "accumulator-annotation": (
        _with_fold("agg: (int,) = fold(df, (0.0,), lambda a, r: (r[0],))"),
        "2:1: type mismatch: float vs int"),
    "constant-annotation": (_SCHEMA + "c: (int,) = (1.0,)\n" + _FOLD + _POST,
                            "2:1: type mismatch: float vs int"),
    "empty-initializer": (_with_fold("agg = fold(df, (), lambda a, r: a)"),
                          "2:16: tuple arity must be >= 1"),
    "nested-tuple": (
        _with_fold("agg = fold(df, ((0.0, 1.0),), lambda a, r: a)"),
        "2:17: nested tuples are not allowed"),
    "tuple-index": (
        _with_fold("agg = fold(df, (0.0,), lambda a, r: (a[0] + r[3],))"),
        "2:46: tuple index 3 out of range for (float,)"),
    "index-a-scalar": (
        _with_fold("agg = fold(df, (0.0,), lambda a, r: (a[0] + r[0][0],))"),
        "2:49: cannot index value of type float"),
    "slice-a-scalar": (
        _with_fold("agg = fold(df, ([0.0],), lambda a, r: (r[0][1:],))"),
        "2:44: cannot slice value of type float"),
    "insert-target": (
        _with_fold("agg = fold(df, (0.0,), lambda a, r: "
                   "(insert(a[0], r[0]),))"),
        "2:38: insert target must be a list, got float"),
    "insert-element": (
        _with_fold("agg = fold(df, ([True],), lambda a, r: "
                   "(insert(a[0], r[0] > 1.0),))",
                   "out = filter(agg, lambda a: a[0][0])\n"),
        "2:41: insert requires a numeric element type"),
    "ambiguous-type": (
        _with_fold("agg = fold(df, ([], 0.0), lambda a, r: "
                   "(a[0], a[1] + r[0]))",
                   "out = filter(agg, lambda a: a[1] > 1.0)\n"),
        "2:40: ambiguous type; add a concrete value"),
    "numeric-operand": (
        _with_fold("agg = fold(df, (0.0,), lambda a, r: (a[0] + True,))"),
        "2:43: numeric operand expected, got bool"),
    "integer-division": (
        "df = (int,)\nagg = fold(df, (0,), lambda a, r: (a[0] / 2,))\n"
        "out = filter(agg, lambda a: a[0] > 1)\n",
        "2:41: division is defined on float only"),
    "unbound-name": (
        _with_fold("agg = fold(df, (0.0,), lambda a, r: (a[0] + x[0],))"),
        "2:45: unbound identifier 'x'"),
    "non-constant-initializer": (
        _with_fold("agg = fold(df, (1.0 > 0.0,), lambda a, r: a)",
                   "out = filter(agg, lambda a: a[0])\n"),
        "2:21: initializer components must be constants"),
    "initializer-arithmetic-on-neginf": (
        _with_fold("agg = fold(df, (-inf + 1.0,), lambda a, r: a)"),
        "2:22: arithmetic on -inf in constant"),
    # a conditional's test is checked before its branches
    "arithmetic-on-neginf-in-a-test": (
        _with_fold("agg = fold(df, (-inf,), lambda a, r: "
                   "(a[0] + 1.0 if a[0] + 2.0 > 0.0 else r[0],))"),
        "2:58: arithmetic on a float that may be -inf"),
    "prefilter-not-boolean": (
        _SCHEMA + "kept = filter(df, lambda r: r[0])\n" + _KEPT_FOLD + _POST,
        "2:30: type mismatch: float vs bool"),
    "post-filter-not-boolean": (
        _SCHEMA + _FOLD + "out = filter(agg, lambda a: a[0] + 1.0)\n",
        "3:34: type mismatch: float vs bool"),
    # reported at the post-filter's span: that of its outermost operator
    "cnf-of-a-disjunction": (
        _SCHEMA + _FOLD + "out = filter(agg, lambda a: " + " or ".join(
            f"(a[0] > {i}.0 and a[0] < {i}.5)" for i in range(7)) + ")\n",
        "3:212: CNF of the post-filter exceeds 64 clauses"),
    "cnf-of-a-conjunction": (
        _SCHEMA + _FOLD + "out = filter(agg, lambda a: " + " and ".join(
            f"a[0] > {i}.0" for i in range(65)) + ")\n",
        "3:1039: CNF of the post-filter exceeds 64 clauses"),
    # with two post-filter stages, at the span of the stage past the cap
    "cnf-of-a-second-stage": (
        _SCHEMA + _FOLD + _POST + "out2 = filter(out, lambda a: " + " or ".join(
            f"(a[0] > {i}.0 and a[0] < {i}.5)" for i in range(7)) + ")\n",
        "4:213: CNF of the post-filter exceeds 64 clauses"),
    "cnf-of-two-stages": (
        _SCHEMA + _FOLD + "out = filter(agg, lambda a: " + " and ".join(
            f"a[0] > {i}.0" for i in range(40)) + ")\n"
        + "out2 = filter(out, lambda a: " + " and ".join(
            f"a[0] < {i}.0" for i in range(25)) + ")\n",
        "4:400: CNF of the post-filter exceeds 64 clauses"),
}


@pytest.mark.parametrize("source, error", FRONT_END_ERRORS.values(),
                         ids=FRONT_END_ERRORS)
def test_front_end_error_message_and_span(source, error):
    with pytest.raises(DslTypeError) as exc:
        typecheck(parse(source))
    assert str(exc.value) == error


def test_a_schema_without_columns_is_rejected():
    """The parser reads no empty type tuple, but a built program may hold
    one."""
    program = parse(_SCHEMA + _FOLD + _POST)
    program.stmts[0].expr = replace(program.stmts[0].expr, types=())
    with pytest.raises(DslTypeError) as exc:
        typecheck(program)
    assert str(exc.value) == "1:1: schema must have at least one column"


# -- names: parameters are renamed, constants inlined, stages unbound


@pytest.mark.parametrize("source, rows, expected", [
    ("r = (5,)\ndf = (int,)\n"
     "agg = fold(df, (0,), lambda acc, row: (acc[0] + r[0],))\n"
     "out = filter(agg, lambda x: x[0] > 5)\n", [(1,), (1,)], (10,)),
    ("a = (3,)\ndf = (int,)\n"
     "agg = fold(df, (0,), lambda acc, row: (acc[0] + row[0],))\n"
     "out = filter(agg, lambda x: x[0] > a[0])\n", [(2,), (2,)], (4,)),
    ("r = 2\ndf = (int,)\n"
     "kept = filter(df, lambda x: x[0] > r)\n"
     "agg = fold(kept, (0,), lambda a, y: (a[0] + y[0],))\n"
     "out = filter(agg, lambda a: a[0] > 0)\n", [(1,), (3,), (4,)], (7,)),
], ids=["r-in-the-fold", "a-in-the-post-filter", "r-in-the-prefilter"])
def test_a_constant_named_like_a_canonical_parameter_is_not_captured(
        source, rows, expected):
    task = typecheck(parse(source))
    assert run_pipeline(task, rows) == LiftResult(expected)


@pytest.mark.parametrize("source, error", [
    (_SCHEMA + _FOLD + "out = filter(agg, lambda x: x[0] > agg[0])\n",
     "3:36: unbound identifier 'agg'"),
    (_with_fold("agg = fold(df, (0.0,), lambda a, r: (a[0] + df[0],))"),
     "2:45: unbound identifier 'df'"),
    (_SCHEMA + "c = df\n" + _FOLD + _POST, "2:5: unbound identifier 'df'"),
], ids=["fold-result-in-the-post-filter", "frame-in-the-fold",
        "frame-in-a-constant"])
def test_a_stage_name_is_unbound(source, error):
    with pytest.raises(DslTypeError) as exc:
        typecheck(parse(source))
    assert str(exc.value) == error


def test_a_binder_that_would_capture_a_renamed_parameter_is_rejected():
    source = ("df = (int,)\n"
              "agg = fold(df, (None, 0), lambda acc, r: ((match acc[0]: "
              "case None: r[0] case a: a + acc[1]), acc[1] + 1))\n"
              "out = filter(agg, lambda x: x[1] > 1)\n")
    with pytest.raises(DslTypeError) as exc:
        typecheck(parse(source))
    assert str(exc.value) == ("2:74: match binder 'a' would capture "
                              "parameter 'acc', which is renamed to 'a'")


def test_a_binder_shadows_parameters_and_constants():
    task = typecheck(parse(
        "v = 7\ndf = (int,)\n"
        "agg = fold(df, (None,), lambda a, r: ((match a[0]: "
        "case None: (None if r[0] < 0 else r[0]) case v: v + r[0]),))\n"
        "out = filter(agg, lambda a: match a[0]: case None: False "
        "case a: a > v)\n"))
    assert run_pipeline(task, [(1,), (7,)]) == LiftResult((Some(8),))
    assert run_pipeline(task, [(1,), (2,)]) == LiftResult(BOTTOM)


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


# -- structural equality: every kind, through the one child table

_ONE_OF_EACH = {}
for _node in walk(_every_kind()):
    _ONE_OF_EACH.setdefault(type(_node), _node)

# a different value for each non-child field
_CHANGED = {"kind": "float", "value": 2, "ident": "w", "op": "-",
            "types": (FLOAT,), "index": 1, "start": 2, "params": ["b"],
            "is_fix": True}


def _respanned(e):
    """A deep copy of `e` with a new span and type on every node and case."""
    e = map_children(e, _respanned)
    if isinstance(e, Match):
        e = replace(e, cases=[replace(c, span=Span(7, 7)) for c in e.cases])
    return replace(e, span=Span(9, 9), ty=FLOAT)


def test_every_expression_kind_has_an_equality_case():
    assert set(_ONE_OF_EACH) == set(Expr.__subclasses__())


@pytest.mark.parametrize("node", _ONE_OF_EACH.values(),
                         ids=lambda n: type(n).__name__)
def test_structural_equality_ignores_span_and_type(node):
    copy = _respanned(node)
    assert copy is not node and copy.span != node.span
    assert structurally_equal(node, copy) and structurally_equal(copy, node)


@pytest.mark.parametrize("node", _ONE_OF_EACH.values(),
                         ids=lambda n: type(n).__name__)
def test_structural_equality_sees_each_field_child_and_count(node):
    variants = [replace(node, **{f: v}) for f, v in _CHANGED.items()
                if hasattr(node, f)]
    for kid in children(node):
        variants.append(map_children(
            node, lambda c, kid=kid: Name(ident="other") if c is kid else c))
    if isinstance(node, (TupleExpr, ListExpr)):
        variants += [replace(node, items=node.items + [Name(ident="x")]),
                     replace(node, items=node.items[:1] + node.items),
                     replace(node, items=node.items[:-1])]
    if isinstance(node, Match):
        variants += [
            replace(node, cases=node.cases + [Case("w", Name(ident="w"))]),
            replace(node, cases=node.cases[:-1]),
            replace(node, cases=[node.cases[0], replace(node.cases[1],
                                                        pattern="w")]),
        ]
    assert variants
    for variant in variants:
        assert not structurally_equal(node, variant), variant
        assert not structurally_equal(variant, node), variant


def test_structural_equality_compares_numbers_by_value():
    assert structurally_equal(Lit(kind="int", value=1),
                              Lit(kind="int", value=Fraction(1)))
    assert structurally_equal(Lit(kind="float", value=0.5),
                              Lit(kind="float", value=Fraction(1, 2)))
    assert not structurally_equal(Lit(kind="int", value=1),
                                  Lit(kind="float", value=1))
    assert not structurally_equal(Lit(kind="str", value="1"),
                                  Lit(kind="str", value="2"))
    with pytest.raises(TypeError):
        structurally_equal(1, 1)
    with pytest.raises(TypeError):
        structurally_equal(Case(None, Name(ident="x")),
                           Case(None, Name(ident="x")))


def test_substitute_respects_match_binders():
    payload = SomeVal(operand=Name(ident="s"))
    e = BinOp(op="+", left=Name(ident="v"), right=Match(
        scrutinee=Name(ident="v"),
        cases=[Case(None, Name(ident="v")), Case("v", Name(ident="v"))]))
    out = substitute(e, {"v": payload})
    assert out.left is payload and out.right.scrutinee is payload
    assert out.right.cases[0].body is payload
    assert out.right.cases[1] is e.right.cases[1]  # bound by its case
    assert substitute(e, {}) is e and substitute(e, {"q": payload}) is e
