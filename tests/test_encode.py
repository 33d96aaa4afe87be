"""The SMT value encoding: `TaskEncoding.decode` inverts `value_sexp` for
every DSL type, and also reads the other forms a solver prints for a value
(bare `F` numerals, negated and divided numerals, qualified `nil`, spare
`Str` elements). The translation memo is scoped to one environment: a
match binder's body, another environment and another context each
translate afresh."""

from dataclasses import replace
from fractions import Fraction

import pytest

from pushdown_synth.analysis import build_universes
from pushdown_synth.encode import TaskContext, TaskEncoding
from pushdown_synth.parser import parse, parse_expression
from pushdown_synth.smt import SolverError, parse_sexp
from pushdown_synth.syntax import (
    BOOL, FLOAT, INT, STR, BinOp, Case, TList, TOpt, TTuple,
)
from pushdown_synth.typecheck import type_predicate, typecheck
from pushdown_synth.values import NEG_INF, NONE, Some

from conftest import make_context, make_task
from test_declaration_pin import RecordingSession

# floats as Reals; a list, an option, a bool and two string labels
REAL_SOURCE = """
df = (float, int, str, bool)
agg = fold(df, ([0.0], 0, None, False, "low"),
  lambda a, r: (insert(a[0], r[0]), a[1] + r[1],
                r[1] if r[3] else a[2], r[3],
                r[2] if r[2] == "high" else a[4]))
out = filter(agg, lambda a: a[1] > 3)
"""

ACC = TTuple((TList(FLOAT), INT, TOpt(INT), BOOL, STR))


@pytest.fixture(scope="module")
def real_enc():
    enc = TaskEncoding(typecheck(parse(REAL_SOURCE), "enc"))
    assert not enc.float_adt and enc.task.acc_type == ACC
    return enc


@pytest.fixture(scope="module")
def f_enc():
    # top2 mentions -inf: floats are the NegInf | Fin datatype F
    enc = TaskEncoding(make_task("top2"))
    assert enc.float_adt
    return enc


@pytest.mark.parametrize("value, ty", [
    (True, BOOL), (False, BOOL), (0, INT), (-7, INT),
    (Fraction(-5, 3), FLOAT), (Fraction(4), FLOAT),
    ("high", STR), ("low", STR),
    (NONE, TOpt(INT)), (Some(-4), TOpt(INT)),
    ([], TList(FLOAT)), ([Fraction(1), Fraction(-1, 2)], TList(FLOAT)),
    (([Fraction(2)], 3, Some(0), True, "high"), ACC),
])
def test_decode_inverts_value_sexp_over_reals(real_enc, value, ty):
    assert real_enc.decode(real_enc.value_sexp(value, ty), ty) == value


@pytest.mark.parametrize("value", [
    NEG_INF, Fraction(0), Fraction(-5), Fraction(7, 3),
])
def test_decode_inverts_value_sexp_over_f(f_enc, value):
    assert f_enc.decode(f_enc.value_sexp(value, FLOAT), FLOAT) == value
    pair = (value, Fraction(1))
    assert f_enc.decode(f_enc.value_sexp(pair, f_enc.task.acc_type),
                        f_enc.task.acc_type) == pair


def _printed(enc, text, ty):
    return enc.decode(parse_sexp(text)[0], ty)


def test_decode_reads_the_forms_a_solver_prints(real_enc, f_enc):
    # a solver may simplify an F value to a bare numeral
    assert _printed(f_enc, "5.0", FLOAT) == 5
    assert _printed(f_enc, "(- 5.0)", FLOAT) == -5
    assert _printed(f_enc, "(Fin (/ 1.0 3.0))", FLOAT) == Fraction(1, 3)
    assert _printed(real_enc, "(- 5.0)", FLOAT) == -5
    assert _printed(real_enc, "(/ 1.0 3.0)", FLOAT) == Fraction(1, 3)
    assert _printed(real_enc, "(to_real (- 2))", FLOAT) == -2
    assert _printed(real_enc, "(- 3)", INT) == -3
    lst = real_enc.sort_of(TList(FLOAT)).text
    assert _printed(real_enc, f"(as nil_{lst} {lst})", TList(FLOAT)) == []
    assert _printed(real_enc, f"(cons_{lst} 1.0 (as nil_{lst} {lst}))",
                    TList(FLOAT)) == [1]
    # a spare Str element is distinct from every label of the program
    assert _printed(real_enc, "S_other0", STR) == "⟨S_other0⟩"


def test_a_string_the_program_does_not_name_is_the_first_spare(real_enc):
    """The fuzzer's pool stand-in for an unnamed string, and any other, is
    the spare `S_other0`, inside a value too; decoding is unchanged."""
    for label in ("unrelated-label", "", "S_other0", "high "):
        assert real_enc.value_sexp(label, STR) == "S_other0"
        assert real_enc.decode(real_enc.value_sexp(label, STR), STR) == \
            "⟨S_other0⟩"
    assert real_enc.value_sexp(Some("unrelated-label"), TOpt(STR))[1] == \
        "S_other0"
    assert real_enc.value_sexp("high", STR) != "S_other0"


def test_malformed_model_terms_raise_solver_error(real_enc):
    with pytest.raises(SolverError):
        real_enc.decode("true", ACC)  # a tuple needs its constructor
    with pytest.raises(SolverError):
        real_enc.decode("NegInf", FLOAT)  # no -inf in the Real encoding
    with pytest.raises(SolverError):
        real_enc.decode(["*", "2", "3"], INT)


# "a b" and "a_b" sanitize alike, and "other0" to the first spare's name
CLASHING_LABELS = """
df = (str,)
agg = fold(df, (0, 0, 0), lambda a, r: (
  a[0] + 1 if r[0] == "a b" else a[0], a[1] + 1 if r[0] == "a_b" else a[1],
  a[2] + 1 if r[0] == "other0" else a[2]))
out = filter(agg, lambda a: a[0] > a[1])
"""


def test_labels_that_sanitize_alike_get_distinct_constructors():
    ctx = make_context(CLASHING_LABELS, "labels")
    try:
        enc = ctx.enc
        assert "(declare-datatypes ((Str 0)) (((S_a_b) (S_a_b_1) "\
            "(S_other0_1) (S_other0) (S_other1) (S_other2))))" in enc.decls
        for label in ("a b", "a_b", "other0"):
            assert enc.decode(enc.value_sexp(label, STR), STR) == label
        assert enc.decode("S_other0", STR) == "⟨S_other0⟩"
    finally:
        ctx.session.close()


def test_a_body_shared_under_two_matches_reads_each_binder():
    # case_b's accumulator has two `Optional[int]` components, a[1] and a[3]
    enc = TaskEncoding(make_task("case_b"))
    env = {"a": enc.task.acc_type}
    first, second = (type_predicate(parse_expression(
        f"match a[{i}]: case None: False case v: v > 3"), env) for i in (1, 3))
    none_case, bind_case = second.cases
    second = replace(second, cases=[
        none_case, Case(bind_case.pattern, first.cases[1].body)])
    assert second.cases[1].body is first.cases[1].body
    both = BinOp(op="and", left=first, right=second, ty=BOOL)
    texts = [enc.translate(m, {"a": "a"}) for m in (first, second)]
    assert "(> (val_Opt_Int (acc1 a)) 3)" in texts[0]
    assert "(> (val_Opt_Int (acc3 a)) 3)" in texts[1]
    assert enc.translate(both, {"a": "a"}) == f"(and {texts[0]} {texts[1]})"


def test_a_shared_subtree_reads_each_environment(f_enc):
    atom = type_predicate(parse_expression("a[0] > 5.0 and a[1] < a[0]"),
                          {"a": f_enc.task.acc_type})
    both = BinOp(op="or", left=atom, right=atom, ty=BOOL)
    one, two = (f_enc.translate(both, {"a": name}) for name in ("a1", "a2"))
    part = "(and (flt (Fin 5.0) (acc0 a1)) (flt (acc1 a1) (acc0 a1)))"
    assert one == f"(or {part} {part})"
    assert two == one.replace(" a1)", " a2)")


def test_two_contexts_on_the_same_universes_send_the_same_declarations():
    task = typecheck(parse(REAL_SOURCE), "enc")
    universes = build_universes(task)
    # the first atom to need the list's `len` and `drop`
    universes.u_residual.add(type_predicate(
        parse_expression("a[0][-2:][0] > 1.0"), {"a": task.acc_type}))
    sessions = [RecordingSession(), RecordingSession()]
    for session in sessions:
        TaskContext(task, universes, session)
    first, second = (session.texts for session in sessions)
    assert any(text.startswith("(define-fun drop_") for text in first)
    assert first == second
