"""Solver session behavior, model soundness, interpreter/solver agreement."""

import gc
import itertools
import random
import subprocess
import sys
import types
import warnings
from fractions import Fraction

import pytest

from pushdown_synth import smt
from pushdown_synth.smt import (
    SolverConfig, SolverCrashed, SolverError, SolverSession, decode_number,
    parse_sexp, start_session,
)

from conftest import (
    EXIT, HANG_UP, SILENT, eval_atom, fake_solver, fixture_source,
    make_context,
)


def test_empty_theory_is_satisfiable():
    with start_session(SolverConfig()) as session:
        assert session.check([]).status == "sat"


@pytest.mark.parametrize("text", ["(a", "a)"])
def test_unbalanced_s_expression_is_a_solver_error(text):
    with pytest.raises(SolverError):
        parse_sexp(text)


def test_nonexistent_solver_path_errors():
    with pytest.raises(SolverError):
        start_session(SolverConfig(solver_path="/nonexistent/solver-binary"))


def test_check_valid_basic():
    with start_session(SolverConfig()) as session:
        session.declare_const("x", "Real", decode_number)
        res = session.check_valid(["=>", [">", "x", "0.0"], [">=", "x", "0.0"]])
        assert res.is_valid
        res = session.check_valid(
            ["=>", [">", "x", "0.0"], [">", "x", "1.0"]], ("x",)
        )
        assert res.is_invalid
        x = res.model["x"]
        assert Fraction(0) < x <= Fraction(1)


def test_frame_discipline_identical_queries_identical_verdicts():
    with start_session(SolverConfig()) as session:
        session.declare_const("n", "Int", decode_number)
        formula = ["=>", [">", "n", "3"], [">", "n", "1"]]
        first = session.check_valid(formula)
        second = session.check_valid(formula)
        assert first.status == second.status == "valid"


def test_tiny_timeout_yields_unknown():
    with start_session(SolverConfig(timeout_ms=1)) as session:
        for name in "abcdef":
            session.declare_const(name, "Int", decode_number)
        # nonlinear integer arithmetic, far beyond a 1 ms budget
        product = ["*", "a", ["*", "b", ["*", "c", ["*", "d", ["*", "e", "f"]]]]]
        clauses = ["and"]
        for k in range(2, 9):
            clauses.append(["=>", ["=", product, str(k ** 6 + 1)],
                            [">", ["*", "a", "a"], str(k)]])
        res = session.check_valid(clauses)
        assert res.is_unknown
        assert res.reason in ("timeout", "incomplete")


def test_model_soundness_ground_negation_true():
    """An Invalid model falsifies the queried implication under ground eval.

    With psi empty and the residual empty, Final reduces to
    P(a1) and a1 = a2 (the both-reject disjunct is unsatisfiable), so a
    countermodel must falsify exactly that."""
    ctx = make_context(fixture_source("top2"), "top2")
    try:
        from pushdown_synth.interp import truth
        from pushdown_synth.vcgen import holds, p_conjunction, vc_final
        from pushdown_synth.values import values_equal

        p = p_conjunction(ctx)
        res = ctx.session.check_valid(vc_final(ctx, 0, p, 0), ("a1", "a2"))
        assert res.is_invalid
        a1, a2 = res.model["a1"], res.model["a2"]
        assert not (holds(truth(ctx.universes.u_residual), p, a1)
                    and values_equal(a1, a2))
    finally:
        ctx.session.close()


def test_eval_atom_matches_solver_on_ground_instances():
    ctx = make_context(fixture_source("case_b"), "case_b")
    try:
        rng = random.Random(11)
        from pushdown_synth.values import NONE, Some

        for _ in range(25):
            price = Fraction(rng.randint(-20, 220), rng.choice([1, 2]))
            epoch = rng.randint(-5, 70)
            oe = NONE if rng.random() < 0.3 else Some(rng.randint(-5, 70))
            acc = (price, oe, Fraction(rng.randint(0, 120)),
                   NONE if rng.random() < 0.3 else Some(rng.randint(0, 70)))
            env = {"a": acc}
            for atom in ctx.universes.u_residual:
                ground = eval_atom(atom.expr, env)
                acc_sexp = ctx.enc.value_sexp(acc, ctx.task.acc_type)
                formula = ["=", [f"up_{atom.index}", acc_sexp],
                           "true" if ground else "false"]
                assert ctx.session.check_valid(formula).is_valid, (
                    atom, acc, ground
                )
    finally:
        ctx.session.close()


# a solver that acknowledges every command, finds each query sat, and writes
# its model in two flushed chunks split inside a string literal
_FAKE_SOLVER = r'''
import sys
import time


def say(text):
    sys.stdout.write(text)
    sys.stdout.flush()


for line in sys.stdin:
    command = line.strip()
    if command == "(exit)":
        break
    if command == "(check-sat)":
        say("sat\n")
    elif command == "(get-model)":
        say('(\n  (define-fun x () Int\n    2)\n  (define-fun s () String "a)(')
        time.sleep(0.05)
        say('b")\n)\n')
    else:
        say("success\n")
'''


def test_subprocess_session_frames_a_model_read_in_two_chunks(tmp_path):
    """`SolverSession` against a fake solver, so its framing runs where no
    external solver is installed."""
    solver = tmp_path / "fake-solver"
    solver.write_text(f"#!{sys.executable}\n" + _FAKE_SOLVER)
    solver.chmod(0o755)
    session = SolverSession(SolverConfig(solver_path=str(solver)))
    try:
        session.declare_const("x", "Int", decode_number)
        session.declare_const("s", "String", str)
        res = session.check_valid([">", "x", "3"], ("x", "s"))
        assert res.is_invalid
        assert res.model == {"x": 2, "s": '"a)(b"'}
    finally:
        session.close()
    assert session.proc.wait(timeout=10) is not None


def test_subprocess_session_starts_with_the_quantifier_options(tmp_path):
    log = tmp_path / "transcript.smt"
    solver = fake_solver(tmp_path, {})
    with SolverSession(SolverConfig(solver_path=solver, timeout_ms=500,
                                    log_path=str(log))):
        pass
    sent = [line for line in log.read_text().splitlines()
            if not line.startswith(";")]
    assert sent == [
        "(set-option :print-success true)", "(set-option :timeout 500)",
        "(set-option :produce-models true)", "(set-option :smt.mbqi true)",
        "(set-option :smt.ematching false)", "(exit)",
    ]


def test_subprocess_reason_unknown_is_unwrapped(tmp_path):
    log = tmp_path / "transcript.smt"
    solver = fake_solver(tmp_path, {
        "(check-sat)": "unknown",
        "(get-info :reason-unknown)": '(:reason-unknown "canceled")',
    })
    with SolverSession(SolverConfig(solver_path=solver,
                                    log_path=str(log))) as session:
        assert session.check(["false"]).reason == "canceled"
        assert session.check_valid("true").reason == "timeout"
    # the transcript notes the reply as sent
    lines = log.read_text().splitlines()
    at = lines.index("; -> unknown")
    assert lines[at + 1:at + 5] == [
        "(get-info :reason-unknown)", '; -> (:reason-unknown "canceled")',
        "(pop 1)", "; -> success",
    ]


def _not_a_program(directory):
    path = directory / "not-a-program"
    path.write_text("an executable file with no interpreter line\n")
    path.chmod(0o755)
    return str(path)


@pytest.mark.parametrize("solver,message", [
    (lambda d: fake_solver(d, {}, default='(error "unsupported")'),
     "solver handshake failed (print-success)"),
    (_not_a_program, "cannot spawn solver"),
], ids=["handshake", "spawn"])
def test_a_failed_solver_start_leaves_no_process_pipe_or_log_open(
        tmp_path, monkeypatch, solver, message):
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(smt.subprocess, "Popen", Recorded)
    config = SolverConfig(solver_path=solver(tmp_path),
                          log_path=str(tmp_path / "transcript.smt"))
    # no `pytest.raises`: its traceback would keep the session alive past
    # the collection below
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            SolverSession(config)
        except SolverError as exc:
            error = str(exc)
        gc.collect()
    assert error.startswith(message)
    for proc in started:
        assert proc.poll() is not None
        assert proc.stdin.closed and proc.stdout.closed
    assert [w.message for w in caught
            if issubclass(w.category, ResourceWarning)] == []


def test_list_operations_agree_with_solver_on_short_lists():
    """Sorted insertion, indexing, and suffix slices: ground interpreter
    results match the unrolled solver encoding below the unroll depth."""
    source = """
df = (float,)
keep = fold(df, ([],), lambda a, r: (insert(a[0], r[0])[-3:],))
out = filter(keep, lambda a: True)
"""
    from pushdown_synth.parser import parse
    from pushdown_synth.typecheck import typecheck
    from pushdown_synth.analysis import build_universes
    from pushdown_synth.encode import TaskContext
    from pushdown_synth.interp import eval_fold
    from pushdown_synth.smt import SolverConfig, start_session
    import random

    task = typecheck(parse(source), "topk")
    universes = build_universes(task)
    with start_session(SolverConfig()) as session:
        ctx = TaskContext(task, universes, session)
        rng = random.Random(2)
        for _ in range(6):
            frame = [(Fraction(rng.randint(0, 50)),)
                     for _ in range(rng.randint(1, 5))]
            result = eval_fold(task, frame).value
            state = ctx.enc.value_sexp(result, task.acc_type)
            folded = ctx.enc.init_sexp()
            for row in frame:
                folded = ["facc", folded,
                          ctx.enc.value_sexp(tuple(row), ctx.enc.row_type)]
            assert session.check_valid(["=", folded, state]).is_valid, frame


def test_spec_eval_atom_examples():
    ctx = make_context(
        fixture_source("top2"), "top2", extra_q=["r[0] > 95.0"]
    )
    try:
        u_q = ctx.universes.u_q
        row = (Fraction(92),)
        assert eval_atom(u_q[0].expr, {"r": row}) is True  # score > 90 on 92.0
        assert eval_atom(u_q[1].expr, {"r": row}) is False  # score > 95 on 92.0
        # strict comparison at the exact boundary constant is false
        assert eval_atom(u_q[0].expr, {"r": (Fraction(90),)}) is False
    finally:
        ctx.session.close()


# -- the subprocess backend's fault branches, played by fake solvers

def _query_x(session):
    return session.check([[">", "x", "1"]], model_names=("x",))


def _fake_session(tmp_path, replies, **config):
    session = SolverSession(SolverConfig(
        solver_path=fake_solver(tmp_path, replies), **config))
    session.declare_const("x", "Int", decode_number)
    return session


def _kill(session):
    session.proc.kill()
    session.proc.wait()


@pytest.mark.parametrize("replies,crash,message", [
    ({"(check-sat)": EXIT}, None, "solver closed its output"),
    ({}, _kill, "solver process is gone"),
    ({"(push 1)": HANG_UP}, None, "solver pipe broken"),
], ids=["closed-output", "process-gone", "broken-pipe"])
def test_a_solver_gone_mid_query_poisons_the_session(
        tmp_path, replies, crash, message):
    session = _fake_session(tmp_path, replies)
    try:
        if crash:
            crash(session)
        with pytest.raises(SolverCrashed, match=message):
            _query_x(session)
        assert session.poisoned
        with pytest.raises(SolverCrashed, match="session is poisoned"):
            _query_x(session)
    finally:
        session.close()
    assert session.proc.poll() is not None


def test_an_error_reply_to_an_assert_names_the_command(tmp_path):
    session = _fake_session(tmp_path, {
        "(assert (> x 1))": '(error "line 7 column 12: unknown constant")',
        "(check-sat)": "unsat",
    })
    with session:
        with pytest.raises(SolverError, match=r"\(assert \(> x 1\)\)") as err:
            _query_x(session)
        assert not isinstance(err.value, SolverCrashed)
        assert not session.poisoned
        assert session.check([]).status == "unsat"


def test_an_unexpected_check_sat_reply_poisons_the_session(tmp_path):
    with _fake_session(tmp_path, {"(check-sat)": "unsupported"}) as session:
        with pytest.raises(SolverCrashed, match="unexpected check-sat"):
            _query_x(session)
        assert session.poisoned
        with pytest.raises(SolverCrashed, match="session is poisoned"):
            _query_x(session)


def test_an_error_reply_to_get_model_is_a_solver_error(tmp_path):
    session = _fake_session(tmp_path, {
        "(check-sat)": "sat", "(get-model)": '(error "no model available")',
    })
    with session:
        with pytest.raises(SolverError, match="get-model failed"):
            _query_x(session)


def test_a_solver_silent_past_its_deadline_is_killed(tmp_path, monkeypatch):
    """The deadline is three timeouts plus 10 s; a clock that runs 6 s per
    reading passes it after one real wait of at most a second."""
    session = _fake_session(tmp_path, {"(check-sat)": SILENT}, timeout_ms=1)
    clock = itertools.count(step=6)
    monkeypatch.setattr(smt, "time",
                        types.SimpleNamespace(monotonic=lambda: next(clock)))
    with session:
        with pytest.raises(SolverCrashed, match="unresponsive past deadline"):
            _query_x(session)
        assert session.poisoned
    assert session.proc.poll() is not None
