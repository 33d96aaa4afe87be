"""Bounded feasibility screen."""

import json

import pytest

from pushdown_synth.analysis import build_universes
from pushdown_synth.bmc import ScreenVerdict, screen
from pushdown_synth.cli import run
from pushdown_synth.encode import TaskContext
from pushdown_synth.smt import SolverConfig, SolverError, SolverSession

from conftest import (
    FIXTURES, fake_solver, fixture_source, make_context, make_task,
    requires_z3,
)


@requires_z3
@pytest.mark.parametrize("name,expected", [
    ("discount", "Feasible"),
    ("top2", "Feasible"),
    ("case_a", "Feasible"),
    ("case_b", "Feasible"),
    ("frequent", "Feasible"),
    ("count_taut", "Infeasible"),
])
def test_screen_verdicts(name, expected):
    ctx = make_context(fixture_source(name), name, timeout_ms=60000)
    try:
        verdict = screen(ctx, 2)
        assert verdict.kind == expected
    finally:
        ctx.session.close()


def test_screen_row_bound_validation():
    ctx = make_context(fixture_source("count_taut"), "count")
    try:
        with pytest.raises(ValueError):
            screen(ctx, 0)
        with pytest.raises(ValueError):
            screen(ctx, 7)
    finally:
        ctx.session.close()


def test_screen_never_infeasible_when_synthesis_succeeds():
    """A nontrivial synthesized filter refutes an Infeasible verdict."""
    from pushdown_synth.synth import PushdownSolution, synthesize

    for name in ("top2", "discount"):
        ctx = make_context(fixture_source(name), name, timeout_ms=60000)
        try:
            out = synthesize(ctx)
            assert isinstance(out, PushdownSolution) and out.q != 0
            verdict = screen(ctx, 2)
            assert verdict.kind in ("Feasible", "Inconclusive")
        finally:
            ctx.session.close()


@requires_z3
def test_screen_at_other_bounds():
    ctx = make_context(fixture_source("count_taut"), "count", timeout_ms=60000)
    try:
        assert screen(ctx, 1).kind == "Infeasible"
        assert screen(ctx, 3).kind == "Infeasible"
    finally:
        ctx.session.close()


# z3's shape of a model of the screen's query: the pre-filter and the
# nontriviality witness row
BMC_Q = "(define-fun bmc_q ((x!0 Row)) Bool (> (row0 x!0) 2.0))"
BMC_W = "(define-fun bmc_w () Row (row 0.0))"


def _fake_screen(tmp_path, replies):
    """`screen` on discount over a session whose solver answers
    ``replies``."""
    task = make_task("discount")
    solver = fake_solver(tmp_path, replies)
    with SolverSession(SolverConfig(solver_path=solver)) as session:
        return screen(TaskContext(task, build_universes(task), session), 2)


@pytest.mark.parametrize("replies,verdict", [
    ({"(check-sat)": "sat", "(get-model)": f"(model {BMC_W} {BMC_Q})"},
     ScreenVerdict("Feasible", witness="(> (row0 x!0) 2.0)")),
    ({"(check-sat)": "unsat"}, ScreenVerdict("Infeasible")),
    ({"(check-sat)": "unknown", "(get-info :reason-unknown)":
      '(:reason-unknown "(incomplete quantifiers)")'},
     ScreenVerdict("Inconclusive", reason="(incomplete quantifiers)")),
], ids=["sat", "unsat", "unknown"])
def test_screen_verdict_of_each_check_status(tmp_path, replies, verdict):
    assert _fake_screen(tmp_path, replies) == verdict


def test_a_screen_model_without_the_pre_filter_is_an_error_record(tmp_path):
    replies = {"(check-sat)": "sat", "(get-model)": f"(model {BMC_W})"}
    with pytest.raises(SolverError, match=r"lacks assignments for \['bmc_q'\]"):
        _fake_screen(tmp_path, replies)
    out = tmp_path / "screen.json"
    code = run(["screen", "--solver", fake_solver(tmp_path, replies),
                "--out", str(out), str(FIXTURES / "discount.pdsl")])
    assert code == 1
    record = json.loads(out.read_text())
    assert record["status"] == "error"
    assert record["error"] == "model lacks assignments for ['bmc_q']"
    assert record["stats"]["solver_calls"] == 1
