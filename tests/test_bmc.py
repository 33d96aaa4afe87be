"""Bounded feasibility screen."""

import pytest

from pushdown_synth.bmc import screen

from conftest import fixture_source, make_context, requires_z3


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
            assert isinstance(out, PushdownSolution) and len(out.q) > 0
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
