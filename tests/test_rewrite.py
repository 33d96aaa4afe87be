"""Rewritten-pipeline emission."""

import random

import pytest

from pushdown_synth.fuzz import column_pools, sample_dataframe
from pushdown_synth.interp import eval_fold, lift_eval, run_pipeline
from pushdown_synth.parser import parse
from pushdown_synth.rewrite import emit_rewritten
from pushdown_synth.synth import PushdownSolution, SynthStats, synthesize
from pushdown_synth.typecheck import typecheck
from pushdown_synth.vcgen import Conjunction, p_conjunction

from conftest import fixture_source, make_context


@pytest.mark.parametrize("name", ["top2", "discount", "case_a", "case_b", "frequent"])
def test_emitted_program_reparses_and_agrees(name):
    ctx = make_context(fixture_source(name), name)
    try:
        out = synthesize(ctx)
        assert isinstance(out, PushdownSolution)
        text = emit_rewritten(ctx.task, ctx.universes, out)
        rewritten = typecheck(parse(text), name + "_rw")
        rng = random.Random(99)
        pools = column_pools(ctx.task, ctx.universes)
        for _ in range(400):
            frame = sample_dataframe(rng, pools)
            original = lift_eval(
                [ctx.task.post_pred] if ctx.task.post_pred else [],
                eval_fold(ctx.task, frame),
            )
            assert run_pipeline(rewritten, frame) == original
    finally:
        ctx.session.close()


def test_exact_solution_emits_no_trailing_filter():
    ctx = make_context(fixture_source("discount"), "discount")
    try:
        out = synthesize(ctx)
        assert out.mode == "exact"
        text = emit_rewritten(ctx.task, ctx.universes, out)
        assert "kept = filter(df" in text
        assert "out =" not in text  # residual omitted entirely
    finally:
        ctx.session.close()


def test_trivial_solution_elides_the_vacuous_prefilter():
    ctx = make_context(fixture_source("top2"), "top2")
    try:
        trivial = PushdownSolution(
            q=Conjunction.of("q", ()),
            residual=p_conjunction(ctx),
            certified_residual=p_conjunction(ctx),
            psi=Conjunction.of("psi", ()),
            mode="partial",
            stats=SynthStats(),
        )
        text = emit_rewritten(ctx.task, ctx.universes, trivial)
        assert "kept" not in text
        assert "fold(df" in text
        rewritten = typecheck(parse(text), "trivial_rw")
        assert rewritten.post_pred is not None
    finally:
        ctx.session.close()
