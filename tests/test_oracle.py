"""Brute-force oracles: optimality and weakest implicants on micro-instances."""

import pytest

from pushdown_synth.synth import (
    PushdownSolution, Run, find_weakest_implicant, synthesize,
)
from pushdown_synth.vcgen import check_witness, mask

from conftest import fixture_source, make_context
from microgen import micro_context
from oracle import (
    CapExceeded, brute_force_optimal, brute_force_weakest_implicant,
)


def test_caps_are_enforced():
    ctx = make_context(fixture_source("case_b"), "case_b")
    try:
        with pytest.raises(CapExceeded):
            brute_force_optimal(ctx)
    finally:
        ctx.session.close()


def test_trivial_only_task_keeps_everything():
    ctx = make_context(fixture_source("count_taut"), "count")
    try:
        out = brute_force_optimal(ctx, cap_psi=16)
        assert out is not None
        assert out.q == 0
        # the tautological post-filter is entailed by the strongest invariant,
        # so even the empty residual certifies
        assert check_witness(ctx, out.q, out.certified_residual, out.psi).ok
    finally:
        ctx.session.close()


def test_trivial_solution_with_contentful_p():
    """A task where nothing can be pushed but P itself is the residual."""
    source = """
df = (int,)
agg = fold(df, (0,), lambda a, r: (a[0] + 1,))
out = filter(agg, lambda a: a[0] >= 2)
"""
    ctx = make_context(source, "count2")
    try:
        out = brute_force_optimal(ctx, cap_psi=25)
        assert out is not None and out.q == 0
        assert out.certified_residual == mask(ctx.universes.p_indices)
        assert check_witness(ctx, out.q, out.certified_residual, out.psi).ok
    finally:
        ctx.session.close()


def test_oracle_agrees_with_engine_on_micro_tasks():
    checked = 0
    seed = 0
    while checked < 4:
        seed += 1
        ctx, _ = micro_context(seed)
        try:
            oracle = brute_force_optimal(ctx, cap_psi=16)
            if oracle is None or oracle.q == 0:
                continue  # no genuine opportunity; mirrored benchmark culling
            engine = synthesize(ctx)
            assert isinstance(engine, PushdownSolution)
            assert engine.q == oracle.q
            assert engine.certified_residual == oracle.certified_residual
            assert engine.mode == oracle.mode
            checked += 1
        finally:
            ctx.session.close()


def test_weakest_implicant_matches_brute_force():
    import random

    rng = random.Random(7)
    ctx, _ = micro_context(123)
    try:
        n = len(ctx.universes.u_psi)
        for _ in range(8):
            targets = rng.sample(range(n), k=rng.randint(1, max(1, n // 2)))
            phi = ctx.psi_app(mask(targets))
            fast = find_weakest_implicant(Run(ctx), (1 << n) - 1, phi)
            brute = brute_force_weakest_implicant(ctx, range(n), phi)
            assert fast == brute
    finally:
        ctx.session.close()
