"""Synthesis engine pieces: repair, bounds, implicants, residual search."""

from fractions import Fraction

import pytest

from pushdown_synth.synth import (
    Budget, PushdownSolution, Run, SynthFailure, check_unrealizable, Diagnosis,
    find_residual, find_strongest_bisimulation, find_weakest_implicant,
    handle_failure, refine_bounds, repair, synthesize, weaken_via_bounds,
    UniverseInsufficiency,
)
from pushdown_synth.vcgen import check_witness, full, mask, p_conjunction

from conftest import atom_index, fixture_source, make_context


@pytest.fixture(scope="module")
def top2x(request):
    ctx = make_context(
        fixture_source("top2"), "top2", extra_q=["r[0] > 95.0"]
    )
    request.addfinalizer(ctx.session.close)
    return ctx


def q_of(ctx, *texts):
    return mask(atom_index(ctx.universes.u_q, t) for t in texts)


# -- root-cause repair


def test_repair_stutter_keeps_atoms_true_on_the_row(top2x):
    q = q_of(top2x, "r[0] > 90.0", "r[0] > 95.0")
    repaired = repair(top2x, q, Diagnosis("Stutter", (Fraction(92),)))
    assert repaired == q_of(top2x, "r[0] > 90.0")


def test_repair_sync_removes_atoms_true_on_the_row(top2x):
    q = q_of(top2x, "r[0] > 90.0")
    repaired = repair(top2x, q, Diagnosis("Sync", (Fraction(100),)))
    assert repaired == 0


def test_repair_empty_filter_is_noop(top2x):
    repaired = repair(
        top2x, 0, Diagnosis("Sync", (Fraction(1),))
    )
    assert repaired == 0


# -- weakest implicants


def test_weakest_implicant_identity():
    source = """
df = (int,)
agg = fold(df, (0,), lambda a, r: (a[0] + 1 if r[0] > 3 else a[0],))
out = filter(agg, lambda a: a[0] > 0)
"""
    ctx = make_context(source, "micro", extra_psi=["a1[0] > 0"])
    try:
        idx = atom_index(ctx.universes.u_psi, "a1[0] > 0")
        phi = ctx.psi_atom_app(idx, "a1", "a2")
        out = find_weakest_implicant(Run(ctx), 1 << idx, phi)
        assert out == 1 << idx
    finally:
        ctx.session.close()


def test_weakest_implicant_prunes_unentailed_atom():
    source = """
df = (int,)
agg = fold(df, (0,), lambda a, r: (a[0] + 1 if r[0] > 3 else a[0],))
out = filter(agg, lambda a: a[0] > 0)
"""
    ctx = make_context(
        source, "micro",
        extra_psi=["a1[0] > 0", "a1[0] < 10", "not a1[0] == 5"],
    )
    try:
        gt = atom_index(ctx.universes.u_psi, "a1[0] > 0")
        lt = atom_index(ctx.universes.u_psi, "a1[0] < 10")
        ne = atom_index(ctx.universes.u_psi, "not a1[0] == 5")
        phi = ["and", ctx.psi_atom_app(gt, "a1", "a2"),
               ctx.psi_atom_app(lt, "a1", "a2")]
        out = find_weakest_implicant(Run(ctx), mask([gt, lt, ne]), phi)
        assert out == mask([gt, lt])
    finally:
        ctx.session.close()


def test_weakest_implicant_precondition_violation():
    source = """
df = (int,)
agg = fold(df, (0,), lambda a, r: (a[0] + 1 if r[0] > 3 else a[0],))
out = filter(agg, lambda a: a[0] > 0)
"""
    ctx = make_context(source, "micro", extra_psi=["a1[0] > 100"])
    try:
        idx = atom_index(ctx.universes.u_psi, "a1[0] > 100")
        phi = ["<", "(acc0 a1)".replace("acc0", ctx.enc.acc_sort.fields[0]),
               "0"]
        with pytest.raises(UniverseInsufficiency):
            find_weakest_implicant(Run(ctx), 1 << idx, phi)
    finally:
        ctx.session.close()


# -- bounds and unrealizability


def test_weaken_via_bounds_keeps_feasible_filter(top2x):
    q = q_of(top2x, "r[0] > 90.0")
    run = Run(top2x)
    q2, psi_max = weaken_via_bounds(run, q)
    assert q2 == q
    assert run.psi_min & ~psi_max == 0


def test_weaken_via_bounds_rejects_empty_filter(top2x):
    assert weaken_via_bounds(Run(top2x), 0) is None


def test_weaken_via_bounds_repairs_an_over_strong_filter():
    """Skipping a row between the two thresholds de-synchronizes the counter,
    which the bounds prove unrealizable; the repair keeps only the atom true
    on the witness row, weakening the filter in place."""
    ctx = make_context(
        fixture_source("frequent"), "frequent", extra_q=["r[0] > 200"]
    )
    try:
        q = q_of(ctx, "r[0] > 100", "r[0] > 200")
        run = Run(ctx)
        weakened, _ = weaken_via_bounds(run, q)
        assert weakened == q_of(ctx, "r[0] > 100")
        assert run.psi_min != 0
        # directly: the original filter is unrealizable with a stutter witness
        refined = refine_bounds(Run(ctx), q, full(ctx.universes.u_psi))
        diagnosis = check_unrealizable(Run(ctx), q, refined)
        assert diagnosis.kind == "Stutter"
        row = diagnosis.row[0]
        assert 100 < row <= 200
    finally:
        ctx.session.close()


def test_refine_bounds_fixed_point_and_monotonicity(top2x):
    q = q_of(top2x, "r[0] > 90.0")
    run = Run(top2x)
    start = full(top2x.universes.u_psi)
    once = refine_bounds(run, q, start)
    assert run.psi_min & ~once == 0 and once & ~start == 0
    twice = refine_bounds(run, q, once)
    assert twice == once


def test_check_unrealizable_accepts_the_right_filter(top2x):
    q = q_of(top2x, "r[0] > 90.0")
    run = Run(top2x)
    psi_max = refine_bounds(run, q, full(top2x.universes.u_psi))
    assert check_unrealizable(run, q, psi_max) is None


# -- invariant inference


def test_find_strongest_bisimulation_entails_the_known_invariant(top2x):
    q = q_of(top2x, "r[0] > 90.0")
    q2, psi_max = weaken_via_bounds(Run(top2x), q)
    psi, diagnosis = find_strongest_bisimulation(Run(top2x), q2, psi_max)
    assert diagnosis is None
    from test_vcgen import SEVEN_CONJUNCTS

    for text in SEVEN_CONJUNCTS:
        idx = atom_index(top2x.universes.u_psi, text)
        entails = top2x.session.check_valid(
            ["=>", top2x.psi_app(psi), top2x.psi_atom_app(idx, "a1", "a2")]
        )
        assert entails.is_valid, text


# -- residual search


def _residual_micro_ctx():
    source = """
df = (float,)
agg = fold(df, (0.0,), lambda a, r: (r[0] if r[0] > a[0] else a[0],))
out = filter(agg, lambda a: a[0] > 0.0)
"""
    return make_context(source, "micro")


def test_find_residual_weakest_in_universe():
    ctx = _residual_micro_ctx()
    try:
        eq = atom_index(ctx.universes.u_psi, "a1[0] == a2[0]")
        psi = 1 << eq
        residual = find_residual(Run(ctx), psi)
        gt = atom_index(ctx.universes.u_residual, "a[0] > 0.0")
        assert residual == 1 << gt
    finally:
        ctx.session.close()


def test_find_residual_p_true_returns_empty():
    source = """
df = (float,)
agg = fold(df, (0.0,), lambda a, r: (r[0] if r[0] > a[0] else a[0],))
"""
    ctx = make_context(source, "micro")
    try:
        eq = atom_index(ctx.universes.u_psi, "a1[0] == a2[0]")
        residual = find_residual(Run(ctx), 1 << eq)
        assert residual == 0
    finally:
        ctx.session.close()


def test_handle_failure_spurious_acceptance_enqueues_false_atoms():
    ctx = _residual_micro_ctx()
    try:
        pushed = []
        model = {
            "a1": (Fraction(-3),),  # rejected by P
            "a2": (Fraction(0),),   # accepted by the empty candidate
        }
        handle_failure(
            ctx, p_conjunction(ctx), 0,
            model, pushed.append,
        )
        # both universe atoms are false on a2 = (0,): two strengthenings
        assert len(pushed) == 2
    finally:
        ctx.session.close()


def test_handle_failure_false_rejection_enqueues_nothing():
    ctx = _residual_micro_ctx()
    try:
        pushed = []
        gt = atom_index(ctx.universes.u_residual, "a[0] > 0.0")
        model = {
            "a1": (Fraction(5),),
            "a2": (Fraction(0),),
        }
        handle_failure(
            ctx, p_conjunction(ctx), 1 << gt,
            model, pushed.append,
        )
        assert pushed == []
    finally:
        ctx.session.close()


# -- full search end to end


def test_synthesize_weakens_past_the_spurious_atom(top2x):
    out = synthesize(top2x)
    assert isinstance(out, PushdownSolution)
    assert out.q == q_of(top2x, "r[0] > 90.0")
    res = atom_index(top2x.universes.u_residual, "not a[1] == (-inf)")
    assert out.certified_residual == 1 << res
    assert out.mode == "split"
    # every worklist iteration strictly decreased the measure
    log = out.stats["measure_log"]
    assert all(log[i + 1] < log[i] for i in range(len(log) - 1))
    assert check_witness(top2x, out.q, out.certified_residual, out.psi).ok


def test_synthesize_budget_exhaustion():
    ctx = make_context(fixture_source("case_b"), "case_b")
    try:
        out = synthesize(
            ctx, budget=Budget(wall_s=600.0, max_solver_calls=3),
        )
        assert isinstance(out, SynthFailure)
        assert out.reason == "budget"
        assert out.stats["solver_calls"] == 3
    finally:
        ctx.session.close()


@pytest.mark.parametrize("name", ["top2", "discount", "frequent"])
def test_runs_on_one_context_are_isolated(name):
    """A second run on the same context repeats the first, queries and all:
    no run leaves state on the context."""
    ctx = make_context(fixture_source(name), name)
    try:
        def outcome(out):
            return (out.q, out.residual, out.psi, out.mode,
                    out.stats["solver_calls"])

        assert outcome(synthesize(ctx)) == outcome(synthesize(ctx))
        assert set(vars(ctx)) == {"task", "universes", "session", "enc"}
    finally:
        ctx.session.close()


def test_synthesize_trivial_only_task_fails():
    ctx = make_context(fixture_source("count_taut"), "count")
    try:
        out = synthesize(ctx)
        assert isinstance(out, SynthFailure)
        assert out.reason == "exhausted"
    finally:
        ctx.session.close()
