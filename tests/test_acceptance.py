"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion lines.
"""

import random
import time

import pytest

from pushdown_synth.bmc import screen
from pushdown_synth.fuzz import differential_check
from pushdown_synth.parser import parse_expression
from pushdown_synth.pretty import fmt_expr
from pushdown_synth.synth import (
    PushdownSolution, Run, SynthFailure, find_weakest_implicant, synthesize,
)
from pushdown_synth.typecheck import type_predicate
from pushdown_synth.vcgen import bits, check_witness, mask

from conftest import FIXTURE_NAMES, atom_index, eval_atom, requires_z3
from microgen import micro_context
from oracle import brute_force_optimal, brute_force_weakest_implicant


def _q_texts(ctx, sol):
    return [fmt_expr(ctx.universes.u_q[i].expr) for i in bits(sol.q)]


def _res_texts(ctx, sol):
    return [fmt_expr(ctx.universes.u_residual[i].expr)
            for i in bits(sol.residual)]


def test_criterion_1_top2_split_pushdown(bank):
    ctx, sol = bank.ctx["top2"], bank.solution["top2"]
    assert isinstance(sol, PushdownSolution)
    assert _q_texts(ctx, sol) == ["r[0] > 90.0"]
    assert _res_texts(ctx, sol) == ["not a[1] == (-inf)"]
    assert sol.mode == "split"
    conjuncts = [
        "(not (a1[0] > 90.0)) or a1[0] == a2[0]",
        "(not (a2[0] > 90.0)) or a1[0] == a2[0]",
        "(not (a1[1] > 90.0)) or a1[1] == a2[1]",
        "(not (a2[1] > 90.0)) or a1[1] == a2[1]",
        "a2[0] == -inf or a2[0] > 90.0",
        "a2[1] == -inf or a2[1] > 90.0",
        "(not (a2[1] > 90.0)) or a2[0] > 90.0",
    ]
    env = {"a1": ctx.task.acc_type, "a2": ctx.task.acc_type}
    for text in conjuncts:
        formula = ctx.enc.translate(
            type_predicate(parse_expression(text), env),
            {"a1": "a1", "a2": "a2"},
        )
        res = ctx.session.check_valid(["=>", ctx.psi_app(sol.psi),
                                       formula])
        assert res.is_valid, f"invariant does not entail {text}"
    assert bank.wall_s["top2"] <= 30.0
    print(f"\nPASS criterion 1: top2 split pushdown in {bank.wall_s['top2']:.2f}s")


def test_criterion_2_discount_exact_pushdown(bank):
    ctx, sol = bank.ctx["discount"], bank.solution["discount"]
    assert isinstance(sol, PushdownSolution)
    assert _q_texts(ctx, sol) == ["r[0] >= 1000.0"]
    assert sol.residual == 0
    assert sol.mode == "exact"
    assert bank.wall_s["discount"] <= 5.0
    print(f"\nPASS criterion 2: discount exact pushdown in "
          f"{bank.wall_s['discount']:.2f}s")


def test_criterion_3_case_a(bank):
    ctx, sol = bank.ctx["case_a"], bank.solution["case_a"]
    assert isinstance(sol, PushdownSolution)
    assert _q_texts(ctx, sol) == [
        'r[1] <= 1990 or r[0] == "price" or r[0] == "time" or r[1] >= 1995'
    ]
    res = _res_texts(ctx, sol)
    assert "not a[0] == 0" in res          # time > 0 relaxed to time != 0
    assert "a[0] > 0" not in res
    assert not any("not a[2] == None" == t for t in res)  # isNull guards gone
    assert not any("not a[3] == None" == t for t in res)
    assert "a[2] <= 1980 or a[2] == None or a[2] == 1990" in res
    assert "a[3] == None or a[3] == 1995 or a[3] > 2001" in res
    assert bank.wall_s["case_a"] <= 120.0
    print(f"\nPASS criterion 3: case study A in {bank.wall_s['case_a']:.2f}s")


def test_criterion_4_case_b(bank):
    ctx, sol = bank.ctx["case_b"], bank.solution["case_b"]
    assert isinstance(sol, PushdownSolution)
    assert _q_texts(ctx, sol) == ["r[1] <= 38 or r[1] >= 53"]
    res = _res_texts(ctx, sol)
    assert "a[1] <= 38 or a[1] == None" in res
    assert "a[3] == None or a[3] == 53 or a[3] > 55" in res
    assert not any(t in ("not a[1] == None", "not a[3] == None") for t in res)
    assert bank.wall_s["case_b"] <= 120.0
    print(f"\nPASS criterion 4: case study B in {bank.wall_s['case_b']:.2f}s")


def _mutations(name, ctx, sol):
    """Ten hand-corrupted triples per fixture.

    Residual-subset drops must fail Final by minimality of the synthesized
    residual; stronger filters break sync atoms of the retained invariant;
    the remaining entries tamper with the certificate directly."""
    u_psi = ctx.universes.u_psi
    extra_q = len(ctx.universes.u_q) - 1  # the appended stronger atom
    init = ctx.task.init_values
    init_failing = next(
        a.index for a in u_psi
        if not eval_atom(a.expr, {"a1": init, "a2": init})
    )
    q0, res0, psi0 = sol.q, sol.certified_residual, sol.psi

    def res_without(text):
        return res0 & ~(1 << atom_index(ctx.universes.u_residual, text))

    def res_only(*texts):
        return mask(atom_index(ctx.universes.u_residual, t) for t in texts)

    common = [
        (q0 | 1 << extra_q, res0, psi0),      # over-filtering, kept residual
        (1 << extra_q, res0, psi0),           # over-filtering alone
        (q0, 0, psi0),                        # residual dropped entirely
        (q0, res0, 0),                        # certificate erased
        (q0, res0, psi0 | 1 << init_failing),  # certificate breaks Init
    ]
    if name == "top2":
        extra = [
            (0, res0, psi0),
            (q0, res_only("not a[0] == (-inf)"), psi0),
            (q0, res_only("a[0] > 90.0"), psi0),
            (0, 0, psi0),
            (0, 0, 0),
        ]
    elif name == "discount":
        extra = [
            (0, res0, psi0),
            (0, 0, psi0),
            (q0, res0, mask(bits(psi0)[:1])),
            (q0 | 1 << extra_q, 0, psi0),
            (0, 0, 0),
        ]
    elif name == "case_a":
        extra = [
            (q0, res_without("not a[0] == 0"), psi0),
            (q0, res_without("a[1] > 5"), psi0),
            (q0, res_without("a[1] <= 18"), psi0),
            (q0, res_without("a[2] <= 1980 or a[2] == None or a[2] == 1990"),
             psi0),
            (q0, res_without("a[3] == None or a[3] == 1995 or a[3] > 2001"),
             psi0),
        ]
    elif name == "case_b":
        extra = [
            (q0, res_without("a[0] > 5.0"), psi0),
            (q0, res_without("a[0] <= 100.0"), psi0),
            (q0, res_without("a[1] <= 38 or a[1] == None"), psi0),
            (q0, res_without("a[2] >= 10.0"), psi0),
            (q0, res_without("a[3] == None or a[3] == 53 or a[3] > 55"), psi0),
        ]
    else:  # frequent
        extra = [
            (q0, res_only("not a[0] == 0"), psi0),
            (q0, res_only("not a[0] == 0"), 0),
            (0, 0, psi0),
            (0, 0, 0),
            (q0 | 1 << extra_q, 0, psi0),
        ]
    return common + extra


def test_partial_mode_fixture(bank):
    """The bundled suite exercises all three modes; the counting fixture's
    residual must classify as partial (identical to the original filter)."""
    ctx, sol = bank.ctx["frequent"], bank.solution["frequent"]
    assert isinstance(sol, PushdownSolution)
    assert sol.mode == "partial"
    assert _q_texts(ctx, sol) == ["r[0] > 100"]
    assert _res_texts(ctx, sol) == ["a[0] >= 3"]


def test_criterion_5_soundness_and_mutations(bank):
    trials = 10000
    for name in FIXTURE_NAMES:
        ctx, sol = bank.ctx[name], bank.solution[name]
        assert check_witness(ctx, sol.q, sol.certified_residual, sol.psi).ok
        report = differential_check(
            ctx.task, ctx.universes, bits(sol.q), bits(sol.residual),
            trials=trials, seed=20260808,
        )
        assert report.ok, f"{name}: {report.mismatch_count} mismatches"
        caught = 0
        for i, (q, res, psi) in enumerate(_mutations(name, ctx, sol)):
            witness = check_witness(ctx, q, res, psi)
            if not witness.ok:
                caught += 1
                continue
            fuzz = differential_check(
                ctx.task, ctx.universes, bits(q), bits(res),
                trials=trials, seed=7_000 + i,
            )
            assert fuzz.mismatch_count >= 1, (
                f"{name} mutation {i} evaded both checks"
            )
            caught += 1
        assert caught == 10
        print(f"\nPASS criterion 5[{name}]: witness + {trials} clean trials; "
              f"10/10 mutations caught")


def test_criterion_6_optimality_oracle():
    t0 = time.monotonic()
    kept = 0
    seed = 0
    while kept < 20:
        seed += 1
        assert seed < 300, "micro-task generation exhausted the seed stream"
        ctx, source = micro_context(seed)
        try:
            sizes = ctx.universes.sizes()
            assert sizes[0] <= 6 and sizes[1] <= 6 and sizes[2] <= 10
            oracle = brute_force_optimal(ctx)
            if oracle is None or oracle.q == 0:
                continue  # no genuine opportunity; culled like the benchmarks
            engine = synthesize(ctx)
            assert isinstance(engine, PushdownSolution), source
            assert engine.q == oracle.q, source
            assert engine.certified_residual == \
                oracle.certified_residual, source
            assert engine.mode == oracle.mode, source
            kept += 1
        finally:
            ctx.session.close()
    elapsed = time.monotonic() - t0
    assert elapsed <= 600.0
    print(f"\nPASS criterion 6: {kept} micro-tasks agree with the brute-force "
          f"oracle in {elapsed:.1f}s")


def test_criterion_7_weakest_implicant_oracle():
    rng = random.Random(20260808)
    ctx, _ = micro_context(55)
    try:
        checked = 0
        while checked < 50:
            n = len(ctx.universes.u_psi)
            assert n <= 12
            k = rng.randint(1, max(1, n - 1))
            base = rng.sample(range(n), k=k)
            phi = ctx.psi_app(mask(base))
            if rng.random() < 0.4:
                other = rng.sample(range(n), k=rng.randint(1, max(1, n // 2)))
                phi = ["or", phi, ctx.psi_app(mask(other))]
            fast = find_weakest_implicant(Run(ctx), (1 << n) - 1, phi)
            brute = brute_force_weakest_implicant(ctx, range(n), phi)
            assert fast == brute, (base, phi)
            checked += 1
        print(f"\nPASS criterion 7: {checked} implicant instances match the "
              f"subset-enumeration oracle")
    finally:
        ctx.session.close()


@requires_z3
def test_criterion_8_bmc_screen(bank):
    expected = {
        "discount": "Feasible",
        "top2": "Feasible",
        "count_taut": "Infeasible",
    }
    for name, verdict in expected.items():
        got = screen(bank.ctx[name], 2)
        assert got.kind == verdict, f"{name}: {got.kind}"
    print("\nPASS criterion 8: screen verdicts Feasible/Feasible/Infeasible")


def test_criterion_9_termination_measure(bank):
    for name in FIXTURE_NAMES + ("count_taut",):
        sol = bank.solution[name]
        log = sol.stats["measure_log"]
        assert len(log) >= 1
        for i in range(len(log) - 1):
            assert log[i + 1] < log[i], f"{name}: measure stalled at {i}"
    print("\nPASS criterion 9: worklist measure strictly decreases on all "
          "fixtures")


def test_criterion_10_performance_soft(bank):
    times = sorted(bank.wall_s.values())
    mid = len(times) // 2
    median = times[mid] if len(times) % 2 else (times[mid - 1] + times[mid]) / 2
    line = (f"criterion 10 (soft): median synthesis {median:.2f}s over the "
            f"bundled suite (target <= 10s)")
    print("\n" + ("PASS " if median <= 10.0 else "SOFT-MISS ") + line)
