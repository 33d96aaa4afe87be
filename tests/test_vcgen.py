"""Verification conditions and certification-witness checking."""

import random
from fractions import Fraction

import pytest

from pushdown_synth.vcgen import (
    VC_FINAL, VC_STUTTER, VC_SYNC, bits, check_witness, mask, p_conjunction,
    vc_final, vc_init_holds, vc_stutter, vc_sync,
)
from pushdown_synth.values import NEG_INF

from conftest import atom_index, fixture_source, make_context


SEVEN_CONJUNCTS = [
    "a1[0] <= 90.0 or a1[0] == a2[0]",
    "a2[0] <= 90.0 or a1[0] == a2[0]",
    "a1[1] <= 90.0 or a1[1] == a2[1]",
    "a2[1] <= 90.0 or a1[1] == a2[1]",
    "a2[0] == (-inf) or a2[0] > 90.0",
    "a2[1] == (-inf) or a2[1] > 90.0",
    "a2[1] <= 90.0 or a1[0] > 90.0",
]


@pytest.fixture(scope="module")
def top2(request):
    ctx = make_context(
        fixture_source("top2"), "top2", extra_q=["r[0] > 95.0"]
    )
    request.addfinalizer(ctx.session.close)
    return ctx


def psi_of(ctx, texts):
    return mask(atom_index(ctx.universes.u_psi, t) for t in texts)


def test_vc_init_survivor_and_discard(top2):
    survive = psi_of(top2, ["a1[0] == a2[0] or a1[0] == (-inf)"])
    assert vc_init_holds(top2, survive) is True
    # (a1[0] = -inf => false), canonicalized to the sentinel disequality
    discard = psi_of(top2, ["not a1[0] == (-inf)"])
    assert vc_init_holds(top2, discard) is False
    assert vc_init_holds(top2, 0) is True


def test_vc_sync_failing_consequent(top2):
    # processing a qualifying row forces the top score above the threshold,
    # so "the top-1 never exceeds 90" fails Sync under Q = score > 90
    q = 1 << atom_index(top2.universes.u_q, "r[0] > 90.0")
    cons = psi_of(top2, ["a1[0] <= 90.0"])
    res = top2.session.check_valid(
        vc_sync(top2, 0, q, cons), ("a1", "a2", "r")
    )
    assert res.is_invalid


def test_vc_sync_trivial_cases(top2):
    q = 1 << atom_index(top2.universes.u_q, "r[0] > 90.0")
    assert top2.session.check_valid(vc_sync(top2, 0, q, 0)).is_valid


def test_vc_stutter_vacuous_when_q_is_true(top2):
    cons = psi_of(top2, ["a1[0] <= 90.0"])  # would fail under any real step
    res = top2.session.check_valid(
        vc_stutter(top2, 0, 0, cons)
    )
    assert res.is_valid


def test_vc_stutter_threshold_window_witness(top2):
    """With both thresholds in Q, skipping a row between them breaks the
    sync-above-90 atom; the witness row lies in that window."""
    u_q = top2.universes.u_q
    q = mask([atom_index(u_q, "r[0] > 90.0"), atom_index(u_q, "r[0] > 95.0")])
    ante = psi_of(top2, SEVEN_CONJUNCTS)
    cons = psi_of(top2, ["a1[1] <= 90.0 or a1[1] == a2[1]"])
    res = top2.session.check_valid(
        vc_stutter(top2, ante, q, cons), ("a1", "a2", "r")
    )
    assert res.is_invalid
    score = res.model["r"][0]
    assert Fraction(90) < score <= Fraction(95)


def test_vc_final_paper_solution(top2):
    psi = psi_of(top2, SEVEN_CONJUNCTS)
    p = p_conjunction(top2)
    res_idx = atom_index(top2.universes.u_residual, "not a[1] == (-inf)")
    formula = vc_final(top2, psi, p, 1 << res_idx)
    assert top2.session.check_valid(formula).is_valid


def test_vc_final_equality_invariant_certifies_partial(top2):
    eqs = psi_of(top2, ["a1[0] == a2[0]", "a1[1] == a2[1]"])
    p = p_conjunction(top2)
    assert top2.session.check_valid(vc_final(top2, eqs, p, p)).is_valid


def test_vc_final_empty_psi_invalid():
    source = """
df = (float,)
agg = fold(df, (0.0,), lambda a, r: (r[0] if r[0] > a[0] else a[0],))
out = filter(agg, lambda a: a[0] > 0.0)
"""
    ctx = make_context(source, "micro")
    try:
        p = p_conjunction(ctx)
        res = ctx.session.check_valid(
            vc_final(ctx, 0, p, 0),
            ("a1", "a2"),
        )
        assert res.is_invalid
    finally:
        ctx.session.close()


def test_check_witness_paper_triple(top2):
    q = 1 << atom_index(top2.universes.u_q, "r[0] > 90.0")
    pres = 1 << atom_index(top2.universes.u_residual, "not a[1] == (-inf)")
    assert check_witness(top2, q, pres, psi_of(top2, SEVEN_CONJUNCTS)).ok


def test_check_witness_trivial_solution(top2):
    eqs = psi_of(top2, ["a1[0] == a2[0]", "a1[1] == a2[1]"])
    report = check_witness(top2, 0, p_conjunction(top2), eqs)
    assert report.ok


def test_check_witness_too_strong_filter_fails_stutter(top2):
    u_q = top2.universes.u_q
    q = mask([atom_index(u_q, "r[0] > 90.0"), atom_index(u_q, "r[0] > 95.0")])
    report = check_witness(top2, q, p_conjunction(top2),
                           psi_of(top2, SEVEN_CONJUNCTS))
    assert not report.ok
    assert report.failing == VC_STUTTER
    assert report.model is not None


@pytest.mark.parametrize("name", ["top2", "discount", "case_a", "case_b"])
def test_cnf_normalization_preserves_equivalence(name):
    """The post-filter and the conjunction of its CNF conjuncts coincide."""
    ctx = make_context(fixture_source(name), name)
    try:
        direct = ctx.enc.translate(ctx.task.post_pred, {"a": "a1"})
        conjuncts = ctx.res_app(mask(ctx.universes.p_indices), "a1")
        assert ctx.session.check_valid(["=", direct, conjuncts]).is_valid
    finally:
        ctx.session.close()


@pytest.mark.parametrize("name", ["top2", "discount", "case_a", "case_b"])
def test_certified_witness_implies_zero_differential_mismatches(name):
    """Soundness direction of the witness check, exercised on the trivial
    triple: empty filter, the original post-filter, equality invariant."""
    from pushdown_synth.fuzz import differential_check

    ctx = make_context(fixture_source(name), name)
    try:
        eqs = [
            atom_index(ctx.universes.u_psi, f"a1[{i}] == a2[{i}]")
            for i in range(ctx.task.arity)
        ]
        p = p_conjunction(ctx)
        assert check_witness(ctx, 0, p, mask(eqs)).ok
        report = differential_check(
            ctx.task, ctx.universes, (), bits(p),
            trials=2000, seed=5,
        )
        assert report.ok
    finally:
        ctx.session.close()


def test_sync_consequent_monotone_under_subset(top2):
    """Weakening the consequent preserves validity (antitone strength)."""
    rng = random.Random(5)
    q = 1 << atom_index(top2.universes.u_q, "r[0] > 90.0")
    ante = psi_of(top2, SEVEN_CONJUNCTS)
    pool = list(bits(ante))
    for _ in range(6):
        big = rng.sample(pool, k=rng.randint(1, len(pool)))
        small = rng.sample(big, k=rng.randint(1, len(big)))
        big_valid = top2.session.check_valid(
            vc_sync(top2, ante, q, mask(big))
        ).is_valid
        if big_valid:
            assert top2.session.check_valid(
                vc_sync(top2, ante, q, mask(small))
            ).is_valid
