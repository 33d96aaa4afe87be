"""Exhaustive search over small universes; ground truth for optimality tests.

Independent of the synthesis engine's machinery: no symbolic bounds, no
repair, no worklists. Pre-filters are enumerated by descending cardinality
(lexicographic index tie-break, identical to the engine's heap order), the
strongest invariant per filter is the greatest fixpoint of one-atom
preservation checks, and residuals are enumerated by ascending cardinality.
"""

from __future__ import annotations

from itertools import combinations

from pushdown_synth.interp import eval_atom
from pushdown_synth.synth import (
    PushdownSolution, Run, SynthStats, classify_mode, collapse_residual,
)
from pushdown_synth.vcgen import (
    Conjunction, p_conjunction, vc_final, vc_stutter, vc_sync,
)


class CapExceeded(Exception):
    pass


def _subsets_desc(n):
    for size in range(n, -1, -1):
        for combo in combinations(range(n), size):
            yield combo


def _subsets_asc(n):
    for size in range(0, n + 1):
        for combo in combinations(range(n), size):
            yield combo


def _strongest_invariant(ctx, q: Conjunction):
    """Greatest fixpoint: start from the atoms true at (I, I), repeatedly
    remove any atom not preserved by a synchronized or stutter step."""
    init = ctx.task.init_values
    env = {"a1": init, "a2": init}
    cand = Conjunction.of(
        "psi",
        [a.index for a in ctx.universes.u_psi if eval_atom(a.expr, env)],
    )
    changed = True
    while changed:
        changed = False
        for p in cand.sorted():
            ok_sync = ctx.session.check_valid(
                vc_sync(ctx, cand, q, Conjunction.of("psi", [p]))
            ).is_valid
            ok_stutter = ok_sync and ctx.session.check_valid(
                vc_stutter(ctx, cand, q, Conjunction.of("psi", [p]))
            ).is_valid
            if not (ok_sync and ok_stutter):
                cand = cand.without(p)
                changed = True
    return cand


def brute_force_optimal(ctx, cap_q: int = 6, cap_r: int = 6, cap_psi: int = 10):
    """First certified triple in the engine's candidate order; None if the
    universes admit no certified solution at all."""
    universes = ctx.universes
    if len(universes.u_q) > cap_q or len(universes.u_residual) > cap_r \
            or len(universes.u_psi) > cap_psi:
        raise CapExceeded(
            f"universe sizes {universes.sizes()} exceed caps "
            f"({cap_q}, {cap_r}, {cap_psi})"
        )
    p = p_conjunction(ctx)
    for q_combo in _subsets_desc(len(universes.u_q)):
        q = Conjunction.of("q", q_combo)
        psi = _strongest_invariant(ctx, q)
        for r_combo in _subsets_asc(len(universes.u_residual)):
            residual = Conjunction.of("residual", r_combo)
            res = ctx.session.check_valid(vc_final(ctx, psi, p, residual))
            if res.is_valid:
                reported = collapse_residual(Run(ctx), residual)
                return PushdownSolution(
                    q=q,
                    residual=reported,
                    certified_residual=residual,
                    psi=psi,
                    mode=classify_mode(Run(ctx), reported),
                    stats=SynthStats(sizes=universes.sizes()),
                )
    return None


def brute_force_weakest_implicant(ctx, universe_indices, phi):
    """Intersection of the implicant subsets of the entailed-atom pool; the
    empty conjunction when the pool admits no implicant."""
    session = ctx.session
    pool = [
        i for i in sorted(universe_indices)
        if session.check_valid(
            ["=>", phi, ctx.psi_atom_app(i, "a1", "a2")]
        ).is_valid
    ]
    implicants = []
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            app = ctx.psi_app(frozenset(combo))
            if session.check_valid(["=>", app, phi]).is_valid:
                implicants.append(set(combo))
    if not implicants:
        return Conjunction.of("psi", ())
    out = set(pool)
    for s in implicants:
        out &= s
    return Conjunction.of("psi", out)
