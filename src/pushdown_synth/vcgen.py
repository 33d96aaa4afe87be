"""The four verification conditions and certification-witness checking.

Each condition is phrased over the free constants a1, a2, a1p, a2p, r that the
task context declares; validity of the closed universal statement is checked
by asking for a countermodel of the body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional as Opt

from .interp import eval_atom
from .smt import Model


@dataclass(frozen=True)
class Conjunction:
    """A set of atom indices over one universe, read as their conjunction."""

    role: str
    indices: frozenset

    @staticmethod
    def of(role, indices):
        return Conjunction(role, frozenset(indices))

    def __len__(self):
        return len(self.indices)

    def sorted(self):
        return tuple(sorted(self.indices))

    def without(self, i):
        return Conjunction(self.role, self.indices - {i})

    def with_(self, i):
        return Conjunction(self.role, self.indices | {i})

    def __le__(self, other):
        return self.indices <= other.indices


VC_INIT = "Init"
VC_SYNC = "Sync"
VC_STUTTER = "Stutter"
VC_FINAL = "Final"


def conj_eval(ctx, conj: Conjunction, env: dict) -> bool:
    universe = {
        "q": ctx.universes.u_q,
        "residual": ctx.universes.u_residual,
        "psi": ctx.universes.u_psi,
    }[conj.role]
    return all(eval_atom(universe[i].expr, env) for i in conj.indices)


def vc_init_holds(ctx, psi: Conjunction) -> bool:
    """Ground check of the invariant on the initial state pair."""
    init = ctx.task.init_values
    return conj_eval(ctx, psi, {"a1": init, "a2": init})


def _vc_step(ctx, ante: Conjunction, q: Conjunction, cons: Conjunction,
             synchronized: bool):
    q_app = ctx.q_app(q.indices)
    a2_step = ["facc", "a2", "r"] if synchronized else "a2"
    hyp = ["and", ctx.psi_app(ante.indices, "a1", "a2"),
           q_app if synchronized else ["not", q_app], ["wfrow", "r"],
           ["=", "a1p", ["facc", "a1", "r"]], ["=", "a2p", a2_step]]
    return ["=>", hyp, ctx.psi_app(cons.indices, "a1p", "a2p")]


def vc_sync(ctx, ante: Conjunction, q: Conjunction, cons: Conjunction):
    """(ante(a1,a2) & Q(r) & both take r) => cons(a1p,a2p)."""
    return _vc_step(ctx, ante, q, cons, True)


def vc_stutter(ctx, ante: Conjunction, q: Conjunction, cons: Conjunction):
    """(ante(a1,a2) & not Q(r) & only a1 takes r) => cons(a1p,a2p)."""
    return _vc_step(ctx, ante, q, cons, False)


def final_agreement(ctx, p: Conjunction, p_res: Conjunction):
    """p on a1 and p_res on a2 both accept, with a1 = a2, or both reject."""
    both_accept = ["and", ctx.res_app(p.indices, "a1"),
                   ctx.res_app(p_res.indices, "a2"), ["=", "a1", "a2"]]
    both_reject = ["and", ["not", ctx.res_app(p.indices, "a1")],
                   ["not", ctx.res_app(p_res.indices, "a2")]]
    return ["or", both_accept, both_reject]


def vc_final(ctx, psi: Conjunction, p: Conjunction, p_res: Conjunction):
    return ["=>", ctx.psi_app(psi.indices, "a1", "a2"),
            final_agreement(ctx, p, p_res)]


@dataclass
class WitnessReport:
    ok: bool
    failing: Opt[str] = None  # VC kind on failure
    model: Opt[Model] = None
    inconclusive: bool = False
    reason: str = ""

    def __bool__(self):
        return self.ok


def p_conjunction(ctx) -> Conjunction:
    return Conjunction.of("residual", ctx.universes.p_indices)


def check_witness(ctx, q: Conjunction, p_res: Conjunction,
                  psi: Conjunction) -> WitnessReport:
    """All four VCs with ante = cons = psi; reports the first failure."""
    if not vc_init_holds(ctx, psi):
        return WitnessReport(False, failing=VC_INIT)
    session = ctx.session
    p = p_conjunction(ctx)
    checks = [
        (VC_SYNC, vc_sync(ctx, psi, q, psi), ("a1", "a2", "r")),
        (VC_STUTTER, vc_stutter(ctx, psi, q, psi), ("a1", "a2", "r")),
        (VC_FINAL, vc_final(ctx, psi, p, p_res), ("a1", "a2")),
    ]
    for kind, formula, names in checks:
        result = session.check_valid(formula, names)
        if result.is_invalid:
            return WitnessReport(False, failing=kind, model=result.model)
        if result.is_unknown:
            return WitnessReport(
                False, failing=kind, inconclusive=True, reason=result.reason
            )
    return WitnessReport(True)
