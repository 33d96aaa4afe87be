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


def _steps(ctx, optimized_moves: bool):
    eqs = [["=", "a1p", ["facc", "a1", "r"]]]
    if optimized_moves:
        eqs.append(["=", "a2p", ["facc", "a2", "r"]])
    else:
        eqs.append(["=", "a2p", "a2"])
    return eqs


def vc_sync(ctx, ante: Conjunction, q: Conjunction, cons,
            cons_is_atom: bool = False):
    """(ante(a1,a2) & Q(r) & steps) => cons(a1p,a2p); cons may be one atom."""
    hyp = ["and", ctx.psi_app(ante.indices, "a1", "a2"),
           ctx.q_app(q.indices), ["wfrow", "r"]] + _steps(ctx, True)
    concl = (
        ctx.psi_atom_app(cons, "a1p", "a2p")
        if cons_is_atom
        else ctx.psi_app(cons.indices, "a1p", "a2p")
    )
    return ["=>", hyp, concl]


def vc_stutter(ctx, ante: Conjunction, q: Conjunction, cons,
               cons_is_atom: bool = False):
    hyp = ["and", ctx.psi_app(ante.indices, "a1", "a2"),
           ["not", ctx.q_app(q.indices)], ["wfrow", "r"]] + _steps(ctx, False)
    concl = (
        ctx.psi_atom_app(cons, "a1p", "a2p")
        if cons_is_atom
        else ctx.psi_app(cons.indices, "a1p", "a2p")
    )
    return ["=>", hyp, concl]


def vc_final(ctx, psi: Conjunction, p: Conjunction, p_res: Conjunction):
    both_accept = ["and", ctx.res_app(p.indices, "a1"),
                   ctx.res_app(p_res.indices, "a2"), ["=", "a1", "a2"]]
    both_reject = ["and", ["not", ctx.res_app(p.indices, "a1")],
                   ["not", ctx.res_app(p_res.indices, "a2")]]
    return ["=>", ctx.psi_app(psi.indices, "a1", "a2"),
            ["or", both_accept, both_reject]]


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
