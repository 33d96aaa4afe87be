"""The four verification conditions and certification-witness checking.

Each condition is phrased over the free constants a1, a2, a1p, a2p, r that the
task context declares; validity of the closed universal statement is checked
by asking for a countermodel of the body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional as Opt

from .interp import truth

# A conjunction over a universe is an int whose bit i stands for atom i;
# `interp.truth(universe)` gives the atoms of one that hold.


def holds(kernel, conj: int, *values) -> bool:
    """Whether every atom of `conj` holds, read by a truth kernel one at a
    time in ascending order up to the first that fails: an atom after a
    false one is never evaluated, so it raises no error."""
    return all(kernel(1 << i, *values) for i in bits(conj))


def bits(conj: int) -> tuple:
    """The atom indices of a conjunction, ascending."""
    return tuple(i for i, bit in enumerate(reversed(bin(conj))) if bit == "1")


def mask(indices) -> int:
    """The conjunction of the atoms `indices`."""
    return sum(1 << i for i in set(indices))


def full(universe) -> int:
    """The conjunction of every atom of `universe`."""
    return (1 << len(universe)) - 1


VC_INIT = "Init"
VC_SYNC = "Sync"
VC_STUTTER = "Stutter"
VC_FINAL = "Final"


def vc_init_holds(ctx, psi: int) -> bool:
    """Ground check of the invariant on the initial state pair."""
    init = ctx.task.init_values
    return holds(truth(ctx.universes.u_psi), psi, init, init)


def _vc_step(ctx, ante: int, q: int, cons: int, synchronized: bool):
    q_app = ctx.q_app(q)
    a2_step = ["facc", "a2", "r"] if synchronized else "a2"
    hyp = ["and", ctx.psi_app(ante, "a1", "a2"),
           q_app if synchronized else ["not", q_app], ["wfrow", "r"],
           ["=", "a1p", ["facc", "a1", "r"]], ["=", "a2p", a2_step]]
    return ["=>", hyp, ctx.psi_app(cons, "a1p", "a2p")]


def vc_sync(ctx, ante: int, q: int, cons: int):
    """(ante(a1,a2) & Q(r) & both take r) => cons(a1p,a2p)."""
    return _vc_step(ctx, ante, q, cons, True)


def vc_stutter(ctx, ante: int, q: int, cons: int):
    """(ante(a1,a2) & not Q(r) & only a1 takes r) => cons(a1p,a2p)."""
    return _vc_step(ctx, ante, q, cons, False)


def final_agreement(ctx, p: int, p_res: int):
    """p on a1 and p_res on a2 both accept, with a1 = a2, or both reject."""
    both_accept = ["and", ctx.res_app(p, "a1"),
                   ctx.res_app(p_res, "a2"), ["=", "a1", "a2"]]
    both_reject = ["and", ["not", ctx.res_app(p, "a1")],
                   ["not", ctx.res_app(p_res, "a2")]]
    return ["or", both_accept, both_reject]


def vc_final(ctx, psi: int, p: int, p_res: int):
    return ["=>", ctx.psi_app(psi, "a1", "a2"),
            final_agreement(ctx, p, p_res)]


@dataclass
class WitnessReport:
    ok: bool
    failing: Opt[str] = None  # VC kind on failure
    model: Opt[dict] = None
    inconclusive: bool = False
    reason: str = ""
    calls: int = 0  # solver queries made


def p_conjunction(ctx) -> int:
    return mask(ctx.universes.p_indices)


def check_witness(ctx, q: int, p_res: int, psi: int) -> WitnessReport:
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
    for calls, (kind, formula, names) in enumerate(checks, 1):
        result = session.check_valid(formula, names)
        if result.is_invalid:
            return WitnessReport(False, failing=kind, model=result.model,
                                 calls=calls)
        if result.is_unknown:
            return WitnessReport(False, failing=kind, inconclusive=True,
                                 reason=result.reason, calls=calls)
    return WitnessReport(True, calls=len(checks))
