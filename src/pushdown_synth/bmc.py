"""Bounded feasibility screen over a small symbolic dataframe.

The pre-filter is an uninterpreted predicate; the screen asks whether any
nontrivial choice of it preserves the pipeline's lifted outcome on every
dataframe of the given length. Unsatisfiability refutes every such choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from .vcgen import p_conjunction


@dataclass
class ScreenVerdict:
    kind: str  # Feasible | Infeasible | Inconclusive
    witness: str = ""
    reason: str = ""


def screen(ctx, rows: int = 2) -> ScreenVerdict:
    """Weakest precondition of the unrolled two-run fragment, computed by
    backward substitution (nested lets), conjoined with a nontriviality
    witness for the unknown pre-filter."""
    if not 1 <= rows <= 4:
        raise ValueError("row bound must be between 1 and 4")
    row_sort = ctx.enc.row_sort.text
    init = ctx.enc.init_sexp()
    p = p_conjunction(ctx)

    row_vars = [f"bmc_r{k}" for k in range(1, rows + 1)]
    a1 = init
    a2 = init
    lets = []
    for k, rv in enumerate(row_vars, start=1):
        a1v, a2v = f"bmc_a1_{k}", f"bmc_a2_{k}"
        lets.append((a1v, ["facc", a1, rv]))
        lets.append((a2v, ["ite", ["bmc_q", rv], ["facc", a2, rv], a2]))
        a1, a2 = a1v, a2v

    p1 = ctx.res_app(p, a1)
    p2 = ctx.res_app(p, a2)
    body = ["and", ["=", p1, p2], ["=>", p1, ["=", a1, a2]]]
    for name, term in reversed(lets):
        body = ["let", [[name, term]], body]
    wf = ["and"] + [["wfrow", rv] for rv in row_vars]
    quantified = [
        "forall",
        [[rv, row_sort] for rv in row_vars],
        ["=>", wf, body],
    ]

    # the builtin backend decides quantifier-free formulas only, so it
    # answers unknown here, which makes the verdict Inconclusive
    res = ctx.session.check(
        [quantified, ["wfrow", "bmc_w"], ["not", ["bmc_q", "bmc_w"]]],
        declarations=[f"(declare-fun bmc_q ({row_sort}) Bool)",
                      f"(declare-const bmc_w {row_sort})"],
        model_names=["bmc_q"],
    )
    if res.status == "unsat":
        return ScreenVerdict("Infeasible")
    if res.status == "sat":
        return ScreenVerdict("Feasible", witness=res.model["bmc_q"])
    return ScreenVerdict("Inconclusive", reason=res.reason)
