"""Bounded feasibility screen over a small symbolic dataframe.

The pre-filter is an uninterpreted predicate; the screen asks whether any
nontrivial choice of it preserves the pipeline's lifted outcome on every
dataframe of the given length. Unsatisfiability refutes every such choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from .smt import sexp_str
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
    session = ctx.session
    row_sort = ctx.enc.row_sort.text
    init = ctx.init_sexp()
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

    p1 = ctx.res_app(p.indices, a1)
    p2 = ctx.res_app(p.indices, a2)
    body = ["and", ["=", p1, p2], ["=>", p1, ["=", a1, a2]]]
    for name, term in reversed(lets):
        body = ["let", [[name, term]], body]
    wf = ["and"] + [["wfrow", rv] for rv in row_vars]
    quantified = [
        "forall",
        [[rv, row_sort] for rv in row_vars],
        ["=>", wf, body],
    ]

    # model-based quantifier instantiation handles the second-order shape of
    # this query; e-matching only gets in its way. Every other query in the
    # system is quantifier-free, so the options are harmless to leave set.
    # They are z3 options: the builtin backend ignores them and answers
    # unknown on the quantifier instead, which makes the verdict Inconclusive.
    session.set_option("smt.mbqi", "true")
    session.set_option("smt.ematching", "false")
    session.push()
    try:
        session.declare(f"(declare-fun bmc_q ({row_sort}) Bool)")
        session.declare(f"(declare-const bmc_w {row_sort})")
        session.assert_(quantified)
        session.assert_(["wfrow", "bmc_w"])
        session.assert_(["not", ["bmc_q", "bmc_w"]])
        status = session.check_sat()
        if status == "unsat":
            return ScreenVerdict("Infeasible")
        if status == "sat":
            try:
                witness = _summarize_q(session.model_text())
            except Exception:
                witness = "(model unavailable)"
            return ScreenVerdict("Feasible", witness=witness)
        reason = session.reason_unknown()
        return ScreenVerdict("Inconclusive", reason=reason)
    finally:
        if not session.poisoned:
            session.pop()


def _summarize_q(raw_model: str) -> str:
    from .smt import parse_sexp

    try:
        parsed = parse_sexp(raw_model)[0]
    except Exception:
        return raw_model[:200]
    if parsed and parsed[0] == "model":
        parsed = parsed[1:]
    for entry in parsed:
        if isinstance(entry, list) and len(entry) >= 5 and entry[0] == "define-fun" \
                and entry[1] == "bmc_q":
            return sexp_str(entry[4])
    return raw_model[:200]
