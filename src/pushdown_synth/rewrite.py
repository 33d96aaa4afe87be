"""Emit the rewritten pipeline for a certified solution as DSL source."""

from __future__ import annotations

from .pretty import fmt_expr
from .syntax import mk_and
from .values import tuple_text


def emit_rewritten(task, universes, solution) -> str:
    """Pre-filter inserted before the fold; post-filter replaced by the
    residual, or omitted entirely when the residual is empty."""
    lines = [f"df = {tuple_text(str(t) for t in task.schema)}"]

    frame_var = "df"
    q_atoms = [universes.u_q[i].display for i in solution.q.sorted()]
    if q_atoms:
        lines.append(f"kept = filter(df, lambda r: {fmt_expr(mk_and(*q_atoms))})")
        frame_var = "kept"

    init_text = tuple_text(fmt_expr(e) for e in task.init_exprs)
    lines.append(
        f"agg = fold({frame_var}, {init_text}, lambda a, r: {fmt_expr(task.f_body)})"
    )

    res_atoms = [
        universes.u_residual[i].display for i in solution.residual.sorted()
    ]
    if res_atoms:
        lines.append(f"out = filter(agg, lambda a: {fmt_expr(mk_and(*res_atoms))})")
    return "\n".join(lines) + "\n"
