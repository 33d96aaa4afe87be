"""Emit the rewritten pipeline for a certified solution as DSL source."""

from __future__ import annotations

from .analysis import mk_and
from .pretty import fmt_expr


def emit_rewritten(task, universes, solution) -> str:
    """Pre-filter inserted before the fold; post-filter replaced by the
    residual, or omitted entirely when the residual is empty."""
    lines = []
    schema_inner = ", ".join(str(t) for t in task.schema)
    schema_text = f"({schema_inner},)" if len(task.schema) == 1 else f"({schema_inner})"
    lines.append(f"df = {schema_text}")

    frame_var = "df"
    q_atoms = [universes.u_q[i].display for i in solution.q.sorted()]
    if q_atoms:
        pred = q_atoms[0] if len(q_atoms) == 1 else mk_and(*q_atoms)
        lines.append(f"kept = filter(df, lambda r: {fmt_expr(pred)})")
        frame_var = "kept"

    init_inner = ", ".join(fmt_expr(e) for e in task.init_exprs)
    init_text = f"({init_inner},)" if len(task.init_exprs) == 1 else f"({init_inner})"
    lines.append(
        f"agg = fold({frame_var}, {init_text}, lambda a, r: {fmt_expr(task.f_body)})"
    )

    res_atoms = [
        universes.u_residual[i].display for i in solution.residual.sorted()
    ]
    if res_atoms:
        pred = res_atoms[0] if len(res_atoms) == 1 else mk_and(*res_atoms)
        lines.append(f"out = filter(agg, lambda a: {fmt_expr(pred)})")
    return "\n".join(lines) + "\n"
