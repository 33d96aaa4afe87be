"""Emit the rewritten pipeline for a certified solution as DSL source."""

from __future__ import annotations

from .pretty import fmt_program
from .syntax import (
    Filter, Fold, Lambda, Name, Program, Stmt, TupleExpr, TypeTuple, mk_and,
)
from .vcgen import bits


def emit_rewritten(task, universes, solution) -> str:
    """Pre-filter inserted before the fold; post-filter replaced by the
    residual, or omitted entirely when the residual is empty."""
    stmts = [Stmt("df", TypeTuple(types=tuple(task.schema)))]
    frame = Name(ident="df")
    q_atoms = [universes.u_q[i].display for i in bits(solution.q)]
    if q_atoms:
        stmts.append(Stmt("kept", Filter(source=frame, fn=Lambda(
            params=["r"], body=mk_and(*q_atoms)))))
        frame = Name(ident="kept")
    stmts.append(Stmt("agg", Fold(
        source=frame, init=TupleExpr(items=list(task.init_exprs)),
        fn=Lambda(params=["a", "r"], body=task.f_body))))
    res_atoms = [
        universes.u_residual[i].display for i in bits(solution.residual)
    ]
    if res_atoms:
        stmts.append(Stmt("out", Filter(source=Name(ident="agg"), fn=Lambda(
            params=["a"], body=mk_and(*res_atoms)))))
    return fmt_program(Program(stmts))
