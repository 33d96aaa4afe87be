"""Seeded generator of micro-tasks with small, hand-assembled universes.

Used by the optimality-oracle tests: universes stay within the brute-force
caps, and tasks whose only solution is the trivial one are filtered out,
mirroring how benchmark predicates without genuine opportunities are culled.
"""

import random

from pushdown_synth.analysis import Universes, build_universe_residual
from pushdown_synth.encode import TaskContext
from pushdown_synth.parser import parse, parse_expression
from pushdown_synth.smt import SolverConfig, start_session
from pushdown_synth.syntax import TTuple
from pushdown_synth.typecheck import type_predicate, typecheck
from pushdown_synth.analysis import Universe


def _component(rng, col_ty, idx):
    """Returns (init_text, update_text, kind, threshold)."""
    c = rng.randint(1, 9)
    if col_ty == "float":
        lit = f"{c}.0"
        zero = "0.0"
        neg = f"(-{c + 3}.0)"
    else:
        lit = str(c)
        zero = "0"
        neg = f"(-{c + 3})"
    kind = rng.choice(["runmax", "runmin", "counter"])
    if kind == "runmax":
        init = neg
        upd = f"(r[0] if r[0] > a[{idx}] else a[{idx}])"
        return init, upd, kind, lit
    if kind == "runmin":
        init = f"{c + 20}.0" if col_ty == "float" else str(c + 20)
        upd = f"(r[0] if r[0] < a[{idx}] else a[{idx}])"
        return init, upd, kind, lit
    init = zero
    one = "1.0" if col_ty == "float" else "1"
    upd = f"(a[{idx}] + {one} if r[0] > {lit} else a[{idx}])"
    return init, upd, kind, lit


def generate_micro_task(seed: int):
    rng = random.Random(seed)
    col_ty = rng.choice(["int", "float"])
    arity = rng.choice([1, 1, 2])
    comps = [_component(rng, col_ty, i) for i in range(arity)]
    inits = ", ".join(c[0] for c in comps)
    updates = ", ".join(c[1] for c in comps)
    conjs = []
    for i, (init, _, kind, lit) in enumerate(comps):
        if kind == "runmax":
            conjs.append(f"a[{i}] > {lit}")
        elif kind == "runmin":
            conjs.append(f"a[{i}] < {lit}")
        else:
            op = rng.choice([">", ">="])
            bound = "1" if op == ">=" else "0"
            if col_ty == "float":
                bound += ".0"
            conjs.append(f"a[{i}] {op} {bound}")
    post = " and ".join(conjs)
    source = (
        f"df = ({col_ty},)\n"
        f"agg = fold(df, ({inits},), lambda a, r: ({updates},))\n"
        f"out = filter(agg, lambda a: {post})\n"
    )
    task = typecheck(parse(source), f"micro{seed}")

    row_env = {"r": TTuple(tuple(task.schema))}
    psi_env = {"a1": task.acc_type, "a2": task.acc_type}

    u_q = Universe("q")
    for i, (init, _, kind, lit) in enumerate(comps):
        if kind == "runmax":
            u_q.add(type_predicate(parse_expression(f"r[0] > {lit}"), row_env))
        elif kind == "runmin":
            u_q.add(type_predicate(parse_expression(f"r[0] < {lit}"), row_env))
        else:
            u_q.add(type_predicate(parse_expression(f"r[0] > {lit}"), row_env))
    if rng.random() < 0.5:
        # a strictly stronger spurious candidate to exercise weakening
        _, _, kind, lit = comps[0]
        delta = "5.0" if col_ty == "float" else "5"
        op = "<" if kind == "runmin" else ">"
        sign = "-" if kind == "runmin" else "+"
        u_q.add(type_predicate(
            parse_expression(f"r[0] {op} {lit} {sign} {delta}"), row_env
        ))

    u_residual, p_indices = build_universe_residual(task)

    u_psi = Universe("psi")
    for i, (init, _, kind, lit) in enumerate(comps):
        u_psi.add(type_predicate(
            parse_expression(f"a1[{i}] == a2[{i}]"), psi_env))
        phi1, phi2 = conjs[i].replace("a[", "a1["), conjs[i].replace("a[", "a2[")
        u_psi.add(type_predicate(
            parse_expression(f"not ({phi1}) or a1[{i}] == a2[{i}]"), psi_env))
        u_psi.add(type_predicate(
            parse_expression(f"not ({phi2}) or a1[{i}] == a2[{i}]"), psi_env))
        u_psi.add(type_predicate(
            parse_expression(f"({phi2}) or a2[{i}] == {init}"), psi_env))

    universes = Universes(
        u_q=u_q, u_residual=u_residual, u_psi=u_psi, p_indices=p_indices,
    )
    return task, universes, source


def micro_context(seed: int, timeout_ms: int = 20000):
    task, universes, source = generate_micro_task(seed)
    session = start_session(SolverConfig(timeout_ms=timeout_ms))
    return TaskContext(task, universes, session), source
