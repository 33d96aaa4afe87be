"""Synthesis engine: worklist search over pre-filters, symbolic invariant
bounds with unrealizability certificates, root-cause repair, Houdini-style
invariant inference, and residual minimization.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Optional as Opt

from .interp import eval_atom, eval_expr
from .smt import BudgetExceeded, Model
from .vcgen import (
    Conjunction, VC_STUTTER, VC_SYNC, conj_eval, p_conjunction, vc_final,
    vc_stutter, vc_sync,
)


class UniverseInsufficiency(Exception):
    """The invariant universe cannot express a lower bound for any witness."""


class SynthInconclusive(Exception):
    """A solver unknown hit a must-keep atom; the candidate cannot be judged."""


@dataclass
class Budget:
    wall_s: float = 600.0
    max_solver_calls: int = 20000

    def start(self, session):
        deadline = time.monotonic() + self.wall_s
        start_calls = session.num_checks
        cap = self.max_solver_calls

        def on_check():
            if time.monotonic() > deadline:
                raise BudgetExceeded("wall")
            if session.num_checks - start_calls >= cap:
                raise BudgetExceeded("solver-calls")

        session.on_check = on_check


@dataclass
class SymbolicBounds:
    psi_min: Conjunction
    psi_max: Conjunction


@dataclass
class Diagnosis:
    kind: str  # Sync | Stutter
    row: tuple


@dataclass
class SynthStats:
    iterations: int = 0
    solver_calls: int = 0
    wall_ms: float = 0.0
    sizes: tuple = (0, 0, 0)
    measure_log: list = field(default_factory=list)
    notes: list = field(default_factory=list)


@dataclass
class PushdownSolution:
    q: Conjunction
    residual: Conjunction  # reported (after definedness collapse)
    certified_residual: Conjunction  # what Final was proved with
    psi: Conjunction
    mode: str  # exact | partial | split
    stats: SynthStats


@dataclass
class SynthFailure:
    reason: str  # exhausted | budget | insufficiency
    stats: SynthStats


def _trace(ctx, event, **kw):
    fn = getattr(ctx, "trace_fn", None)
    if fn is not None:
        fn({"event": event, **kw})


# ---------------------------------------------------------------------------
# weakest-implicant computation


def find_weakest_implicant(ctx, universe_indices, phi, model_names=("a1", "a2")):
    """Weakest conjunction over the atom pool entailing phi.

    Prunes atoms not entailed by phi, then grows the candidate with every
    pruned-pool atom falsified by each countermodel to candidate => phi."""
    session = ctx.session
    all_app = ctx.psi_app(frozenset(universe_indices))
    pre = session.check_valid(["=>", all_app, phi])
    if not pre.is_valid:
        raise UniverseInsufficiency(
            "conjunction of the invariant universe does not entail the target"
        )
    pool = []
    for i in sorted(universe_indices):
        res = session.check_valid(["=>", phi, ctx.psi_atom_app(i, "a1", "a2")])
        if res.is_valid:
            pool.append(i)
    chi = set()
    psi_universe = ctx.universes.u_psi
    while True:
        res = session.check_valid(
            ["=>", ctx.psi_app(frozenset(chi)), phi], model_names
        )
        if res.is_valid:
            break
        if res.is_unknown:
            raise UniverseInsufficiency(f"solver unknown ({res.reason})")
        env = {name: res.model[name] for name in model_names}
        added = False
        for i in pool:
            if i not in chi and not eval_atom(psi_universe[i].expr, env):
                chi.add(i)
                added = True
        if not added:
            # the pruned pool admits no implicant at all (its conjunction is
            # satisfied by this countermodel); the only bound every witness
            # is guaranteed to contain is the empty one
            return Conjunction.of("psi", ())
    # chi is an implicant over the pool but the model loop may overshoot the
    # intersection of implicants: an atom belongs to the intersection exactly
    # when dropping it from the pool breaks entailment
    pool_set = frozenset(pool)
    final = set()
    for p in sorted(chi):
        res = session.check_valid(
            ["=>", ctx.psi_app(pool_set - {p}), phi]
        )
        if not res.is_valid:
            final.add(p)
    return Conjunction.of("psi", final)


# ---------------------------------------------------------------------------
# symbolic bound refinement


def _psi_min_once(ctx) -> Conjunction:
    cached = getattr(ctx, "_psi_min_cache", None)
    if cached is not None:
        return cached
    p = p_conjunction(ctx)
    both_accept = ["and", ctx.res_app(p.indices, "a1"),
                   ctx.res_app(p.indices, "a2"), ["=", "a1", "a2"]]
    both_reject = ["and", ["not", ctx.res_app(p.indices, "a1")],
                   ["not", ctx.res_app(p.indices, "a2")]]
    phi = ["or", both_accept, both_reject]
    psi_min = find_weakest_implicant(
        ctx, range(len(ctx.universes.u_psi)), phi
    )
    ctx._psi_min_cache = psi_min
    return psi_min


def _init_filtered_max(ctx) -> Conjunction:
    cached = getattr(ctx, "_init_max_cache", None)
    if cached is not None:
        return cached
    init = ctx.task.init_values
    env = {"a1": init, "a2": init}
    keep = [
        a.index for a in ctx.universes.u_psi if eval_atom(a.expr, env)
    ]
    out = Conjunction.of("psi", keep)
    ctx._init_max_cache = out
    return out


def _stepped_env(ctx, model: Model, optimized_moves: bool) -> dict:
    """Ground post-step states from a one-step countermodel."""
    a1, a2, row = model["a1"], model["a2"], model["r"]
    a1p = eval_expr(ctx.task.f_body, {"a": a1, "r": row})
    a2p = eval_expr(ctx.task.f_body, {"a": a2, "r": row}) if optimized_moves else a2
    return {"a1": a1p, "a2": a2p}


def _drop_pass(ctx, kind: str, q: Conjunction, cand: Conjunction,
               droppable) -> tuple:
    """Model-guided preservation pass: repeatedly query the whole droppable
    sub-conjunction, removing every atom falsified by the countermodel's
    ground post-step states. Returns (cand', failed_fixed_atoms, model)."""
    build = vc_sync if kind == VC_SYNC else vc_stutter
    psi_universe = ctx.universes.u_psi
    while True:
        targets = cand.indices & droppable if droppable is not None else cand.indices
        fixed = cand.indices - targets
        formula = build(ctx, cand, q, Conjunction.of("psi", cand.indices))
        res = ctx.session.check_valid(formula, ("a1", "a2", "r"))
        if res.is_valid:
            return cand, frozenset(), None
        if res.is_unknown:
            # conservative per-atom fallback: drop droppable atoms we cannot
            # prove preserved; report unknowns on fixed atoms
            bad_fixed = set()
            for p in sorted(cand.indices):
                single = build(ctx, cand, q, p, cons_is_atom=True)
                r1 = ctx.session.check_valid(single, ("a1", "a2", "r"))
                if r1.is_valid:
                    continue
                if p in fixed:
                    bad_fixed.add(p)
                    if r1.is_invalid:
                        return cand, frozenset(bad_fixed), r1.model
                    raise SynthInconclusive(
                        f"unknown on a must-keep atom ({kind})"
                    )
                cand = cand.without(p)
            if not bad_fixed:
                return cand, frozenset(), None
            continue
        env = _stepped_env(ctx, res.model, kind == VC_SYNC)
        failing = [
            p for p in sorted(cand.indices)
            if not eval_atom(psi_universe[p].expr, env)
        ]
        bad_fixed = [p for p in failing if p in fixed]
        if bad_fixed:
            return cand, frozenset(bad_fixed), res.model
        if not failing:
            # ground evaluation disagrees with the solver; should not happen
            raise SynthInconclusive(f"countermodel falsifies no atom ({kind})")
        for p in failing:
            cand = cand.without(p)


def refine_bounds(ctx, q: Conjunction, bounds: SymbolicBounds) -> SymbolicBounds:
    """Lower bound once (target independent of Q); upper bound filtered at the
    base case once, then pruned under the one-step synchronized update."""
    if len(bounds.psi_min) == 0:
        psi_min = _psi_min_once(ctx)
    else:
        psi_min = bounds.psi_min
    psi_max = Conjunction.of(
        "psi", bounds.psi_max.indices & _init_filtered_max(ctx).indices
    )
    psi_max = Conjunction.of("psi", psi_max.indices | psi_min.indices)
    droppable = psi_max.indices - psi_min.indices
    psi_max, _, _ = _drop_pass(ctx, VC_SYNC, q, psi_max, droppable)
    return SymbolicBounds(psi_min=psi_min, psi_max=psi_max)


# ---------------------------------------------------------------------------
# unrealizability check


def check_unrealizable(ctx, q: Conjunction, bounds: SymbolicBounds):
    chi_sync = vc_sync(ctx, bounds.psi_max, q, bounds.psi_min)
    res = ctx.session.check_valid(chi_sync, ("a1", "a2", "r"))
    if res.is_invalid:
        return True, Diagnosis("Sync", res.model["r"])
    chi_stutter = vc_stutter(ctx, bounds.psi_max, q, bounds.psi_min)
    res = ctx.session.check_valid(chi_stutter, ("a1", "a2", "r"))
    if res.is_invalid:
        return True, Diagnosis("Stutter", res.model["r"])
    return False, None


# ---------------------------------------------------------------------------
# root-cause repair


def repair(ctx, q: Conjunction, diagnosis: Diagnosis) -> Conjunction:
    env = {"r": diagnosis.row}
    u_q = ctx.universes.u_q
    if diagnosis.kind == "Sync":
        keep = [i for i in q.indices if not eval_atom(u_q[i].expr, env)]
    else:
        keep = [i for i in q.indices if eval_atom(u_q[i].expr, env)]
    return Conjunction.of("q", keep)


# ---------------------------------------------------------------------------
# filter weakening against the bounds


def weaken_via_bounds(ctx, q: Conjunction):
    bounds = SymbolicBounds(
        psi_min=Conjunction.of("psi", ()),
        psi_max=Conjunction.of("psi", range(len(ctx.universes.u_psi))),
    )
    while True:
        if len(q) == 0:
            return False, None, None
        bounds = refine_bounds(ctx, q, bounds)
        unreal, diagnosis = check_unrealizable(ctx, q, bounds)
        if not unreal:
            return True, q, bounds
        q2 = repair(ctx, q, diagnosis)
        _trace(ctx, "repair", kind=diagnosis.kind,
               before=sorted(q.indices), after=sorted(q2.indices))
        q = q2


# ---------------------------------------------------------------------------
# invariant inference


def weaken_via_vc(ctx, kind: str, q: Conjunction, psi_min: Conjunction,
                  cand: Conjunction):
    """Preservation pass; removes failing atoms, aborts on a must-keep."""
    cand, bad_fixed, model = _drop_pass(
        ctx, kind, q, cand, cand.indices - psi_min.indices
    )
    if bad_fixed:
        return False, None, model["r"]
    return True, cand, None


def find_strongest_bisimulation(ctx, q: Conjunction, bounds: SymbolicBounds):
    cand = bounds.psi_max
    while True:
        before = cand.indices
        ok, cand, row = weaken_via_vc(ctx, VC_SYNC, q, bounds.psi_min, cand)
        if not ok:
            return False, None, Diagnosis("Sync", row)
        ok, cand, row = weaken_via_vc(ctx, VC_STUTTER, q, bounds.psi_min, cand)
        if not ok:
            return False, None, Diagnosis("Stutter", row)
        if cand.indices == before:
            return True, cand, None


# ---------------------------------------------------------------------------
# residual search


def handle_failure(ctx, p: Conjunction, cand: Conjunction, model: Model,
                   push):
    a1v, a2v = model["a1"], model["a2"]
    accepts_p = conj_eval(ctx, p, {"a": a1v})
    accepts_c = conj_eval(ctx, cand, {"a": a2v})
    if accepts_p and accepts_c:
        return  # mismatch on acceptance: a1 != a2 is unfixable by strengthening
    if accepts_p and not accepts_c:
        return  # false rejection
    if not accepts_p and accepts_c:
        env = {"a": a2v}
        for atom in ctx.universes.u_residual:
            if atom.index in cand.indices:
                continue
            if not eval_atom(atom.expr, env):
                push(cand.with_(atom.index))


def find_residual(ctx, psi: Conjunction):
    session = ctx.session
    p = p_conjunction(ctx)
    early = session.check_valid(vc_final(ctx, psi, p, p), ("a1", "a2"))
    if early.is_invalid:
        return False, None
    heap = []
    seen_in_heap = set()
    visited = set()
    counter = 0

    def push(conj):
        nonlocal counter
        key = conj.sorted()
        if key in seen_in_heap or key in visited:
            return
        seen_in_heap.add(key)
        counter += 1
        heapq.heappush(heap, (len(conj), key, counter, conj))

    push(Conjunction.of("residual", ()))
    while heap:
        _, key, _, cand = heapq.heappop(heap)
        seen_in_heap.discard(key)
        if key in visited:
            continue
        visited.add(key)
        res = session.check_valid(
            vc_final(ctx, psi, p, cand), ("a1", "a2")
        )
        if res.is_valid:
            return True, cand
        if res.is_unknown:
            _trace(ctx, "residual-unknown", candidate=sorted(cand.indices))
            continue
        handle_failure(ctx, p, cand, res.model, push)
    return False, None


# ---------------------------------------------------------------------------
# definedness collapse and mode classification


def _one_step_trivial(ctx, atom_index: int) -> bool:
    """Does the residual atom hold on every state reachable by one update?"""
    formula = [
        "=>",
        ["and", ["wfrow", "r"], ["=", "a1p", ["facc", "a1", "r"]]],
        ctx.res_app(frozenset([atom_index]), "a1p"),
    ]
    return ctx.session.check_valid(formula).is_valid


def collapse_residual(ctx, certified: Conjunction) -> Conjunction:
    kept = [
        i for i in certified.indices if not _one_step_trivial(ctx, i)
    ]
    return Conjunction.of("residual", kept)


def classify_mode(ctx, reported: Conjunction) -> str:
    if len(reported) == 0:
        return "exact"
    p = p_conjunction(ctx)
    fwd = ctx.session.check_valid(
        ["=>", ctx.res_app(reported.indices, "a1"), ctx.res_app(p.indices, "a1")]
    )
    bwd = ctx.session.check_valid(
        ["=>", ctx.res_app(p.indices, "a1"), ctx.res_app(reported.indices, "a1")]
    )
    if fwd.is_valid and bwd.is_valid:
        return "partial"
    return "split"


# ---------------------------------------------------------------------------
# top-level worklist search


def _worklist_measure(entries):
    if not entries:
        return (0, 0)
    sizes = [len(c) for (_, _, _, c) in entries]
    top = max(sizes)
    return (top, sizes.count(top))


def synthesize(ctx, budget: Opt[Budget] = None, trace_fn=None):
    """Worklist search from the strongest filter; returns the first certified
    solution (optimal within the universes) or a SynthFailure."""
    universes, session = ctx.universes, ctx.session
    ctx.trace_fn = trace_fn
    stats = SynthStats(sizes=universes.sizes())
    start_calls = session.num_checks
    t0 = time.monotonic()
    if budget is None:
        budget = Budget()
    budget.start(session)

    heap = []
    counter = 0
    in_heap = set()
    visited = set()

    def push(conj):
        nonlocal counter
        key = conj.sorted()
        if key in in_heap or key in visited:
            return
        in_heap.add(key)
        counter += 1
        heapq.heappush(heap, (-len(conj), key, counter, conj))
        _trace(ctx, "enqueue", candidate=sorted(conj.indices))

    def finish(outcome):
        stats.solver_calls = session.num_checks - start_calls
        stats.wall_ms = (time.monotonic() - t0) * 1000.0
        session.on_check = None
        return outcome

    push(Conjunction.of("q", range(len(universes.u_q))))
    try:
        while heap:
            stats.measure_log.append(_worklist_measure(heap))
            stats.iterations += 1
            _, key, _, q0 = heapq.heappop(heap)
            in_heap.discard(key)
            if key in visited:
                continue
            visited.add(key)
            _trace(ctx, "dequeue", candidate=sorted(q0.indices))

            ok, q, bounds = weaken_via_bounds(ctx, q0)
            if not ok:
                _trace(ctx, "verdict", candidate=sorted(q0.indices),
                       outcome="infeasible")
                continue
            visited.add(q.sorted())
            try:
                ok, psi, diagnosis = find_strongest_bisimulation(ctx, q, bounds)
            except SynthInconclusive as exc:
                stats.notes.append(str(exc))
                ok, psi, diagnosis = False, None, None
            if not ok:
                _trace(ctx, "verdict", candidate=sorted(q.indices),
                       outcome="no-bisimulation")
                if diagnosis is not None:
                    push(repair(ctx, q, diagnosis))
            else:
                ok, residual = find_residual(ctx, psi)
                if ok:
                    _trace(ctx, "verdict", candidate=sorted(q.indices),
                           outcome="solved")
                    reported = collapse_residual(ctx, residual)
                    mode = classify_mode(ctx, reported)
                    return finish(PushdownSolution(
                        q=q,
                        residual=reported,
                        certified_residual=residual,
                        psi=psi,
                        mode=mode,
                        stats=stats,
                    ))
                _trace(ctx, "verdict", candidate=sorted(q.indices),
                       outcome="no-residual")
            for a in sorted(q.indices):
                push(q.without(a))
        return finish(SynthFailure("exhausted", stats))
    except BudgetExceeded as exc:
        stats.notes.append(f"budget exhausted: {exc.reason}")
        return finish(SynthFailure("budget", stats))
    except UniverseInsufficiency as exc:
        stats.notes.append(str(exc))
        return finish(SynthFailure("exhausted", stats))
