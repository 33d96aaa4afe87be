"""Synthesis engine: worklist search over pre-filters, symbolic invariant
bounds with unrealizability certificates, root-cause repair, Houdini-style
invariant inference, and residual minimization.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional as Opt

from .interp import eval_atom, eval_expr
from .smt import QueryResult
from .vcgen import (
    Conjunction, VC_STUTTER, VC_SYNC, conj_eval, final_agreement,
    p_conjunction, vc_final, vc_stutter, vc_sync,
)

STEP_VARS = ("a1", "a2", "r")  # the free constants of a step VC's model
STEP_VCS = {VC_SYNC: vc_sync, VC_STUTTER: vc_stutter}


class UniverseInsufficiency(Exception):
    """The invariant universe cannot express a lower bound for any witness."""


class SynthInconclusive(Exception):
    """A solver unknown hit a must-keep atom; the candidate cannot be judged."""


class BudgetExceeded(Exception):
    """The run's wall deadline passed or its solver-call cap was reached."""


@dataclass
class Budget:
    wall_s: float = 600.0
    max_solver_calls: int = 20000


class Run:
    """The state of one synthesis run over a task context: the budget's
    deadline and call cap, the trace sink, the count of solver queries, the
    notes on what a solver unknown left undecided, and what is computed
    once per run: the lower bound ``psi_min`` and the atoms true on the
    initial pair. Every query of the search goes through ``valid``; nothing
    of the run is left on the context."""

    def __init__(self, ctx, budget: Opt[Budget] = None, trace_fn=None):
        self.ctx = ctx
        self.budget = budget or Budget()
        self.deadline = time.monotonic() + self.budget.wall_s
        self.trace_fn = trace_fn
        self.calls = 0
        self.notes = []  # each once, in the order first met

    def undecided(self, note: str):
        """Note that an unknown answer (or a solver fault) left part of the
        search undecided: a search that then finds nothing is inconclusive."""
        if note not in self.notes:
            self.notes.append(note)

    def valid(self, formula, model_names=()) -> QueryResult:
        """The session's validity check, counted against the budget."""
        if time.monotonic() > self.deadline:
            raise BudgetExceeded("wall")
        if self.calls >= self.budget.max_solver_calls:
            raise BudgetExceeded("solver-calls")
        self.calls += 1
        return self.ctx.session.check_valid(formula, model_names)

    def trace(self, event, **kw):
        if self.trace_fn is not None:
            self.trace_fn({"event": event, **kw})

    @cached_property
    def psi_min(self) -> Conjunction:
        """Weakest implicant of P's acceptance agreement on a1 and a2: the
        lower bound of every invariant, whatever the filter."""
        p = p_conjunction(self.ctx)
        return find_weakest_implicant(
            self, range(len(self.ctx.universes.u_psi)),
            final_agreement(self.ctx, p, p),
        )

    @cached_property
    def init_max(self) -> Conjunction:
        """The invariant atoms that hold on the initial state pair."""
        init = self.ctx.task.init_values
        env = {"a1": init, "a2": init}
        return Conjunction.of("psi", [
            a.index for a in self.ctx.universes.u_psi if eval_atom(a.expr, env)
        ])


@dataclass
class Diagnosis:
    kind: str  # Sync | Stutter
    row: tuple


@dataclass
class PushdownSolution:
    q: Conjunction
    residual: Conjunction  # reported (after definedness collapse)
    certified_residual: Conjunction  # what Final was proved with
    psi: Conjunction
    mode: str  # exact | partial | split
    stats: dict  # the record's search stats, as `synthesize` fills them


@dataclass
class SynthFailure:
    reason: str  # exhausted | budget | inconclusive
    stats: dict


class _Worklist:
    """Priority worklist of conjunctions over one universe, smallest first
    (``sign`` 1) or largest first (``sign`` -1), ties broken by the sorted
    indices. A conjunction is queued at most once and popped at most once."""

    def __init__(self, sign: int):
        self.sign = sign
        self.visited = set()
        self._heap = []
        self._queued = set()

    def __bool__(self):
        return bool(self._heap)

    def push(self, conj: Conjunction) -> bool:
        """Queue ``conj`` unless it is queued or visited; True if queued."""
        key = conj.sorted()
        if key in self._queued or key in self.visited:
            return False
        self._queued.add(key)
        heapq.heappush(self._heap, (self.sign * len(conj), key, conj))
        return True

    def pop(self) -> Opt[Conjunction]:
        """The next entry, now visited; None when it was visited while
        queued (a stale entry)."""
        _, key, conj = heapq.heappop(self._heap)
        self._queued.discard(key)
        if key in self.visited:
            return None
        self.visited.add(key)
        return conj

    def measure(self) -> list:
        """[largest size queued, how many entries have it]."""
        sizes = [len(conj) for _, _, conj in self._heap]
        top = max(sizes, default=0)
        return [top, sizes.count(top)]


# ---------------------------------------------------------------------------
# weakest-implicant computation


def find_weakest_implicant(run, universe_indices, phi):
    """Weakest conjunction over the atom pool entailing phi.

    Prunes atoms not entailed by phi, then grows the candidate with every
    pruned-pool atom falsified by each countermodel to candidate => phi."""
    ctx = run.ctx
    all_app = ctx.psi_app(frozenset(universe_indices))
    pre = run.valid(["=>", all_app, phi])
    if pre.is_unknown:
        run.undecided("unknown on the invariant universe's entailment")
    if not pre.is_valid:
        raise UniverseInsufficiency(
            "conjunction of the invariant universe does not entail the target"
        )
    pool = []
    for i in sorted(universe_indices):
        res = run.valid(["=>", phi, ctx.psi_atom_app(i, "a1", "a2")])
        if res.is_valid:
            pool.append(i)
    chi = set()
    psi_universe = ctx.universes.u_psi
    model_names = ("a1", "a2")
    while True:
        res = run.valid(["=>", ctx.psi_app(frozenset(chi)), phi], model_names)
        if res.is_valid:
            break
        if res.is_unknown:
            run.undecided("unknown in the weakest implicant")
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
        res = run.valid(["=>", ctx.psi_app(pool_set - {p}), phi])
        if not res.is_valid:
            final.add(p)
    return Conjunction.of("psi", final)


# ---------------------------------------------------------------------------
# symbolic bound refinement


def _stepped_env(ctx, model: dict, optimized_moves: bool) -> dict:
    """Ground post-step states from a one-step countermodel."""
    a1, a2, row = model["a1"], model["a2"], model["r"]
    a1p = eval_expr(ctx.task.f_body, {"a": a1, "r": row})
    a2p = eval_expr(ctx.task.f_body, {"a": a2, "r": row}) if optimized_moves else a2
    return {"a1": a1p, "a2": a2p}


def _drop_pass(run, kind: str, q: Conjunction, cand: Conjunction,
               keep: Conjunction) -> tuple:
    """Model-guided preservation pass: repeatedly query the whole candidate,
    removing every atom falsified by the countermodel's ground post-step
    states. Returns (cand', model): model is the countermodel of a step that
    breaks an atom of ``keep``, or None when no step does."""
    ctx = run.ctx
    build = STEP_VCS[kind]
    psi_universe = ctx.universes.u_psi
    while True:
        res = run.valid(build(ctx, cand, q, cand), STEP_VARS)
        if res.is_valid:
            return cand, None
        if res.is_unknown:
            # conservative per-atom fallback: drop droppable atoms we cannot
            # prove preserved, noting those dropped on an unknown; report
            # unknowns on must-keep atoms
            for p in sorted(cand.indices):
                single = build(ctx, cand, q, Conjunction.of("psi", [p]))
                r1 = run.valid(single, STEP_VARS)
                if r1.is_valid:
                    continue
                if p in keep.indices:
                    if r1.is_invalid:
                        return cand, r1.model
                    raise SynthInconclusive(
                        f"unknown on a must-keep atom ({kind})"
                    )
                if r1.is_unknown:
                    run.undecided(f"unknown on a dropped atom ({kind})")
                cand = cand.without(p)
            return cand, None
        env = _stepped_env(ctx, res.model, kind == VC_SYNC)
        failing = [
            p for p in sorted(cand.indices)
            if not eval_atom(psi_universe[p].expr, env)
        ]
        if any(p in keep.indices for p in failing):
            return cand, res.model
        if not failing:
            # ground evaluation disagrees with the solver; should not happen
            raise SynthInconclusive(f"countermodel falsifies no atom ({kind})")
        for p in failing:
            cand = cand.without(p)


def refine_bounds(run, q: Conjunction, psi_max: Conjunction) -> Conjunction:
    """The upper bound filtered at the base case, then pruned under the
    one-step synchronized update; it keeps the run's lower bound."""
    psi_min = run.psi_min
    psi_max = Conjunction.of(
        "psi", (psi_max.indices & run.init_max.indices) | psi_min.indices
    )
    psi_max, _ = _drop_pass(run, VC_SYNC, q, psi_max, psi_min)
    return psi_max


# ---------------------------------------------------------------------------
# unrealizability check


def check_unrealizable(run, q: Conjunction,
                       psi_max: Conjunction) -> Opt[Diagnosis]:
    """The diagnosis of the first step (Sync, then Stutter) that leaves the
    lower bound from a pair in the upper one: every invariant lies between
    the two, so none exists. None when neither step does."""
    for kind, build in STEP_VCS.items():
        res = run.valid(build(run.ctx, psi_max, q, run.psi_min), STEP_VARS)
        if res.is_invalid:
            return Diagnosis(kind, res.model["r"])
    return None


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


def weaken_via_bounds(run, q: Conjunction):
    """(q', psi_max): ``q`` repaired until the bounds no longer prove it
    unrealizable, and its upper bound; None once no atom is left."""
    psi_max = Conjunction.of("psi", range(len(run.ctx.universes.u_psi)))
    while len(q):
        psi_max = refine_bounds(run, q, psi_max)
        diagnosis = check_unrealizable(run, q, psi_max)
        if diagnosis is None:
            return q, psi_max
        q2 = repair(run.ctx, q, diagnosis)
        run.trace("repair", kind=diagnosis.kind,
                  before=sorted(q.indices), after=sorted(q2.indices))
        q = q2
    return None


# ---------------------------------------------------------------------------
# invariant inference


def find_strongest_bisimulation(run, q: Conjunction, psi_max: Conjunction):
    """Houdini from the upper bound: drop every atom a Sync or Stutter step
    fails to preserve, until neither drops one; (psi, None). A failing atom
    of the lower bound aborts with (None, diagnosis), the diagnosis being
    the step's countermodel row."""
    cand = psi_max
    while True:
        before = cand.indices
        for kind in STEP_VCS:
            cand, model = _drop_pass(run, kind, q, cand, run.psi_min)
            if model is not None:
                return None, Diagnosis(kind, model["r"])
        if cand.indices == before:
            return cand, None


# ---------------------------------------------------------------------------
# residual search


def handle_failure(ctx, p: Conjunction, cand: Conjunction, model: dict,
                   push):
    """On a countermodel where P rejects a1 but the candidate accepts a2,
    push the candidate strengthened by each residual atom false on a2. Any
    other failure (a false rejection, or a1 and a2 both accepted but
    different) no strengthening fixes."""
    if conj_eval(ctx, p, {"a": model["a1"]}) \
            or not conj_eval(ctx, cand, {"a": model["a2"]}):
        return
    env = {"a": model["a2"]}
    for atom in ctx.universes.u_residual:
        if atom.index not in cand.indices and not eval_atom(atom.expr, env):
            push(cand.with_(atom.index))


def find_residual(run, psi: Conjunction) -> Opt[Conjunction]:
    """The weakest residual that Final certifies under ``psi``, smallest
    first; None when there is none."""
    ctx = run.ctx
    p = p_conjunction(ctx)
    early = run.valid(vc_final(ctx, psi, p, p), ("a1", "a2"))
    if early.is_invalid:
        return None
    worklist = _Worklist(1)
    worklist.push(Conjunction.of("residual", ()))
    while worklist:
        cand = worklist.pop()
        if cand is None:
            continue
        res = run.valid(vc_final(ctx, psi, p, cand), ("a1", "a2"))
        if res.is_valid:
            return cand
        if res.is_unknown:
            run.trace("residual-unknown", candidate=sorted(cand.indices))
            run.undecided("unknown on a residual candidate (Final)")
            continue
        handle_failure(ctx, p, cand, res.model, worklist.push)
    return None


# ---------------------------------------------------------------------------
# definedness collapse and mode classification


def _one_step_trivial(run, atom_index: int) -> bool:
    """Does the residual atom hold on every state reachable by one update?"""
    formula = [
        "=>",
        ["and", ["wfrow", "r"], ["=", "a1p", ["facc", "a1", "r"]]],
        run.ctx.res_app(frozenset([atom_index]), "a1p"),
    ]
    return run.valid(formula).is_valid


def collapse_residual(run, certified: Conjunction) -> Conjunction:
    kept = [
        i for i in certified.indices if not _one_step_trivial(run, i)
    ]
    return Conjunction.of("residual", kept)


def classify_mode(run, reported: Conjunction) -> str:
    if len(reported) == 0:
        return "exact"
    ctx = run.ctx
    p = p_conjunction(ctx)
    fwd = run.valid(
        ["=>", ctx.res_app(reported.indices, "a1"), ctx.res_app(p.indices, "a1")]
    )
    bwd = run.valid(
        ["=>", ctx.res_app(p.indices, "a1"), ctx.res_app(reported.indices, "a1")]
    )
    if fwd.is_valid and bwd.is_valid:
        return "partial"
    return "split"


# ---------------------------------------------------------------------------
# top-level worklist search


def synthesize(ctx, budget: Opt[Budget] = None, trace_fn=None):
    """Worklist search from the strongest filter; returns the first certified
    solution (optimal within the universes) or a SynthFailure. A candidate
    whose bounds or invariant a solver unknown leaves undecided is noted and
    its subsets are searched; every other unknown that changes the search is
    noted too, and a search that then finds nothing fails as
    ``inconclusive``. Either outcome carries the record's search stats:
    ``worklist_iters``, ``measure_log``, ``notes``, ``solver_calls`` and
    ``wall_ms``."""
    run = Run(ctx, budget, trace_fn)
    stats = {"worklist_iters": 0, "measure_log": []}
    notes = []  # why the search stopped, after the run's own notes
    t0 = time.monotonic()
    worklist = _Worklist(-1)

    def push(conj):
        if worklist.push(conj):
            run.trace("enqueue", candidate=sorted(conj.indices))

    push(Conjunction.of("q", range(len(ctx.universes.u_q))))
    try:
        while worklist:
            stats["measure_log"].append(worklist.measure())
            stats["worklist_iters"] += 1
            q = worklist.pop()
            if q is None:
                continue
            run.trace("dequeue", candidate=sorted(q.indices))
            psi = diagnosis = None
            try:
                weakened = weaken_via_bounds(run, q)
                if weakened is None:
                    run.trace("verdict", candidate=sorted(q.indices),
                              outcome="infeasible")
                    continue
                q, psi_max = weakened
                worklist.visited.add(q.sorted())
                psi, diagnosis = find_strongest_bisimulation(run, q, psi_max)
            except SynthInconclusive as exc:
                run.undecided(str(exc))
            if psi is None:
                run.trace("verdict", candidate=sorted(q.indices),
                          outcome="no-bisimulation")
                if diagnosis is not None:
                    push(repair(ctx, q, diagnosis))
            else:
                residual = find_residual(run, psi)
                if residual is not None:
                    run.trace("verdict", candidate=sorted(q.indices),
                              outcome="solved")
                    reported = collapse_residual(run, residual)
                    return PushdownSolution(
                        q=q,
                        residual=reported,
                        certified_residual=residual,
                        psi=psi,
                        mode=classify_mode(run, reported),
                        stats=stats,
                    )
                run.trace("verdict", candidate=sorted(q.indices),
                          outcome="no-residual")
            for a in sorted(q.indices):
                push(q.without(a))
    except BudgetExceeded as exc:
        notes.append(f"budget exhausted: {exc}")
        return SynthFailure("budget", stats)
    except UniverseInsufficiency as exc:
        notes.append(str(exc))
    finally:
        stats.update(notes=run.notes + notes, solver_calls=run.calls,
                     wall_ms=(time.monotonic() - t0) * 1000.0)
    return SynthFailure("inconclusive" if run.notes else "exhausted", stats)
