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

from .interp import eval_fold, truth
from .smt import QueryResult
from .vcgen import (
    VC_STUTTER, VC_SYNC, bits, final_agreement, full, holds, mask,
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
    of the run is left on the context. A conjunction is an int (``vcgen``)."""

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
    def psi_min(self) -> int:
        """Weakest implicant of P's acceptance agreement on a1 and a2: the
        lower bound of every invariant, whatever the filter."""
        p = p_conjunction(self.ctx)
        return find_weakest_implicant(
            self, full(self.ctx.universes.u_psi),
            final_agreement(self.ctx, p, p),
        )

    @cached_property
    def init_max(self) -> int:
        """The invariant atoms that hold on the initial state pair."""
        init = self.ctx.task.init_values
        u_psi = self.ctx.universes.u_psi
        return truth(u_psi)(full(u_psi), init, init)


@dataclass
class Diagnosis:
    kind: str  # Sync | Stutter
    row: tuple


@dataclass
class PushdownSolution:
    q: int
    residual: int  # reported (after definedness collapse)
    certified_residual: int  # what Final was proved with
    psi: int
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

    def push(self, conj: int) -> bool:
        """Queue ``conj`` unless it is queued or visited; True if queued."""
        key = bits(conj)
        if key in self._queued or key in self.visited:
            return False
        self._queued.add(key)
        heapq.heappush(self._heap, (self.sign * len(key), key, conj))
        return True

    def pop(self) -> Opt[int]:
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
        sizes = [len(key) for _, key, _ in self._heap]
        top = max(sizes, default=0)
        return [top, sizes.count(top)]


# ---------------------------------------------------------------------------
# weakest-implicant computation


def find_weakest_implicant(run, universe: int, phi):
    """Weakest conjunction over the atom pool ``universe`` entailing phi.

    Prunes atoms not entailed by phi, then grows the candidate with every
    pruned-pool atom falsified by each countermodel to candidate => phi."""
    ctx = run.ctx
    pre = run.valid(["=>", ctx.psi_app(universe), phi])
    if pre.is_unknown:
        run.undecided("unknown on the invariant universe's entailment")
    if not pre.is_valid:
        raise UniverseInsufficiency(
            "conjunction of the invariant universe does not entail the target"
        )
    pool = 0
    for i in bits(universe):
        res = run.valid(["=>", phi, ctx.psi_atom_app(i, "a1", "a2")])
        if res.is_valid:
            pool |= 1 << i
    chi = 0
    psi_truth = truth(ctx.universes.u_psi)
    while True:
        res = run.valid(["=>", ctx.psi_app(chi), phi], ("a1", "a2"))
        if res.is_valid:
            break
        if res.is_unknown:
            run.undecided("unknown in the weakest implicant")
            raise UniverseInsufficiency(f"solver unknown ({res.reason})")
        rest = pool & ~chi
        falsified = rest & ~psi_truth(rest, res.model["a1"], res.model["a2"])
        if not falsified:
            # the pruned pool admits no implicant at all (its conjunction is
            # satisfied by this countermodel); the only bound every witness
            # is guaranteed to contain is the empty one
            return 0
        chi |= falsified
    # chi is an implicant over the pool but the model loop may overshoot the
    # intersection of implicants: an atom belongs to the intersection exactly
    # when dropping it from the pool breaks entailment
    final = 0
    for p in bits(chi):
        res = run.valid(["=>", ctx.psi_app(pool & ~(1 << p)), phi])
        if not res.is_valid:
            final |= 1 << p
    return final


# ---------------------------------------------------------------------------
# symbolic bound refinement


def _stepped(ctx, model: dict, optimized_moves: bool) -> tuple:
    """Ground post-step states ``(a1p, a2p)`` of a step countermodel."""
    rows, a2 = [model["r"]], model["a2"]
    a1p = eval_fold(ctx.task, rows, model["a1"]).value
    return a1p, eval_fold(ctx.task, rows, a2).value if optimized_moves else a2


def _drop_pass(run, kind: str, q: int, cand: int, keep: int) -> tuple:
    """Model-guided preservation pass: repeatedly query the whole candidate,
    removing every atom falsified by the countermodel's ground post-step
    states. Returns (cand', model): model is the countermodel of a step that
    breaks an atom of ``keep``, or None when no step does."""
    ctx = run.ctx
    build = STEP_VCS[kind]
    psi_truth = truth(ctx.universes.u_psi)
    while True:
        res = run.valid(build(ctx, cand, q, cand), STEP_VARS)
        if res.is_valid:
            return cand, None
        if res.is_unknown:
            # conservative per-atom fallback: drop droppable atoms we cannot
            # prove preserved, noting those dropped on an unknown; report
            # unknowns on must-keep atoms
            for p in bits(cand):
                r1 = run.valid(build(ctx, cand, q, 1 << p), STEP_VARS)
                if r1.is_valid:
                    continue
                if keep >> p & 1:
                    if r1.is_invalid:
                        return cand, r1.model
                    raise SynthInconclusive(
                        f"unknown on a must-keep atom ({kind})"
                    )
                if r1.is_unknown:
                    run.undecided(f"unknown on a dropped atom ({kind})")
                cand &= ~(1 << p)
            return cand, None
        failing = cand & ~psi_truth(
            cand, *_stepped(ctx, res.model, kind == VC_SYNC))
        if failing & keep:
            return cand, res.model
        if not failing:
            # ground evaluation disagrees with the solver; should not happen
            raise SynthInconclusive(f"countermodel falsifies no atom ({kind})")
        cand &= ~failing


def refine_bounds(run, q: int, psi_max: int) -> int:
    """The upper bound filtered at the base case, then pruned under the
    one-step synchronized update; it keeps the run's lower bound."""
    psi_min = run.psi_min
    psi_max = psi_max & run.init_max | psi_min
    psi_max, _ = _drop_pass(run, VC_SYNC, q, psi_max, psi_min)
    return psi_max


# ---------------------------------------------------------------------------
# unrealizability check


def check_unrealizable(run, q: int, psi_max: int) -> Opt[Diagnosis]:
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


def repair(ctx, q: int, diagnosis: Diagnosis) -> int:
    """The atoms of ``q`` false on the diagnosed row after Sync, true on it
    after Stutter."""
    held = truth(ctx.universes.u_q)(q, diagnosis.row)
    return q & ~held if diagnosis.kind == "Sync" else held


# ---------------------------------------------------------------------------
# filter weakening against the bounds


def weaken_via_bounds(run, q: int):
    """(q', psi_max): ``q`` repaired until the bounds no longer prove it
    unrealizable, and its upper bound; None once no atom is left."""
    psi_max = full(run.ctx.universes.u_psi)
    while q:
        psi_max = refine_bounds(run, q, psi_max)
        diagnosis = check_unrealizable(run, q, psi_max)
        if diagnosis is None:
            return q, psi_max
        q2 = repair(run.ctx, q, diagnosis)
        run.trace("repair", kind=diagnosis.kind,
                  before=list(bits(q)), after=list(bits(q2)))
        q = q2
    return None


# ---------------------------------------------------------------------------
# invariant inference


def find_strongest_bisimulation(run, q: int, psi_max: int):
    """Houdini from the upper bound: drop every atom a Sync or Stutter step
    fails to preserve, until neither drops one; (psi, None). A failing atom
    of the lower bound aborts with (None, diagnosis), the diagnosis being
    the step's countermodel row."""
    cand = psi_max
    while True:
        before = cand
        for kind in STEP_VCS:
            cand, model = _drop_pass(run, kind, q, cand, run.psi_min)
            if model is not None:
                return None, Diagnosis(kind, model["r"])
        if cand == before:
            return cand, None


# ---------------------------------------------------------------------------
# residual search


def handle_failure(ctx, p: int, cand: int, model: dict, push):
    """On a countermodel where P rejects a1 but the candidate accepts a2,
    push the candidate strengthened by each residual atom false on a2. Any
    other failure (a false rejection, or a1 and a2 both accepted but
    different) no strengthening fixes."""
    u_residual = ctx.universes.u_residual
    res_truth = truth(u_residual)
    a2 = model["a2"]
    if holds(res_truth, p, model["a1"]) or not holds(res_truth, cand, a2):
        return
    rest = full(u_residual) & ~cand
    for i in bits(rest & ~res_truth(rest, a2)):
        push(cand | 1 << i)


def find_residual(run, psi: int) -> Opt[int]:
    """The weakest residual that Final certifies under ``psi``, smallest
    first; None when there is none."""
    ctx = run.ctx
    p = p_conjunction(ctx)
    early = run.valid(vc_final(ctx, psi, p, p), ("a1", "a2"))
    if early.is_invalid:
        return None
    worklist = _Worklist(1)
    worklist.push(0)
    while worklist:
        cand = worklist.pop()
        if cand is None:
            continue
        res = run.valid(vc_final(ctx, psi, p, cand), ("a1", "a2"))
        if res.is_valid:
            return cand
        if res.is_unknown:
            run.trace("residual-unknown", candidate=list(bits(cand)))
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
        run.ctx.res_app(1 << atom_index, "a1p"),
    ]
    return run.valid(formula).is_valid


def collapse_residual(run, certified: int) -> int:
    return mask(i for i in bits(certified) if not _one_step_trivial(run, i))


def classify_mode(run, reported: int) -> str:
    if not reported:
        return "exact"
    ctx = run.ctx
    p = p_conjunction(ctx)
    fwd = run.valid(
        ["=>", ctx.res_app(reported, "a1"), ctx.res_app(p, "a1")]
    )
    bwd = run.valid(
        ["=>", ctx.res_app(p, "a1"), ctx.res_app(reported, "a1")]
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
            run.trace("enqueue", candidate=list(bits(conj)))

    push(full(ctx.universes.u_q))
    try:
        while worklist:
            stats["measure_log"].append(worklist.measure())
            stats["worklist_iters"] += 1
            q = worklist.pop()
            if q is None:
                continue
            run.trace("dequeue", candidate=list(bits(q)))
            psi = diagnosis = None
            try:
                weakened = weaken_via_bounds(run, q)
                if weakened is None:
                    run.trace("verdict", candidate=list(bits(q)),
                              outcome="infeasible")
                    continue
                q, psi_max = weakened
                worklist.visited.add(bits(q))
                psi, diagnosis = find_strongest_bisimulation(run, q, psi_max)
            except SynthInconclusive as exc:
                run.undecided(str(exc))
            if psi is None:
                run.trace("verdict", candidate=list(bits(q)),
                          outcome="no-bisimulation")
                if diagnosis is not None:
                    push(repair(ctx, q, diagnosis))
            else:
                residual = find_residual(run, psi)
                if residual is not None:
                    run.trace("verdict", candidate=list(bits(q)),
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
                run.trace("verdict", candidate=list(bits(q)),
                          outcome="no-residual")
            for a in bits(q):
                push(q & ~(1 << a))
    except BudgetExceeded as exc:
        notes.append(f"budget exhausted: {exc}")
        return SynthFailure("budget", stats)
    except UniverseInsufficiency as exc:
        notes.append(str(exc))
    finally:
        stats.update(notes=run.notes + notes, solver_calls=run.calls,
                     wall_ms=(time.monotonic() - t0) * 1000.0)
    return SynthFailure("inconclusive" if run.notes else "exhausted", stats)
