"""Random-dataframe differential validation of pushdown solutions.

Sampling is boundary-directed: every comparison constant relevant to a column
appears in its pool, along with values between and beyond adjacent constants.
So every sampled row comes from a small, fixed set, and the fold is a
deterministic automaton over it: the fuzzer builds that automaton lazily,
evaluating each (accumulator, row) step once, as lazy DFA construction does
(Thompson, CACM 1968).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .interp import LiftResult, eval_fold, filter_rows, lift_eval
from .syntax import Lit, TBool, TFloat, TInt, TOpt, TStr, walk
from .values import NONE, Some, fmt_value, values_equal

# The tables of one `differential_check` call are cleared before a frame
# that could take them past this many transitions or rows; the states never
# outnumber the transitions by more than one (Bottom).
TABLE_BOUND = 4096


@dataclass
class DiffReport:
    trials: int
    mismatch_count: int
    seed: int
    # up to 10 mismatching frames, each a list of rows of printed values
    mismatches: list = field(default_factory=list)
    # sizes and work of the fold tables (`FoldTables.stats`); not in the record
    tables: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.mismatch_count == 0

    def to_json(self):
        return {
            "trials": self.trials,
            "mismatches": self.mismatch_count,
            "seed": self.seed,
            "examples": self.mismatches,
        }


def _numeric_constants(task, universes):
    """Comparison constants from the post-filter and the Q universe."""
    out = set()
    exprs = list(task.post_conjuncts)
    if universes is not None:
        exprs += [a.expr for a in universes.u_q]
        exprs += [a.expr for a in universes.u_residual]
    for e in exprs:
        for node in walk(e):
            if isinstance(node, Lit) and node.kind in ("int", "float"):
                out.add(Fraction(node.value))
    return sorted(out)


def column_pools(task, universes=None):
    consts = _numeric_constants(task, universes)
    pools = []
    for ty in task.schema:
        pools.append(_pool_for(ty, consts, task))
    return pools


def _pool_for(ty, consts, task):
    if isinstance(ty, TBool):
        return [True, False]
    if isinstance(ty, TStr):
        return list(task.str_labels) + ["unrelated-label"]
    if isinstance(ty, TOpt):
        inner = _pool_for(ty.elem, consts, task)
        return [NONE] + [Some(v) for v in inner]
    if isinstance(ty, TInt):
        base = sorted({int(c) for c in consts if c.denominator == 1}) or [0]
        pool = set()
        for i, c in enumerate(base):
            pool.update((c - 1, c, c + 1))
            if i + 1 < len(base):
                pool.add((c + base[i + 1]) // 2)
        pool.update((base[0] - 7, base[-1] + 7))
        return sorted(pool)
    if isinstance(ty, TFloat):
        base = sorted(set(consts)) or [Fraction(0)]
        pool = set()
        for i, c in enumerate(base):
            pool.update((c - 1, c, c + 1, c + Fraction(1, 2), c - Fraction(1, 2)))
            if i + 1 < len(base):
                pool.add((c + base[i + 1]) / 2)
        pool.update((base[0] - 10, base[-1] + 10))
        return sorted(pool)
    raise ValueError(f"cannot build a sampling pool for column type {ty}")


def sample_dataframe(rng: random.Random, pools, max_len: int = 8):
    length = rng.randint(0, max_len)
    return [
        tuple(rng.choice(pool) for pool in pools) for _ in range(length)
    ]


def _frozen(value):
    """A hashable key for an unhashable accumulator (one holding a list) that
    equals another key only for values of identical types and structure."""
    if isinstance(value, (list, tuple)):
        return type(value), tuple(_frozen(v) for v in value)
    if isinstance(value, Some):
        return Some, _frozen(value.value)
    return type(value), value


class FoldTables:
    """The original and rewritten pipelines of one task, tabled over the rows
    and accumulators that one `differential_check` call meets.

    Rows: each distinct row (a tuple of column-pool indices) gets an id, its
    value row and, once needed, its `Q` verdict. States: each distinct
    accumulator gets an id and, once needed, its `P` and `P'` lift verdicts;
    state 0 is Bottom, the fold of no rows, which steps from the task's
    initial value. Transitions: `succ[state][row]` is the state after one
    more row, evaluated with one `eval_fold` step on a miss.

    Accumulators are interned by their value, as hash-consing interns terms
    (Filliâtre & Conchon, ML Workshop 2006), so Python-equal values of
    different types share a state: `0` and `Fraction(0)` in a float field
    whose initial value is the int `0`, say. That is sound. All accumulators
    of a task have its one static type, and at one type the DSL cannot tell
    Python-equal values apart: numbers are combined and compared by value
    (exact `int`/`Fraction` arithmetic, `/` through `Fraction`), `-inf` and
    `None` are singletons, `Some`, tuples and lists compare elementwise, and
    a bool never meets an int in one field. So a step, a lift verdict and
    `values_equal` give the same answer on either value, and the fuzzer
    never prints an accumulator. An unhashable accumulator (one holding a
    list) is interned by a type-exact frozen key (`_frozen`), which merges
    less; a step whose result equals its start stays in its state.
    """

    def __init__(self, task, pools, q_exprs, p_exprs, res_exprs):
        self.task, self.pools = task, pools
        self.q_exprs, self.p_exprs, self.res_exprs = q_exprs, p_exprs, res_exprs
        self.row_ids = {}    # index tuple -> row id
        self.rows = []       # row id -> value row
        self.kept = []       # row id -> Q verdict, None until judged
        self.state_ids = {}  # accumulator (or its frozen key) -> state id
        self.values = [task.init_values]  # state id -> accumulator
        self.succ = [{}]     # state id -> {row id: next state id}
        # state id -> P and P' verdicts, None until judged; Bottom lifts to
        # Bottom under both
        self.p_ok, self.res_ok = [False], [False]
        self.transitions = 0  # since the last clear; one fold step each
        self.cleared_steps = self.clears = 0
        self.peak = {"rows": 0, "states": 1, "transitions": 0}

    def stats(self):
        """The largest size each table reached, the one-row fold steps
        evaluated, and how often the tables were cleared."""
        self._note_peak()
        return {**self.peak, "steps": self.cleared_steps + self.transitions,
                "clears": self.clears}

    def _note_peak(self):
        for key, size in (("rows", len(self.rows)),
                          ("states", len(self.values)),
                          ("transitions", self.transitions)):
            self.peak[key] = max(self.peak[key], size)

    def make_room(self, frame_rows):
        """Make room for a frame of at most `frame_rows` rows, whose two
        folds add at most twice as many transitions: clear the states and
        transitions in place if they could pass `TABLE_BOUND`, and the rows
        too if those could. It runs between frames, so no id that a clear
        voids is still held."""
        rows_full = len(self.rows) + frame_rows > TABLE_BOUND
        if not rows_full and \
                self.transitions + 2 * frame_rows <= TABLE_BOUND:
            return
        self._note_peak()
        self.clears += 1
        self.cleared_steps += self.transitions
        self.transitions = 0
        self.state_ids.clear()
        self.succ[0].clear()
        for table in (self.values, self.succ, self.p_ok, self.res_ok):
            del table[1:]
        if rows_full:
            self.row_ids.clear()
            del self.rows[:], self.kept[:]

    def _add_row(self, indices):
        rid = self.row_ids[indices] = len(self.rows)
        self.rows.append(tuple(pool[i] for pool, i in zip(self.pools, indices)))
        self.kept.append(None)
        return rid

    def _step(self, state, rid):
        """The state after row `rid` from `state`: one fold step, tabled.
        A row that leaves the accumulator as it was needs no hashing."""
        values = self.values
        start = values[state]
        value = eval_fold(self.task, [self.rows[rid]], start=start).value
        # a fold of one row from Bottom is defined even if it equals init
        if state and value == start:
            nxt = state
        else:
            new = len(values)
            try:
                nxt = self.state_ids.setdefault(value, new)
            except TypeError:
                nxt = self.state_ids.setdefault(_frozen(value), new)
            if nxt == new:
                values.append(value)
                self.succ.append({})
                self.p_ok.append(None)
                self.res_ok.append(None)
        self.succ[state][rid] = nxt
        self.transitions += 1
        return nxt

    def _keep(self, rid):
        kept = self.kept[rid] = bool(
            filter_rows(self.q_exprs, [self.rows[rid]], self.task.n_columns))
        return kept

    def _lift(self, verdicts, exprs, state):
        ok = verdicts[state] = not lift_eval(
            exprs, LiftResult(self.values[state])).is_bottom
        return ok

    def mismatch(self, frame):
        """Whether the lifted original and rewritten pipelines differ on a
        frame of column-pool index tuples. The parts are evaluated in the
        reference order (fold, `P`, `Q` on every row, fold of the kept
        rows, `P'`), so a frame that raises raises the same error."""
        row_ids, succ, step = self.row_ids, self.succ, self._step
        state = 0
        rids = []
        path = []  # path[k]: the state after the first k rows
        for indices in frame:
            rid = row_ids.get(indices)
            if rid is None:
                rid = self._add_row(indices)
            rids.append(rid)
            path.append(state)
            nxt = succ[state].get(rid)
            state = step(state, rid) if nxt is None else nxt
        ok = self.p_ok[state]
        if ok is None:
            ok = self._lift(self.p_ok, self.p_exprs, state)
        lhs = state if ok else 0
        kept = self.kept
        keep = [kept[rid] if kept[rid] is not None else self._keep(rid)
                for rid in rids]
        if False in keep:
            # the kept rows share the frame's prefix up to the first drop
            first = keep.index(False)
            state = path[first]
            for rid, keep_row in zip(rids[first + 1:], keep[first + 1:]):
                if keep_row:
                    nxt = succ[state].get(rid)
                    state = step(state, rid) if nxt is None else nxt
        ok = self.res_ok[state]
        if ok is None:
            ok = self._lift(self.res_ok, self.res_exprs, state)
        rhs = state if ok else 0
        return lhs != rhs and not (
            lhs and rhs and values_equal(self.values[lhs], self.values[rhs]))


def differential_check(task, universes, q_indices, residual_indices,
                       trials: int = 10000, seed: int = 0,
                       max_len: int = 8) -> DiffReport:
    """Sample dataframes and compare the lifted original against the lifted
    rewritten pipeline, pointwise; deterministic under the seed. Frames are
    drawn as column-pool indices (`rng.choice` consumes the same random
    stream on a pool of indices as on the pool), and each is judged through
    the call's `FoldTables`."""
    rng = random.Random(seed)
    pools = column_pools(task, universes)
    index_pools = [list(range(len(pool))) for pool in pools]
    q_exprs = [universes.u_q[i].expr for i in sorted(q_indices)]
    res_exprs = [universes.u_residual[i].expr for i in sorted(residual_indices)]
    p_exprs = [task.post_pred] if task.post_pred is not None else []
    tables = FoldTables(task, pools, q_exprs, p_exprs, res_exprs)
    mismatch_count = 0
    examples = []
    for _ in range(trials):
        tables.make_room(max_len)
        frame = sample_dataframe(rng, index_pools, max_len)
        if tables.mismatch(frame):
            mismatch_count += 1
            if len(examples) < 10:
                examples.append([
                    [fmt_value(pool[i]) for pool, i in zip(pools, indices)]
                    for indices in frame
                ])
    return DiffReport(
        trials=trials,
        mismatch_count=mismatch_count,
        seed=seed,
        mismatches=examples,
        tables=tables.stats(),
    )
