"""Differential validation of pushdown solutions, exhaustive over short
frames where it can be, else on random dataframes.

Sampling is boundary-directed: every comparison constant relevant to a column
appears in its pool, along with values between and beyond adjacent constants.
So every sampled row comes from a small, fixed set, and the fold is a
deterministic automaton over it, which the fuzzer tables, each (accumulator,
row) step evaluated once, as lazy DFA construction does (Thompson, CACM
1968). It tables the product of the original and rewritten folds too
(Hopcroft & Karp, 1971), with a mismatch verdict per pair of states.

A call first explores that product breadth-first over the whole row
alphabet, up to `FRAME_ROWS` rows, the longest frame the sampler draws, and
stops early at a level that reaches no new pair (a fixpoint), as
bounded-exhaustive testing does (Boyapati et al., Korat, ISSTA 2002). On the
reference triples, top2 reaches a fixpoint at depth 2 with 36 pairs and
discount at depth 1 with 14; the counters frequent (10 pairs) and count_taut
(9) are explored to depth 8; top2_wrong reaches its first mismatching pair
after 61 pairs and a fixpoint with 105. A completed exploration takes one
of two ways:

- no pair it reached mismatches: every frame the seeded sampler could draw
  matches, so the call is settled, draws no frame, and reports what
  sampling would;
- a pair mismatches: the shortest frame to the first one is a
  counterexample, which fails the report whatever sampling finds, and every
  frame the sampler can draw has its path and verdict in the pair table. So
  one generated loop (`_walker`) draws and judges all of them, one dict
  lookup per row, like the inner loop of RE2's DFA; Python only keeps the
  first ten mismatches as examples.

The exploration gives up when an evaluation raises, when the tables are
full, or when its next level would take more pair transitions than
`TABLE_BOUND` or than the call has trials: case_a (87 rows) after its first
level, case_b (1,107) after 128 transitions, once its tables hold more than
`STATE_SLACK` states. A cache that builds too few reusable states costs more
than it saves: RE2's lazy DFA then gives up on it and runs a direct matcher
(Cox, "Regular Expression Matching in the Wild", 2010). So does a call that
gave up: every frame goes to one generated function (`interp.frame_judge`)
that folds both pipelines in one loop over the rows. Should it raise, the
frame is judged again in the per-trial loop's order, which raises the error
that loop would.

Frames are drawn with `getrandbits` exactly as `Random.randint` and
`Random.choice` draw on CPython 3.10 and later, so a seed gives the frames
of that per-trial sampler (`tests/fuzz_reference.py`, which the tests pin
this one to). The walk loop draws pool indices and the sampler
(`sample_dataframe`) values; both emit their unrolled draws from
`_generated`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod

from .interp import LiftResult, eval_fold, filter_rows, frame_judge, lift_eval
from .syntax import Lit, TBool, TFloat, TInt, TOpt, TStr, walk
from .values import NONE, Some, fmt_value, values_equal

# The tables of one `differential_check` call only grow, and no table grows
# past this many entries. The exploration gives up, and the call judges
# every frame whole, before a level whose pair transitions (its frontier
# times the alphabet, so the rows too) would pass it, and before a fold step
# that would take the transitions past it; the states and the pairs never
# outnumber their transitions by more than one (Bottom, and Bottom's pair).
TABLE_BOUND = 4096
# The tables are also full once they hold more accumulator states than this:
# the accumulators then rarely repeat, and a frame's path would rarely repeat
STATE_SLACK = 128
# the most rows a sampled frame has
FRAME_ROWS = 8


class _Full(Exception):
    """A fold step would take the fold tables past their bounds."""


@dataclass
class DiffReport:
    trials: int
    mismatch_count: int
    seed: int
    # up to 10 mismatching frames, each a list of rows of printed values
    mismatches: list = field(default_factory=list)
    # sizes of the fold tables (`FoldTables.stats`), the number of frames
    # walked through the pair table (`frames`) and of those judged whole
    # (`spilled`); not in the record
    tables: dict = field(default_factory=dict)
    # what the exploration of the pair table proved (`FoldTables.explore`),
    # None if it gave up before a counterexample or there were no trials
    exhaustive: dict | None = None

    @property
    def ok(self):
        return self.mismatch_count == 0 and \
            "counterexample" not in (self.exhaustive or {})

    def to_json(self):
        return {
            "trials": self.trials,
            "mismatches": self.mismatch_count,
            "seed": self.seed,
            "examples": self.mismatches,
            "exhaustive": self.exhaustive,
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


def pool_draws(pools, max_len: int = FRAME_ROWS):
    """The draw plan of `sample_dataframe` on `pools` and `max_len`, built
    once for a caller that samples many frames: a generated function
    `getrandbits -> frame` with the length draw and each column's draw
    unrolled, every pool's size and bit count a literal."""
    if max_len < 0:
        raise ValueError(f"max_len must not be negative, got {max_len}")
    return _sampler(tuple(map(len, pools)), max_len)(*pools)


def _generated(name, head, tail, sizes, max_len, indices, row_lines=()):
    """The function whose source is `head`, lines that draw a `frame` with
    the `getrandbits` calls of `randint(0, max_len)` and then, row by row,
    of `choice` on each pool, running `row_lines` on each `row`, and `tail`.
    A row holds the drawn pool indices if `indices`, else the values at
    them in the pools `p0, p1, ...`. An index below `n` is
    `getrandbits(n.bit_length())`, redrawn while not below `n`; on an empty
    pool `choice` raises before it draws."""
    bits = (max_len + 1).bit_length()
    lines = [f"length = getrandbits({bits})",
             f"while length > {max_len}:",
             f"    length = getrandbits({bits})",
             "frame = []",
             "for _ in range(length):"]
    cells = []
    for column, n in enumerate(sizes):
        if not n:
            lines.append("    raise IndexError("
                         "'Cannot choose from an empty sequence')")
            break
        i = f"i{column}"
        lines += [f"    {i} = getrandbits({n.bit_length()})",
                  f"    while {i} >= {n}:",
                  f"        {i} = getrandbits({n.bit_length()})"]
        cells.append(i if indices else f"p{column}[{i}]")
    else:
        lines += [f"    row = ({''.join(c + ', ' for c in cells)})",
                  "    frame.append(row)", *(f"    {x}" for x in row_lines)]
    body = "".join(f"        {line}\n" for line in lines)
    namespace = {}
    exec(compile(head + body + tail, name, "exec"), namespace)
    return namespace.popitem()[1]


@lru_cache(maxsize=64)
def _sampler(sizes, max_len):
    """The factory `(*pools) -> sampler` of one shape of pools."""
    pools = "".join(f"p{column}, " for column in range(len(sizes)))
    return _generated(f"<sampler {sizes} {max_len}>",
                      f"def _make({pools}):\n    def sample(getrandbits):\n",
                      "        return frame\n    return sample\n",
                      sizes, max_len, False)


@lru_cache(maxsize=64)
def _walker(sizes, max_len):
    """The walk loop of one shape of pools, `walk(getrandbits, psucc,
    verdicts, budget, stop) -> (walked, mismatches, frame)`, on a pair
    table that holds every frame it draws. It draws up to `budget` frames
    of pool indices as the sampler draws values, following each row
    through `psucc` once drawn; `frame` is the first to mismatch if `stop`
    (None if none does), after `walked`."""
    return _generated(
        f"<walk {sizes} {max_len}>",
        "def walk(getrandbits, psucc, verdicts, budget, stop):\n"
        "    mismatches = 0\n"
        "    for walked in range(budget):\n"
        "        pair = 0\n",
        "        verdict = verdicts[pair]\n"
        "        if verdict and stop:\n"
        "            return walked, mismatches, frame\n"
        "        mismatches += verdict\n"
        "    return budget, mismatches, None\n",
        sizes, max_len, True, ["pair = psucc[pair][row]"])


def sample_dataframe(rng: random.Random, pools, max_len: int = FRAME_ROWS,
                     draws=None):
    """A frame of 0 to `max_len` rows whose cells are drawn uniformly from
    their columns' pools, the length first, then the cells row by row;
    `draws`, if given, is `pool_draws(pools, max_len)`. The random stream
    and the frames are those of `rng.randint(0, max_len)` and
    `rng.choice(pool)` on CPython 3.10 and later (`_generated`)."""
    if draws is None:
        draws = pool_draws(pools, max_len)
    return draws(rng.getrandbits)


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
    and accumulators of every frame of up to `FRAME_ROWS` rows, as far as
    `explore` gets.

    Rows: the alphabet, every tuple of column-pool indices, each with an id,
    its value row and, once needed, its `Q` verdict. States: each distinct
    accumulator gets an id and, once needed, its `P` and `P'` lift verdicts;
    state 0 is Bottom, the fold of no rows, which steps from the task's
    initial value. Transitions: `succ[state][row]` is the state after one
    more row, evaluated with one `eval_fold` step on a miss.

    Pairs: the two pipelines side by side, the product of the two folds
    (Hopcroft & Karp, 1971). Each distinct (original state, rewritten state)
    pair gets an id, pair 0 being (Bottom, Bottom); `psucc[pair][indices]` is
    the pair after one more row, keyed by the row's index tuple, and
    `verdicts[pair]` whether a frame ending in the pair is a mismatch, judged
    as the pair is reached (`P` on the original state, then `P'` on the
    rewritten one). A frame whose whole path is in `psucc` costs one dict
    lookup per row.

    The tables only grow. `explore` bounds each level's pair transitions,
    and gives up when `_step`, where the states grow, raises `_Full` before
    a fold step that would take the transitions past `TABLE_BOUND`, or
    once the tables hold more than `STATE_SLACK` states, so that a frame's
    path would rarely repeat. Then, as RE2's lazy DFA stops building its
    state cache when it thrashes and runs a direct matcher (Cox, 2010), the
    caller judges every frame whole.

    Accumulators are interned by their value, as hash-consing interns terms
    (Filliâtre & Conchon, ML Workshop 2006), so Python-equal values share a
    state. That is sound. All accumulators of a task have its one static
    type, and at one type the DSL cannot tell Python-equal values apart: an
    `int` field holds ints and a `float` field `Fraction`s or -inf (the
    evaluator's contract), numbers are combined and compared by value
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
        self.rows = []       # row id -> value row
        self.kept = []       # row id -> Q verdict, None until judged
        self.state_ids = {}  # accumulator (or its frozen key) -> state id
        self.values = [task.init_values]  # state id -> accumulator
        self.succ = [{}]     # state id -> {row id: next state id}
        # state id -> P and P' verdicts, None until judged; Bottom lifts to
        # Bottom under both
        self.p_ok, self.res_ok = [False], [False]
        self.pair_ids = {(0, 0): 0}  # (state id, state id) -> pair id
        self.pairs = [(0, 0)]        # pair id -> (original, rewritten) state
        self.psucc = [{}]            # pair id -> {index tuple: next pair id}
        # pair id -> mismatch verdict, None until judged; Bottom on both
        # sides agrees
        self.verdicts = [False]
        self.transitions = 0  # one fold step each
        self.pair_transitions = 0  # entries of `psucc`

    def stats(self):
        """The size of each table; each transition is one one-row fold step
        evaluated."""
        return {"rows": len(self.rows), "states": len(self.values),
                "transitions": self.transitions, "pairs": len(self.pairs)}

    def _step(self, state, rid):
        """The state after row `rid` from `state`: one fold step, tabled,
        unless the tables are full (`_Full`; see the class). A row that
        leaves the accumulator as it was needs no hashing."""
        values = self.values
        if self.transitions >= TABLE_BOUND or len(values) > STATE_SLACK:
            raise _Full
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

    def _verdict(self, state, kept_state):
        """Whether a frame that folds to `state` and whose kept rows fold to
        `kept_state` is a mismatch: `P` is judged first, then `P'`."""
        ok = self.p_ok[state]
        if ok is None:
            ok = self._lift(self.p_ok, self.p_exprs, state)
        lhs = state if ok else 0
        ok = self.res_ok[kept_state]
        if ok is None:
            ok = self._lift(self.res_ok, self.res_exprs, kept_state)
        rhs = kept_state if ok else 0
        return lhs != rhs and not (
            lhs and rhs and values_equal(self.values[lhs], self.values[rhs]))

    def explore(self, limit):
        """Every pair that a frame of at most `FRAME_ROWS` rows reaches,
        breadth-first from pair 0 on fresh tables, each pair's verdict judged
        as the pair is reached. A level that reaches no new pair is a
        fixpoint: then no frame of any length over the row alphabet reaches
        another pair.

        The result is `(exhaustive, complete)`. A complete exploration has
        filled the transitions of every frame of up to `FRAME_ROWS` rows and
        judged the pairs they end in; `exhaustive` is then `{depth,
        fixpoint, pairs, transitions}`: every frame of at most `depth` rows
        is explored (at a fixpoint, every pair is reached within `depth`
        rows). At the first mismatching pair, `exhaustive` is instead a
        snapshot of the same fields at that pair, with `counterexample`, the
        shortest frame to it, as index tuples; `depth` is its length. The
        exploration then goes on filling the tables. It gives up, and is
        not complete, when an evaluation raises, the tables are full
        (`_Full`), or the next level, its frontier times the alphabet, would
        take the pair transitions past `limit` or `TABLE_BOUND`;
        `exhaustive` is then the counterexample's snapshot, or None. The
        alphabet is built only once its first level fits."""
        sizes = tuple(map(len, self.pools))
        size = prod(sizes)
        succ, step = self.succ, self._step
        pair_ids, pairs, psucc, verdicts = \
            self.pair_ids, self.pairs, self.psucc, self.verdicts
        parents = [None]  # pair id -> (parent pair id, index tuple)
        alphabet = None
        frontier, depth = [0], 0
        found = None

        def explored(depth, fixpoint, **counterexample):
            return {"depth": depth, "fixpoint": fixpoint, "pairs": len(pairs),
                    "transitions": self.pair_transitions, **counterexample}

        try:
            while frontier and depth < FRAME_ROWS:
                if self.pair_transitions + len(frontier) * size > \
                        min(limit, TABLE_BOUND):
                    return found, False
                if alphabet is None:
                    alphabet = list(product(*map(range, sizes)))
                    self.rows = [tuple(pool[i] for pool, i in
                                       zip(self.pools, indices))
                                 for indices in alphabet]
                    kept = self.kept = [None] * size
                reached = []
                for pair in frontier:
                    state, kept_state = pairs[pair]
                    out = psucc[pair]
                    for rid, indices in enumerate(alphabet):
                        nxt = succ[state].get(rid)
                        to_state = step(state, rid) if nxt is None else nxt
                        to_kept = kept_state
                        keep = kept[rid]
                        if keep is None:
                            keep = self._keep(rid)
                        if keep:
                            nxt = succ[kept_state].get(rid)
                            to_kept = step(kept_state, rid) if nxt is None \
                                else nxt
                        key = to_state, to_kept
                        nxt = pair_ids.get(key)
                        if nxt is None:
                            nxt = pair_ids[key] = len(pairs)
                            pairs.append(key)
                            psucc.append({})
                            verdicts.append(None)
                            parents.append((pair, indices))
                            reached.append(nxt)
                        out[indices] = nxt
                        self.pair_transitions += 1
                        if verdicts[nxt] is None:
                            verdicts[nxt] = self._verdict(*key)
                            if verdicts[nxt] and found is None:
                                frame, at = [], nxt
                                while at:
                                    at, row = parents[at]
                                    frame.append(row)
                                found = explored(depth + 1, False,
                                                 counterexample=frame[::-1])
                frontier = reached
                depth += 1
        except Exception:
            # the tables are full (`_Full`) or an evaluation raised: the
            # sampled frames raise what the per-trial loop raises, if any
            return found, False
        if found is None:
            found = explored(depth, False) if frontier else \
                explored(depth - 1, True)
        return found, True


def differential_check(task, universes, q_indices, residual_indices,
                       trials: int = 10000, seed: int = 0) -> DiffReport:
    """Compare the lifted original against the lifted rewritten pipeline,
    pointwise, on `trials` seeded frames; deterministic under the seed.
    First the call's `FoldTables` explore every frame of up to `FRAME_ROWS`
    rows, spending at most one pair transition per trial. If the
    exploration completes and no such frame mismatches, the report is
    settled and no frame is drawn. If it completes with a counterexample,
    the walk loop (`_walker`) draws every frame as pool indices and judges
    it through the pair table, which holds every frame it can draw. If it
    gives up, every frame is drawn as values and judged whole by
    `frame_judge`, or, on a frame where it raises, in the reference
    order."""
    rng = random.Random(seed)
    pools = column_pools(task, universes)
    q_exprs = [universes.u_q[i].expr for i in sorted(q_indices)]
    res_exprs = [universes.u_residual[i].expr for i in sorted(residual_indices)]
    p_exprs = [task.post_pred] if task.post_pred is not None else []
    tables = FoldTables(task, pools, q_exprs, p_exprs, res_exprs)

    def printed(frame):
        return [[fmt_value(pool[i]) for pool, i in zip(pools, indices)]
                for indices in frame]

    exhaustive, complete = tables.explore(trials)
    counterexample = (exhaustive or {}).get("counterexample")
    if counterexample is not None:
        exhaustive["counterexample"] = printed(counterexample)
    mismatch_count = walked = 0
    examples = []
    if complete and counterexample is not None:
        walk = _walker(tuple(map(len, pools)), FRAME_ROWS)
        while walked < trials:
            more, missed, frame = walk(
                rng.getrandbits, tables.psucc, tables.verdicts,
                trials - walked, len(examples) < 10)
            walked += more
            mismatch_count += missed
            if frame is None:
                break
            walked += 1
            mismatch_count += 1
            examples.append(printed(frame))
    elif not complete:
        judge = frame_judge(task, q_exprs, p_exprs, res_exprs)
        draws = pool_draws(pools)
        for _ in range(trials):
            frame = sample_dataframe(rng, pools, FRAME_ROWS, draws)
            try:
                differs = judge(frame)
            except Exception:
                # judge the frame again in the reference order, which
                # raises the reference's error (see `frame_judge`)
                lhs = lift_eval(p_exprs, eval_fold(task, frame))
                kept = filter_rows(q_exprs, frame, task.n_columns)
                differs = lhs != lift_eval(res_exprs, eval_fold(task, kept))
            if differs:
                mismatch_count += 1
                if len(examples) < 10:
                    examples.append([[fmt_value(v) for v in row]
                                     for row in frame])
    return DiffReport(
        trials=trials,
        mismatch_count=mismatch_count,
        seed=seed,
        mismatches=examples,
        tables={**tables.stats(), "frames": walked,
                "spilled": 0 if complete else trials},
        exhaustive=exhaustive,
    )
