"""Differential validation of pushdown solutions, exhaustive over short
frames where it can be, else on random dataframes.

Sampling is boundary-directed: every comparison constant relevant to a column
appears in its pool, along with values between and beyond adjacent constants.
So every sampled row comes from a small, fixed set, and the fold is a
deterministic automaton over it: the fuzzer builds that automaton lazily,
evaluating each (accumulator, row) step once, as lazy DFA construction does
(Thompson, CACM 1968). It tables the product of the original and rewritten
folds too (Hopcroft & Karp, 1971), with a cached mismatch verdict per pair
of states.

A call first explores that product breadth-first over the whole row
alphabet, up to `FRAME_ROWS` rows, the longest frame the sampler draws, and
stops early at a level that reaches no new pair (a fixpoint), as
bounded-exhaustive testing does (Boyapati et al., Korat, ISSTA 2002). If no
pair it reaches mismatches, every frame the seeded sampler could draw
matches: the call is settled, draws no frame, and reports what sampling
would. On the reference triples, top2 reaches a fixpoint at depth 2 with 36
pairs and discount at depth 1 with 14; the counters frequent (10 pairs) and
count_taut (9) are explored to depth 8. At its first mismatching pair the
exploration stops with the shortest frame to it as a counterexample
(top2_wrong, after 61 pairs), which fails the report whatever sampling
finds. It gives up
when an evaluation raises, when the tables are full (below), or when its
next level would take more pair transitions than `TABLE_BOUND` or than the
call has trials: case_a (87 rows) after its first level, case_b (1,107) once
its tables are full, after 128 transitions. Then, and after a
counterexample, the call samples from the tables the exploration filled.

A frame whose path through the pairs has been seen is judged by one dict
lookup per row and a cached verdict. A cache that builds too few reusable
states for the input it consumes costs more than it saves: RE2's lazy DFA
then gives up on it and runs a direct matcher (Cox, "Regular Expression
Matching in the Wild", 2010). So the tables of a call are full once they
hold more accumulator states than frames judged, plus `STATE_SLACK`, as well
as once a frame could take them past `TABLE_BOUND`, their memory cap.
top2_wrong's tables hold 105 states after 10,000 frames and never fill; the
accumulators of case_a and case_b rarely repeat, and their tables fill
within their first frames (after 19 and before the first at seed 7). The
rest of such a call judges each frame whole. Such a "spilled" frame goes to
one generated function (`interp.frame_judge`, built at the first spill) that
folds both pipelines in one loop over the rows. Should it raise, the frame
is judged again in the per-trial loop's order, which raises the error that
loop would.

Frames are drawn with `getrandbits` exactly as `Random.randint` and
`Random.choice` draw on CPython 3.10 and later, so a seed gives the frames
of that per-trial sampler (`tests/fuzz_reference.py`, which the tests pin
this one to). The frames that the pair table judges are drawn and walked in
one generated loop (`_walker`), like the inner loop of RE2's DFA. Python
draws (`sample_dataframe`) and judges only the first frame of a call, the
frames after a miss, frames on unjudged pairs and the first ten mismatches.
The loop and the samplers emit their unrolled draws from `_generated`.
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

# The tables of one `differential_check` call only grow. From the first frame
# that could take them past this many transitions, pair transitions or rows,
# the call judges every frame whole; the states and the pairs never outnumber
# their transitions by more than one (Bottom, and the pair of two Bottoms).
TABLE_BOUND = 4096
# The tables are also full once they hold more accumulator states than
# frames judged, plus this slack: the states then grow with the frames, and
# a frame's path rarely repeats
STATE_SLACK = 128
# the most rows a sampled frame has
FRAME_ROWS = 8


@dataclass
class DiffReport:
    trials: int
    mismatch_count: int
    seed: int
    # up to 10 mismatching frames, each a list of rows of printed values
    mismatches: list = field(default_factory=list)
    # sizes and work of the fold tables (`FoldTables.stats`) and the number
    # of frames judged whole (`spilled`); not in the record
    tables: dict = field(default_factory=dict)
    # what the exploration of the pair table proved (`FoldTables.explore`),
    # None if it gave up or there were no trials
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
    unrolled, every pool's size and bit count a literal. A pool given as
    `range(n)` yields the drawn index itself, with no lookup."""
    if max_len < 0:
        raise ValueError(f"max_len must not be negative, got {max_len}")
    direct = tuple(isinstance(pool, range) and pool == range(len(pool))
                   for pool in pools)
    return _sampler(tuple(map(len, pools)), direct, max_len)(*pools)


def _generated(name, head, tail, sizes, direct, max_len, row_lines=()):
    """The function whose source is `head`, lines that draw a `frame` with
    the `getrandbits` calls of `randint(0, max_len)` and then, row by row,
    of `choice` on each pool, running `row_lines` on each `row`, and `tail`.
    An index below `n` is `getrandbits(n.bit_length())`, redrawn while not
    below `n`; on an empty pool `choice` raises before it draws."""
    bits = (max_len + 1).bit_length()
    lines = [f"length = getrandbits({bits})",
             f"while length > {max_len}:",
             f"    length = getrandbits({bits})",
             "frame = []",
             "for _ in range(length):"]
    cells = []
    for column, (n, plain) in enumerate(zip(sizes, direct)):
        if not n:
            lines.append("    raise IndexError("
                         "'Cannot choose from an empty sequence')")
            break
        i = f"i{column}"
        lines += [f"    {i} = getrandbits({n.bit_length()})",
                  f"    while {i} >= {n}:",
                  f"        {i} = getrandbits({n.bit_length()})"]
        cells.append(i if plain else f"p{column}[{i}]")
    else:
        lines += [f"    row = ({''.join(c + ', ' for c in cells)})",
                  "    frame.append(row)", *(f"    {x}" for x in row_lines)]
    body = "".join(f"        {line}\n" for line in lines)
    namespace = {}
    exec(compile(head + body + tail, name, "exec"), namespace)
    return namespace.popitem()[1]


@lru_cache(maxsize=64)
def _sampler(sizes, direct, max_len):
    """The factory `(*pools) -> sampler` of one shape of pools."""
    pools = "".join(f"p{column}, " for column in range(len(sizes)))
    return _generated(f"<sampler {sizes} {max_len}>",
                      f"def _make({pools}):\n    def sample(getrandbits):\n",
                      "        return frame\n    return sample\n",
                      sizes, direct, max_len)


@lru_cache(maxsize=64)
def _walker(sizes, max_len):
    """The walk loop of one shape of `range` pools, `walk(getrandbits, psucc,
    verdicts, budget, stop) -> (walked, mismatches, frame)`. It draws up to
    `budget` frames as the sampler does, looking each row up in `psucc` once
    drawn; `frame` is the first to leave the table, end on a pair with no
    verdict or, if `stop`, mismatch (None if none does), after `walked`."""
    return _generated(
        f"<walk {sizes} {max_len}>",
        "def walk(getrandbits, psucc, verdicts, budget, stop):\n"
        "    mismatches = 0\n"
        "    for walked in range(budget):\n"
        "        pair = 0\n",
        "        verdict = None if pair is None else verdicts[pair]\n"
        "        if verdict is None or verdict and stop:\n"
        "            return walked, mismatches, frame\n"
        "        mismatches += verdict\n"
        "    return budget, mismatches, None\n",
        sizes, (True,) * len(sizes), max_len,
        ["if pair is not None:", "    pair = psucc[pair].get(row)"])


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
    and accumulators that one `differential_check` call meets.

    Rows: each distinct row (a tuple of column-pool indices) gets an id, its
    value row and, once needed, its `Q` verdict. States: each distinct
    accumulator gets an id and, once needed, its `P` and `P'` lift verdicts;
    state 0 is Bottom, the fold of no rows, which steps from the task's
    initial value. Transitions: `succ[state][row]` is the state after one
    more row, evaluated with one `eval_fold` step on a miss.

    Pairs: the two pipelines side by side, the product of the two folds
    (Hopcroft & Karp, 1971). Each distinct (original state, rewritten state)
    pair gets an id, pair 0 being (Bottom, Bottom); `psucc[pair][indices]` is
    the pair after one more row, keyed by the row's index tuple, and
    `verdicts[pair]` whether a frame ending in the pair is a mismatch, judged
    once needed (`P` on the original state, then `P'` on the rewritten one).
    A frame whose whole path is in `psucc` costs one dict lookup per row.
    Pairs are only recorded from steps already evaluated, so they save
    walking, never an evaluation. `explore` records, before any frame, the
    pairs and transitions of every frame of up to `FRAME_ROWS` rows.

    The tables only grow, and `full` tells the caller when the next frame
    could take one past `TABLE_BOUND`, or when they hold more states than
    frames judged plus `STATE_SLACK`, so that a frame's path rarely repeats.
    Then, as RE2's lazy DFA stops building its state cache when it thrashes
    and runs a direct matcher (Cox, 2010), the caller judges the remaining
    frames whole.

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
        self.row_ids = {}    # index tuple -> row id
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
        self.pair_hits = 0    # frames whose whole path was in the pair table
        self.frames = 0       # frames judged

    def stats(self):
        """The size of each table (each transition is one one-row fold step
        evaluated), how many frames the tables judged, and how many of those
        the pair table judged alone, from a path it held whole."""
        return {"rows": len(self.rows), "states": len(self.values),
                "transitions": self.transitions, "pairs": len(self.pairs),
                "frames": self.frames, "pair_hits": self.pair_hits}

    def full(self, frame_rows):
        """Whether a frame of at most `frame_rows` rows could take a table
        past `TABLE_BOUND` (it adds at most as many rows, twice as many
        transitions, its two folds, and as many pair transitions), or the
        tables hold more states than frames judged plus `STATE_SLACK`. The
        states of a converging fold stop growing; tables that gain `k > 1`
        states a frame fill after about `STATE_SLACK / (k - 1)` frames, long
        before their volume would reach `TABLE_BOUND`."""
        return (len(self.rows) + frame_rows > TABLE_BOUND
                or self.transitions + 2 * frame_rows > TABLE_BOUND
                or self.pair_transitions + frame_rows > TABLE_BOUND
                or len(self.values) > self.frames + STATE_SLACK)

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

    def mismatch(self, frame):
        """Whether the lifted original and rewritten pipelines differ on a
        frame of column-pool index tuples: the verdict of the pair the frame
        ends in if the pair table holds its whole path, else that of
        `_resume` from the last pair it reached."""
        self.frames += 1
        psucc = self.psucc
        pair = 0
        for depth, indices in enumerate(frame):
            nxt = psucc[pair].get(indices)
            if nxt is None:
                return self._resume(frame, depth, pair)
            pair = nxt
        self.pair_hits += 1
        verdict = self.verdicts[pair]
        return self._judge(pair) if verdict is None else verdict

    def _resume(self, frame, depth, pair):
        """The verdict of a frame whose first `depth` rows lead to `pair` and
        whose next row leaves the pair table. The rest of the frame is
        judged in the reference order (fold, `P`, `Q` on every row, fold of
        the kept rows, `P'`), so a frame that raises raises the same error,
        as the parts of its prefix are tabled and did not raise. The fold of
        the kept rows records the rest of the path as it goes."""
        row_ids, succ, step = self.row_ids, self.succ, self._step
        rest = frame[depth:]
        state, kept_state = self.pairs[pair]
        rids = []
        states = []
        for indices in rest:
            rid = row_ids.get(indices)
            if rid is None:
                rid = self._add_row(indices)
            rids.append(rid)
            nxt = succ[state].get(rid)
            state = step(state, rid) if nxt is None else nxt
            states.append(state)
        if self.p_ok[state] is None:
            self._lift(self.p_ok, self.p_exprs, state)
        kept = self.kept
        keep = [kept[rid] if kept[rid] is not None else self._keep(rid)
                for rid in rids]
        pair_ids, pairs, psucc, verdicts = \
            self.pair_ids, self.pairs, self.psucc, self.verdicts
        recorded = 0
        for indices, rid, keep_row, state in zip(rest, rids, keep, states):
            if keep_row:
                nxt = succ[kept_state].get(rid)
                kept_state = step(kept_state, rid) if nxt is None else nxt
            key = state, kept_state
            nxt = pair_ids.get(key)
            if nxt is None:
                nxt = pair_ids[key] = len(pairs)
                pairs.append(key)
                psucc.append({})
                verdicts.append(None)
            out = psucc[pair]
            if indices not in out:
                out[indices] = nxt
                recorded += 1
            pair = nxt
        self.pair_transitions += recorded
        verdict = verdicts[pair] = self._verdict(states[-1], kept_state)
        return verdict

    def explore(self, limit):
        """Every pair that a frame of at most `FRAME_ROWS` rows reaches,
        breadth-first from pair 0 on fresh tables. Each transition is filled
        as `_resume` fills it, and each pair's verdict is judged as the pair
        is reached. A level that reaches no new pair is a fixpoint: then no
        frame of any length over the row alphabet reaches another pair.

        The result is `{depth, fixpoint, pairs, transitions}`: every frame
        of at most `depth` rows is explored (at a fixpoint, every pair is
        reached within `depth` rows). At the first mismatching pair the
        exploration stops, and the result also holds `counterexample`, the
        shortest frame to it, as index tuples; `depth` is its length. None
        means that the exploration gave up: an evaluation raised, the tables
        are `full`, or the next level, its frontier times the alphabet,
        would take the pair transitions past `limit` or `TABLE_BOUND`. The
        alphabet is built only once its first level fits."""
        sizes = tuple(map(len, self.pools))
        size = prod(sizes)
        succ, kept, step = self.succ, self.kept, self._step
        pair_ids, pairs, psucc, verdicts = \
            self.pair_ids, self.pairs, self.psucc, self.verdicts
        parents = [None]  # pair id -> (parent pair id, index tuple)
        alphabet = None
        frontier, depth = [0], 0

        def explored(depth, fixpoint, **counterexample):
            return {"depth": depth, "fixpoint": fixpoint, "pairs": len(pairs),
                    "transitions": self.pair_transitions, **counterexample}

        try:
            while frontier and depth < FRAME_ROWS:
                if self.pair_transitions + len(frontier) * size > \
                        min(limit, TABLE_BOUND):
                    return None
                if alphabet is None:
                    alphabet = [(indices, self._add_row(indices))
                                for indices in product(*map(range, sizes))]
                reached = []
                for pair in frontier:
                    state, kept_state = pairs[pair]
                    out = psucc[pair]
                    for indices, rid in alphabet:
                        if self.full(1):
                            return None
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
                        if verdicts[nxt] is None and self._judge(nxt):
                            frame = []
                            while nxt:
                                nxt, indices = parents[nxt]
                                frame.append(indices)
                            return explored(depth + 1, False,
                                            counterexample=frame[::-1])
                frontier = reached
                depth += 1
        except Exception:
            # an evaluation raised: the sampled frames raise what the
            # per-trial loop raises, if one of them does
            return None
        if frontier:
            return explored(depth, False)
        return explored(depth - 1, True)

    def _judge(self, pair):
        """The verdict of `pair`, judged and recorded."""
        verdict = self.verdicts[pair] = self._verdict(*self.pairs[pair])
        return verdict


def differential_check(task, universes, q_indices, residual_indices,
                       trials: int = 10000, seed: int = 0) -> DiffReport:
    """Compare the lifted original against the lifted rewritten pipeline,
    pointwise, on `trials` seeded frames; deterministic under the seed.
    First the call's `FoldTables` explore every frame of up to `FRAME_ROWS`
    rows, spending at most one pair transition per trial. If no such frame
    mismatches, the report is settled and no frame is drawn. Otherwise, or
    if the exploration gave up, frames are drawn as column-pool indices,
    from `range` pools (`sample_dataframe` consumes the same random stream
    on a pool of indices as on the pool), and each is judged through the
    tables until they are `full`. After a frame that the pair table judged,
    the walk loop draws and judges the next frames up to one that needs
    Python (`_walker`). The frames after that are drawn as values, through
    a second plan, and judged whole by `frame_judge`, or, on a frame where
    it raises, in the reference order."""
    rng = random.Random(seed)
    pools = column_pools(task, universes)
    index_pools = [range(len(pool)) for pool in pools]
    q_exprs = [universes.u_q[i].expr for i in sorted(q_indices)]
    res_exprs = [universes.u_residual[i].expr for i in sorted(residual_indices)]
    p_exprs = [task.post_pred] if task.post_pred is not None else []
    tables = FoldTables(task, pools, q_exprs, p_exprs, res_exprs)

    def printed(frame):
        return [[fmt_value(pool[i]) for pool, i in zip(pools, indices)]
                for indices in frame]

    exhaustive = tables.explore(trials) if trials > 0 else None
    if exhaustive is not None:
        if "counterexample" not in exhaustive:
            return DiffReport(trials=trials, mismatch_count=0, seed=seed,
                              tables={**tables.stats(), "spilled": 0},
                              exhaustive=exhaustive)
        exhaustive["counterexample"] = printed(exhaustive["counterexample"])
    draws = pool_draws(index_pools)
    walk = _walker(tuple(map(len, pools)), FRAME_ROWS)
    mismatch_count = 0
    examples = []
    tabled = hits = 0
    while tabled < trials and not tables.full(FRAME_ROWS):
        if tables.pair_hits > hits:  # the pair table judged the last frame
            walked, missed, frame = walk(
                rng.getrandbits, tables.psucc, tables.verdicts,
                trials - tabled, len(examples) < 10)
            tabled += walked
            tables.frames += walked
            tables.pair_hits += walked
            mismatch_count += missed
            if frame is None:
                break
        else:
            frame = sample_dataframe(rng, index_pools, FRAME_ROWS, draws)
        tabled += 1
        hits = tables.pair_hits
        if tables.mismatch(frame):
            mismatch_count += 1
            if len(examples) < 10:
                examples.append(printed(frame))
    if tabled < trials:
        judge = frame_judge(task, q_exprs, p_exprs, res_exprs)
        draws = pool_draws(pools)
    for _ in range(trials - tabled):
        frame = sample_dataframe(rng, pools, FRAME_ROWS, draws)
        try:
            differs = judge(frame)
        except Exception:
            # judge the frame again in the reference order, which raises
            # the reference's error (see `frame_judge`)
            lhs = lift_eval(p_exprs, eval_fold(task, frame))
            kept = filter_rows(q_exprs, frame, task.n_columns)
            differs = lhs != lift_eval(res_exprs, eval_fold(task, kept))
        if differs:
            mismatch_count += 1
            if len(examples) < 10:
                examples.append([[fmt_value(v) for v in row] for row in frame])
    return DiffReport(
        trials=trials,
        mismatch_count=mismatch_count,
        seed=seed,
        mismatches=examples,
        tables={**tables.stats(), "spilled": trials - tabled},
        exhaustive=exhaustive,
    )
