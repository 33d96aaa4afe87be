"""Differential validation behavior."""

import dataclasses
import json
import random
from collections import Counter, defaultdict
from contextlib import nullcontext
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path
from types import SimpleNamespace

import pytest

from pushdown_synth import cli, fuzz, interp
from pushdown_synth.fuzz import (
    TABLE_BOUND, FoldTables, column_pools, differential_check,
)
from pushdown_synth.analysis import build_universes
from pushdown_synth.parser import parse, parse_expression
from pushdown_synth.syntax import TTuple
from pushdown_synth.typecheck import DslTypeError, type_predicate, typecheck
from pushdown_synth.values import EvalError, fmt_value
from perfbench.tasks import generate_tasks

import fuzz_reference
from conftest import atom_index, make_task

REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json")
    .read_text())["triples"]


@pytest.fixture(scope="module")
def top2():
    task = make_task("top2")
    return task, build_universes(task)


def test_paper_solution_has_zero_mismatches(top2):
    task, universes = top2
    q = [atom_index(universes.u_q, "r[0] > 90.0")]
    res = [atom_index(universes.u_residual, "not a[1] == (-inf)")]
    report = differential_check(task, universes, q, res, trials=4000, seed=3)
    assert report.ok
    assert report.trials == 4000


def test_corrupted_filter_is_caught(top2):
    task, universes = top2
    # too-strong pre-filter with the split residual: rows in (90, 95] vanish
    universes.u_q.add(
        __import__("pushdown_synth.typecheck", fromlist=["type_predicate"])
        .type_predicate(
            __import__("pushdown_synth.parser", fromlist=["parse_expression"])
            .parse_expression("r[0] > 95.0"),
            {"r": __import__("pushdown_synth.syntax", fromlist=["TTuple"])
             .TTuple(tuple(task.schema))},
        )
    )
    q = [atom_index(universes.u_q, "r[0] > 95.0")]
    res = [atom_index(universes.u_residual, "not a[1] == (-inf)")]
    report = differential_check(task, universes, q, res, trials=4000, seed=3)
    assert report.mismatch_count >= 1
    assert report.mismatches  # offending dataframes are reported


def test_zero_trials_empty_report(top2):
    task, universes = top2
    report = differential_check(task, universes, [], [], trials=0, seed=1)
    assert report.trials == 0 and report.mismatch_count == 0
    assert report.exhaustive is None


def test_determinism_under_seed(top2):
    task, universes = top2
    q = [atom_index(universes.u_q, "r[0] > 90.0")]
    res = [atom_index(universes.u_residual, "not a[1] == (-inf)")]
    r1 = differential_check(task, universes, q, res, trials=500, seed=42)
    r2 = differential_check(task, universes, q, res, trials=500, seed=42)
    assert r1.mismatch_count == r2.mismatch_count == 0


def test_pools_are_boundary_directed(top2):
    task, universes = top2
    pools = column_pools(task, universes)
    assert Fraction(90) in pools[0]  # the comparison constant itself
    assert any(v > Fraction(90) for v in pools[0])
    assert any(v < Fraction(90) for v in pools[0])
    # a value strictly between adjacent constants
    assert Fraction(181, 2) in pools[0] or Fraction(91) in pools[0]


# -- the tabled fuzzer against the per-trial reference loop


def _triple_indices(task, universes, spec):
    """The (Q, P') indices of a triple given as DSL atom texts."""
    def add(universe, texts, env):
        return [universe.add(type_predicate(parse_expression(text), env)).index
                for text in texts]

    return (add(universes.u_q, spec["q"], {"r": TTuple(tuple(task.schema))}),
            add(universes.u_residual, spec["residual"], {"a": task.acc_type}))


SAMPLED = ("trials", "mismatches", "seed", "examples")


def _assert_same_report(task, universes, q, res, trials, seed):
    """The sampled fields of the call are the per-trial loop's, whether
    the exploration settled it or not, and a counterexample it found
    mismatches in the per-trial loop's judgement too."""
    got = differential_check(task, universes, q, res, trials=trials, seed=seed)
    want = fuzz_reference.differential_check(task, universes, q, res,
                                             trials=trials, seed=seed)
    got_json, want_json = got.to_json(), want.to_json()
    assert {k: got_json[k] for k in SAMPLED} == \
        {k: want_json[k] for k in SAMPLED}
    if got.exhaustive is None:
        return got
    if "counterexample" in got.exhaustive:
        assert _reference_differs(task, universes, q, res,
                                  got.exhaustive["counterexample"])
    else:  # settled: no frame was drawn
        assert got.tables["frames"] == got.tables["spilled"] == 0
    return got


def _reference_differs(task, universes, q, res, printed):
    """Whether the per-trial loop judges the frame printed as `printed` a
    mismatch."""
    pools = column_pools(task, universes)
    frame = [tuple(next(v for v in pool if fmt_value(v) == cell)
                   for pool, cell in zip(pools, row)) for row in printed]
    return fuzz_reference.differs(task, universes, q, res, frame)


@pytest.mark.parametrize("kind", sorted(REFERENCE))
def test_reference_triples_match_the_per_trial_loop(kind):
    spec = REFERENCE[kind]
    task = make_task(spec["fixture"])
    universes = build_universes(task)
    q, res = _triple_indices(task, universes, spec)
    for seed in range(5):
        report = _assert_same_report(task, universes, q, res, 2000, seed)
        assert report.ok == (spec["verdict"] == "solved")


@pytest.mark.parametrize("seed", [1, 2])
def test_random_subsets_on_generated_tasks_match(seed):
    rng = random.Random(seed)
    for name, source in generate_tasks(seed):
        task = typecheck(parse(source), name)
        universes = build_universes(task)
        for _ in range(2):
            q = [a.index for a in universes.u_q if rng.random() < 0.4]
            res = [a.index for a in universes.u_residual if rng.random() < 0.4]
            _assert_same_report(task, universes, q, res, 300, rng.randrange(99))


def test_top2_wrong_golden_report():
    """The report the per-trial fuzzer gave before the tables existed."""
    spec = REFERENCE["top2_wrong"]
    task = make_task(spec["fixture"])
    universes = build_universes(task)
    q, res = _triple_indices(task, universes, spec)
    report = differential_check(task, universes, q, res, trials=10000, seed=7)
    assert report.mismatch_count == 4358
    assert report.mismatches[0] == [["89.5"], ["92.5"], ["95.5"], ["80.0"],
                                    ["89.0"]]


FLOAT_RESET = """
df = (float,)
agg = fold(df, (0.0,),
  lambda a, r: (a[0] + r[0],) if r[0] > 5.0 else ((a[0] * 0.0,) if r[0] < 1.0 else a))
out = filter(agg, lambda a: a[0] > 6.0)
"""


def test_an_int_in_a_float_accumulator_is_an_eval_error():
    """A float value is a `Fraction` or -inf. The checker rejects the int
    literal `0` as a float initial value; an int put there by hand raises
    `EvalError` once a step or `P` reads it, in both fuzzers."""
    with pytest.raises(DslTypeError, match="type mismatch: int vs float"):
        typecheck(parse(FLOAT_RESET.replace("(0.0,)", "(0,)")), "reset")
    typed = typecheck(parse(FLOAT_RESET), "reset")
    universes = build_universes(typed)
    task = dataclasses.replace(typed, init_values=(0,))
    for module in (fuzz, fuzz_reference):
        with pytest.raises(EvalError, match=interp._NOT_FLOAT):
            module.differential_check(task, universes, [], [], trials=200,
                                      seed=1)


TOP3_LIST = """
df = (float,)
agg = fold(df, ([],), lambda a, r: (insert(a[0], r[0])[-3:],))
out = filter(agg, lambda a: a[0][0] > 2.0)
"""


def test_list_accumulators_are_interned_by_a_frozen_key():
    task = typecheck(parse(TOP3_LIST), "top3")
    universes = build_universes(task)
    rng = random.Random(4)
    for seed in range(4):
        q = [a.index for a in universes.u_q if rng.random() < 0.5]
        res = [a.index for a in universes.u_residual if rng.random() < 0.5]
        report = _assert_same_report(task, universes, q, res, 1000, seed)
        assert report.tables["states"] < report.tables["transitions"]


RAISING_STEP = """
df = (float,)
agg = fold(df, ([],),
  lambda a, r: (insert(a[0], r[0])[-2:],) if r[0] > -5.0
               else (insert(a[0], a[0][1])[-2:],))
out = filter(agg, lambda a: a[0][0] > 3.0)
"""


RAISING_RESIDUAL = {"fixture": "top2", "q": ["r[0] > 90.0"],
                    "residual": ["a[0] + a[1] > 180.0"]}

# `P` raises on every frame with a zero row (the list is emptied), and so
# does the `Q` atom `1.0 / r[0] > 0.0`
RAISING_POST = """
df = (float,)
agg = fold(df, ([1.0],), lambda a, r: ([],) if r[0] == 0.0 else a)
out = filter(agg, lambda a: a[0][0] > 0.0)
"""


def _raising_cases():
    """(task, universes, q, res, seed) of three triples whose calls raise."""
    step_task = typecheck(parse(RAISING_STEP), "raising")
    top2 = make_task("top2")
    top2_universes = build_universes(top2)
    post_task = typecheck(parse(RAISING_POST), "raising_post")
    post_universes = build_universes(post_task)
    # untyped: the checker admits constant divisors only
    zero_divisor = post_universes.u_q.add(
        parse_expression("1.0 / r[0] > 0.0")).index
    return [(step_task, build_universes(step_task), [], [], 1),
            (top2, top2_universes,
             *_triple_indices(top2, top2_universes, RAISING_RESIDUAL), 2),
            (post_task, post_universes, [zero_divisor], [], 0)]


def _raised(monkeypatch, task, universes, q, res, seed):
    """That the two fuzzers raise the same error on the triple after as
    many frames, counted by the random stream: the frames of
    `fuzz_reference.sample_dataframe` that take a fresh generator to the
    state the fuzzer's generator is in after the raise. The raising frame
    is the last one."""
    pools = column_pools(task, universes)
    outcomes = []
    for module in (fuzz, fuzz_reference):
        rngs = []

        def recorded(seed):
            rngs.append(random.Random(seed))
            return rngs[-1]

        monkeypatch.setattr(module, "random",
                            SimpleNamespace(Random=recorded))
        with pytest.raises(EvalError) as err:
            module.differential_check(task, universes, q, res,
                                      trials=200, seed=seed)
        monkeypatch.setattr(module, "random", random)
        [rng] = rngs
        replay = random.Random(seed)
        for frames in range(201):
            if replay.getstate() == rng.getstate():
                break
            fuzz_reference.sample_dataframe(replay, pools)
        else:
            raise AssertionError("the raise is not at a frame's end")
        outcomes.append((str(err.value), frames))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] > 1  # not every frame raises
    if task.name == "raising_post":
        assert outcomes[0][0] == "list index 0 out of range"


def test_a_raising_step_raises_on_the_same_trial(monkeypatch):
    """A fold step that raises on some rows, and a residual `P'` that raises
    on the states with one kept row (arithmetic on -inf). Last, a `P` and a
    `Q` that raise different errors on one frame: `P` is judged first, so
    its error wins. Each exploration raises and gives up (the first after
    a counterexample of one row), so the call judges every frame whole, the
    raising one too."""
    explore = FoldTables.explore
    complete = []

    def tracked(self, limit):
        exhaustive, done = explore(self, limit)
        complete.append(done)
        return exhaustive, done

    monkeypatch.setattr(FoldTables, "explore", tracked)
    for task, universes, q, res, seed in _raising_cases():
        _raised(monkeypatch, task, universes, q, res, seed)
        assert complete == [False]
        complete.clear()


# a count capped at 5: 6 states, but its count of all rows and its count of
# kept rows make 21 pairs
CAPPED_COUNT = """
df = (int,)
agg = fold(df, (0,), lambda a, r: (a[0] + 1,) if a[0] < 5 else a)
out = filter(agg, lambda a: a[0] > 3)
"""


def test_spilled_frames_give_the_reference_answers(monkeypatch):
    """With the bound low, a call's exploration gives up within its first
    levels and the call judges every frame whole. top2_wrong's report at 64,
    before its counterexample, and at 16 the three raising triples' errors,
    are still those of the per-trial loop, the errors raised on spilled
    frames. A capped count at 100 finds its counterexample (four rows of -7)
    and then gives up, before its pair table holds all 21 pairs."""
    monkeypatch.setattr(fuzz, "TABLE_BOUND", 64)
    spec = REFERENCE["top2_wrong"]
    task = make_task(spec["fixture"])
    universes = build_universes(task)
    q, res = _triple_indices(task, universes, spec)
    report = _assert_same_report(task, universes, q, res, 10000, 7)
    assert report.mismatch_count == 4358
    assert report.exhaustive is None
    assert report.tables["spilled"] == 10000
    monkeypatch.setattr(fuzz, "TABLE_BOUND", 16)
    for task, universes, q, res, seed in _raising_cases():
        _raised(monkeypatch, task, universes, q, res, seed)
    task = typecheck(parse(CAPPED_COUNT), "capped")
    universes = build_universes(task)
    q, res = _triple_indices(task, universes,
                             {"q": ["r[0] > 2"], "residual": ["a[0] > 3"]})
    monkeypatch.setattr(fuzz, "TABLE_BOUND", 100)
    capped = _assert_same_report(task, universes, q, res, 2000, 3)
    assert capped.exhaustive["counterexample"] == [["-7"]] * 4
    assert (capped.tables["pairs"], capped.tables["spilled"]) == (15, 2000)


def test_every_frame_judged_whole_gives_the_reference_answers(monkeypatch):
    """With the bound at 0 the tables never take a frame, so the generated
    judge decides every one: the reports on the reference triples and on
    random subsets of the generated tasks, and the errors of the raising
    triples, on the same trial, are those of the per-trial loop."""
    monkeypatch.setattr(fuzz, "TABLE_BOUND", 0)
    for kind in sorted(REFERENCE):
        spec = REFERENCE[kind]
        task = make_task(spec["fixture"])
        universes = build_universes(task)
        q, res = _triple_indices(task, universes, spec)
        for seed in range(2):
            report = _assert_same_report(task, universes, q, res, 2000, seed)
            assert report.tables["spilled"] == 2000
    rng = random.Random(3)
    for seed in (1, 2):
        for name, source in generate_tasks(seed):
            task = typecheck(parse(source), name)
            universes = build_universes(task)
            for _ in range(2):
                q = [a.index for a in universes.u_q if rng.random() < 0.4]
                res = [a.index for a in universes.u_residual
                       if rng.random() < 0.4]
                _assert_same_report(task, universes, q, res, 300,
                                    rng.randrange(99))
    for task, universes, q, res, seed in _raising_cases():
        _raised(monkeypatch, task, universes, q, res, seed)


# an int field that each row above 5 multiplies by 1; given the initial
# value `True`, which the checker never sees, a frame with a row above 5 and
# a kept row folds to `(1,)` in full and to `(True,)` under `Q`, equal under
# Python's `==` but not as values
FLAGGED = """
df = (int,)
agg = fold(df, (0,), lambda a, r: (a[0] * 1,) if r[0] > 5 else a)
out = filter(agg, lambda a: a[0] >= 0)
"""


def test_the_judge_compares_values_as_lift_results_do(monkeypatch):
    monkeypatch.setattr(fuzz, "TABLE_BOUND", 0)
    typed = typecheck(parse(FLAGGED), "flagged")
    universes = build_universes(typed)
    task = dataclasses.replace(typed, init_values=(True,))
    q, res = _triple_indices(task, universes,
                             {"q": ["r[0] <= 5"], "residual": ["a[0] >= 0"]})
    report = _assert_same_report(task, universes, q, res, 1000, 5)
    assert report.mismatch_count > 0


# -- the sampler against `randint` and `choice`


@pytest.mark.parametrize("max_len", [0, 1, 8])
def test_sampler_draws_the_frames_of_randint_and_choice(max_len):
    """Called plain and with the generated plan of `pool_draws`, on pools
    of values, of indices and of `range`s, each pool alone and all
    together: the frames and the random state after them are those of
    `randint` and `choice`."""
    sizes = (1, 2, 7, 8, 13, 16, 1107)
    index_pools = [list(range(n)) for n in sizes]
    range_pools = [range(n) for n in sizes]
    value_pools = [[Fraction(i, 3) if n % 2 else f"v{i}" for i in range(n)]
                   for n in sizes]
    shapes = [index_pools, range_pools, value_pools]
    for pools in [[p] for shape in shapes for p in shape] + shapes:
        draws = fuzz.pool_draws(pools, max_len)
        for plan in (None, draws):
            got, want = random.Random(max_len), random.Random(max_len)
            for _ in range(200):
                assert fuzz.sample_dataframe(got, pools, max_len, plan) == \
                    fuzz_reference.sample_dataframe(want, pools, max_len)
            assert got.getstate() == want.getstate()


def test_sampler_errors_match_randint_and_choice():
    samplers = (fuzz.sample_dataframe, fuzz_reference.sample_dataframe,
                lambda rng, pools, max_len: fuzz.sample_dataframe(
                    rng, pools, max_len, fuzz.pool_draws(pools, max_len)))
    for sample in samplers:
        with pytest.raises(ValueError):
            sample(random.Random(0), [[1, 2]], -1)
        for pools in ([[1], []], [range(1), range(0)]):
            # an empty pool fails once a row is drawn, and only then
            assert sample(random.Random(0), pools, 0) == []
            with pytest.raises(IndexError):
                sample(random.Random(0), pools, 8)  # a frame of 6 rows
    # the plan draws the row's cells before the empty pool's, as `choice`
    # does, and no more
    rngs = random.Random(0), random.Random(0)
    for rng, sample in zip(rngs, samplers[1:]):
        with pytest.raises(IndexError):
            sample(rng, [[1], []], 8)
    assert rngs[0].getstate() == rngs[1].getstate()


@pytest.mark.parametrize("max_len", [0, 1, 8])
def test_the_walk_loop_draws_the_frames_of_the_sampler(max_len):
    """On a pair table of one mismatching pair that every row leads back
    to, the walk loop returns the first frame it draws, before walking any:
    that frame and the random state after it are those of
    `sample_dataframe` on `range` pools. Not stopping, it counts every frame
    a mismatch. On an empty pool it raises as the sampler does, after the
    same draws."""
    shapes = [(n,) for n in (1, 2, 3, 4, 5, 7, 8, 9, 13)]
    loop = [defaultdict(int)]
    for sizes in [*shapes, (41, 27), (87, 5, 6)]:
        walk = fuzz._walker(sizes, max_len)
        pools = [range(n) for n in sizes]
        got, want = random.Random(max_len), random.Random(max_len)
        for _ in range(200):
            assert walk(got.getrandbits, loop, [True], 5, True) == \
                (0, 0, fuzz.sample_dataframe(want, pools, max_len))
            assert got.getstate() == want.getstate()
        assert walk(got.getrandbits, loop, [True], 5, False) == (5, 5, None)
        for _ in range(5):
            fuzz.sample_dataframe(want, pools, max_len)
        assert got.getstate() == want.getstate()
    walk = fuzz._walker((3, 0), max_len)
    rngs = random.Random(3), random.Random(3)
    draws = (lambda: walk(rngs[0].getrandbits, [{}], [False], 1, True),
             lambda: fuzz.sample_dataframe(rngs[1], [range(3), range(0)],
                                           max_len))
    raised = []
    for draw in draws:
        with pytest.raises(IndexError) if max_len else nullcontext() as err:
            for _ in range(20):  # a frame of these 20 has a row
                draw()
        raised.append(None if err is None else str(err.value))
    assert raised[0] == raised[1]
    assert rngs[0].getstate() == rngs[1].getstate()


# -- what the exploration of the pair table proves

# at 10,000 trials: top2 and discount reach a fixpoint, frequent's and
# count_taut's counters are explored to `FRAME_ROWS`, top2_wrong's record
# holds the exploration at its first mismatching pair, and case_a and case_b
# give up (see `EVALUATIONS`)
EXPLORED = {
    "top2": {"depth": 2, "fixpoint": True, "pairs": 36, "transitions": 252},
    "discount": {"depth": 1, "fixpoint": True, "pairs": 14,
                 "transitions": 182},
    "frequent": {"depth": 8, "fixpoint": False, "pairs": 10,
                 "transitions": 108},
    "count_taut": {"depth": 8, "fixpoint": False, "pairs": 9,
                   "transitions": 40},
    "top2_wrong": {"depth": 2, "fixpoint": False, "pairs": 61,
                   "transitions": 70, "counterexample": [["90.5"], ["90.5"]]},
    "case_a": None,
    "case_b": None,
}


@pytest.mark.parametrize("kind", sorted(EXPLORED))
def test_the_exploration_on_the_reference_triples(kind, monkeypatch):
    """A settled call draws no frame, walks none and judges none whole."""
    spec = REFERENCE[kind]
    task = make_task(spec["fixture"])
    universes = build_universes(task)
    q, res = _triple_indices(task, universes, spec)
    settled = EXPLORED[kind] is not None and \
        "counterexample" not in EXPLORED[kind]
    if settled:
        def refused(*args):
            raise AssertionError("a frame was drawn")

        for name in ("sample_dataframe", "_walker", "frame_judge"):
            monkeypatch.setattr(fuzz, name, refused)
    report = differential_check(task, universes, q, res, trials=10000, seed=7)
    assert report.exhaustive == EXPLORED[kind]
    assert report.ok == (spec["verdict"] == "solved")


# a count of the rows equal to 5 that needs 8 of them: one frame in about
# 4 * 10^9 has 8 rows that are all 5 (the int pool has 12 values), so
# sampling misses the mismatch that `Q` makes when it drops one of them
EIGHT_FIVES = """
df = (int, bool)
agg = fold(df, (0,), lambda a, r: (a[0] + 1,) if r[0] == 5 else a)
out = filter(agg, lambda a: a[0] >= 8)
"""


def test_a_mismatch_on_long_rare_frames_fails_the_record(tmp_path):
    task = typecheck(parse(EIGHT_FIVES), "eight_fives")
    universes = build_universes(task)
    spec = {"q": ["r[0] == 5", "r[1]"], "residual": ["a[0] >= 8"]}
    q, res = _triple_indices(task, universes, spec)
    report = _assert_same_report(task, universes, q, res, 2000, 3)
    assert report.mismatch_count == 0  # as in the per-trial loop
    frame = [["5", "True"]] * 7 + [["5", "False"]]
    assert report.exhaustive == {"depth": 8, "fixpoint": False, "pairs": 39,
                                 "transitions": 710, "counterexample": frame}
    assert not report.ok
    source = tmp_path / "eight_fives.pdsl"
    source.write_text(EIGHT_FIVES)
    triple = tmp_path / "triple.json"
    triple.write_text(json.dumps(spec))
    out = tmp_path / "record.json"
    assert cli.run(["diff", "--triple", str(triple), "--seed", "3",
                    "--out", str(out), str(source)]) == 1
    record = json.loads(out.read_text())
    assert record["status"] == "fail"
    diff = record["diff"]
    assert (diff["mismatches"], diff["examples"]) == (0, [])
    assert diff["exhaustive"]["counterexample"] == frame


# the fold reads past the end of its one-item list on the eighth row equal
# to 5: one frame in about 10^9 has 8 rows that are all 5 (the pool has 10
# values)
EIGHTH_FIVE_RAISES = """
df = (int,)
agg = fold(df, (0, [0]), lambda a, r:
  ((a[0] + 1, a[1]) if a[0] < 7 else (a[0] + a[1][1], a[1]))
  if r[0] == 5 else a)
out = filter(agg, lambda a: a[0] >= 3)
"""


def test_an_error_on_an_unsampled_frame_stops_the_exploration():
    """The exploration gives up at the raise, and the sampled report is the
    per-trial loop's, which draws no raising frame."""
    task = typecheck(parse(EIGHTH_FIVE_RAISES), "eighth_five")
    universes = build_universes(task)
    with pytest.raises(EvalError, match="list index 1 out of range"):
        interp.eval_fold(task, [(5,)] * 8)
    q, res = _triple_indices(task, universes,
                             {"q": ["r[0] == 5"], "residual": ["a[0] >= 3"]})
    for seed in range(3):
        report = _assert_same_report(task, universes, q, res, 2000, seed)
        assert report.exhaustive is None
        assert report.tables["spilled"] == 2000


def test_the_exploration_gives_up_within_its_budget(monkeypatch):
    """top2's 252 pair transitions are more than 200 trials; case_b's
    alphabet of 1,107 rows is more than 1,000 trials, so it is never built;
    and at 10,000 trials case_b's tables are full after 128 transitions.
    Each call's report is still the per-trial loop's."""
    explore = FoldTables.explore
    explored = []

    def tracked(self, limit):
        result = explore(self, limit)
        explored.append((result, len(self.rows), self.pair_transitions))
        return result

    monkeypatch.setattr(FoldTables, "explore", tracked)
    for kind, trials, rows, transitions in (("top2", 200, 7, 56),
                                            ("case_b", 1000, 0, 0),
                                            ("case_b", 10000, 1107, 128)):
        spec = REFERENCE[kind]
        task = make_task(spec["fixture"])
        universes = build_universes(task)
        q, res = _triple_indices(task, universes, spec)
        _assert_same_report(task, universes, q, res, trials, 5)
        assert explored.pop() == ((None, False), rows, transitions)


# -- the work the tables save


# `eval_fold`, `filter_rows` and `lift_eval` calls at seed 7, 10,000 trials;
# the per-trial loop took 56,713 fold steps on top2's frames. The exploration
# settles top2, discount, frequent and count_taut: each distinct pair
# transition of a frame of at most 8 rows is evaluated once, and no frame is
# drawn. top2_wrong's exploration goes on past its first mismatching pair to
# a fixpoint of 105 pairs, and its frames are walked through the pair table.
# case_a's exploration gives up before its second level (87 rows, then 87
# times its frontier would pass `TABLE_BOUND`), and case_b's once its tables
# hold more than `STATE_SLACK` states, after 128 transitions. Each of their
# frames is judged by one call of the generated judge, and calls none of the
# three
EVALUATIONS = {
    "top2": (252, 7, 44),
    "discount": (182, 13, 17),
    "case_a": (87, 87, 171),
    "case_b": (128, 128, 241),
    "frequent": (108, 12, 17),
    "top2_wrong": (1365, 13, 113),
    "count_taut": (40, 5, 16),
}

# the tables of three of those calls, and the frames walked through the pair
# table
TABLES = {
    "top2": {"rows": 7, "states": 36, "transitions": 252, "pairs": 36,
             "frames": 0, "spilled": 0},
    "top2_wrong": {"rows": 13, "states": 105, "transitions": 1365,
                   "pairs": 105, "frames": 10000, "spilled": 0},
    "count_taut": {"rows": 5, "states": 9, "transitions": 40, "pairs": 9,
                   "frames": 0, "spilled": 0},
}


@pytest.mark.parametrize("kind", sorted(EVALUATIONS))
def test_folds_each_distinct_transition_once(kind, monkeypatch):
    spec = REFERENCE[kind]
    task = make_task(spec["fixture"])
    universes = build_universes(task)
    q, res = _triple_indices(task, universes, spec)
    names = ("eval_fold", "filter_rows", "lift_eval")
    folds, calls = [], Counter()
    for name in names:
        def counted(*args, _fn=getattr(fuzz, name), _name=name, **kwargs):
            calls[_name] += 1
            if _name == "eval_fold":
                folds.append(len(args[1]))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(fuzz, name, counted)

    def counted_judge(*args, _make=fuzz.frame_judge):
        judge = _make(*args)

        def counted(frame):
            calls["judge"] += 1
            return judge(frame)

        return counted

    monkeypatch.setattr(fuzz, "frame_judge", counted_judge)
    report = differential_check(task, universes, q, res, trials=10000, seed=7)
    assert tuple(calls[name] for name in names) == EVALUATIONS[kind]
    assert folds == [1] * report.tables["transitions"]
    assert calls["judge"] == report.tables["spilled"]
    assert TABLES.get(kind, report.tables) == report.tables


def _refuse(monkeypatch, *names):
    def refused(*args):
        raise AssertionError("called")

    for name in names:
        monkeypatch.setattr(fuzz, name, refused)


@pytest.mark.parametrize("trials, seed", [(10000, 7), (2000, 0)])
def test_a_completed_exploration_walks_every_top2_wrong_frame(
        trials, seed, monkeypatch):
    """top2_wrong's exploration finds its counterexample and completes, so
    the walk loop draws and judges every frame through the pair table:
    Python draws none, and no judge is generated."""
    _refuse(monkeypatch, "sample_dataframe", "frame_judge")
    spec = REFERENCE["top2_wrong"]
    task = make_task(spec["fixture"])
    universes = build_universes(task)
    q, res = _triple_indices(task, universes, spec)
    report = _assert_same_report(task, universes, q, res, trials, seed)
    assert report.exhaustive == EXPLORED["top2_wrong"]
    assert (report.tables["frames"], report.tables["spilled"]) == (trials, 0)


@pytest.mark.parametrize("kind", ["case_a", "case_b", "top2"])
def test_a_call_that_gives_up_judges_every_frame_whole(kind, monkeypatch):
    """At 200 trials, each exploration gives up on its budget (case_b's
    alphabet alone is 1,107 rows): the walk loop is never built, and the
    report is the per-trial loop's."""
    _refuse(monkeypatch, "_walker")
    spec = REFERENCE[kind]
    task = make_task(spec["fixture"])
    universes = build_universes(task)
    q, res = _triple_indices(task, universes, spec)
    for seed in range(3):
        report = _assert_same_report(task, universes, q, res, 200, seed)
        assert report.exhaustive is None
        assert (report.tables["frames"], report.tables["spilled"]) == (0, 200)


def test_a_counterexample_outlives_a_give_up(monkeypatch):
    """top2_wrong's exploration finds its counterexample within 70 pair
    transitions, then gives up: at 200 trials on its budget, and with the
    bound at 200 before its third level. The record keeps the
    counterexample, and every frame is judged whole."""
    _refuse(monkeypatch, "_walker")
    spec = REFERENCE["top2_wrong"]
    task = make_task(spec["fixture"])
    universes = build_universes(task)
    q, res = _triple_indices(task, universes, spec)
    for trials, bound in ((200, TABLE_BOUND), (10000, 200)):
        monkeypatch.setattr(fuzz, "TABLE_BOUND", bound)
        report = _assert_same_report(task, universes, q, res, trials, 7)
        assert report.exhaustive == EXPLORED["top2_wrong"]
        assert (report.tables["frames"], report.tables["spilled"]) == \
            (0, trials)
    assert report.mismatch_count == 4358


def test_tables_stay_within_their_bound_on_case_b(monkeypatch):
    """With the state cap off, case_b's exploration gives up on volume
    before its second level, and no table passes the bound."""
    monkeypatch.setattr(fuzz, "STATE_SLACK", TABLE_BOUND)
    spec = REFERENCE["case_b"]
    task = make_task(spec["fixture"])
    universes = build_universes(task)
    q, res = _triple_indices(task, universes, spec)
    report = differential_check(task, universes, q, res, trials=10000, seed=7)
    tables = report.tables
    assert tables["spilled"] == 10000
    assert max(tables["rows"], tables["states"] - 1, tables["transitions"],
               tables["pairs"] - 1) <= TABLE_BOUND


@pytest.mark.parametrize("bound,slack,transitions", [
    (4, TABLE_BOUND, 4), (TABLE_BOUND, 2, 2)], ids=["bound", "slack"])
def test_a_fold_step_past_the_caps_is_refused(monkeypatch, bound, slack,
                                              transitions):
    """`_step`, where the tables grow, takes the transitions up to
    `TABLE_BOUND` and refuses the next fold step with `_Full`, as it refuses
    any once the tables hold more than `STATE_SLACK` states. Each of these
    case_b rows steps Bottom to a new state."""
    monkeypatch.setattr(fuzz, "TABLE_BOUND", bound)
    monkeypatch.setattr(fuzz, "STATE_SLACK", slack)
    task = make_task("case_b")
    pools = column_pools(task, build_universes(task))
    tables = FoldTables(task, pools, [], [], [])
    tables.rows = list(product(*pools))[::97][:8]
    with pytest.raises(fuzz._Full):
        for rid in range(len(tables.rows)):
            tables._step(0, rid)
    assert (tables.transitions, len(tables.values)) == \
        (transitions, transitions + 1)


def test_an_alphabet_as_large_as_the_bound_explores_its_first_level(
        monkeypatch):
    """With `TABLE_BOUND` at case_a's alphabet of 87 rows, the first level
    fits the bound: the exploration builds the alphabet and steps each row
    from Bottom, one fold step a row, the last one included, since a
    transition from a pair of two equal states misses at most one fold
    step. No rows or pair-transition check stops it at its first
    transition; the second level would pass the bound, so it gives up
    there. The report is the per-trial loop's."""
    spec = REFERENCE["case_a"]
    task = make_task(spec["fixture"])
    universes = build_universes(task)
    q, res = _triple_indices(task, universes, spec)
    size = prod(map(len, column_pools(task, universes)))
    assert size == 87
    monkeypatch.setattr(fuzz, "TABLE_BOUND", size)
    explore = FoldTables.explore
    explored = []

    def tracked(self, limit):
        result = explore(self, limit)
        explored.append((result, len(self.rows), self.pair_transitions,
                         self.transitions))
        return result

    monkeypatch.setattr(FoldTables, "explore", tracked)
    report = _assert_same_report(task, universes, q, res, 2000, 7)
    assert explored == [((None, False), size, size, size)]
    assert report.tables["spilled"] == 2000


# -- when a call spills on state growth

SPILL_SEEDS = (7, 11, *range(100, 107))
CONVERGING = ("top2", "discount", "frequent", "count_taut", "top2_wrong")


@pytest.mark.parametrize("kind", CONVERGING)
def test_converging_triples_never_spill(kind):
    """These triples' accumulators converge (top2_wrong's tables hold 105
    states, the others' 36 or fewer), so at 10,000 trials their explorations
    complete, and no call judges a frame whole at any of these seeds."""
    spec = REFERENCE[kind]
    task = make_task(spec["fixture"])
    universes = build_universes(task)
    q, res = _triple_indices(task, universes, spec)
    for seed in SPILL_SEEDS:
        report = differential_check(task, universes, q, res, trials=10000,
                                    seed=seed)
        assert report.tables["spilled"] == 0, seed
        assert report.tables["states"] <= fuzz.STATE_SLACK


# a running sum over widely spread constants: a path rarely leads to a sum
# seen before, so the exploration's tables reach more than `STATE_SLACK`
# states within its first levels
RUNNING_SUM = """
df = (int,)
agg = fold(df, (0,), lambda a, r: (a[0] + r[0],))
out = filter(agg, lambda a: a[0] > 1 and a[0] < 1000 and not a[0] == 1000000)
"""


def test_a_running_sum_spills_within_its_first_frames():
    task = typecheck(parse(RUNNING_SUM), "running_sum")
    universes = build_universes(task)
    q, res = _triple_indices(task, universes,
                             {"q": ["r[0] > 2"], "residual": ["a[0] > 1"]})
    for seed in range(4):
        report = _assert_same_report(task, universes, q, res, 2000, seed)
        assert report.tables["spilled"] == 2000
        assert report.tables["states"] > fuzz.STATE_SLACK
