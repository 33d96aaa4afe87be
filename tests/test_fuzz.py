"""Differential validation behavior."""

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from pushdown_synth import fuzz
from pushdown_synth.fuzz import (
    TABLE_BOUND, FoldTables, column_pools, differential_check,
)
from pushdown_synth.analysis import build_universes
from pushdown_synth.parser import parse, parse_expression
from pushdown_synth.syntax import TTuple
from pushdown_synth.typecheck import type_predicate, typecheck
from pushdown_synth.values import EvalError
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


def _assert_same_report(task, universes, q, res, trials, seed):
    got = differential_check(task, universes, q, res, trials=trials, seed=seed)
    want = fuzz_reference.differential_check(task, universes, q, res,
                                             trials=trials, seed=seed)
    assert got.to_json() == want.to_json()
    return got


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


def test_python_equal_accumulators_share_a_state():
    """A float field that holds the int 0 (a task whose initial value is an
    int literal) and Fraction(0) after a reset: the two accumulators are one
    state, and the reports still match the per-trial loop."""
    typed = typecheck(parse(FLOAT_RESET), "reset")
    universes = build_universes(typed)
    task = dataclasses.replace(typed, init_values=(0,))
    pools = column_pools(task, universes)
    tables = FoldTables(task, pools, [], [task.post_pred], [])
    keep_a = pools[0].index(Fraction(3))   # 1 <= 3 <= 5: a unchanged
    reset = pools[0].index(Fraction(0))    # < 1: a[0] * 0.0
    tables.mismatch([(keep_a,), (reset,)])
    # Bottom and one state for both the int 0 and Fraction(0)
    assert len(tables.values) == 2 and type(tables.values[1][0]) is int
    for q in ([], [0]):
        for res in ([0], [1], [0, 1]):
            _assert_same_report(task, universes, q, res, 1000, len(res))


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
        assert report.tables["states"] < report.tables["steps"]


RAISING_STEP = """
df = (float,)
agg = fold(df, ([],),
  lambda a, r: (insert(a[0], r[0])[-2:],) if r[0] > -5.0
               else (insert(a[0], a[0][1])[-2:],))
out = filter(agg, lambda a: a[0][0] > 3.0)
"""


def test_a_raising_step_raises_on_the_same_trial(monkeypatch):
    task = typecheck(parse(RAISING_STEP), "raising")
    universes = build_universes(task)
    outcomes = []
    for module in (fuzz, fuzz_reference):
        frames = []
        sample = module.sample_dataframe

        def counted(*args, _sample=sample, _frames=frames):
            _frames.append(_sample(*args))
            return _frames[-1]

        monkeypatch.setattr(module, "sample_dataframe", counted)
        with pytest.raises(EvalError) as err:
            module.differential_check(task, universes, [], [], trials=200,
                                      seed=1)
        outcomes.append((str(err.value), len(frames)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] > 1  # not every frame raises


# -- the work the tables save


def test_top2_folds_each_distinct_transition_once(monkeypatch):
    spec = REFERENCE["top2"]
    task = make_task(spec["fixture"])
    universes = build_universes(task)
    q, res = _triple_indices(task, universes, spec)
    calls = []
    eval_fold = fuzz.eval_fold

    def counted(task, rows, start=None):
        calls.append(len(rows))
        return eval_fold(task, rows, start=start)

    monkeypatch.setattr(fuzz, "eval_fold", counted)
    report = differential_check(task, universes, q, res, trials=10000, seed=7)
    # the per-trial loop took 56,713 fold steps on these frames
    assert len(calls) == sum(calls) == report.tables["steps"] <= 252
    assert report.tables["clears"] == 0


def test_tables_stay_within_their_bound_on_case_b():
    spec = REFERENCE["case_b"]
    task = make_task(spec["fixture"])
    universes = build_universes(task)
    q, res = _triple_indices(task, universes, spec)
    report = differential_check(task, universes, q, res, trials=10000, seed=7)
    tables = report.tables
    assert tables["clears"] > 0
    assert max(tables["rows"], tables["states"] - 1,
               tables["transitions"]) <= TABLE_BOUND
