"""The truth kernel of each universe against the per-atom reference.

`interp.truth(universe)` reads many atoms in one generated call; the
reference reads each atom alone with `conftest.eval_atom`. On seeded rows
and fold states the two must give the same atoms, or fail on the same one."""

import random

import pytest

from pushdown_synth import interp
from pushdown_synth.analysis import build_universes
from pushdown_synth.fuzz import column_pools, sample_dataframe
from pushdown_synth.interp import eval_fold, truth
from pushdown_synth.parser import parse_expression
from pushdown_synth.synth import synthesize
from pushdown_synth.typecheck import type_predicate
from pushdown_synth.values import EvalError
from pushdown_synth.vcgen import bits, check_witness, full, holds

from conftest import eval_atom, fixture_source, make_context, make_task


def _outcome(fn):
    try:
        return fn()
    except EvalError as exc:
        return ("error", str(exc))


def _reference(universe, want, env):
    """The atoms of `want` that hold, each read alone in ascending order."""
    out = 0
    for i in bits(want):
        if eval_atom(universe[i].expr, env):
            out |= 1 << i
    return out


def _inputs(name, seed):
    """Seeded rows from the column pools, and the fold states of seeded
    frames (the initial state first)."""
    task = make_task(name)
    universes = build_universes(task)
    rng = random.Random(seed)
    pools = column_pools(task, universes)
    rows = [tuple(rng.choice(pool) for pool in pools) for _ in range(40)]
    states = [task.init_values]
    while len(states) < 16:
        frame = sample_dataframe(rng, pools)
        result = _outcome(lambda: eval_fold(task, frame))
        if frame and not isinstance(result, tuple):
            states.append(result.value)
    return universes, rows, states, rng


@pytest.mark.parametrize("name", ["top2", "discount", "case_a", "case_b"])
def test_kernel_bits_equal_the_per_atom_truths(name):
    universes, rows, states, rng = _inputs(name, 26)
    pairs = [(rng.choice(states), rng.choice(states)) for _ in range(60)]
    cases = [
        (universes.u_q, [((row,), {"r": row}) for row in rows]),
        (universes.u_residual, [((a,), {"a": a}) for a in states]),
        (universes.u_psi, [((a1, a2), {"a1": a1, "a2": a2})
                           for a1, a2 in pairs]),
    ]
    for universe, inputs in cases:
        kernel = truth(universe)
        every = full(universe)
        for values, env in inputs:
            for want in (every, rng.getrandbits(len(universe)), 0):
                assert _outcome(lambda: kernel(want, *values)) == \
                    _outcome(lambda: _reference(universe, want, env)), \
                    (universe.role, env, bits(want))


def test_holds_stops_at_the_first_false_atom():
    """`holds` reads a conjunction as Python's `all` reads it: an atom after
    a false one is never evaluated, so it cannot raise."""
    task = make_task("top2")
    u_psi = build_universes(task).u_psi
    env = {"a1": task.acc_type, "a2": task.acc_type}
    false, raising = (
        u_psi.add(type_predicate(parse_expression(text), env)).index
        for text in ("a1[0] == 5.0", "a1[0] + a2[0] > 0.0"))
    assert false < raising
    init = task.init_values  # (-inf, -inf): the sum raises
    kernel = truth(u_psi)
    assert holds(kernel, 1 << false | 1 << raising, init, init) is False
    with pytest.raises(EvalError, match="arithmetic on -inf"):
        kernel(1 << false | 1 << raising, init, init)


def test_each_universe_kernel_is_built_once(monkeypatch):
    built = []
    shape = interp._Generator.truth_shape

    def counted(self):
        built.append(self.groups)
        return shape(self)

    monkeypatch.setattr(interp._Generator, "truth_shape", counted)
    ctx = make_context(fixture_source("discount"), "discount")
    try:
        out = synthesize(ctx)
        assert check_witness(ctx, out.q, out.certified_residual, out.psi).ok
        synthesize(ctx)
    finally:
        ctx.session.close()
    assert ("a1", "a2") in built
    assert len(built) == len(set(built))
