"""Data-flow analysis and predicate-universe construction."""

import copy
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from pushdown_synth import analysis
from pushdown_synth.analysis import build_universes, infer_dep_info
from pushdown_synth.encode import TaskContext
from pushdown_synth.fuzz import column_pools, sample_dataframe
from pushdown_synth.interp import eval_fold
from pushdown_synth.parser import parse, parse_expression
from pushdown_synth.pretty import fmt_expr
from pushdown_synth.syntax import (
    Case, Expr, SomeVal, TOpt, TTuple, Type, walk,
)
from pushdown_synth.typecheck import cnf_clauses, type_predicate, typecheck
from pushdown_synth.values import NEG_INF, NONE

from conftest import atom_index, eval_atom, make_task
from test_universe_pin import SOURCES as PINNED


def atoms(universe):
    return [fmt_expr(a.expr) for a in universe]


def test_top2_dep_info():
    dep = infer_dep_info(make_task("top2"))
    assert all(dep.is_dep[i][i] for i in range(2))  # reflexive by definition
    assert dep.is_dep[0][1] is True  # top-2's update reads top-1
    assert dep.is_dep[1][0] is False
    assert dep.is_dep_row == (True, True)
    assert dep.mono[0] == ("inc", NEG_INF)
    assert dep.mono[1][0] == "none"


def test_case_a_counter_dep_info():
    dep = infer_dep_info(make_task("case_a"))
    assert dep.mono[0] == ("inc", 0)
    assert dep.is_dep_row[0] is True
    # first/last guard each other: cross dependence in both directions
    assert dep.is_dep[2][3] and dep.is_dep[3][2]


def test_untouched_component_has_no_row_dependence():
    source = """
df = (int,)
agg = fold(df, (0, 0), lambda a, r: (a[0] + 1 if r[0] > 5 else a[0], a[1]))
out = filter(agg, lambda a: a[0] > 3)
"""
    dep = infer_dep_info(typecheck(parse(source)))
    assert dep.is_dep_row == (True, False)


def test_top2_universe_q():
    u = build_universes(make_task("top2"))
    assert atoms(u.u_q) == ["r[0] > 90.0"]


def test_discount_universe_q_scales_constants():
    u = build_universes(make_task("discount"))
    assert atoms(u.u_q) == ["r[0] >= 1000.0"]


def test_case_a_universe_q_contains_four_disjunct_atom():
    u = build_universes(make_task("case_a"))
    expect = 'r[1] <= 1990 or r[0] == "price" or r[0] == "time" or r[1] >= 1995'
    assert expect in atoms(u.u_q)
    # counters have no contributing row field: conjuncts dropped and reported
    assert any("a[0] > 0" in d for d in u.dropped_q)


def test_case_b_universe_q_contains_epoch_pair():
    u = build_universes(make_task("case_b"))
    assert "r[1] <= 38 or r[1] >= 53" in atoms(u.u_q)


def test_top2_residual_universe_and_order():
    u = build_universes(make_task("top2"))
    assert atoms(u.u_residual) == [
        "not a[0] == (-inf)", "not a[1] == (-inf)",
        "a[0] > 90.0", "a[1] > 90.0",
    ]


def test_case_b_residual_includes_match_disjunction():
    u = build_universes(make_task("case_b"))
    assert "a[1] <= 38 or a[1] == None" in atoms(u.u_residual)


def test_tautological_post_filter_gives_guard_only_q():
    source = """
df = (float,)
agg = fold(df, (0.0,), lambda a, r: (r[0] if r[0] > a[0] else a[0],))
"""
    u = build_universes(typecheck(parse(source)))
    # no post-filter: U_Q comes from the guard conjuncts alone, and
    # the residual universe holds only the initializer disequality
    assert atoms(u.u_residual) == ["not a[0] == 0.0"]
    assert u.p_indices == ()


def test_universe_determinism():
    u1 = build_universes(make_task("case_b"))
    u2 = build_universes(make_task("case_b"))
    assert atoms(u1.u_q) == atoms(u2.u_q)
    assert atoms(u1.u_residual) == atoms(u2.u_residual)
    assert atoms(u1.u_psi) == atoms(u2.u_psi)
    assert [a.index for a in u1.u_psi] == list(range(len(u1.u_psi)))


def test_post_conjuncts_covered_by_residual_universe():
    for name in ("top2", "discount", "case_a", "case_b"):
        task = make_task(name)
        u = build_universes(task)
        # every CNF conjunct of P maps to a residual atom
        assert len(u.p_indices) >= 1
        for i in u.p_indices:
            assert 0 <= i < len(u.u_residual)


def test_top2_invariant_universe_contains_needed_atoms():
    u = build_universes(make_task("top2"))
    needed = [
        "a1[0] == a2[0]",
        "a1[0] <= 90.0 or a1[0] == a2[0]",   # top-1 sync when > 90 (original)
        "a2[0] <= 90.0 or a1[0] == a2[0]",   # top-1 sync when > 90 (optimized)
        "a2[0] == (-inf) or a2[0] > 90.0",   # undefined-or-above-threshold
        "a1[0] == a2[0] or a1[0] == (-inf)",  # sentinel test as antecedent
        "a2[1] <= 90.0 or a1[0] > 90.0",
    ]
    have = atoms(u.u_psi)
    for s in needed:
        assert s in have, s


def test_case_a_invariant_universe_has_null_sync_equivalent():
    u = build_universes(make_task("case_a"))
    # a1.first is null implies agreement (equivalent to null synchronization)
    assert "a1[2] == a2[2] or not a1[2] == None" in atoms(u.u_psi)


def test_case_b_universe_size_logged_against_reported_count():
    u = build_universes(make_task("case_b"))
    size = len(u.u_psi)
    # the construction is normalization-sensitive; the count is logged and
    # compared against the same order of magnitude, not asserted equal
    print(f"case_b invariant universe: {size} atoms (reported construction: 172)")
    assert 80 <= size <= 420


def _field_state(value):
    if isinstance(value, Expr):
        return ("node", id(value))
    if isinstance(value, Type):
        return ("type", value, id(value))  # identity shows an equal type rewritten
    if isinstance(value, Case):
        return ("case", value.pattern, id(value.body), value.span)
    if isinstance(value, list):
        return tuple(_field_state(v) for v in value)
    return value


def _snapshot(task):
    """{id: (class, fields)} of every node reachable from the task."""
    return _snapshot_roots([task.f_body, *task.init_exprs, task.post_pred,
                            *task.post_conjuncts, *task.prefilters])


def _snapshot_roots(roots):
    """{id: (class, fields)} of every node reachable from the roots."""
    return {
        id(node): (type(node), {
            f.name: _field_state(getattr(node, f.name))
            for f in dataclasses.fields(node)
        })
        for root in roots for node in walk(root)
    }


@pytest.mark.parametrize(
    "name", ["top2", "discount", "case_a", "case_b", "count_taut", "frequent"]
)
def test_universe_construction_does_not_mutate_the_task(name):
    task = make_task(name)
    before = _snapshot(task)
    u1 = build_universes(task)
    u2 = build_universes(task)
    if task.post_pred is not None:
        cnf_clauses(task.post_pred)
    assert _snapshot(task) == before
    for role in ("u_q", "u_residual", "u_psi"):
        assert atoms(getattr(u1, role)) == atoms(getattr(u2, role))
    assert (u1.p_indices, u1.dropped_q) == (u2.p_indices, u2.dropped_q)


FIXTURES = ["top2", "discount", "case_a", "case_b", "count_taut", "frequent"]


@pytest.mark.parametrize("task_id", sorted(PINNED))
def test_psi_atoms_are_typed_as_if_typed_whole(task_id):
    """The universes are built typed: every node of every atom, ψ, residual
    or `Q`, carries the type that checking a copy of the whole atom gives
    that node."""
    task = typecheck(parse(PINNED[task_id][1]), PINNED[task_id][0])
    universes = build_universes(task)
    envs = [(universes.u_q, {"r": TTuple(task.schema)}),
            (universes.u_residual, {"a": task.acc_type}),
            (universes.u_psi, {"a1": task.acc_type, "a2": task.acc_type})]
    for universe, env in envs:
        for atom in universe:
            whole = type_predicate(copy.deepcopy(atom.expr), env)
            for built, retyped in zip(walk(atom.expr), walk(whole), strict=True):
                assert type(built) is type(retyped), atom
                assert built.ty is not None and built.ty == retyped.ty, atom


@pytest.mark.parametrize("name", ["top2", "case_a", "case_b"])
def test_only_the_q_pool_copies(name, monkeypatch):
    """The residual and ψ pools are built typed and copy nothing; the `Q`
    pool types a copy of each of its atoms (`analysis._typed`)."""
    task = make_task(name)
    in_q = []  # per copy: whether `build_universe_q` made it
    building_q = []

    class CountingCopy:
        @staticmethod
        def deepcopy(x, memo=None):
            in_q.append(bool(building_q))
            return copy.deepcopy(x, memo)

    def counting_build_q(*args):
        building_q.append(True)
        try:
            return build_universe_q(*args)
        finally:
            building_q.pop()

    build_universe_q = analysis.build_universe_q
    monkeypatch.setattr(analysis, "copy", CountingCopy)
    monkeypatch.setattr(analysis, "build_universe_q", counting_build_q)
    analysis.build_universe_residual(task)
    analysis.build_universe_invariant(task, infer_dep_info(task))
    assert in_q == []
    build_universes(task)
    assert in_q and all(in_q)


class _DeclarationStub:
    """The declaration side of a solver session; starts no solver."""

    def __init__(self):
        self.decls = []

    def declare(self, text):
        self.decls.append(text)

    def declare_const(self, name, sort_text, decode):
        self.decls.append((name, sort_text))


def _fold_states(task, universes, n=12):
    rng = random.Random(5)
    pools = column_pools(task, universes)
    states = [task.init_values]
    while len(states) < n:
        out = eval_fold(task, sample_dataframe(rng, pools, 6))
        if not out.is_bottom:
            states.append(out.value)
    return states


@pytest.mark.parametrize("name,count", [("case_a", 192), ("case_b", 96)])
def test_psi_atoms_reading_a_payload_print_as_dsl_that_reparses(name, count):
    """A ψ atom that reads an Optional payload prints as a match, which
    re-parses, type-checks over a1 and a2, and agrees with the atom on 50
    state pairs; binder names restart per printing."""
    task = make_task(name)
    universes = build_universes(task)
    env = {"a1": task.acc_type, "a2": task.acc_type}
    rng = random.Random(3)
    # folded states, each Optional component None at random: a fold
    # leaves it None only while no row has come
    states = [tuple(NONE if isinstance(ty, TOpt) and rng.random() < 0.4
                    else value
                    for value, ty in zip(state, task.acc_type.elems))
              for state in _fold_states(task, universes, n=51)]
    pairs = [{"a1": a1, "a2": a2} for a1, a2 in zip(states, states[1:])]
    payload_atoms = [atom for atom in universes.u_psi
                     if any(isinstance(n, SomeVal) for n in walk(atom.expr))]
    assert len(payload_atoms) == count
    for atom in payload_atoms:
        text = fmt_expr(analysis.printable(
            atom.expr, map("v{}".format, itertools.count(1))))
        assert "case v1:" in text
        printed = type_predicate(parse_expression(text), env)
        for pair in pairs:
            assert eval_atom(printed, pair) == eval_atom(atom.expr, pair), (
                text, pair)


@pytest.mark.parametrize("name", FIXTURES)
def test_shared_psi_parts_are_left_unchanged(name):
    """ψ atoms share typed parts: encoding and evaluating them writes to
    none of their nodes, and a second build gives the same keys."""
    task = make_task(name)
    universes = build_universes(task)
    roots = [atom.expr for atom in universes.u_psi]
    before = _snapshot_roots(roots)
    stub = _DeclarationStub()
    TaskContext(task, universes, stub)
    assert len(stub.decls) > len(universes.u_psi)
    states = _fold_states(task, universes)
    for a1, a2 in zip(states, states[1:] + states[:1]):
        for atom in universes.u_psi:
            eval_atom(atom.expr, {"a1": a1, "a2": a2})
    assert _snapshot_roots(roots) == before
    again = build_universes(task).u_psi
    assert [a.key for a in again] == [a.key for a in universes.u_psi]
