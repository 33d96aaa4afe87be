"""`Universe.add` builds an `or` atom key-first; `tests/normal_reference.py`
builds it node by node. Both must give every candidate the same outcome: the
same atom (index, key, and `expr` and `display` trees, types included) or
the same trivial reject.

The candidates are every call the ψ build makes to `Universe.add`, over
every task of `tests/test_universe_pin.py`, replayed into a fresh universe
on each path with a fresh memo each. The hand cases reach the reduction's
corners. To check the tasks of further generator seeds:
`PYTHONPATH=src:. python tests/test_key_first.py FIRST LAST`.
"""

import dataclasses
from fractions import Fraction

import pytest

from normal_reference import reference_add
from pushdown_synth.analysis import NormalMemo, Universe, normalize
from pushdown_synth.syntax import (
    BOOL, FLOAT, INT, BinOp, Index, Lit, Name, TTuple, Type, bool_lit,
    mk_not, mk_or,
)
from test_universe_pin import SOURCES, build_task


def _tree(node) -> str:
    """`node` with its class, its fields other than span, and its children,
    recursively."""
    if isinstance(node, list):
        return "[" + " ".join(_tree(x) for x in node) + "]"
    if not dataclasses.is_dataclass(node) or isinstance(node, Type):
        return repr(node)
    return "(" + " ".join([type(node).__name__] + [
        f"{f.name}={_tree(getattr(node, f.name))}"
        for f in dataclasses.fields(node) if f.name != "span"]) + ")"


def psi_candidates(name, source):
    """The ψ universe `build_universes` makes for `source`, and every
    `(expr, display)` its build adds, in order."""
    calls = []
    add = Universe.add

    def recording(self, expr, display=None, memo=None):
        if self.role == "psi":
            calls.append((expr, display))
        return add(self, expr, display, memo)

    Universe.add = recording
    try:
        _, universes = build_task(name, source)
    finally:
        Universe.add = add
    return universes.u_psi, calls


def replay(calls, role="psi"):
    """Both paths' universes after `calls`, each checked call by call."""
    fast, slow = Universe(role), Universe(role)
    memo, reference_memo = NormalMemo(), NormalMemo()
    for expr, display in calls:
        got = fast.add(expr, display, memo)
        want = reference_add(slow, expr, display, reference_memo)
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.index, got.key) == (want.index, want.key)
            assert _tree(got.expr) == _tree(want.expr)
            assert _tree(got.display) == _tree(want.display)
    return fast, slow


@pytest.mark.parametrize("task_id", sorted(SOURCES))
def test_every_psi_candidate_matches_the_reference(task_id):
    built, calls = psi_candidates(*SOURCES[task_id])
    fast, slow = replay(calls)
    assert [a.key for a in built] == [a.key for a in fast] \
        == [a.key for a in slow]


# -- hand cases over two accumulator components, a1[0]: int, a1[1]: float

ACC = TTuple((INT, FLOAT))


def _comp(i):
    return Index(base=Name(ident="a1", ty=ACC), index=i, ty=ACC.elems[i])


def _cmp(op, i, value):
    kind = "int" if isinstance(value, int) else "float"
    lit = Lit(kind=kind, value=value if kind == "int" else Fraction(value),
              ty=INT if kind == "int" else FLOAT)
    return BinOp(op=op, left=_comp(i), right=lit, ty=BOOL)


def _outcome(expr):
    """The key-first atom of `expr` in a fresh universe, checked against
    the reference."""
    fast, _ = replay([(expr, None)])
    return fast.atoms[0] if fast.atoms else None


def test_an_absorbed_point_still_makes_a_tautology():
    """`x > 3 or x == 5` simplifies to `x > 3`, but beside `not (x == 5)`
    the candidate is a tautology only while `x == 5` stays a disjunct."""
    part = mk_or(_cmp(">", 0, 3), _cmp("==", 0, 5))
    negated_point = mk_not(_cmp("==", 0, 5))
    assert _outcome(mk_or(part, negated_point)) is None
    # merging the part's own normal form instead would lose the point
    assert _outcome(mk_or(normalize(part), negated_point)) is not None


def test_an_int_term_with_float_rays():
    """Float-literal rays over an int term: a merged whole ray becomes an
    int literal, the int gap between whole rays closes, and rays at
    non-whole constants stay float and apart."""
    atom = _outcome(mk_or(_cmp(">", 0, 2.0), _cmp(">", 0, 5.0)))
    assert (atom.expr.op, atom.expr.right.kind) == (">", "int")
    assert _outcome(mk_or(_cmp(">=", 0, 3.0), _cmp("<=", 0, 2.0))) is None
    assert _outcome(mk_or(_cmp(">=", 1, 3.0), _cmp("<=", 1, 2.0))) is not None
    atom = _outcome(mk_or(_cmp(">", 0, 2.5), _cmp("<", 0, 1.5),
                          _cmp(">", 0, 3.5)))
    rays = [atom.expr.left, atom.expr.right]
    assert sorted(r.op for r in rays) == ["<", ">"]
    assert [r.right.kind for r in rays] == ["float", "float"]
    assert _outcome(mk_or(_cmp(">", 0, 2.5), _cmp("<", 0, 3.5))) is None


def test_boolean_disjuncts():
    assert _outcome(mk_or(_cmp(">", 0, 1), bool_lit(True))) is None
    assert _outcome(mk_or(bool_lit(False), bool_lit(False))) is None
    atom = _outcome(mk_or(bool_lit(False), _cmp(">", 0, 1)))
    assert atom.key == "(> (idx (var a1) 0) (num 1/1))"


def test_a_one_disjunct_result_is_the_disjunct():
    atom = _outcome(mk_or(_cmp(">", 0, 1), _cmp(">", 0, 4), _cmp(">", 0, 1)))
    assert isinstance(atom.expr, BinOp) and atom.expr.op == ">"
    assert atom.key == "(> (idx (var a1) 0) (num 1/1))"


def test_two_disjuncts_with_one_key_keep_the_first():
    """`3` and `3.0` have one key, so the first disjunct stands for both."""
    both = (_cmp("==", 1, 3), _cmp("==", 1, 3.0))
    atom = _outcome(mk_or(*both, _cmp("<", 0, 0)))
    kinds = [d.right.kind for d in (atom.expr.left, atom.expr.right)
             if d.left.index == 1]
    assert kinds == ["int"]
    atom = _outcome(mk_or(*reversed(both), _cmp("<", 0, 0)))
    kinds = [d.right.kind for d in (atom.expr.left, atom.expr.right)
             if d.left.index == 1]
    assert kinds == ["float"]


if __name__ == "__main__":
    import sys

    from perfbench.tasks import generate_tasks

    first, last = map(int, sys.argv[1:3])
    count = 0
    for seed in range(first, last + 1):
        for name, source in generate_tasks(seed):
            built, calls = psi_candidates(name, source)
            fast, _ = replay(calls)
            assert [a.key for a in built] == [a.key for a in fast], name
            count += len(calls)
    print(f"seeds {first}-{last}: {count} ψ candidates match the reference")
