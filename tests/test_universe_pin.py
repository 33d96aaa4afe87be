"""Pinned predicate universes of the 6 fixtures, `generate_tasks(1..10)`,
one task written to reach every operator table of the predicate front end,
and three written to reach front-end paths that no other task reaches.

For each task, `universe_pin.json` holds digests of the post-filter's CNF
conjuncts and of every atom's `expr`, `display` and `key`, universe by
universe in index order. Trees are written out with their node classes and
non-child fields, spans and inferred types left out. A change to the front
end that moves any of them fails here.

Regenerate (only for a change meant to alter the universes) with
`PYTHONPATH=src:. python tests/test_universe_pin.py`.
"""

import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import pytest

from pushdown_synth import analysis
from pushdown_synth.analysis import build_universes
from pushdown_synth.parser import parse
from pushdown_synth.syntax import Expr
from pushdown_synth.typecheck import typecheck

PIN = Path(__file__).with_name("universe_pin.json")
FIXTURES = ["top2", "discount", "case_a", "case_b", "count_taut", "frequent"]
SEEDS = range(1, 11)
# No fixture or generated task puts a constant on the left of a comparison,
# scales a term by a negative constant or folds constant arithmetic, so this
# task does: every comparison mirrored, negated and folded, and an
# arithmetic initializer.
TABLES = """
df = (float, int)
agg = fold(df, (0.0, 0.0, 1 + 2, 0),
  lambda a, r: (a[0] + r[0], a[1] + r[0] if r[1] > 2 else a[1], a[2] + 1,
                a[3] + r[1]))
out = filter(agg, lambda a: 100.0 > a[0] and 50.0 >= a[1] and 3 < a[2]
  and 4 <= a[3] and 7.5 == a[0] and -2.0 * a[1] > 4.0 and a[0] / -4.0 <= 1.0
  and (a[0] > 2.0 * 3.0 - 1.0 or 2.0 > 3.0 or 1.0 == 2.0 or 3.0 > 3.0)
  and (a[1] < 4.0 / 2.0 + 1.0 or 3 >= 4 or 4 <= 3 or 4 < 3 or 3 < 3)
  and (a[2] > 9 or 3 >= 3) and (a[3] > 9 or 3 <= 3)
  and not (a[2] > 1 and a[3] < 2) and not (a[0] >= 5.0 or a[1] <= 6.0))
"""
# A fold body that is a `match`, projected per component, whose `Q` atom
# `r[0] > 3` reads the payload through its binder.
MATCH_BODY = """
df = (Optional[int], int)
agg = fold(df, (0, 0),
  lambda a, r: match r[0]: case None: (a[0], a[1] + 1)
                           case v: (a[0] + v, a[1]) if v > 3 else a)
out = filter(agg, lambda a: a[0] > 10 and a[1] < 5)
"""
# A conditional post-filter, lowered to and/or/not before its CNF.
COND_POST_FILTER = """
df = (int,)
agg = fold(df, (0, 0), lambda a, r: (a[0] + r[0], a[1] + 1))
out = filter(agg, lambda a: (a[0] > 10) if a[1] > 2 else (a[0] > 20))
"""
# Row values that reach component 1 only through component 0.
CROSS_FLOW = """
df = (int, int)
agg = fold(df, (0, 0),
  lambda a, r: (r[0] if r[0] > a[0] else a[0], a[0] if r[1] > 0 else a[1]))
out = filter(agg, lambda a: a[1] > 7)
"""


def _sources():
    from conftest import fixture_source
    from perfbench.tasks import generate_tasks

    out = {name: (name, fixture_source(name)) for name in FIXTURES}
    for seed in SEEDS:
        for name, source in generate_tasks(seed):
            out[f"{name}@{seed}"] = (name, source)
    out["tables"] = ("tables", TABLES)
    out["match_body"] = ("match_body", MATCH_BODY)
    out["cond_post_filter"] = ("cond_post_filter", COND_POST_FILTER)
    out["cross_flow"] = ("cross_flow", CROSS_FLOW)
    return out


def _tree(node) -> str:
    """`node` with its class, its fields other than span and type, and its
    children, recursively."""
    if isinstance(node, list):
        return "[" + " ".join(_tree(x) for x in node) + "]"
    if not dataclasses.is_dataclass(node):
        return repr(node)
    parts = [type(node).__name__]
    for f in dataclasses.fields(node):
        if f.name not in ("span", "ty"):
            parts.append(f"{f.name}={_tree(getattr(node, f.name))}")
    return "(" + " ".join(parts) + ")"


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def build_task(name, source):
    """The typechecked task of `source` and its universes. Binder names
    restart per task, so a pin does not depend on test order."""
    counter = itertools.count(1)
    saved = analysis._fresh_binder
    analysis._fresh_binder = lambda: f"v{next(counter)}"
    try:
        task = typecheck(parse(source), name)
        return task, build_universes(task)
    finally:
        analysis._fresh_binder = saved


def universe_pin(name, source):
    task, universes = build_task(name, source)
    roles = [("q", universes.u_q), ("residual", universes.u_residual),
             ("psi", universes.u_psi)]
    atoms = [(role, atom) for role, u in roles for atom in u]
    assert all(isinstance(a.expr, Expr) for _, a in atoms)
    return {
        "atoms": [len(u) for _, u in roles],
        "post_conjuncts": _digest(_tree(c) for c in task.post_conjuncts),
        "expr": _digest(f"{role} {_tree(a.expr)}" for role, a in atoms),
        "display": _digest(f"{role} {_tree(a.display)}" for role, a in atoms),
        "key": _digest(f"{role} {a.key}" for role, a in atoms),
    }


SOURCES = _sources()


def test_the_pin_covers_every_task():
    assert sorted(json.loads(PIN.read_text())) == sorted(SOURCES)
    assert len(SOURCES) == 80


@pytest.mark.parametrize("task_id", sorted(SOURCES))
def test_universes_match_the_pin(task_id):
    expected = json.loads(PIN.read_text())[task_id]
    assert universe_pin(*SOURCES[task_id]) == expected


if __name__ == "__main__":
    pins = {task_id: universe_pin(*SOURCES[task_id]) for task_id in SOURCES}
    PIN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} task pins to {PIN}")
