"""Seeded inputs: generated `.pdsl` tasks for `compile` and long frames for
`pipeline`.

Generated tasks are built from the component templates of the bundled
fixtures (label counter, running max and min, discounted max, and case_a-style
`Optional` first/last pairs). The seed picks labels and constants only; the
shape of every slot is fixed, so the work per task stays comparable across
seeds while the atoms differ.
"""

from __future__ import annotations

import random
from fractions import Fraction

LABELS = ("time", "price", "click", "view", "cart", "refund", "login", "share")

# (slot name, label counters, running max, running min, discounted max,
#  optional pairs); every slot reads one label column and one numeric
#  column per numeric component
SLOTS = (
    ("gen_counters", 2, 1, 1, 0, 0),
    ("gen_discount", 1, 0, 1, 1, 0),
    ("gen_wide", 3, 2, 1, 1, 0),
    ("gen_pairs1", 1, 0, 0, 0, 1),
    ("gen_mixed", 2, 1, 0, 1, 1),
    ("gen_pairs2", 1, 0, 0, 0, 2),
    ("gen_pairs3", 1, 0, 0, 0, 3),
)


def _counter(rng, i, label):
    lo = rng.randint(0, 3)
    hi = lo + rng.randint(4, 12)
    body = f'a[{i}] + 1 if r[0] == "{label}" else a[{i}]'
    return body, "0", [f"a[{i}] > {lo}", f"a[{i}] <= {hi}"]


def _max(rng, i, col):
    c = rng.randint(20, 80)
    body = f"r[{col}] if r[{col}] > a[{i}] else a[{i}]"
    return body, "-inf", [f"a[{i}] > {c}.0"]


def _min(rng, i, col):
    c = rng.randint(100, 900)
    body = f"r[{col}] if r[{col}] < a[{i}] else a[{i}]"
    return body, "1000", [f"a[{i}] >= {c}"]


def _discount(rng, i, col):
    c = rng.randint(50, 95) * 10
    body = f"r[{col}] * 0.9 if r[{col}] * 0.9 > a[{i}] else a[{i}]"
    return body, "-inf", [f"a[{i}] >= {c}.0"]


def _pair(rng, i, col, k):
    """case_a's first/last timestamp pair on components i and i + 1. Every
    seed orders the constants the same way, within and across pairs, so the
    analysis does the same work whatever the seed."""
    base = 1950 + 25 * k
    c1, c2, c3, c4 = (base + 6 * j + rng.randint(0, 4) for j in range(4))
    f, l = f"f{k}", f"l{k}"
    first = (
        f"(match a[{i}]:\n"
        f"       case None: r[{col}]\n"
        f"       case {f}: (match a[{i + 1}]:\n"
        f"                   case None: r[{col}]\n"
        f"                   case {l}: (r[{col}] if r[{col}] < {f} else a[{i}])))"
    )
    last = (
        f"(match a[{i + 1}]:\n"
        f"       case None: r[{col}]\n"
        f"       case {l}: (match a[{i}]:\n"
        f"                   case None: r[{col}]\n"
        f"                   case {f}: (r[{col}] if r[{col}] > {l} else a[{i + 1}])))"
    )
    posts = [
        f"(match a[{i}]: case None: False case {f}: ({f} == {c2} or {f} <= {c1}))",
        f"(match a[{i + 1}]: case None: False case {l}: ({l} > {c4} or {l} == {c3}))",
    ]
    return [(first, "None", posts[:1]), (last, "None", posts[1:])]


def generate_task(rng: random.Random, slot) -> str:
    """Source text of one generated task for `slot` (an entry of SLOTS)."""
    name, n_counters, n_max, n_min, n_discount, n_pairs = slot
    labels = rng.sample(LABELS, n_counters)
    columns = ["str"]
    comps = []  # (body, init, post conjuncts)

    def column(ty):
        columns.append(ty)
        return len(columns) - 1

    for label in labels:
        comps.append(_counter(rng, len(comps), label))
    for _ in range(n_max):
        comps.append(_max(rng, len(comps), column("float")))
    for _ in range(n_min):
        comps.append(_min(rng, len(comps), column("int")))
    for _ in range(n_discount):
        comps.append(_discount(rng, len(comps), column("float")))
    for k in range(n_pairs):
        comps.extend(_pair(rng, len(comps), column("int"), k))

    schema = ", ".join(columns) + ("," if len(columns) == 1 else "")
    inits = ", ".join(init for _, init, _ in comps)
    bodies = ",\n    ".join(body for body, _, _ in comps)
    posts = "\n  and ".join(p for _, _, ps in comps for p in ps)
    return (
        f"# generated: {name}\n"
        f"df = ({schema})\n"
        f"agg = fold(df, ({inits}),\n"
        f"  lambda a, r: (\n    {bodies}))\n"
        f"out = filter(agg, lambda a:\n  {posts})\n"
    )


def generate_tasks(seed: int):
    """[(name, source)] for every slot; the same seed gives the same text."""
    rng = random.Random(seed)
    return [(slot[0], generate_task(rng, slot)) for slot in SLOTS]


# ---------------------------------------------------------------------------
# long frames for the pipeline workload

def _float_col(lo, hi):
    return lambda rng: Fraction(rng.randint(lo * 10, hi * 10), 10)


def _int_col(lo, hi):
    return lambda rng: rng.randint(lo, hi)


def _label_col(labels, weights):
    return lambda rng: rng.choices(labels, weights)[0]


# per-fixture column generators; ranges straddle each fixture's constants so
# the pre-filter keeps part of the rows and the post-filter sometimes holds
COLUMNS = {
    "top2": (_float_col(0, 100),),
    "discount": (_float_col(0, 1200),),
    # "price" is rare, so its count sometimes lands inside (5, 18]
    "case_a": (_label_col(("time", "price", "click", "view"),
                          (50, 1, 500, 449)),
               _int_col(1970, 2010)),
    "case_b": (_float_col(0, 120), _int_col(20, 70)),
    "frequent": (_int_col(0, 120),),
}


def generate_frame(rng: random.Random, fixture: str, n_rows: int):
    cols = COLUMNS[fixture]
    return [tuple(col(rng) for col in cols) for _ in range(n_rows)]
