"""Random-dataframe differential validation of pushdown solutions.

Sampling is boundary-directed: every comparison constant relevant to a column
appears in its pool, along with values between and beyond adjacent constants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .interp import eval_fold, filter_rows, lift_eval
from .syntax import Lit, TBool, TFloat, TInt, TOpt, TStr, walk
from .values import NONE, Some, fmt_value


@dataclass
class DiffReport:
    trials: int
    mismatch_count: int
    seed: int
    # up to 10 mismatching frames, each a list of rows of printed values
    mismatches: list = field(default_factory=list)

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


def differential_check(task, universes, q_indices, residual_indices,
                       trials: int = 10000, seed: int = 0,
                       max_len: int = 8) -> DiffReport:
    """Sample dataframes and compare the lifted original against the lifted
    rewritten pipeline, pointwise; deterministic under the seed."""
    rng = random.Random(seed)
    pools = column_pools(task, universes)
    q_exprs = [universes.u_q[i].expr for i in sorted(q_indices)]
    res_exprs = [universes.u_residual[i].expr for i in sorted(residual_indices)]
    p_exprs = [task.post_pred] if task.post_pred is not None else []
    mismatch_count = 0
    examples = []
    for _ in range(trials):
        frame = sample_dataframe(rng, pools, max_len)
        lhs = lift_eval(p_exprs, eval_fold(task, frame))
        kept = filter_rows(q_exprs, frame, task.n_columns)
        rhs = lift_eval(res_exprs, eval_fold(task, kept))
        if lhs != rhs:
            mismatch_count += 1
            if len(examples) < 10:
                examples.append(
                    [[fmt_value(v) for v in row] for row in frame]
                )
    return DiffReport(
        trials=trials,
        mismatch_count=mismatch_count,
        seed=seed,
        mismatches=examples,
    )
