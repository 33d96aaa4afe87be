"""Reference per-trial differential fuzzer.

`pushdown_synth.fuzz.differential_check` evaluates each distinct fold step,
row verdict and lift verdict once per call; this loop re-evaluates the whole
original and rewritten pipeline on every sampled frame instead. The tests
keep it as the reference the tabled fuzzer is checked against.
"""

from __future__ import annotations

import random

from pushdown_synth.fuzz import DiffReport, column_pools, sample_dataframe
from pushdown_synth.interp import eval_fold, filter_rows, lift_eval
from pushdown_synth.values import fmt_value


def differential_check(task, universes, q_indices, residual_indices,
                       trials: int = 10000, seed: int = 0,
                       max_len: int = 8) -> DiffReport:
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
