"""The benchmark's own checks, on small inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import random
from pathlib import Path

import pytest

from perfbench.run import LAYER_COUNTS, LAYER_SPANS, end_to_end, measure, per_layer
from perfbench.tasks import generate_frame, generate_tasks
from perfbench.trace import Tracer
from perfbench.workloads import (
    CompileWorkload, DiffWorkload, PipelineWorkload, load_reference,
)

ROOT = Path(__file__).resolve().parent.parent
CHEAP = {"gen_counters", "gen_discount"}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, tracer=None):
    try:
        workload.setup()
        return measure(workload, 0, tracer)
    finally:
        workload.close()


def test_same_seed_gives_same_inputs_and_digests():
    assert generate_tasks(5) == generate_tasks(5)
    assert generate_tasks(5) != generate_tasks(6)
    assert generate_frame(random.Random(5), "case_a", 50) == \
        generate_frame(random.Random(5), "case_a", 50)
    digests = []
    for _ in range(2):
        workload = CompileWorkload(ROOT, 5, names=CHEAP)
        plain, _ = _run(workload)
        assert plain.failures == []
        digests.append({n: workload.checker.digests[n] for n in CHEAP})
    assert digests[0] == digests[1]


def test_wrong_triple_is_a_fail_verdict_not_a_failed_op():
    workload = DiffWorkload(ROOT, 3, names={"top2_wrong"}, trials=500)
    plain, _ = _run(workload)
    assert len(plain.op_s) == 1
    assert plain.failures == []
    assert workload.mismatches["top2_wrong"] > 0


def test_corrupted_reference_digest_raises_fail_share():
    reference = load_reference()
    reference["fixtures"]["discount"]["digest"] = "0" * 64
    workload = CompileWorkload(ROOT, 3, reference=reference,
                               names={"top2", "discount"})
    plain, _ = _run(workload)
    assert len(plain.op_s) == 2
    assert len(plain.failures) == 1
    assert plain.failures[0].startswith("discount:")
    metrics = end_to_end(plain, 0.0)
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert metrics["ok_share"][0] == 0.5


def test_diff_corrupted_reference_digest_fails_the_op():
    reference = load_reference()
    reference["fixtures"]["frequent"]["digest"] = "0" * 64
    workload = DiffWorkload(ROOT, 3, reference=reference,
                            names={"frequent"}, trials=100)
    plain, _ = _run(workload)
    assert len(plain.failures) == 1


# the workload on which each per-layer metric must be measured
EXERCISED_ON = {
    "compile": ("parser.parse_ms", "typecheck.typecheck_ms", "analysis.dep_ms",
                "analysis.u_q_ms", "analysis.u_residual_ms",
                "analysis.u_psi_ms", "analysis.p_map_ms", "encode.context_ms",
                "analysis.deepcopy_calls", "analysis.u_q_atoms",
                "analysis.u_residual_atoms", "analysis.u_psi_atoms",
                "encode.smt_bytes", "analysis.unstable_display_atoms"),
    "diff": ("fuzz.pools_ms", "fuzz.sample_ms", "fuzz.compare_ms",
             "fuzz.rows_sampled", "interp.eval_fold_ms",
             "interp.filter_rows_ms", "interp.lift_eval_ms",
             "interp.fold_rows", "cli.self_ms", "trials_per_s"),
    "pipeline": ("interp.eval_fold_ms", "interp.filter_rows_ms",
                 "interp.lift_eval_ms", "interp.fold_rows", "rows_per_s",
                 "pushdown_speedup"),
}


@pytest.mark.parametrize("make", [
    lambda: CompileWorkload(ROOT, 2, names={"case_b"}),
    lambda: DiffWorkload(ROOT, 2, names={"top2"}, trials=200),
    lambda: PipelineWorkload(ROOT, 2, names={"top2"}, rows=500),
], ids=["compile", "diff", "pipeline"])
def test_traced_run_spans_every_layer_metric(make):
    workload = make()
    tracer = Tracer()
    plain, traced = _run(workload, tracer)
    assert plain.op_s and traced.op_s
    assert plain.failures == [] and traced.failures == []
    metrics = per_layer(tracer, traced, plain, workload)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    expected = set(LAYER_SPANS) | set(LAYER_COUNTS)
    spans = tracer.self_ms()
    for name in EXERCISED_ON[workload.name]:
        assert metrics[name][0] > 0, name
        if name in LAYER_SPANS:
            assert spans[LAYER_SPANS[name]][1] > 0, name
    if workload.name == "pipeline":  # no analysis and no sampling here
        for name in expected:
            if name.startswith(("analysis.", "fuzz.", "parser.", "cli.")):
                assert metrics[name][0] == 0, name
    # the wrappers are gone once the traced rounds end
    assert tracer._patches == []
