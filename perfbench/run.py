"""Benchmark of pushdown-synth's solver-free path.

    python3 perfbench/run.py --workload compile|diff|pipeline \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`. One process, one thread, closed loop: the next op starts when the
previous one has returned. The runner sets the workload up several times and
reports the median as `setup_s`, then runs whole rounds (every op kind once)
until `--seconds` have passed, checking every op against the reference
answers in `perfbench/reference.json`.

Op latencies and set-up times in the end-to-end metrics are scaled to a
reference machine speed: the calibration loop in `calibrate.py` runs between
ops, and each op's time is multiplied by `REFERENCE_S` over the loop's time
around it. The report line keeps the times as measured.

With `--trace 0` the last line of stdout carries the end-to-end metrics; with
`--trace 1` rounds alternate between traced and untraced, and the last line
carries the per-layer metrics (self time per traced op, counts per traced op)
together with the tracing overhead. The line before it is a full report:
provenance, per-kind latencies, sample counts and the unmeasured layers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: make the `perfbench` package importable
    sys.path.insert(0, str(ROOT))

from perfbench.calibrate import REFERENCE_S, calibrate  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

SETUP_REPEATS = 7

# per-layer metric name -> span whose self time it reports
LAYER_SPANS = {
    "parser.parse_ms": "parser.parse",
    "typecheck.typecheck_ms": "typecheck.typecheck",
    "analysis.dep_ms": "analysis.dep",
    "analysis.u_q_ms": "analysis.u_q",
    "analysis.u_residual_ms": "analysis.u_residual",
    "analysis.u_psi_ms": "analysis.u_psi",
    "analysis.p_map_ms": "analysis.build_universes",
    "encode.context_ms": "encode.context",
    "fuzz.pools_ms": "fuzz.pools",
    "fuzz.sample_ms": "fuzz.sample",
    "fuzz.compare_ms": "fuzz.differential_check",
    "interp.eval_fold_ms": "interp.eval_fold",
    "interp.filter_rows_ms": "interp.filter_rows",
    "interp.lift_eval_ms": "interp.lift_eval",
    "cli.self_ms": "cli.run",
}
LAYER_COUNTS = (
    "analysis.deepcopy_calls", "analysis.u_q_atoms",
    "analysis.u_residual_atoms", "analysis.u_psi_atoms", "encode.smt_bytes",
    "fuzz.rows_sampled", "interp.fold_rows",
)
UNMEASURED = {layer: "no solver" for layer in
              ("smt", "synth", "bmc", "oracle", "vcgen.check_witness")}


def percentile(values, p):
    """The p-th percentile, interpolated between closest ranks. Rounds hold
    every op kind once; with this method and the workloads' odd kind counts
    (13, 7 and 5), p50 and p90 fall inside one kind's block of the sorted
    latencies whatever the number of rounds, not on a block edge."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Run:
    """Latencies, failures and work counts of one side (traced or not)."""

    def __init__(self):
        self.op_s = []      # as measured
        self.scaled_s = []  # scaled to the reference machine speed
        self.cal_s = []
        self.by_kind = {}
        self.failures = []
        self.work = {}

    def add(self, kind, seconds, cal_s, work):
        self.op_s.append(seconds)
        self.scaled_s.append(seconds * REFERENCE_S / cal_s)
        self.cal_s.append(cal_s)
        self.by_kind.setdefault(kind, []).append(seconds)
        for key, value in work.items():
            self.work[key] = self.work.get(key, 0) + value


def machine_speed(op_s=0.0):
    """Median of a few calibration passes, one more per half second of the
    op just timed, so long ops get a steadier estimate at their edges."""
    passes = 1 + min(4, int(op_s / 0.5))
    return statistics.median(calibrate() for _ in range(passes))


def measure(workload, seconds, tracer=None):
    """Whole rounds until `seconds` have passed; with a tracer, rounds
    alternate traced (first) and untraced, at least one of each. The
    calibration loop runs between ops; an op is scaled by the mean of the
    estimates just before and just after it. Returns (untraced, traced)."""
    plain, traced = Run(), Run()
    min_rounds = 1 if tracer is None else 2
    start = perf_counter()
    round_index = 0
    cal_before = machine_speed()
    while round_index < min_rounds or perf_counter() - start < seconds:
        tracing = tracer is not None and round_index % 2 == 0
        side = traced if tracing else plain
        if tracing:
            workload.trace(tracer)
        try:
            for kind, fn in workload.ops():
                t0 = perf_counter()
                try:
                    output = tracer.op(fn) if tracing else fn()
                    reason = None
                except Exception as exc:  # a raising op is a failed op
                    output = None
                    reason = f"{kind}: {type(exc).__name__}: {exc}"
                elapsed = perf_counter() - t0
                cal_after = machine_speed(elapsed)
                work = {} if output is None else workload.work(kind, output)
                side.add(kind, elapsed, (cal_before + cal_after) / 2, work)
                cal_before = cal_after
                if output is not None:
                    reason = workload.check(kind, output)
                if reason is not None:
                    side.failures.append(reason)
        finally:
            if tracing:
                tracer.unpatch()
        round_index += 1
    return plain, traced


def end_to_end(run, setup_s):
    ms = [s * 1e3 for s in run.scaled_s]
    return {
        "op_ms.p50": (percentile(ms, 50), "ms"),
        "op_ms.p90": (percentile(ms, 90), "ms"),
        "ops_per_s": (len(ms) / sum(run.scaled_s), "1/s"),
        "ok_share": (1 - len(run.failures) / len(ms), "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def workload_rates(run):
    """Rates in the workload's own unit of work; 0 where it has none."""
    busy = sum(run.op_s)
    work = run.work
    return {
        "trials_per_s": (work.get("trials", 0) / busy, "1/s"),
        "rows_per_s": (work["rows"] / work["rewritten_s"]
                       if "rows" in work else 0.0, "1/s"),
        "pushdown_speedup": (work["original_s"] / work["rewritten_s"]
                             if "rows" in work else 0.0, "x"),
    }


def per_layer(tracer, traced, plain, workload):
    ops = tracer.ops
    spans = tracer.self_ms()
    metrics = {name: (spans.get(span, (0.0, 0))[0] / ops, "ms")
               for name, span in LAYER_SPANS.items()}
    for name in LAYER_COUNTS:
        metrics[name] = (tracer.counts[name] / ops, "count")
    checked = len(plain.op_s) + len(traced.op_s)
    metrics["analysis.unstable_display_atoms"] = (
        workload.unstable_atoms / checked, "count")
    metrics.update(workload_rates(plain))
    metrics["tracing_overhead_ms"] = (
        (percentile(traced.scaled_s, 50) - percentile(plain.scaled_s, 50))
        * 1e3, "ms")
    return metrics


def _git_commit():
    """HEAD's commit read from `.git`, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed):
    from pushdown_synth.smt import SolverError, find_solver

    try:
        solver = find_solver()
    except SolverError:
        solver = "none"
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return {
        "commit": _git_commit(),
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "solver": solver,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("compile", "diff", "pipeline"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pushdown_synth" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no pushdown_synth sources under "
                         f"{ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    try:
        setup, setup_scaled = [], []
        cal_before = machine_speed()
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload.setup()
            setup.append(perf_counter() - t0)
            cal_after = machine_speed()
            setup_scaled.append(
                setup[-1] * REFERENCE_S * 2 / (cal_before + cal_after))
            cal_before = cal_after
        setup_s = statistics.median(setup_scaled)
        tracer = Tracer() if args.trace else None
        plain, traced = measure(workload, args.seconds, tracer)
    finally:
        workload.close()

    main_run = traced if args.trace else plain
    failures = plain.failures + traced.failures
    attempted = len(plain.op_s) + len(traced.op_s)
    if args.trace:
        metrics = per_layer(tracer, traced, plain, workload)
    else:
        metrics = end_to_end(plain, setup_s)
        metrics.update(workload_rates(plain))
    raw_ms = [s * 1e3 for s in main_run.op_s]
    scaled_ms = [s * 1e3 for s in main_run.scaled_s]
    report = {
        "workload": args.workload,
        "provenance": provenance(args.seed),
        "traced": bool(args.trace),
        "ops": len(raw_ms),
        "samples_beyond_p90": sum(v > percentile(scaled_ms, 90)
                                  for v in scaled_ms),
        "op_ms_as_measured": {"p50": percentile(raw_ms, 50),
                              "p90": percentile(raw_ms, 90)},
        "calibration_ms": {"median": statistics.median(main_run.cal_s) * 1e3,
                           "reference": REFERENCE_S * 1e3},
        "setup_s_as_measured": setup,
        "kind_p50_ms_as_measured": {
            kind: statistics.median(v) * 1e3
            for kind, v in main_run.by_kind.items()},
        "failures": failures[:20],
        "unstable_display_atoms_total": workload.unstable_atoms,
        "unmeasured_layers": UNMEASURED,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if args.trace:
        spans = tracer.self_ms()
        report["span_counts"] = {name: spans.get(span, (0.0, 0))[1]
                                 for name, span in LAYER_SPANS.items()}
        # share of the traced ops' time that the per-layer self times cover
        report["layer_coverage"] = sum(
            spans.get(span, (0.0, 0))[0] for span in LAYER_SPANS.values()
        ) / (sum(traced.op_s) * 1e3)
    print(json.dumps(report))
    if not args.trace:
        # the rates are informational here; BENCHMARK.json lists them per layer
        for name in ("trials_per_s", "rows_per_s", "pushdown_speedup"):
            del metrics[name]
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
