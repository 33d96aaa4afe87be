"""Command-line frontend: synth, verify, screen, diff, and bench subcommands.

One JSON record per task on stdout (newline-delimited); bench adds a summary
record. Exit codes: 0 on success, 1 on any task failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path

from .analysis import build_universes, is_trivially_false, normalize
from .bmc import screen
from .encode import TaskContext
from .fuzz import differential_check
from .parser import parse, parse_expression
from .pretty import fmt_expr
from .rewrite import emit_rewritten
from .smt import SolverConfig, SolverError, start_session
from .synth import Budget, PushdownSolution, synthesize
from .typecheck import DslTypeError, typecheck, type_predicate
from .lexer import DslSyntaxError
from .vcgen import Conjunction, check_witness
from .schema import validate_record
from .syntax import Span, TTuple


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        solver_path=args.solver,
        timeout_ms=args.timeout_ms,
        random_seed=args.seed,
        log_path=args.smt_log,
    )


def _load_task(path: str):
    source = Path(path).read_text()
    program = parse(source)
    return typecheck(program, name=Path(path).stem)


def _atom_strings(universe, conj: Conjunction):
    return [fmt_expr(universe[i].display) for i in conj.sorted()]


def _universe_dump(universes):
    def dump(u):
        return [
            {"index": a.index, "atom": fmt_expr(a.display)} for a in u
        ]

    return {
        "u_q": dump(universes.u_q),
        "u_residual": dump(universes.u_residual),
        "u_psi": dump(universes.u_psi),
        "dropped_q_conjuncts": list(universes.dropped_q),
    }


def _base_stats(sizes):
    u_q, u_residual, u_psi = sizes
    return {
        "wall_ms": 0.0,
        "solver_calls": 0,
        "worklist_iters": 0,
        "u_q_size": u_q,
        "u_residual_size": u_residual,
        "u_psi_size": u_psi,
    }


def _error_record(path, exc):
    return {
        "task": Path(path).stem,
        "status": "error",
        "error": str(exc),
        "stats": _base_stats((0, 0, 0)),
    }


def _emit(records, args):
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        for record in records:
            validate_record(record)
            out.write(json.dumps(record) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _trace_fn(args):
    if not args.trace:
        return None

    def fn(event):
        sys.stderr.write(json.dumps(event) + "\n")

    return fn


def _run_files(args, paths, run_task, needs_session=True):
    """For each file: load the task, build its universes once, and call
    ``run_task(args, task, universes, record, session)`` with a fresh record
    and a solver session (None unless ``needs_session``); the record's
    ``stats.backend`` names the session's backend. A DSL, solver,
    I/O or text-encoding error becomes the file's error record. Emits and
    returns the records. The sessions of one run append to one
    ``--smt-log`` transcript, emptied before the first session opens."""
    fresh_log = args.smt_log if needs_session else None
    records = []
    for path in paths:
        try:
            task = _load_task(path)
            universes = build_universes(task)
            record = {"task": task.name,
                      "stats": _base_stats(universes.sizes())}
            if fresh_log:
                Path(fresh_log).write_text("")
                fresh_log = None
            with (start_session(_solver_config(args)) if needs_session
                  else nullcontext()) as session:
                if session is not None:
                    record["stats"]["backend"] = session.backend
                run_task(args, task, universes, record, session)
        except (DslSyntaxError, DslTypeError, SolverError, OSError,
                UnicodeDecodeError) as exc:
            record = _error_record(path, exc)
        records.append(record)
    _emit(records, args)
    return records


def _exit_code(records):
    return 0 if all(r["status"] == "solved" for r in records) else 1


def _synth_task(args, task, universes, record, session):
    if task.post_pred is not None:
        record["stats"]["p_size"] = len(task.post_conjuncts)
    if args.dump_universe:
        record["universes"] = _universe_dump(universes)
    ctx = TaskContext(task, universes, session)
    budget = Budget(wall_s=args.budget_s, max_solver_calls=args.max_calls)
    outcome = synthesize(ctx, budget=budget, trace_fn=_trace_fn(args))
    stats = outcome.stats
    record["stats"].update({
        "wall_ms": stats.wall_ms,
        "solver_calls": stats.solver_calls,
        "worklist_iters": stats.iterations,
        "measure_log": [list(m) for m in stats.measure_log],
        "notes": list(stats.notes),
    })
    if not isinstance(outcome, PushdownSolution):
        record["status"] = outcome.reason \
            if outcome.reason in ("budget", "inconclusive") else "fail"
        return
    # belt-and-braces: re-check the witness before reporting solved
    report = check_witness(
        ctx, outcome.q, outcome.certified_residual, outcome.psi
    )
    if not report.ok:
        record["status"] = "inconclusive" if report.inconclusive else "error"
        record["error"] = f"witness re-check failed at {report.failing}"
        return
    diff = differential_check(
        task, universes, outcome.q.indices, outcome.residual.indices,
        trials=args.trials, seed=args.seed,
    )
    record.update({
        "status": "solved" if diff.ok else "error",
        "mode": outcome.mode,
        "q_atoms": _atom_strings(universes.u_q, outcome.q),
        "residual_atoms": _atom_strings(universes.u_residual,
                                        outcome.residual),
        "certified_residual_atoms": _atom_strings(
            universes.u_residual, outcome.certified_residual
        ),
        "invariant_atoms": _atom_strings(universes.u_psi, outcome.psi),
        "rewritten": emit_rewritten(task, universes, outcome),
        "diff": diff.to_json(),
    })
    if not diff.ok:
        record["error"] = "differential mismatch on a certified solution"


def cmd_synth(args):
    return _exit_code(_run_files(args, args.files, _synth_task))


def _parse_triple(path, task, universes):
    try:
        spec = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DslSyntaxError(f"{exc.msg} in triple file {path}",
                             Span(exc.lineno, exc.colno))
    if not isinstance(spec, dict) or not all(
            isinstance(spec.get(role, []), list)
            and all(isinstance(text, str) for text in spec.get(role, []))
            for role in ("q", "residual", "psi")):
        raise DslTypeError(f"triple file {path} must hold an object whose "
                           f"q, residual and psi are lists of strings")
    acc_env = {"a": task.acc_type}
    psi_env = {"a1": task.acc_type, "a2": task.acc_type}
    row_env = {"r": TTuple(tuple(task.schema))}

    def conj(role, universe, env):
        indices = []
        for text in spec.get(role, []):
            expr = type_predicate(parse_expression(text), env)
            if is_trivially_false(normalize(expr)):
                raise DslTypeError(f"supplied {role} atom {text!r} is false")
            atom = universe.add(expr)
            if atom is None:
                continue  # trivially true atoms add nothing
            indices.append(atom.index)
        return Conjunction.of(role, indices)

    return (
        conj("q", universes.u_q, row_env),
        conj("residual", universes.u_residual, acc_env),
        conj("psi", universes.u_psi, psi_env),
    )


def _verify_task(args, task, universes, record, session):
    q, residual, psi = _parse_triple(args.triple, task, universes)
    report = check_witness(TaskContext(task, universes, session),
                           q, residual, psi)
    record["status"] = "solved" if report.ok else (
        "inconclusive" if report.inconclusive else "fail"
    )
    if not report.ok:
        record["error"] = f"failing VC: {report.failing}"


def cmd_verify(args):
    return _exit_code(_run_files(args, args.files, _verify_task))


def _screen_task(args, task, universes, record, session):
    verdict = screen(TaskContext(task, universes, session), args.bmc_rows)
    record["status"] = "solved" if verdict.kind != "Inconclusive" \
        else "inconclusive"
    record["screen"] = {
        "verdict": verdict.kind,
        "witness": verdict.witness,
        "reason": verdict.reason,
    }


def cmd_screen(args):
    return _exit_code(_run_files(args, args.files, _screen_task))


def _diff_task(args, task, universes, record, session):
    q, residual, _ = _parse_triple(args.triple, task, universes)
    report = differential_check(
        task, universes, q.indices, residual.indices,
        trials=args.trials, seed=args.seed,
    )
    record["status"] = "solved" if report.ok else "fail"
    record["diff"] = report.to_json()
    trace = _trace_fn(args)
    if trace is not None:
        trace({"event": "fuzz-tables", "task": task.name, **report.tables})


def cmd_diff(args):
    return _exit_code(
        _run_files(args, args.files, _diff_task, needs_session=False))


def cmd_bench(args):
    paths = sorted(str(p) for p in Path(args.directory).glob("*.pdsl"))
    if not paths:
        sys.stderr.write(f"no .pdsl files under {args.directory}\n")
        return 2
    records = _run_files(args, paths, _synth_task)
    solved = [r for r in records if r["status"] == "solved"]
    by_mode = {}
    for r in solved:
        by_mode.setdefault(r["mode"], []).append(r)

    def avg(values):
        values = list(values)
        return round(sum(values) / len(values), 3) if values else None

    summary_rows = []
    for mode in ("exact", "partial", "split"):
        group = by_mode.get(mode, [])
        summary_rows.append({
            "mode": mode,
            "count": len(group),
            "avg_runtime_s": avg(r["stats"]["wall_ms"] / 1000.0 for r in group),
            "avg_q_size": avg(len(r["q_atoms"]) for r in group),
            "avg_residual_size": avg(len(r["residual_atoms"]) for r in group),
            "avg_invariant_size": avg(len(r["invariant_atoms"]) for r in group),
            "avg_p_size": avg(
                r["stats"].get("p_size", 0) for r in group
            ),
        })
    runtimes = [r["stats"]["wall_ms"] / 1000.0 for r in solved]
    summary = {
        "benchmarks": len(records),
        "solved": len(solved),
        "by_mode": summary_rows,
        "median_runtime_s":
            round(statistics.median(runtimes), 3) if runtimes else None,
    }
    out = sys.stdout if args.out is None else open(args.out, "a")
    try:
        out.write(json.dumps({"summary": summary}) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return _exit_code(records)


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="pushdown-synth",
        description="Synthesize optimal pushdown decompositions for fold "
                    "pipelines written in the .pdsl DSL.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, files=True):
        p.add_argument("--solver", default=None,
                       help="SMT solver binary, or 'builtin'")
        p.add_argument("--timeout-ms", type=int, default=30000,
                       help="per-query solver timeout")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write records here")
        p.add_argument("--smt-log", default=None,
                       help="transcript of solver traffic")
        p.add_argument("--trace", action="store_true",
                       help="emit worklist (synth) and fuzz-table (diff) "
                            "events on stderr")
        p.add_argument("--dump-universe", action="store_true")
        p.add_argument("--budget-s", type=float, default=600.0,
                       help="synthesis wall-clock budget")
        p.add_argument("--max-calls", type=int, default=20000,
                       help="synthesis solver-call budget")
        p.add_argument("--trials", type=int, default=2000,
                       help="differential trials")
        p.add_argument("--bmc-rows", type=int, default=2)
        if files:
            p.add_argument("files", nargs="+", metavar="FILE")

    p_synth = sub.add_parser("synth", help="synthesize and validate")
    common(p_synth)
    p_synth.set_defaults(fn=cmd_synth)

    p_verify = sub.add_parser("verify", help="check a provided (Q, P', psi)")
    common(p_verify)
    p_verify.add_argument("--triple", required=True,
                          help="JSON file with q/residual/psi atom lists")
    p_verify.set_defaults(fn=cmd_verify)

    p_screen = sub.add_parser("screen", help="bounded feasibility screen")
    common(p_screen)
    p_screen.set_defaults(fn=cmd_screen)

    p_diff = sub.add_parser("diff", help="fuzz a provided (Q, P') pair")
    common(p_diff)
    p_diff.add_argument("--triple", required=True)
    p_diff.set_defaults(fn=cmd_diff)

    p_bench = sub.add_parser("bench", help="run a directory of tasks")
    common(p_bench, files=False)
    p_bench.add_argument("directory")
    p_bench.set_defaults(fn=cmd_bench)
    return parser


def run(argv) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (DslSyntaxError, DslTypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SolverError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
