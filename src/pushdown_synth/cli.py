"""Command-line frontend: synth, verify, screen, diff, and bench subcommands.

One JSON record per task on stdout (newline-delimited); bench adds a summary
record. Exit codes: 0 on success, 1 on any task failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
import time
from contextlib import nullcontext
from functools import cache
from pathlib import Path

from .analysis import (
    NormalMemo, build_universes, is_trivially_false, normalize, printable,
)
from .bmc import screen
from .encode import EncodeError, TaskContext
from .fuzz import differential_check
from .parser import parse, parse_expression
from .pretty import fmt_expr
from .rewrite import emit_rewritten
from .smt import SolverConfig, SolverError, start_session
from .synth import Budget, PushdownSolution, synthesize
from .typecheck import DslTypeError, typecheck, type_predicate
from .values import EvalError
from .lexer import DslSyntaxError
from .vcgen import bits, check_witness, mask
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


def _atom_strings(universe, conj: int):
    return [fmt_expr(universe[i].display) for i in bits(conj)]


def _psi_strings(universe, conj: int):
    """The ψ atoms of ``conj`` as DSL text that re-parses: one that reads an
    Optional payload prints as a match, its binders numbered afresh."""
    binders = map("v{}".format, itertools.count(1))
    return [fmt_expr(printable(universe[i].expr, binders)) for i in bits(conj)]


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


def _error_record(path, exc, stats, partial):
    """The error record of a file, keeping the universe dump that the
    record it replaces (`partial`) held."""
    record = {
        "task": Path(path).stem,
        "status": "error",
        "error": str(exc),
        "stats": stats,
    }
    if "universes" in partial:
        record["universes"] = partial["universes"]
    return record


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


def _run_files(args, paths, run_task, needs_session=True, timed=True):
    """For each file: load the task, build its universes once, and call
    ``run_task(args, task, universes, record, session)`` with a fresh record
    and a solver session (None unless ``needs_session``); the record's
    ``stats.backend`` names the session's backend, and its ``stats.wall_ms``
    the file's elapsed time if ``timed`` (else ``run_task`` sets it). A DSL,
    SMT-encoding, evaluation, solver, I/O or text-encoding error, or an
    expression nested past the recursion limit, becomes the file's error
    record, which keeps the universe sizes if they were built, the stats of
    the work done before the error and any ``--dump-universe`` dump. Emits
    and returns the records. The sessions of one run append to one
    ``--smt-log`` transcript, emptied before the first session opens."""
    fresh_log = args.smt_log if needs_session else None
    records = []
    for path in paths:
        start = time.perf_counter()
        stats = _base_stats((0, 0, 0))  # until the universes are built
        record = {}
        try:
            task = _load_task(path)
            universes = build_universes(task)
            stats = _base_stats(universes.sizes())
            record = {"task": task.name, "stats": stats}
            if fresh_log:
                Path(fresh_log).write_text("")
                fresh_log = None
            with (start_session(_solver_config(args)) if needs_session
                  else nullcontext()) as session:
                if session is not None:
                    record["stats"]["backend"] = session.backend
                run_task(args, task, universes, record, session)
        except (DslSyntaxError, DslTypeError, EncodeError, EvalError,
                SolverError, OSError, UnicodeDecodeError) as exc:
            record = _error_record(path, exc, stats, record)
        except RecursionError:
            record = _error_record(path, "expression is nested too deeply",
                                   stats, record)
        if timed:
            record["stats"]["wall_ms"] = (time.perf_counter() - start) * 1e3
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
    record["stats"].update(outcome.stats)
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
        task, universes, bits(outcome.q), bits(outcome.residual),
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
        "invariant_atoms": _psi_strings(universes.u_psi, outcome.psi),
        "rewritten": emit_rewritten(task, universes, outcome),
        "diff": diff.to_json(),
    })
    if not diff.ok:
        record["error"] = "differential mismatch on a certified solution"


def cmd_synth(args):
    return _exit_code(_run_files(args, args.files, _synth_task, timed=False))


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
    memo = NormalMemo()  # each supplied atom is normalized once

    def conj(role, universe, env):
        indices = []
        for text in spec.get(role, []):
            expr = type_predicate(parse_expression(text), env)
            if is_trivially_false(normalize(expr, memo)):
                raise DslTypeError(f"supplied {role} atom {text!r} is false")
            atom = universe.add(expr, memo=memo)
            if atom is None:
                continue  # trivially true atoms add nothing
            indices.append(atom.index)
        return mask(indices)

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
    record["stats"]["solver_calls"] = report.calls
    if not report.ok:
        record["error"] = f"failing VC: {report.failing}"


def cmd_verify(args):
    return _exit_code(_run_files(args, args.files, _verify_task))


def _screen_task(args, task, universes, record, session):
    ctx = TaskContext(task, universes, session)
    record["stats"]["solver_calls"] = 1  # the screen is one check
    verdict = screen(ctx, args.bmc_rows)
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
        task, universes, bits(q), bits(residual),
        trials=args.trials, seed=args.seed,
    )
    record["status"] = "solved" if report.ok else "fail"
    record["diff"] = report.to_json()
    trace = _trace_fn(args)
    if trace is not None:
        trace({"event": "fuzz-tables", "task": task.name, **report.tables,
               "exhaustive": report.exhaustive})


def cmd_diff(args):
    return _exit_code(
        _run_files(args, args.files, _diff_task, needs_session=False))


def cmd_bench(args):
    paths = sorted(str(p) for p in Path(args.directory).glob("*.pdsl"))
    if not paths:
        sys.stderr.write(f"no .pdsl files under {args.directory}\n")
        return 2
    records = _run_files(args, paths, _synth_task, timed=False)
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


@cache
def build_arg_parser():
    """The argument parser, built once per process: `run` may be called
    any number of times."""
    parser = argparse.ArgumentParser(
        prog="pushdown-synth",
        description="Synthesize optimal pushdown decompositions for fold "
                    "pipelines written in the .pdsl DSL.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def count(text):  # argparse names the type in its errors
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must not be negative: {value}")
        return value

    def seconds(text):
        value = float(text)
        if not value >= 0:  # NaN too, which no clock ever passes
            raise argparse.ArgumentTypeError(
                f"must not be negative or NaN: {value}")
        return value

    def milliseconds(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1: {value}")
        return value

    options = {
        "--seed": dict(type=int, default=0),
        "--out": dict(default=None, help="write records here"),
        "--solver": dict(default=None,
                         help="SMT solver binary, or 'builtin'"),
        "--timeout-ms": dict(type=milliseconds, default=30000,
                             help="per-query solver timeout"),
        "--smt-log": dict(default=None, help="transcript of solver traffic"),
        "--trace": dict(action="store_true",
                        help="emit worklist (synth) and fuzz-table (diff) "
                             "events on stderr"),
        "--dump-universe": dict(action="store_true"),
        "--budget-s": dict(type=seconds, default=600.0,
                           help="synthesis wall-clock budget"),
        "--max-calls": dict(type=count, default=20000,
                            help="synthesis solver-call budget"),
        "--trials": dict(type=count, default=2000,
                         help="differential trials"),
        "--bmc-rows": dict(type=int, choices=range(1, 5), default=2),
        "--triple": dict(required=True,
                         help="JSON file with q/residual/psi atom lists"),
        "files": dict(nargs="+", metavar="FILE"),
        "directory": {},
    }
    # each subcommand accepts only the options it reads
    base = ("--seed", "--out")
    solver = base + ("--solver", "--timeout-ms", "--smt-log")
    search = solver + ("--trace", "--dump-universe", "--budget-s",
                       "--max-calls", "--trials")
    for name, fn, summary, names in (
        ("synth", cmd_synth, "synthesize and validate", search + ("files",)),
        ("verify", cmd_verify, "check a provided (Q, P', psi)",
         solver + ("--triple", "files")),
        ("screen", cmd_screen, "bounded feasibility screen",
         solver + ("--bmc-rows", "files")),
        ("diff", cmd_diff, "fuzz a provided (Q, P') pair",
         base + ("--trace", "--trials", "--triple", "files")),
        ("bench", cmd_bench, "run a directory of tasks",
         search + ("directory",)),
    ):
        p = sub.add_parser(name, help=summary)
        for option in names:
            p.add_argument(option, **options[option])
        p.set_defaults(fn=fn)
    return parser


def run(argv) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
