import importlib.resources
import sys
import time

import pytest

from pushdown_synth import interp
from pushdown_synth.analysis import build_universes
from pushdown_synth.encode import TaskContext
from pushdown_synth.parser import parse
from pushdown_synth.smt import (
    BUILTIN, SolverConfig, session_backend, start_session,
)
from pushdown_synth.synth import synthesize
from pushdown_synth.typecheck import typecheck
from pushdown_synth.values import EvalError

FIXTURES = importlib.resources.files("pushdown_synth") / "fixtures"

# the backend every default session of the suite uses: discovery only, no
# solver is started here
SOLVER_BACKEND = session_backend()

# the bounded screen is quantified: it needs an external solver, and runs
# wherever one is found
requires_z3 = pytest.mark.skipif(
    SOLVER_BACKEND == BUILTIN,
    reason="needs an external SMT solver such as z3 (none found: no --solver, "
           "$PUSHDOWN_SYNTH_SOLVER or z3 on PATH); the builtin backend does "
           "not decide quantified formulas",
)


# replies of `fake_solver` that are no answer: it exits without answering
# (its output closes); it closes its input, answers ``success`` and stays
# alive, so the next command meets a broken pipe; or it answers nothing
EXIT, HANG_UP, SILENT = "<exit>", "<hang-up>", "<silent>"


def fake_solver(directory, replies, default="success"):
    """Path of an executable stand-in for an external solver: it answers
    each command line with ``replies[command]``, else ``default``, and stops
    at ``(exit)``; ``EXIT``, ``HANG_UP`` and ``SILENT`` play a failing
    solver. It lets `SolverSession` run where no solver is installed."""
    script = directory / "fake-solver"
    script.write_text(
        f"#!{sys.executable}\n"
        "import os, sys, time\n"
        f"replies = {replies!r}\n"
        "for line in sys.stdin:\n"
        "    command = line.strip()\n"
        f"    reply = replies.get(command, {default!r})\n"
        f"    if command == '(exit)' or reply == {EXIT!r}:\n"
        "        break\n"
        f"    if reply == {SILENT!r}:\n"
        "        continue\n"
        f"    if reply == {HANG_UP!r}:\n"
        "        os.close(0)\n"
        "        print('success', flush=True)\n"
        "        time.sleep(60)\n"
        "        break\n"
        "    sys.stdout.write(reply + '\\n')\n"
        "    sys.stdout.flush()\n"
    )
    script.chmod(0o755)
    return str(script)


def pytest_report_header(config):
    return f"pushdown-synth solver backend: {SOLVER_BACKEND}"


def fixture_source(name: str) -> str:
    return (FIXTURES / f"{name}.pdsl").read_text()


def make_task(name: str):
    return typecheck(parse(fixture_source(name)), name)


def eval_atom(expr, env: dict) -> bool:
    """The truth of a predicate under `env`, read alone; an atom left UNDEF
    raises, as it does in a truth kernel."""
    value = interp.eval_expr(expr, env)
    if value is interp.UNDEF:
        raise EvalError(interp._UNDEFINED_ATOM)
    return bool(value)


def make_context(source: str, name: str = "task", extra_q=(), extra_residual=(),
                 extra_psi=(), timeout_ms: int = 30000):
    """Independent context; optional extra atoms extend the universes."""
    from pushdown_synth.parser import parse_expression
    from pushdown_synth.syntax import TTuple
    from pushdown_synth.typecheck import type_predicate

    task = typecheck(parse(source), name)
    universes = build_universes(task)
    row_env = {"r": TTuple(tuple(task.schema))}
    acc_env = {"a": task.acc_type}
    psi_env = {"a1": task.acc_type, "a2": task.acc_type}
    for text in extra_q:
        universes.u_q.add(type_predicate(parse_expression(text), row_env))
    for text in extra_residual:
        universes.u_residual.add(type_predicate(parse_expression(text), acc_env))
    for text in extra_psi:
        universes.u_psi.add(type_predicate(parse_expression(text), psi_env))
    session = start_session(SolverConfig(timeout_ms=timeout_ms))
    return TaskContext(task, universes, session)


@pytest.fixture(scope="session")
def taskbank():
    cache = {}

    def get(name: str):
        if name not in cache:
            cache[name] = make_context(fixture_source(name), name)
        return cache[name]

    yield get
    for ctx in cache.values():
        ctx.session.close()


FIXTURE_NAMES = ("top2", "discount", "case_a", "case_b", "frequent")

# one strictly stronger pre-filter atom per fixture, used by the mutation suite
EXTRA_Q = {
    "top2": "r[0] > 95.0",
    "discount": "r[0] >= 1100.0",
    "case_a": "r[1] <= 1985",
    "case_b": "r[1] <= 30",
    "frequent": "r[0] > 200",
}


class _Bank:
    """Synthesizes every fixture once, on universes extended with the
    mutation atom (appended after construction, so canonical indices are
    unchanged)."""

    def __init__(self):
        self.ctx = {}
        self.solution = {}
        self.wall_s = {}
        for name in FIXTURE_NAMES + ("count_taut",):
            extras = [EXTRA_Q[name]] if name in EXTRA_Q else []
            ctx = make_context(fixture_source(name), name, extra_q=extras)
            self.ctx[name] = ctx
            t0 = time.monotonic()
            out = synthesize(ctx)
            self.wall_s[name] = time.monotonic() - t0
            self.solution[name] = out

    def close(self):
        for ctx in self.ctx.values():
            ctx.session.close()


@pytest.fixture(scope="session")
def bank():
    """Every fixture synthesized once for the whole run; tests read it and
    write nothing to it."""
    b = _Bank()
    yield b
    b.close()


def atom_index(universe, text: str) -> int:
    from pushdown_synth.pretty import fmt_expr

    for atom in universe:
        if fmt_expr(atom.expr) == text or fmt_expr(atom.display) == text:
            return atom.index
    raise KeyError(
        f"{text!r} not among " + ", ".join(fmt_expr(a.expr) for a in universe)
    )
