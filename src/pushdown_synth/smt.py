"""SMT-LIB 2 solver sessions: validity and model queries over s-expressions.

It carries s-expressions and SMT-LIB numerals only: each declared constant
comes with the decoder that reads its model term (``encode`` supplies them).
Two backends subclass one session base, ``Session``, and supply
``declare`` (at session level), ``close`` and one query primitive,
``_query``. ``SolverSession`` drives an external solver subprocess; every
command is acknowledged under :print-success, which gives reliable framing
over the pipe. ``builtin.BuiltinSession`` decides the quantifier-free
fragment in process. Other modules query through ``Session.check`` (or
``check_valid`` over it). A query's declarations and assertions end with
it, so session state is query-invariant. Both backends write a query to
the transcript in the same order: a push, the declarations and asserts,
``(check-sat)`` and its answer, the model on sat or ``(get-info
:reason-unknown)`` and the reason on unknown, then the pop.
"""

from __future__ import annotations

import contextlib
import os
import re
import select
import shutil
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional as Opt


class SolverError(Exception):
    pass


class SolverCrashed(SolverError):
    pass


# ---------------------------------------------------------------------------
# s-expressions: str atoms or nested lists


def sexp_str(s) -> str:
    if isinstance(s, str):
        return s
    return "(" + " ".join(sexp_str(x) for x in s) + ")"


# one SMT-LIB token (group 1): a parenthesis, a "string", a |quoted symbol|
# or an atom; or a `;` comment, which is no token. A string or quoted symbol
# left open runs to the end of the text.
_SEXP_TOKEN = re.compile(r';[^\n]*|([()]|"[^"]*"?|\|[^|]*\|?|[^\s();]+)')


def parse_sexp(text: str):
    """The s-expressions of `text`; raises SolverError when its parentheses
    do not balance."""
    stack = [[]]
    for tok in _SEXP_TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")" and len(stack) > 1:
            sx = stack.pop()
            stack[-1].append(sx)
        elif tok == ")":
            raise SolverError("unbalanced ')' in s-expression")
        elif tok:
            stack[-1].append(tok)
    if len(stack) > 1:
        raise SolverError("unclosed '(' in s-expression")
    return stack[0]


@dataclass
class QueryResult:
    status: str  # valid | invalid | unknown; from `check`: sat | unsat | unknown
    model: Opt[dict] = None  # name -> decoded value
    reason: str = ""

    @property
    def is_valid(self):
        return self.status == "valid"

    @property
    def is_invalid(self):
        return self.status == "invalid"

    @property
    def is_unknown(self):
        return self.status == "unknown"


def decode_number(sx) -> Fraction:
    """The rational an SMT-LIB numeral term denotes: a decimal, ``(- x)``,
    ``(/ x y)`` or ``(to_real x)``."""
    if isinstance(sx, str):
        try:
            return Fraction(sx)
        except ValueError:
            raise SolverError(f"cannot decode numeral {sx!r}") from None
    if sx and sx[0] == "-":
        return -decode_number(sx[1])
    if sx and sx[0] == "/":
        return decode_number(sx[1]) / decode_number(sx[2])
    if sx and sx[0] == "to_real":
        return decode_number(sx[1])
    raise SolverError(f"cannot decode numeral {sx!r}")


BUILTIN = "builtin"


def session_backend(explicit: Opt[str] = None) -> str:
    """The backend ``start_session`` runs: the solver named by --solver or
    $PUSHDOWN_SYNTH_SOLVER, else z3 on PATH, else ``builtin``. ``builtin``
    may also be named; a named path is never replaced by another backend."""
    return (explicit or os.environ.get("PUSHDOWN_SYNTH_SOLVER")
            or shutil.which("z3") or BUILTIN)


def find_solver(explicit: Opt[str] = None) -> str:
    """Path of the external solver ``session_backend`` picks; raises
    SolverError when it picks none."""
    path = session_backend(explicit)
    runnable = os.path.isfile(path) and os.access(path, os.X_OK)
    if path == BUILTIN or not runnable:
        raise SolverError(
            "no SMT solver found: pass --solver, set PUSHDOWN_SYNTH_SOLVER, "
            "or put z3 on PATH"
        )
    return path


@dataclass
class SolverConfig:
    solver_path: Opt[str] = None
    timeout_ms: int = 30000
    random_seed: int = 0
    log_path: Opt[str] = None


class Session:
    """What both backends share: the transcript, a decoder per declared
    constant, and ``check`` with ``check_valid`` over it. A backend
    supplies ``declare``, ``close`` and the query primitive
    ``_query(declarations, assertions, model_names)``, which returns the
    status (sat, unsat or unknown) and its detail: on sat ``{name: value
    s-expression}`` (a function's value being its body), on unknown the
    plain reason, on unsat None. A session neither counts nor limits its
    checks; a synthesis run does that for its own queries. The transcript
    is appended to, so one file can hold the sessions of several tasks."""

    backend = ""

    def __init__(self, config: SolverConfig):
        self.config = config
        self.poisoned = False
        self._log = open(config.log_path, "a") if config.log_path else None
        self._decoders = {}

    def _write(self, line: str):
        if self._log:
            self._log.write(line + "\n")
            self._log.flush()

    def declare_const(self, name: str, sort_text: str, decode):
        """Declare ``name``; ``decode`` turns its model term into a value."""
        self.declare(f"(declare-const {name} {sort_text})")
        self._decoders[name] = decode

    def check(self, assertions, declarations=(), model_names=()) -> QueryResult:
        """One query: ``declarations`` and ``assertions`` hold for it alone.
        A sat result carries the decoded values of ``model_names``: a name
        declared with ``declare_const`` by its decoder, any other (a
        ``declarations`` entry) as its SMT-LIB text. An unknown one carries
        the solver's reason."""
        if self.poisoned:
            raise SolverCrashed("session is poisoned; restart required")
        status, detail = self._query(declarations, assertions, model_names)
        if status != "sat":  # an unknown's detail is its reason
            return QueryResult(status, reason=detail or "")
        missing = [n for n in model_names if n not in detail]
        if missing:
            raise SolverError(f"model lacks assignments for {missing}")
        return QueryResult(status, model={
            n: self._decoders.get(n, sexp_str)(detail[n]) for n in model_names})

    def check_valid(self, formula, model_names=()) -> QueryResult:
        """Valid iff the negation is unsatisfiable; Invalid carries a model."""
        res = self.check([["not", formula]], model_names=model_names)
        if res.status == "unsat":
            return QueryResult("valid")
        if res.status == "sat":
            return QueryResult("invalid", model=res.model)
        kind = "timeout" if "timeout" in res.reason \
            or "canceled" in res.reason else "incomplete"
        return QueryResult("unknown", reason=kind)

    def close(self):
        if self._log:
            self._log.close()
            self._log = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class SolverSession(Session):
    """Single-owner session over one solver subprocess."""

    backend = "subprocess"

    def __init__(self, config: SolverConfig):
        path = find_solver(config.solver_path)
        args = [path, "-in", f"smt.random_seed={config.random_seed}"]
        super().__init__(config)
        self._rbuf = b""
        try:
            self.proc = subprocess.Popen(
                args,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
            )
        except OSError as exc:
            super().close()
            raise SolverError(f"cannot spawn solver {path!r}: {exc}")
        try:
            try:
                self.command("(set-option :print-success true)")
            except SolverError:
                raise SolverError("solver handshake failed (print-success)")
            self.command(f"(set-option :timeout {config.timeout_ms})")
            self.command("(set-option :produce-models true)")
            # model-based quantifier instantiation decides the bounded
            # screen's second-order query, and e-matching only gets in its
            # way; every other query is quantifier-free, which neither
            # option affects
            self.command("(set-option :smt.mbqi true)")
            self.command("(set-option :smt.ematching false)")
        except BaseException:
            self.close()  # reaps the process, closes its pipes and the log
            raise

    # -- low-level I/O

    def _send(self, line: str):
        self._write(line)
        if self.proc.stdin is None or self.proc.poll() is not None:
            self.poisoned = True
            raise SolverCrashed("solver process is gone")
        try:
            self.proc.stdin.write((line + "\n").encode())
            self.proc.stdin.flush()
        except OSError:
            self.poisoned = True
            raise SolverCrashed("solver pipe broken")

    def _scan_complete(self):
        """Pop one complete response (balanced parens or a bare line)."""
        text = self._rbuf.decode(errors="replace")
        depth = 0
        for m in _SEXP_TOKEN.finditer(text):
            tok = m.group(1)
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
                if depth == 0:
                    self._rbuf = text[m.end():].lstrip().encode()
                    return text[: m.end()].strip()
            elif tok and depth == 0:
                end = text.find("\n", m.end())
                if end < 0:
                    return None
                self._rbuf = text[end + 1:].encode()
                return text[:end].strip()
        return None

    def _read_response(self) -> str:
        """The next response, waited for up to three timeouts plus 10 s."""
        deadline = time.monotonic() + self.config.timeout_ms / 1000 * 3 + 10
        fd = self.proc.stdout.fileno()
        while True:
            complete = self._scan_complete()
            if complete is not None:
                return complete
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.poisoned = True
                self.proc.kill()
                raise SolverCrashed("solver unresponsive past deadline")
            ready, _, _ = select.select([fd], [], [], min(remaining, 1.0))
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                self.poisoned = True
                raise SolverCrashed("solver closed its output")
            self._rbuf += chunk

    def _ask(self, line: str) -> str:
        """Send ``line``; its response, noted in the transcript."""
        self._send(line)
        resp = self._read_response()
        self._write(f"; -> {resp}")
        return resp

    def command(self, line: str):
        resp = self._ask(line)
        if resp.startswith("(error"):
            raise SolverError(f"solver error for {line!r}: {resp}")
        if resp != "success":
            raise SolverError(f"unexpected response {resp!r} to {line!r}")

    # -- session operations

    def declare(self, text: str):
        self.command(text)

    def _query(self, declarations, assertions, model_names):
        self.command("(push 1)")
        try:
            for text in declarations:
                self.command(text)
            for formula in assertions:
                self.command(f"(assert {sexp_str(formula)})")
            status = self._ask("(check-sat)")
            if status not in ("sat", "unsat", "unknown"):
                self.poisoned = True
                raise SolverCrashed(f"unexpected check-sat response {status!r}")
            if status == "unknown":
                # z3 replies (:reason-unknown "..."); keep the reason inside
                resp = self._ask("(get-info :reason-unknown)")
                m = re.fullmatch(r'\(:reason-unknown\s+"?(.*?)"?\)', resp, re.S)
                return status, m.group(1) if m else resp
            if status == "unsat":
                return status, None
            resp = self._ask("(get-model)")
            if resp.startswith("(error"):
                raise SolverError(f"get-model failed: {resp}")
            parsed = parse_sexp(resp)[0]
            if parsed and parsed[0] == "model":
                parsed = parsed[1:]
            return status, {entry[1]: entry[4] for entry in parsed
                            if isinstance(entry, list) and entry
                            and entry[0] == "define-fun"}
        finally:
            if not self.poisoned:
                self.command("(pop 1)")

    def close(self):
        with contextlib.suppress(SolverError):
            if self.proc.poll() is None:
                self._send("(exit)")
        with contextlib.suppress(OSError):  # bytes a broken pipe refused
            self.proc.stdin.close()
        with self.proc:  # on leaving, the pipes are closed and the process reaped
            self.proc.kill()  # a no-op once the process is reaped
        super().close()


def start_session(config: SolverConfig):
    if session_backend(config.solver_path) == BUILTIN:
        from .builtin import BuiltinSession

        return BuiltinSession(config)
    return SolverSession(config)
