"""SMT-LIB 2 solver sessions: validity and model queries.

Two backends subclass one session base, ``Session``. ``SolverSession`` drives
an external solver subprocess; every command is acknowledged under
:print-success, which gives reliable framing over the pipe.
``builtin.BuiltinSession`` decides the quantifier-free fragment in process.
Each validity check runs inside a push/pop frame, so session state is
query-invariant.
"""

from __future__ import annotations

import os
import select
import shutil
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional as Opt

from .values import NEG_INF, NONE, Some, Value


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


def parse_sexp(text: str):
    tokens = _tokenize_sexp(text)
    pos = 0

    def read():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            out = []
            while tokens[pos] != ")":
                out.append(read())
            pos += 1
            return out
        return tok

    out = []
    while pos < len(tokens):
        out.append(read())
    return out


def _tokenize_sexp(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append(c)
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            tokens.append(text[i : j + 1])
            i = j + 1
        elif c == "|":
            j = i + 1
            while j < n and text[j] != "|":
                j += 1
            tokens.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


# ---------------------------------------------------------------------------
# sort descriptors for model decoding


@dataclass(frozen=True)
class SortDesc:
    kind: str  # int real bool float str opt tuple list
    inner: tuple = ()
    labels: tuple = ()  # str: known labels (constructor order), then spares


INT_SORT = SortDesc("int")
REAL_SORT = SortDesc("real")
BOOL_SORT = SortDesc("bool")
FLOAT_SORT = SortDesc("float")  # two-constructor sentinel encoding


@dataclass
class Model:
    assignment: dict  # var name -> Value
    raw: str = ""

    def __getitem__(self, name):
        return self.assignment[name]

    def get(self, name, default=None):
        return self.assignment.get(name, default)


@dataclass
class QueryResult:
    status: str  # valid | invalid | unknown
    model: Opt[Model] = None
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


def _decode_number(sx) -> Fraction:
    if isinstance(sx, str):
        return Fraction(sx)
    if sx and sx[0] == "-":
        return -_decode_number(sx[1])
    if sx and sx[0] == "/":
        return _decode_number(sx[1]) / _decode_number(sx[2])
    if sx and sx[0] == "to_real":
        return _decode_number(sx[1])
    raise SolverError(f"cannot decode numeral {sx!r}")


def decode_value(sx, sort: SortDesc) -> Value:
    if sort.kind == "bool":
        return sx == "true"
    if sort.kind == "int":
        return int(_decode_number(sx))
    if sort.kind == "real":
        return Fraction(_decode_number(sx))
    if sort.kind == "float":
        if sx == "NegInf" or (isinstance(sx, list) and sx and sx[0] == "NegInf"):
            return NEG_INF
        if isinstance(sx, list) and sx and sx[0] == "Fin":
            return Fraction(_decode_number(sx[1]))
        # bare numerals show up when the solver simplifies
        return Fraction(_decode_number(sx))
    if sort.kind == "str":
        name = sx if isinstance(sx, str) else sx[0]
        for ctor, label in sort.labels:
            if ctor == name:
                return label
        return f"⟨{name}⟩"  # spare element: distinct from all labels
    if sort.kind == "opt":
        if isinstance(sx, str):
            return NONE
        if sx and str(sx[0]).startswith("Some"):
            return Some(decode_value(sx[1], sort.inner[0]))
        return NONE
    if sort.kind == "tuple":
        if not isinstance(sx, list):
            raise SolverError(f"expected constructor application, got {sx!r}")
        args = sx[1:]
        return tuple(
            decode_value(a, s) for a, s in zip(args, sort.inner)
        )
    if sort.kind == "list":
        out = []
        node = sx
        while isinstance(node, list) and node and str(node[0]).startswith("cons"):
            out.append(decode_value(node[1], sort.inner[0]))
            node = node[2]
        return out
    raise SolverError(f"unknown sort {sort!r}")


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
    """What both backends share: the transcript, the sorts of declared
    constants, model decoding and validity checks. A backend supplies
    ``declare``, ``set_option``, ``push``, ``pop``, ``assert_``,
    ``check_sat`` (returning sat, unsat or unknown), ``reason_unknown``,
    ``_model_sexps`` and ``close``. A session neither counts nor limits
    its checks; a synthesis run does that for its own queries. The
    transcript is appended to, so one file can hold the sessions of several
    tasks."""

    backend = ""

    def __init__(self, config: SolverConfig):
        self.config = config
        self.poisoned = False
        self._log = open(config.log_path, "a") if config.log_path else None
        self._var_sorts = {}

    def _write(self, line: str):
        if self._log:
            self._log.write(line + "\n")
            self._log.flush()

    def declare_const(self, name: str, sort_text: str, sort_desc: SortDesc):
        self.declare(f"(declare-const {name} {sort_text})")
        self._var_sorts[name] = sort_desc

    def get_model(self, names) -> Model:
        """The values of ``names``, decoded from the backend's
        ``{name: value s-expression}`` map of the last sat check."""
        sexps, raw = self._model_sexps(names)
        assignment = {name: decode_value(sexps[name], self._var_sorts[name])
                      for name in names
                      if name in sexps and name in self._var_sorts}
        missing = [n for n in names if n not in assignment]
        if missing:
            raise SolverError(f"model lacks assignments for {missing}")
        return Model(assignment=assignment, raw=raw)

    def check_valid(self, formula, model_names=()) -> QueryResult:
        """Valid iff the negation is unsatisfiable; Invalid carries a model."""
        if self.poisoned:
            raise SolverCrashed("session is poisoned; restart required")
        self.push()
        try:
            self.assert_(["not", formula])
            status = self.check_sat()
            if status == "unsat":
                return QueryResult("valid")
            if status == "sat":
                model = self.get_model(list(model_names))
                return QueryResult("invalid", model=model)
            reason = self.reason_unknown()
            kind = "timeout" if "timeout" in reason or "canceled" in reason \
                else "incomplete"
            return QueryResult("unknown", reason=kind)
        finally:
            if not self.poisoned:
                self.pop()

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
        try:
            self.proc = subprocess.Popen(
                args,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
            )
        except OSError as exc:
            raise SolverError(f"cannot spawn solver {path!r}: {exc}")
        super().__init__(config)
        self._rbuf = b""
        try:
            self.command("(set-option :print-success true)")
        except SolverError:
            raise SolverError("solver handshake failed (print-success)")
        self.command(f"(set-option :timeout {config.timeout_ms})")
        self.command("(set-option :produce-models true)")

    # -- low-level I/O

    def _send(self, line: str):
        self._write(line)
        if self.proc.stdin is None or self.proc.poll() is not None:
            self.poisoned = True
            raise SolverCrashed("solver process is gone")
        try:
            self.proc.stdin.write((line + "\n").encode())
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError):
            self.poisoned = True
            raise SolverCrashed("solver pipe broken")

    def _scan_complete(self):
        """Pop one complete response (balanced parens or a bare line)."""
        text = self._rbuf.decode(errors="replace")
        depth = 0
        in_str = False
        for i, ch in enumerate(text):
            if ch == '"':
                in_str = not in_str
            if in_str:
                continue
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    self._rbuf = text[i + 1 :].lstrip().encode()
                    return text[: i + 1].strip()
            elif ch == "\n" and depth == 0 and text[:i].strip():
                self._rbuf = text[i + 1 :].encode()
                return text[:i].strip()
        return None

    def _read_response(self, deadline: float) -> str:
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

    def _deadline(self, extra_ms: int = 0) -> float:
        wait = (self.config.timeout_ms + extra_ms) / 1000.0 * 3 + 10.0
        return time.monotonic() + wait

    def command(self, line: str, expect_success: bool = True) -> str:
        self._send(line)
        resp = self._read_response(self._deadline())
        self._write(f"; -> {resp}")
        if expect_success and resp != "success":
            if resp.startswith("(error"):
                raise SolverError(f"solver error for {line!r}: {resp}")
            raise SolverError(f"unexpected response {resp!r} to {line!r}")
        return resp

    # -- session operations

    def declare(self, text):
        self.command(text if isinstance(text, str) else sexp_str(text))

    def set_option(self, name: str, value: str):
        self.command(f"(set-option :{name} {value})")

    def push(self):
        self.command("(push 1)")

    def pop(self):
        self.command("(pop 1)")

    def assert_(self, formula):
        self.command(f"(assert {sexp_str(formula)})")

    def check_sat(self) -> str:
        self._send("(check-sat)")
        resp = self._read_response(self._deadline())
        self._write(f"; -> {resp}")
        if resp not in ("sat", "unsat", "unknown"):
            self.poisoned = True
            raise SolverCrashed(f"unexpected check-sat response {resp!r}")
        return resp

    def reason_unknown(self) -> str:
        self._send("(get-info :reason-unknown)")
        return self._read_response(self._deadline())

    def model_text(self) -> str:
        """The solver's raw (get-model) response."""
        self._send("(get-model)")
        resp = self._read_response(self._deadline())
        self._write(f"; -> {resp}")
        if resp.startswith("(error"):
            raise SolverError(f"get-model failed: {resp}")
        return resp

    def _model_sexps(self, names):
        resp = self.model_text()
        parsed = parse_sexp(resp)[0]
        if parsed and parsed[0] == "model":
            parsed = parsed[1:]
        return {entry[1]: entry[4] for entry in parsed
                if isinstance(entry, list) and entry
                and entry[0] == "define-fun" and entry[2] == []}, resp

    def close(self):
        try:
            if self.proc.poll() is None:
                self._send("(exit)")
        except SolverError:
            pass
        try:
            self.proc.kill()
        except OSError:
            pass
        super().close()


def start_session(config: SolverConfig):
    if session_backend(config.solver_path) == BUILTIN:
        from .builtin import BuiltinSession

        return BuiltinSession(config)
    return SolverSession(config)
