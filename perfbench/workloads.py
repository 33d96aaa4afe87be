"""The three solver-free workloads and the checks on their outputs.

A workload builds its inputs in `setup`, hands the runner one round of ops
(`ops`, a list of `(kind, fn)`; every kind once), checks each op's output in
`check`, and names the layer boundaries a traced round wraps in `trace`.
`check` runs outside the op's timed region and returns None or the reason
the op failed.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from pathlib import Path
from time import perf_counter

from pushdown_synth import analysis, cli, encode, fuzz, interp, parser
from pushdown_synth import typecheck as typecheck_mod
from pushdown_synth.pretty import fmt_expr
from pushdown_synth.smt import sexp_str

from .tasks import generate_frame, generate_tasks

FIXTURES = Path("src", "pushdown_synth", "fixtures")
REFERENCE = Path(__file__).with_name("reference.json")

DIFF_TRIALS = 10000
PIPELINE_ROWS = 10000


def load_reference():
    return json.loads(REFERENCE.read_text())


def universe_texts(universes, sizes=None, field="expr"):
    """[(role, text)] of every atom, in order; `sizes` cuts each universe to
    the atoms it had when built (later `Universe.add` calls append)."""
    roles = (("q", universes.u_q), ("residual", universes.u_residual),
             ("psi", universes.u_psi))
    sizes = sizes or universes.sizes()
    return [(role, fmt_expr(getattr(atom, field)))
            for (role, u), n in zip(roles, sizes) for atom in u.atoms[:n]]


def universe_digest(universes, sizes=None):
    h = hashlib.sha256()
    for role, text in universe_texts(universes, sizes):
        h.update(f"{role}:{text}\n".encode())
    return h.hexdigest()


class UniverseCheck:
    """Digest check of built universes, plus the display-instability count.

    A task's digest comes from the reference answers when it has one and is
    recorded at its first build otherwise. Display texts are compared with
    the first build of the same task: `analysis._fresh_binder` numbers match
    binders per process, so repeats print `v5` where the first build said
    `v1`. That is a known defect, counted here and not treated as a failure.
    """

    def __init__(self, reference_digests):
        self.digests = dict(reference_digests)
        self.first_display = {}
        self.unstable_atoms = 0

    def __call__(self, name, universes, sizes=None):
        sizes = sizes or universes.sizes()
        digest = universe_digest(universes, sizes)
        expected = self.digests.setdefault(name, digest)
        display = [t for _, t in universe_texts(universes, sizes, "display")]
        first = self.first_display.setdefault(name, display)
        self.unstable_atoms += sum(a != b for a, b in zip(first, display))
        if digest != expected:
            return f"{name}: universe digest {digest[:12]} != {expected[:12]}"
        return None


class DeclarationSink:
    """Stands in for the solver session: records the declarations
    `encode.TaskContext` sends and launches no solver."""

    def __init__(self):
        self.decls = 0
        self.bytes = 0

    def declare(self, text):
        text = text if isinstance(text, str) else sexp_str(text)
        self.decls += 1
        self.bytes += len(text.encode())

    def declare_const(self, name, sort_text, sort_desc):
        self.declare(f"(declare-const {name} {sort_text})")


# -- counters for traced rounds: count(counts, args, result)

def _count_universes(counts, args, universes):
    for key, n in zip(("analysis.u_q_atoms", "analysis.u_residual_atoms",
                       "analysis.u_psi_atoms"), universes.sizes()):
        counts[key] += n


def _count_context(counts, args, ctx):
    counts["encode.smt_bytes"] += ctx.session.bytes


def _count_sampled(counts, args, frame):
    counts["fuzz.rows_sampled"] += len(frame)


def _count_fold(counts, args, result):
    counts["interp.fold_rows"] += len(args[1])


def _trace_analysis(tracer):
    """Spans inside `build_universes`, which calls these module globals."""
    tracer.patch(analysis, "infer_dep_info", "analysis.dep")
    tracer.patch(analysis, "build_universe_q", "analysis.u_q")
    tracer.patch(analysis, "build_universe_residual", "analysis.u_residual")
    tracer.patch(analysis, "build_universe_invariant", "analysis.u_psi")
    tracer.count_deepcopy(analysis, "analysis.deepcopy_calls")


class Workload:
    name = ""

    def __init__(self, root, seed, reference=None):
        self.root = Path(root)
        self.seed = seed
        self.reference = reference if reference is not None else load_reference()
        self.unstable_atoms = 0
        self.work_dir = None

    def setup(self):
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def check(self, kind, output):
        raise NotImplementedError

    def work(self, kind, output):
        """Counts of the op's own unit of work (trials, rows, ...)."""
        return {}

    def trace(self, tracer):
        raise NotImplementedError

    def close(self):
        self._remove_work_dir()

    def _new_work_dir(self):
        """A fresh scratch directory inside the checkout."""
        self._remove_work_dir()
        self.work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-",
                                              dir=self.root))

    def _remove_work_dir(self):
        if self.work_dir is not None:
            shutil.rmtree(self.work_dir, ignore_errors=True)
            self.work_dir = None

    def _fixture(self, name):
        return self.root / FIXTURES / f"{name}.pdsl"


class CompileWorkload(Workload):
    """What `synth` does before its first solver query, per task: parse,
    typecheck, build the universes and encode them into a declaration sink."""

    name = "compile"

    def __init__(self, root, seed, reference=None, names=None):
        super().__init__(root, seed, reference)
        self.names = names

    def setup(self):
        fixtures = self.reference["fixtures"]
        self._new_work_dir()
        paths = {name: self._fixture(name) for name in fixtures}
        for name, source in generate_tasks(self.seed):
            paths[name] = self.work_dir / f"{name}.pdsl"
            paths[name].write_text(source)
        if self.names is not None:
            paths = {n: p for n, p in paths.items() if n in self.names}
        self.paths = paths
        self.checker = UniverseCheck(
            {n: fixtures[n]["digest"] for n in fixtures})
        # warm-up: one op on a small fixture, checked against its digest
        warm = self._op("top2", self._fixture("top2"))()
        reason = UniverseCheck({"top2": fixtures["top2"]["digest"]})(
            "top2", warm[0])
        if reason:
            raise RuntimeError(f"warm-up failed: {reason}")

    @staticmethod
    def _op(name, path):
        def op():
            task = typecheck_mod.typecheck(
                parser.parse(path.read_text()), name=name)
            universes = analysis.build_universes(task)
            sink = DeclarationSink()
            encode.TaskContext(task, universes, sink)
            return universes, sink
        return op

    def ops(self):
        return [(name, self._op(name, path)) for name, path in self.paths.items()]

    def check(self, kind, output):
        universes, sink = output
        reason = self.checker(kind, universes)
        self.unstable_atoms = self.checker.unstable_atoms
        if reason is None and sink.decls == 0:
            reason = f"{kind}: no declarations encoded"
        return reason

    def trace(self, tracer):
        tracer.patch(parser, "parse", "parser.parse")
        tracer.patch(typecheck_mod, "typecheck", "typecheck.typecheck")
        tracer.patch(analysis, "build_universes", "analysis.build_universes",
                     _count_universes)
        _trace_analysis(tracer)
        tracer.patch(encode, "TaskContext", "encode.context", _count_context)


class DiffWorkload(Workload):
    """The real `pushdown-synth diff` command, in process, on the reference
    triples, one of them known to be wrong."""

    name = "diff"

    def __init__(self, root, seed, reference=None, names=None,
                 trials=DIFF_TRIALS):
        super().__init__(root, seed, reference)
        self.names = names
        self.trials = trials
        self._built = []  # (universes, sizes) captured from cli
        self._original_build = cli.build_universes

        def capture(task):
            universes = self._original_build(task)
            self._built.append((universes, universes.sizes()))
            return universes

        cli.build_universes = capture

    def setup(self):
        self._new_work_dir()
        triples = self.reference["triples"]
        names = [n for n in triples if self.names is None or n in self.names]
        self.cases = []
        for i, name in enumerate(names):
            spec = triples[name]
            path = self.work_dir / f"{name}.json"
            path.write_text(json.dumps({"q": spec["q"],
                                        "residual": spec["residual"]}))
            self.cases.append((name, spec, path, str(self.seed * 100 + i)))
        self.checker = UniverseCheck({
            name: self.reference["fixtures"][spec["fixture"]]["digest"]
            for name, spec, _, _ in self.cases})
        self.mismatches = {}
        # warm-up: a short run of the first triple
        name, spec, path, seed = self.cases[0]
        self._built.clear()
        code = cli.run(self._argv(spec, path, seed, 100, "warm"))
        if code not in (0, 1) or not self._built:
            raise RuntimeError(f"warm-up diff on {name} exited {code}")

    def _argv(self, spec, path, seed, trials, out):
        return ["diff", "--triple", str(path),
                str(self._fixture(spec["fixture"])),
                "--trials", str(trials), "--seed", seed,
                "--out", str(self.work_dir / f"{out}.ndjson")]

    def ops(self):
        def make(name, spec, path, seed):
            argv = self._argv(spec, path, seed, self.trials, name)
            def op():
                self._built.clear()
                return cli.run(argv)
            return op
        return [(case[0], make(*case)) for case in self.cases]

    def check(self, kind, code):
        spec = self.reference["triples"][kind]
        solved = spec["verdict"] == "solved"
        out = self.work_dir / f"{kind}.ndjson"
        records = [json.loads(line) for line in out.read_text().splitlines()]
        if len(records) != 1:
            return f"{kind}: {len(records)} records"
        record = records[0]
        if code != (0 if solved else 1) or record["status"] != spec["verdict"]:
            return f"{kind}: exit {code}, status {record['status']}"
        report = record["diff"]
        if report["trials"] != self.trials or \
                (report["mismatches"] == 0) != solved:
            return f"{kind}: {report['mismatches']} mismatches"
        first = self.mismatches.setdefault(kind, report["mismatches"])
        if first != report["mismatches"]:
            return f"{kind}: mismatches {report['mismatches']} != {first}"
        if len(self._built) != 1:
            return f"{kind}: universes built {len(self._built)} times"
        universes, sizes = self._built[0]
        reason = self.checker(kind, universes, sizes)
        self.unstable_atoms = self.checker.unstable_atoms
        return reason

    def work(self, kind, code):
        return {"trials": self.trials}

    def trace(self, tracer):
        tracer.patch(cli, "run", "cli.run")
        tracer.patch(cli, "parse", "parser.parse")
        tracer.patch(cli, "typecheck", "typecheck.typecheck")
        tracer.patch(cli, "build_universes", "analysis.build_universes",
                     _count_universes)
        _trace_analysis(tracer)
        tracer.patch(cli, "differential_check", "fuzz.differential_check")
        tracer.patch(fuzz, "column_pools", "fuzz.pools")
        tracer.patch(fuzz, "sample_dataframe", "fuzz.sample", _count_sampled)
        tracer.patch(fuzz, "eval_fold", "interp.eval_fold", _count_fold)
        tracer.patch(fuzz, "filter_rows", "interp.filter_rows")
        tracer.patch(fuzz, "lift_eval", "interp.lift_eval")

    def close(self):
        super().close()
        cli.build_universes = self._original_build


def rewritten_source(source, q, residual):
    """The reference rewritten pipeline, as `rewrite.emit_rewritten` shapes
    it: the pre-filter before the fold, the residual as the post-filter."""
    head = source[:source.index("out = filter(")]
    if q:
        pre = " and ".join(f"({text})" for text in q)
        head = head.replace("agg = fold(df,",
                            f"kept = filter(df, lambda r: {pre})\n"
                            "agg = fold(kept,", 1)
    if not residual:
        return head
    post = " and ".join(f"({text})" for text in residual)
    return head + f"out = filter(agg, lambda a: {post})\n"


class PipelineWorkload(Workload):
    """The original and the reference rewritten pipeline on one long seeded
    frame per fixture, through `interp`."""

    name = "pipeline"

    def __init__(self, root, seed, reference=None, names=None,
                 rows=PIPELINE_ROWS):
        super().__init__(root, seed, reference)
        self.names = names
        self.rows = rows

    def setup(self):
        rng = random.Random(self.seed)
        self.cases = []
        for name, spec in self.reference["triples"].items():
            # the solved triples that push a pre-filter down
            if spec["verdict"] != "solved" or not spec["q"] or \
                    (self.names is not None and name not in self.names):
                continue
            source = self._fixture(spec["fixture"]).read_text()
            original = typecheck_mod.typecheck(parser.parse(source), name=name)
            rewritten = typecheck_mod.typecheck(parser.parse(
                rewritten_source(source, spec["q"], spec["residual"])),
                name=f"{name}_rewritten")
            frame = generate_frame(rng, spec["fixture"], self.rows)
            self.cases.append((name, original, rewritten, frame))
        self.results = {}
        # warm-up: both pipelines on a short prefix of the first frame
        _, original, rewritten, frame = self.cases[0]
        if interp.run_pipeline(original, frame[:100]) != \
                interp.run_pipeline(rewritten, frame[:100]):
            raise RuntimeError("warm-up pipelines disagree")

    def ops(self):
        def make(original, rewritten, frame):
            def op():
                t0 = perf_counter()
                lhs = interp.run_pipeline(original, frame)
                t1 = perf_counter()
                rhs = interp.run_pipeline(rewritten, frame)
                t2 = perf_counter()
                return lhs, rhs, t1 - t0, t2 - t1
            return op
        return [(case[0], make(*case[1:])) for case in self.cases]

    def check(self, kind, output):
        lhs, rhs, _, _ = output
        if lhs != rhs:
            return f"{kind}: original {lhs} != rewritten {rhs}"
        first = self.results.setdefault(kind, lhs)
        if first != lhs:
            return f"{kind}: result {lhs} != first run {first}"
        return None

    def work(self, kind, output):
        return {"rows": self.rows, "original_s": output[2],
                "rewritten_s": output[3]}

    def trace(self, tracer):
        tracer.patch(interp, "run_pipeline", "interp.run_pipeline")
        tracer.patch(interp, "filter_rows", "interp.filter_rows")
        tracer.patch(interp, "eval_fold", "interp.eval_fold", _count_fold)
        tracer.patch(interp, "lift_eval", "interp.lift_eval")


WORKLOADS = {w.name: w for w in (CompileWorkload, DiffWorkload,
                                 PipelineWorkload)}
