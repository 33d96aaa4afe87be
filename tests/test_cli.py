"""Command-line behavior: subcommands, exit codes, record schema."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pushdown_synth import cli, interp
from pushdown_synth.analysis import build_universes
from pushdown_synth.builtin import BuiltinSession
from pushdown_synth.cli import run
from pushdown_synth.fuzz import column_pools, sample_dataframe
from pushdown_synth.interp import run_pipeline
from pushdown_synth.parser import parse
from pushdown_synth.schema import SchemaError, validate_record
from pushdown_synth.smt import QueryResult
from pushdown_synth.typecheck import typecheck
from pushdown_synth.values import EvalError

from conftest import FIXTURES, fixture_source, requires_z3


def fixture_path(name):
    return str(FIXTURES / f"{name}.pdsl")


def read_records(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def untimed(path):
    """The records of `path` as JSON text without `stats.wall_ms`, the one
    field that differs between two runs of a command."""
    records = read_records(path)
    for record in records:
        del record["stats"]["wall_ms"]
    return [json.dumps(record) for record in records]


def reference_triples():
    return json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                       / "reference.json").read_text())["triples"]


def triple_file(tmp_path, kind, spec):
    """The file of a reference triple's `q` and `residual`."""
    tfile = tmp_path / f"{kind}.json"
    tfile.write_text(json.dumps({"q": spec["q"],
                                 "residual": spec["residual"]}))
    return tfile


def test_synth_top2(tmp_path):
    out = tmp_path / "records.json"
    code = run([
        "synth", "--trials", "300", "--out", str(out), fixture_path("top2"),
    ])
    assert code == 0
    records = read_records(out)
    assert len(records) == 1
    rec = records[0]
    validate_record(rec)
    assert rec["status"] == "solved"
    assert rec["mode"] == "split"
    assert rec["q_atoms"] == ["r[0] > 90.0"]
    assert rec["residual_atoms"] == ["not a[1] == (-inf)"]
    assert rec["diff"]["mismatches"] == 0
    assert "kept = filter(df" in rec["rewritten"]


def test_synth_failure_exit_code(tmp_path):
    out = tmp_path / "records.json"
    code = run([
        "synth", "--out", str(out), fixture_path("count_taut"),
    ])
    assert code == 1
    rec = read_records(out)[0]
    assert rec["status"] == "fail"


UNKNOWN_STEP_NOTES = {
    "discount": "unknown on a must-keep atom (Sync)",
    "frequent": "unknown on a must-keep atom (Sync)",
    # top2's lower bound is empty: every atom is dropped on an unknown
    "top2": "unknown on a dropped atom (Sync)",
}


@pytest.mark.parametrize("name", sorted(UNKNOWN_STEP_NOTES))
def test_unknown_step_answers_give_an_inconclusive_record(
        tmp_path, monkeypatch, name):
    """Sync and Stutter queries (the ones with a model over a1, a2 and r)
    answer unknown, so atoms cannot be judged: the search notes each such
    unknown and ends inconclusive, neither in a traceback nor as a silent
    fail."""
    check_valid = BuiltinSession.check_valid

    def unknown_on_steps(self, formula, model_names=()):
        if len(model_names) == 3:
            return QueryResult("unknown", reason="incomplete")
        return check_valid(self, formula, model_names)

    monkeypatch.setattr(BuiltinSession, "check_valid", unknown_on_steps)
    out = tmp_path / "rec.json"
    code = run(["synth", "--solver", "builtin", "--out", str(out),
                fixture_path(name)])
    assert code == 1
    rec = read_records(out)[0]
    validate_record(rec)
    assert rec["status"] == "inconclusive"
    assert UNKNOWN_STEP_NOTES[name] in rec["stats"]["notes"]


# the paper's decomposition of top2
PAPER_TRIPLE = {
    "q": ["r[0] > 90.0"],
    "residual": ["not (a[1] == -inf)"],
    "psi": [
        "a1[0] <= 90.0 or a1[0] == a2[0]",
        "a2[0] <= 90.0 or a1[0] == a2[0]",
        "a1[1] <= 90.0 or a1[1] == a2[1]",
        "a2[1] <= 90.0 or a1[1] == a2[1]",
        "a2[0] == -inf or a2[0] > 90.0",
        "a2[1] == -inf or a2[1] > 90.0",
        "a2[1] <= 90.0 or a1[0] > 90.0",
    ],
}


def test_verify_paper_triple_and_corrupted(tmp_path):
    triple = PAPER_TRIPLE
    tfile = tmp_path / "triple.json"
    tfile.write_text(json.dumps(triple))
    out = tmp_path / "ok.json"
    code = run([
        "verify", "--triple", str(tfile), "--out", str(out),
        fixture_path("top2"),
    ])
    assert code == 0
    assert read_records(out)[0]["status"] == "solved"

    corrupted = dict(triple)
    corrupted["psi"] = triple["psi"][:4]  # drop necessary conjuncts
    tfile.write_text(json.dumps(corrupted))
    out2 = tmp_path / "bad.json"
    code = run([
        "verify", "--triple", str(tfile), "--out", str(out2),
        fixture_path("top2"),
    ])
    assert code == 1
    rec = read_records(out2)[0]
    assert rec["status"] == "fail"
    assert "failing VC" in rec["error"]


def test_verify_stops_at_the_first_false_invariant_atom(tmp_path):
    """Init reads the invariant's atoms in ascending order up to the first
    false one: `a1[0] + a2[0] > 0.0`, which raises on top2's initial pair of
    -inf, is never read, so the triple fails Init and makes no query."""
    tfile = tmp_path / "triple.json"
    tfile.write_text(json.dumps({
        "q": ["r[0] > 90.0"], "residual": ["a[0] > 90.0", "a[1] > 90.0"],
        "psi": ["a1[0] == 5.0", "a1[0] + a2[0] > 0.0"],
    }))
    out = tmp_path / "rec.json"
    assert run(["verify", "--solver", "builtin", "--triple", str(tfile),
                "--out", str(out), fixture_path("top2")]) == 1
    (rec,) = read_records(out)
    assert (rec["status"], rec["error"]) == ("fail", "failing VC: Init")
    assert rec["stats"]["solver_calls"] == 0


def test_verify_counts_the_witness_queries(tmp_path):
    """The triple that `synth` certifies on discount passes `verify` with
    three queries: Sync, Stutter and Final."""
    out = tmp_path / "synth.json"
    assert run(["synth", "--solver", "builtin", "--trials", "100",
                "--out", str(out), fixture_path("discount")]) == 0
    (solved,) = read_records(out)
    tfile = tmp_path / "triple.json"
    tfile.write_text(json.dumps({
        "q": solved["q_atoms"],
        "residual": solved["certified_residual_atoms"],
        "psi": solved["invariant_atoms"],
    }))
    out = tmp_path / "verify.json"
    assert run(["verify", "--solver", "builtin", "--triple", str(tfile),
                "--out", str(out), fixture_path("discount")]) == 0
    (rec,) = read_records(out)
    assert rec["status"] == "solved"
    assert rec["stats"]["solver_calls"] == 3


@requires_z3
def test_screen_subcommand(tmp_path):
    out = tmp_path / "screen.json"
    code = run([
        "screen", "--out", str(out),
        fixture_path("discount"), fixture_path("count_taut"),
    ])
    assert code == 0
    records = read_records(out)
    assert records[0]["screen"]["verdict"] == "Feasible"
    assert records[1]["screen"]["verdict"] == "Infeasible"


def test_screen_on_the_builtin_backend_is_one_inconclusive_check(tmp_path):
    out = tmp_path / "screen.json"
    code = run(["screen", "--solver", "builtin", "--out", str(out),
                fixture_path("discount")])
    assert code == 1
    (rec,) = read_records(out)
    assert rec["status"] == "inconclusive"
    assert rec["screen"] == {
        "verdict": "Inconclusive", "witness": "",
        "reason": "incomplete: quantified formula (the builtin backend "
                  "decides quantifier-free formulas only)",
    }
    assert rec["stats"]["solver_calls"] == 1


def test_the_screen_transcript_records_why_its_check_was_unknown(tmp_path):
    log = tmp_path / "screen.smt"
    assert run(["screen", "--solver", "builtin", "--smt-log", str(log),
                "--out", str(tmp_path / "screen.json"),
                fixture_path("discount")]) == 1
    lines = log.read_text().splitlines()
    at = lines.index("; -> unknown")
    assert lines[at + 1:] == [
        "(get-info :reason-unknown)",
        '; -> (:reason-unknown "incomplete: quantified formula (the builtin '
        'backend decides quantifier-free formulas only)")',
        "(pop 1)", "(exit)",
    ]


@pytest.mark.parametrize("step", [
    " + ".join(["a[0]"] + ["1"] * 349),  # a long sum
    "(" * 400 + "a[0] + 1" + ")" * 400,  # deep parentheses
], ids=["long-sum", "deep-parentheses"])
@pytest.mark.parametrize("command", ["synth", "diff"])
def test_an_expression_nested_too_deeply_is_an_error_record(
        tmp_path, step, command):
    task = tmp_path / "deep.pdsl"
    task.write_text(
        "df = (int,)\n"
        f"agg = fold(df, (0,), lambda a, r: ({step},))\n"
        "out = filter(agg, lambda a: a[0] > 3)\n"
    )
    tfile = tmp_path / "triple.json"
    tfile.write_text(json.dumps({"q": [], "residual": []}))
    options = {"synth": ["--solver", "builtin"],
               "diff": ["--triple", str(tfile)]}[command]
    out = tmp_path / "rec.json"
    assert run([command, *options, "--out", str(out), str(task)]) == 1
    (rec,) = read_records(out)
    assert (rec["status"], rec["error"]) == (
        "error", "expression is nested too deeply")


def test_diff_subcommand_catches_corruption(tmp_path):
    triple = {"q": ["r[0] > 95.0"], "residual": ["not (a[1] == -inf)"]}
    tfile = tmp_path / "triple.json"
    tfile.write_text(json.dumps(triple))
    out = tmp_path / "diff.json"
    code = run([
        "diff", "--triple", str(tfile), "--trials", "4000",
        "--out", str(out), fixture_path("top2"),
    ])
    assert code == 1
    rec = read_records(out)[0]
    assert rec["diff"]["mismatches"] >= 1


def test_bench_directory(tmp_path):
    bench_dir = tmp_path / "suite"
    bench_dir.mkdir()
    for name in ("top2", "discount"):
        (bench_dir / f"{name}.pdsl").write_text(fixture_source(name))
    out = tmp_path / "bench.json"
    code = run(["bench", "--trials", "200", "--out", str(out), str(bench_dir)])
    assert code == 0
    records = read_records(out)
    summary = records[-1]["summary"]
    assert summary["benchmarks"] == 2 and summary["solved"] == 2
    modes = {row["mode"]: row["count"] for row in summary["by_mode"]}
    assert modes["exact"] == 1 and modes["split"] == 1
    assert summary["median_runtime_s"] is not None


def test_usage_error_exit_code():
    assert run([]) == 2
    assert run(["synth"]) == 2  # missing FILE


@pytest.mark.parametrize("argv", [
    ["diff", "--solver", "builtin"],
    ["diff", "--max-calls", "10"],
    ["verify", "--trials", "10"],
    ["screen", "--trace"],
    ["synth", "--bmc-rows", "2"],
], ids=lambda argv: " ".join(argv[:2]))
def test_an_option_the_subcommand_does_not_read_is_a_usage_error(
        argv, tmp_path, capsys):
    tfile = tmp_path / "triple.json"
    tfile.write_text(json.dumps(PAPER_TRIPLE))
    out = tmp_path / "records.json"
    triple = ["--triple", str(tfile)] if argv[0] in ("diff", "verify") else []
    code = run([*argv, *triple, "--out", str(out), fixture_path("top2")])
    assert code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert not out.exists()


def test_out_into_a_missing_directory_is_an_io_error(tmp_path, capsys):
    tfile = tmp_path / "triple.json"
    tfile.write_text(json.dumps({"q": ["r[0] > 90.0"]}))
    out = tmp_path / "missing" / "diff.json"
    code = run(["diff", "--triple", str(tfile), "--trials", "10",
                "--out", str(out), fixture_path("top2")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("i/o error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("rows", ["0", "5", "9"])
def test_bmc_rows_outside_one_to_four_is_a_usage_error(rows, capsys):
    code = run(["screen", "--solver", "builtin", "--bmc-rows", rows,
                fixture_path("top2")])
    assert code == 2
    assert "--bmc-rows: invalid choice" in capsys.readouterr().err


def test_negative_trials_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "records.json"
    argv = ["synth", "--solver", "builtin", "--out", str(out),
            fixture_path("discount")]
    assert run(argv[:1] + ["--trials", "-5"] + argv[1:]) == 2
    assert "--trials: must not be negative" in capsys.readouterr().err
    assert not out.exists()
    assert run(argv[:1] + ["--trials", "0"] + argv[1:]) == 0
    assert read_records(out)[0]["diff"]["trials"] == 0


@pytest.mark.parametrize("option, value, message", [
    ("--budget-s", "nan", "must not be negative or NaN: nan"),
    ("--budget-s", "-1", "must not be negative or NaN: -1.0"),
    ("--max-calls", "-1", "must not be negative: -1"),
])
def test_a_nan_or_negative_budget_is_a_usage_error(option, value, message,
                                                   tmp_path, capsys):
    """A NaN wall budget would never pass, so synth would run with no
    deadline; a negative one, like a negative call cap, would stop synth
    before its first query. A zero budget is still a budget record."""
    out = tmp_path / "records.json"
    argv = ["synth", "--solver", "builtin", "--out", str(out),
            fixture_path("discount")]
    assert run(argv[:1] + [option, value] + argv[1:]) == 2
    assert f"{option}: {message}" in capsys.readouterr().err
    assert not out.exists()
    assert run(argv[:1] + [option, "0"] + argv[1:]) == 1
    record = read_records(out)[0]
    assert (record["status"], record["stats"]["solver_calls"]) == ("budget", 0)


@pytest.mark.parametrize("timeout", ["0", "-5"])
def test_timeout_below_one_ms_is_a_usage_error(timeout, tmp_path, capsys):
    """A query whose deadline has passed before it starts is no timeout."""
    out = tmp_path / "records.json"
    code = run(["synth", "--solver", "builtin", "--timeout-ms", timeout,
                "--out", str(out), fixture_path("discount")])
    assert code == 2
    assert "--timeout-ms: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


NEG_INDEX = (
    "df = (float,)\n"
    "agg = fold(df, ([0.0], 0.0),\n"
    "  lambda a, r: (insert(a[0], r[0]), a[0][-1]))\n"
    "out = filter(agg, lambda a: a[1] > 5.0)\n")


def test_unencodable_program_is_an_error_record(tmp_path, capsys):
    """The fold reads a negative list index, which the SMT encoding lacks:
    the file gets an error record, not a traceback."""
    src = tmp_path / "neg_index.pdsl"
    src.write_text(NEG_INDEX)
    out = tmp_path / "records.json"
    code = run(["synth", "--solver", "builtin", "--out", str(out),
                str(src), fixture_path("discount")])
    assert code == 1
    first, second = read_records(out)
    validate_record(first)
    assert first["status"] == "error"
    assert first["error"] == "negative list index is not encodable"
    # the universes were built before the encoding failed
    sizes = build_universes(typecheck(parse(src.read_text()))).sizes()
    stats = first["stats"]
    assert (stats["u_q_size"], stats["u_residual_size"],
            stats["u_psi_size"]) == sizes
    assert stats["u_psi_size"] > 0
    assert second["status"] == "solved"
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command, source, error", [
    ("synth",
     "df = (float,)\n"
     "agg = fold(df, (0.0,), lambda a, r: (a[0] + r[0],))\n"
     "out = filter(agg, lambda x: x[0] > agg[0])\n",
     "3:36: unbound identifier 'agg'"),
    # the residual reads the head of the list that a zero row empties
    ("diff",
     "df = (float,)\n"
     "agg = fold(df, ([1.0],), lambda a, r: ([],) if r[0] == 0.0 else a)\n"
     "out = filter(agg, lambda a: a[0][0] > 0.0)\n",
     "list index 0 out of range"),
    ("diff",
     "df = (float,)\n"
     "agg = fold(df, (0.0,), lambda a, r: (a[0] + r[0],))\n"
     "out = filter(agg, lambda a: a[0] > \u00b2)\n",
     "3:36: unexpected character '\u00b2'"),
], ids=["fold-result-in-the-post-filter", "raising-residual",
        "non-ascii-digit"])
def test_a_program_error_is_an_error_record(tmp_path, capsys, command,
                                             source, error):
    src = tmp_path / "task.pdsl"
    src.write_text(source)
    tfile = tmp_path / "triple.json"
    tfile.write_text(json.dumps(
        {"q": [], "residual": ["a[0][0] > 0.0"], "psi": []}))
    # diff opens no solver session, so it takes no --solver
    extra = ["--triple", str(tfile)] if command == "diff" \
        else ["--solver", "builtin"]
    out = tmp_path / "records.json"
    code = run([command, *extra, "--out", str(out), str(src)])
    assert code == 1
    record, = read_records(out)
    validate_record(record)
    assert (record["status"], record["error"]) == ("error", error)
    assert "Traceback" not in capsys.readouterr().err


def test_constant_division_in_the_initializer_synthesizes(tmp_path):
    src = tmp_path / "half.pdsl"
    src.write_text(
        "df = (float,)\n"
        "agg = fold(df, (1.0 / 2.0,), lambda a, r: (a[0] + r[0],))\n"
        "out = filter(agg, lambda a: a[0] > 5.0)\n")
    out = tmp_path / "records.json"
    run(["synth", "--solver", "builtin", "--trials", "50", "--out", str(out),
         str(src)])
    record, = read_records(out)
    assert record["status"] != "error", record.get("error")


def test_dump_universe(tmp_path):
    out = tmp_path / "rec.json"
    code = run([
        "synth", "--trials", "50", "--dump-universe", "--out", str(out),
        fixture_path("discount"),
    ])
    assert code == 0
    rec = read_records(out)[0]
    dump = rec["universes"]
    assert dump["u_q"] == [{"index": 0, "atom": "r[0] >= 1000.0"}]
    assert all(
        entry["index"] == i for i, entry in enumerate(dump["u_psi"])
    )


def test_dump_universe_on_an_error_record(tmp_path):
    """The encoding fails after the universes were dumped: the error record
    keeps the dump."""
    src = tmp_path / "neg_index.pdsl"
    src.write_text(NEG_INDEX)
    out = tmp_path / "rec.json"
    code = run(["synth", "--solver", "builtin", "--dump-universe", "--out",
                str(out), str(src)])
    assert code == 1
    rec, = read_records(out)
    validate_record(rec)
    assert rec["status"] == "error"
    dump, stats = rec["universes"], rec["stats"]
    assert (len(dump["u_q"]), len(dump["u_residual"]), len(dump["u_psi"])) \
        == (stats["u_q_size"], stats["u_residual_size"], stats["u_psi_size"])
    assert dump["u_psi"]


def test_a_str_column_that_no_literal_names(tmp_path):
    """discount over a second column, beside a `str` column that no literal
    names: the builtin declares `Str` with its spare elements only."""
    src = tmp_path / "unnamed_str.pdsl"
    src.write_text(
        "df = (str, float)\n"
        "agg = fold(df, (-inf,),\n"
        "  lambda a, r: (r[1] * 0.9 if r[1] * 0.9 > a[0] else a[0],))\n"
        "out = filter(agg, lambda a: a[0] >= 900.0)\n")
    out = tmp_path / "rec.json"
    code = run(["synth", "--solver", "builtin", "--trials", "200", "--out",
                str(out), str(src)])
    assert code == 0
    rec, = read_records(out)
    validate_record(rec)
    assert (rec["status"], rec["mode"]) == ("solved", "exact")
    assert rec["q_atoms"] == ["r[1] >= 1000.0"]


def test_schema_validator_rejects_bad_records():
    with pytest.raises(SchemaError):
        validate_record({"task": "x", "status": "nope", "stats": {}})
    with pytest.raises(SchemaError):
        validate_record({"task": "x", "status": "solved"})


def test_diff_records_match_the_schema(tmp_path):
    """A `diff` settled by exploration (discount), one sampled after the
    exploration found a counterexample (top2_wrong) and one whose tables
    spill (case_b) validate; a depth that is not an integer does not."""
    triples = reference_triples()
    records = {}
    for kind in ("discount", "top2_wrong", "case_b"):
        spec = triples[kind]
        out = tmp_path / f"{kind}.ndjson"
        run(["diff", "--triple", str(triple_file(tmp_path, kind, spec)),
             "--out", str(out), fixture_path(spec["fixture"])])
        records[kind], = read_records(out)
        validate_record(records[kind])
    assert records["discount"]["diff"]["exhaustive"]["fixpoint"]
    assert records["top2_wrong"]["diff"]["exhaustive"]["counterexample"]
    assert records["case_b"]["diff"]["exhaustive"] is None
    records["discount"]["diff"]["exhaustive"]["depth"] = "1"
    with pytest.raises(SchemaError, match="exhaustive.depth: expected integer"):
        validate_record(records["discount"])


def test_trace_events_on_stderr(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code = run([
        "synth", "--trials", "50", "--trace", "--out", str(out),
        fixture_path("top2"),
    ])
    assert code == 0
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    kinds = {e["event"] for e in events}
    assert {"enqueue", "dequeue", "verdict"} <= kinds


def test_smt_log_transcript(tmp_path):
    log = tmp_path / "transcript.smt2"
    out = tmp_path / "rec.json"
    code = run([
        "synth", "--trials", "50", "--smt-log", str(log), "--out", str(out),
        fixture_path("discount"),
    ])
    assert code == 0
    text = log.read_text()
    assert "(check-sat)" in text and "(declare-datatypes" in text


def test_smt_log_holds_every_file_of_a_run(tmp_path):
    log = tmp_path / "transcript.smt2"

    def transcript(*names):
        log.write_text("(stale)\n")
        code = run([
            "synth", "--trials", "50", "--smt-log", str(log),
            "--out", str(tmp_path / "rec.json"), *map(fixture_path, names),
        ])
        assert code == 0
        return log.read_text()

    def checks(text):
        return text.splitlines().count("(check-sat)")

    top2, discount = transcript("top2"), transcript("discount")
    both = transcript("top2", "discount")
    assert "(stale)" not in both
    sessions = both.split("(exit)\n")
    assert sessions[-1] == ""
    assert [checks(s) for s in sessions[:-1]] == [checks(top2),
                                                  checks(discount)]
    assert checks(top2) > 0 and checks(discount) > 0


def test_verify_rejects_false_atom(tmp_path):
    triple = {"q": ["r[0] > 90.0"], "residual": ["a[0] > a[0]"], "psi": []}
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps(triple))
    code = run(["verify", "--triple", str(tfile), fixture_path("top2")])
    assert code == 1


@pytest.mark.parametrize("command", ["verify", "diff"])
def test_bad_file_gets_an_error_record_after_the_good_one(tmp_path, command):
    tfile = tmp_path / "triple.json"
    tfile.write_text(json.dumps(PAPER_TRIPLE))
    bad = tmp_path / "bad.pdsl"
    bad.write_text("df = (float,)\nagg = fold(df, (0.0,), lambda a, r: (a[0],,))\n")
    out = tmp_path / "records.json"
    trials = ["--trials", "200"] if command == "diff" else []
    code = run([
        command, "--triple", str(tfile), *trials, "--out", str(out),
        fixture_path("top2"), str(bad),
    ])
    assert code == 1
    records = read_records(out)
    assert [(r["task"], r["status"]) for r in records] == \
        [("top2", "solved"), ("bad", "error")]
    assert "unexpected token" in records[1]["error"]


@pytest.mark.parametrize("data", [
    b'{"q": [', b'["r[0] > 1.0"]', b'{"q": "r[0] > 1.0"}', b'{"psi": [1]}',
    b'\xff{"q": []}',
], ids=["truncated", "list", "string-role", "number-atom", "not-utf8"])
def test_malformed_triple_file_gets_an_error_record(tmp_path, data):
    tfile = tmp_path / "triple.json"
    tfile.write_bytes(data)
    out = tmp_path / "records.json"
    code = run(["diff", "--triple", str(tfile), "--out", str(out),
                fixture_path("top2")])
    assert code == 1
    assert read_records(out)[0]["status"] == "error"


def test_term_level_match_on_the_accumulator(tmp_path):
    task = tmp_path / "match_acc.pdsl"
    task.write_text(
        "df = (float,)\n"
        "agg = fold(df, (None,), lambda a, r: (r[0] if r[0] > 1.0 else a[0],))\n"
        "out = filter(agg, lambda a: "
        "(match a[0]: case None: 0.0 case v: v) > 3.0)\n"
    )
    out = tmp_path / "rec.json"
    code = run(["synth", "--trials", "200", "--out", str(out), str(task)])
    assert code == 0
    rec = read_records(out)[0]
    assert (rec["status"], rec["mode"]) == ("solved", "partial")
    assert rec["q_atoms"] == ["r[0] > 1.0"]


@pytest.mark.parametrize("fold, status", [
    ("(None, 0), lambda a, r: ((match a[0]: case None: r[0] "
     "case v: (r[0] if r[0] > v else a[0])), a[1] + 1)", "fail"),
    ("(None,), lambda a, r: (r[0] if r[0] > 3 else a[0],)", "solved"),
], ids=["running-max", "last-above-3"])
def test_a_bare_optional_comparison_in_the_post_filter(tmp_path, fold,
                                                       status):
    """`a[0] == 5` on an optional component, typed `a[0] == Some(5)`: its ψ
    atoms read `a1` and `a2`, so the program gets a verdict, not an error
    record for the post-filter's free `a`."""
    task = tmp_path / "opt_eq.pdsl"
    task.write_text(f"df = (int,)\nagg = fold(df, {fold})\n"
                    "out = filter(agg, lambda a: a[0] == 5)\n")
    out = tmp_path / "rec.json"
    run(["synth", "--solver", "builtin", "--trials", "500", "--out", str(out),
         str(task)])
    rec, = read_records(out)
    assert rec["status"] == status, rec.get("error")
    if status == "solved":
        assert rec["diff"]["mismatches"] == 0
        assert "a1[0] == a2[0] or a1[0] == 5 and not a1[0] == None" in \
            rec["invariant_atoms"]


@pytest.mark.parametrize("column, bound", [("int", "5"), ("float", "5.0")])
def test_a_row_payload_read_in_the_prefilter_is_guarded(tmp_path, column,
                                                        bound):
    """A `Q` atom that reads a row's `Optional` payload, here through the
    fold's row-side `match`, is false on a None row: it is encoded with the
    null test and emitted as a match, so the rewritten program typechecks
    and agrees with the original on frames with None rows."""
    source = (f"df = (Optional[{column}],)\n"
              f"agg = fold(df, (0{bound[1:]},), lambda a, r: (match r[0]: "
              "case None: a case v: ((v,) if v > a[0] else a)))\n"
              f"out = filter(agg, lambda a: a[0] > {bound})\n")
    task_file = tmp_path / "opt_row.pdsl"
    task_file.write_text(source)
    out = tmp_path / "rec.json"
    assert run(["synth", "--solver", "builtin", "--trials", "500", "--out",
                str(out), str(task_file)]) == 0
    rec, = read_records(out)
    assert rec["status"] == "solved" and rec["diff"]["mismatches"] == 0
    assert re.fullmatch(rf"\(match r\[0\]: case None: False case (v\d+): "
                        rf"\1 > {re.escape(bound)}\)", rec["q_atoms"][0])
    task = typecheck(parse(source))
    rewritten = typecheck(parse(rec["rewritten"]))
    rng = random.Random(3)
    pools = column_pools(task, build_universes(task))
    for _ in range(300):
        frame = sample_dataframe(rng, pools)
        assert run_pipeline(rewritten, frame) == run_pipeline(task, frame)


def test_an_error_after_the_search_keeps_its_stats(tmp_path, monkeypatch):
    def raising(*args, **kwargs):
        raise EvalError("list index 0 out of range")

    monkeypatch.setattr(cli, "differential_check", raising)
    out = tmp_path / "rec.json"
    assert run(["synth", "--solver", "builtin", "--out", str(out),
                fixture_path("discount")]) == 1
    rec, = read_records(out)
    assert (rec["status"], rec["error"]) == ("error",
                                             "list index 0 out of range")
    stats = rec["stats"]
    assert stats["solver_calls"] > 0 and stats["wall_ms"] > 0
    assert stats["worklist_iters"] > 0 and stats["backend"] == "builtin"
    assert stats["u_q_size"] > 0


def test_rewritten_program_with_a_small_float_constant_parses(tmp_path):
    task = tmp_path / "small_eps.pdsl"
    task.write_text(
        "df = (float,)\n"
        "agg = fold(df, (0,), lambda a, r: "
        "(a[0] + 1,) if r[0] > 0.00001 else a)\n"
        "out = filter(agg, lambda a: a[0] > 3)\n"
    )
    out = tmp_path / "rec.json"
    code = run(["synth", "--trials", "200", "--out", str(out), str(task)])
    assert code == 0
    rec = read_records(out)[0]
    assert rec["q_atoms"] == ["r[0] > 0.00001"]
    parse(rec["rewritten"])


def test_tuple_constant_beside_a_tuple_accumulator(tmp_path):
    """A tuple constant of another type than the accumulator gets a sort of
    its own."""
    task = tmp_path / "tuple_const.pdsl"
    task.write_text(
        "lim = (5, 7)\n"
        "df = (int,)\n"
        "agg = fold(df, (0.0,), lambda a, r: "
        "(a[0] + 1.0,) if r[0] > lim[1] else a)\n"
        "out = filter(agg, lambda a: a[0] >= 2.0)\n"
    )
    out = tmp_path / "rec.json"
    code = run(["synth", "--trials", "200", "--out", str(out), str(task)])
    assert code == 0
    rec = read_records(out)[0]
    assert (rec["status"], rec["mode"]) == ("solved", "partial")


def test_sort_first_needed_by_a_universe_atom_is_declared(tmp_path):
    """The tuple constant appears only in the post-filter, so a universe
    atom is the first to need its sort: the sort is still declared before
    the atom's definition."""
    task = tmp_path / "lim_only_in_post.pdsl"
    task.write_text(
        "lim = (5, 7)\n"
        "df = (int,)\n"
        "agg = fold(df, (0,), lambda a, r: (a[0] + 1,) if r[0] > 3 else a)\n"
        "out = filter(agg, lambda a: a[0] >= lim[1])\n"
    )
    out = tmp_path / "rec.json"
    log = tmp_path / "smt.log"
    code = run(["synth", "--solver", "builtin", "--trials", "200",
                "--smt-log", str(log), "--out", str(out), str(task)])
    assert code == 0
    rec = read_records(out)[0]
    assert (rec["status"], rec["mode"]) == ("solved", "partial")
    transcript = log.read_text()
    assert transcript.index("(declare-datatypes ((Tup") < \
        transcript.index("(define-fun up_")


def test_records_name_their_backend(tmp_path):
    tfile = tmp_path / "triple.json"
    tfile.write_text(json.dumps(PAPER_TRIPLE))
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "discount.pdsl").write_text(fixture_source("discount"))
    trials = ["--trials", "100"]
    runs = {
        "synth": ["synth", *trials, fixture_path("discount")],
        "verify": ["verify", "--triple", str(tfile), fixture_path("top2")],
        "screen": ["screen", fixture_path("discount")],
        "bench": ["bench", *trials, str(suite)],
    }
    for command, argv in runs.items():
        out = tmp_path / f"{command}.json"
        run([*argv, "--solver", "builtin", "--out", str(out)])
        assert read_records(out)[0]["stats"]["backend"] == "builtin", command
    # diff opens no solver session, so its record names no backend
    out = tmp_path / "diff.json"
    run(["diff", *trials, "--triple", str(tfile), "--out", str(out),
         fixture_path("top2")])
    assert "backend" not in read_records(out)[0]["stats"]


def test_diff_trace_reports_the_fuzz_tables(tmp_path, capsys):
    triple = {"q": ["r[0] > 95.0"], "residual": ["not (a[1] == -inf)"]}
    tfile = tmp_path / "triple.json"
    tfile.write_text(json.dumps(triple))
    copy = tmp_path / "top2_copy.pdsl"
    copy.write_text(fixture_source("top2"))
    records = {}
    for trace in ([], ["--trace"]):
        out = tmp_path / f"diff{len(trace)}.json"
        run(["diff", "--triple", str(tfile), "--trials", "10000", "--seed",
             "7", *trace, "--out", str(out), fixture_path("top2"), str(copy)])
        records[bool(trace)] = out
    # tracing leaves records alone
    assert untimed(records[True]) == untimed(records[False])
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert len(events) == 2 and events[0] == {**events[1], "task": "top2"}
    top2 = events[0]
    assert top2["event"] == "fuzz-tables"
    assert set(top2) == {"event", "task", "rows", "states", "transitions",
                         "spilled", "pairs", "frames", "exhaustive"}
    # the record holds the exploration at the first mismatching pair,
    # reached by two rows, after 70 of the 13 rows' pair transitions
    assert top2["exhaustive"] == {
        "depth": 2, "fixpoint": False, "pairs": 61, "transitions": 70,
        "counterexample": [["90.5"], ["90.5"]]}
    assert top2["exhaustive"] == \
        read_records(records[True])[0]["diff"]["exhaustive"]
    # the exploration goes on to a fixpoint of 105 pairs, 1,365 distinct
    # one-row fold steps, and then walks all 10,000 frames through the pair
    # table
    assert (top2["transitions"], top2["frames"], top2["spilled"]) == \
        (1365, 10000, 0)
    assert top2["pairs"] == 105


def test_a_settled_diff_draws_no_frame(tmp_path, capsys):
    """discount's exploration reaches a fixpoint: the record says so, and
    its trace shows that no frame was drawn."""
    tfile = tmp_path / "triple.json"
    tfile.write_text(json.dumps({"q": ["r[0] >= 1000.0"], "residual": []}))
    out = tmp_path / "diff.json"
    assert run(["diff", "--triple", str(tfile), "--trace", "--out", str(out),
                fixture_path("discount")]) == 0
    record, = read_records(out)
    validate_record(record)
    exhaustive = {"depth": 1, "fixpoint": True, "pairs": 14,
                  "transitions": 182}
    assert record["diff"] == {"trials": 2000, "mismatches": 0, "seed": 0,
                              "examples": [], "exhaustive": exhaustive}
    event, = [json.loads(line)
              for line in capsys.readouterr().err.splitlines()]
    assert (event["frames"], event["spilled"], event["exhaustive"]) == \
        (0, 0, exhaustive)


@pytest.mark.parametrize("command", ["diff", "verify", "screen"])
def test_a_record_outside_synth_holds_its_file_time(tmp_path, command):
    spec = reference_triples()["discount"]
    triple = ["--triple", str(triple_file(tmp_path, "discount", spec))]
    options = {"diff": ["--trials", "100", *triple],
               "verify": ["--solver", "builtin", *triple],
               "screen": ["--solver", "builtin"]}[command]
    out = tmp_path / "record.json"
    run([command, *options, "--out", str(out), fixture_path("discount")])
    record, = read_records(out)
    validate_record(record)
    assert record["stats"]["wall_ms"] > 0


def test_one_parser_serves_every_run_of_a_process(tmp_path, capsys):
    """After a usage error and `--help` in this process, a valid `diff`
    gives the record that a fresh process gives."""
    assert cli.build_arg_parser() is cli.build_arg_parser()
    spec = reference_triples()["top2_wrong"]
    argv = ["diff", "--triple", str(triple_file(tmp_path, "top2_wrong", spec)),
            fixture_path("top2")]
    assert run([*argv[:1], "--trials", "-1", *argv[1:]]) == 2
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: pushdown-synth")
    here, fresh = tmp_path / "here.json", tmp_path / "fresh.json"
    assert run([*argv, "--out", str(here)]) == 1
    src = str(Path(cli.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c", "import sys; from pushdown_synth.cli import "
         "run; sys.exit(run(sys.argv[1:]))", *argv, "--out", str(fresh)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))})
    assert untimed(here) == untimed(fresh)
    assert cli.build_arg_parser.cache_info().misses == 1


def test_a_repeated_diff_gives_the_same_record(tmp_path):
    """Two `diff` runs in one process on each reference triple give the
    same record: neither the parser nor the generated code shared by
    source text keeps state from the first. The second compiles no
    source."""
    for kind, spec in reference_triples().items():
        argv = ["diff", "--triple", str(triple_file(tmp_path, kind, spec)),
                fixture_path(spec["fixture"])]
        outs = [tmp_path / f"{kind}{k}.ndjson" for k in range(2)]
        compiles = []
        for out in outs:
            code = run([*argv, "--out", str(out)])
            assert code == (0 if spec["verdict"] == "solved" else 1)
            compiles.append(interp._code.cache_info().misses)
        assert compiles[0] == compiles[1]
        assert untimed(outs[0]) == untimed(outs[1])
