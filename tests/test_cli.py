"""Command-line behavior: subcommands, exit codes, record schema."""

import json
from pathlib import Path

import pytest

from pushdown_synth.builtin import BuiltinSession
from pushdown_synth.cli import run
from pushdown_synth.parser import parse
from pushdown_synth.schema import SchemaError, validate_record
from pushdown_synth.smt import QueryResult

from conftest import FIXTURES, fixture_source, requires_z3


def fixture_path(name):
    return str(FIXTURES / f"{name}.pdsl")


def read_records(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


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


def test_schema_validator_rejects_bad_records():
    with pytest.raises(SchemaError):
        validate_record({"task": "x", "status": "nope", "stats": {}})
    with pytest.raises(SchemaError):
        validate_record({"task": "x", "status": "solved"})


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
    code = run([
        command, "--triple", str(tfile), "--trials", "200", "--out", str(out),
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
        "verify": ["verify", *trials, "--triple", str(tfile),
                   fixture_path("top2")],
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
        records[bool(trace)] = out.read_text()
    assert records[True] == records[False]  # tracing leaves records alone
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert len(events) == 2 and events[0] == {**events[1], "task": "top2"}
    top2 = events[0]
    assert top2["event"] == "fuzz-tables"
    assert set(top2) == {"event", "task", "rows", "states", "transitions",
                         "steps", "clears"}
    # 10,000 frames of up to 8 rows: 1,365 distinct one-row fold steps
    assert (top2["transitions"], top2["steps"], top2["clears"]) == \
        (1365, 1365, 0)
