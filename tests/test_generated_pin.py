"""Pinned synthesis outcomes of three generated tasks under a call budget.

For gen_counters, gen_discount and gen_pairs1 of `generate_tasks(1)`,
`generated_pin.json` holds the `synth --solver builtin --max-calls 1000`
record's status, mode, `Q`, `P'` and `ψ` atoms and solver call count. A call
budget, unlike a wall budget, ends the same way on every host. A change to
the search, to the encoding or to the builtin's models that moves any of
them fails here. The other four generated tasks end `budget` after all
1,000 calls, at 14–20 s each on a 2-vCPU x86_64 VM, so they are left out.

Regenerate (only for a change meant to alter the outcomes) with
`PYTHONPATH=src:. python tests/test_generated_pin.py`.
"""

import itertools
import json
import sys
import tempfile
from pathlib import Path

from pushdown_synth import analysis
from pushdown_synth.cli import run

PIN = Path(__file__).with_name("generated_pin.json")
SEED = 1
TASKS = ["gen_counters", "gen_discount", "gen_pairs1"]
FIELDS = ["status", "mode", "q_atoms", "residual_atoms", "invariant_atoms"]


def outcomes(workdir):
    """{task: pinned fields} of one `synth` run over the three tasks, with
    binder names restarted so that they do not depend on earlier runs."""
    from perfbench.tasks import generate_tasks

    paths = []
    for name, source in generate_tasks(SEED):
        if name in TASKS:
            paths.append(Path(workdir) / f"{name}.pdsl")
            paths[-1].write_text(source)
    out = Path(workdir) / "records.json"
    counter = itertools.count(1)
    saved = analysis._fresh_binder
    analysis._fresh_binder = lambda: f"v{next(counter)}"
    try:
        run(["synth", "--solver", "builtin", "--max-calls", "1000",
             "--trials", "100", "--out", str(out), *map(str, paths)])
    finally:
        analysis._fresh_binder = saved
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return {
        r["task"]: {**{k: r.get(k) for k in FIELDS},
                    "solver_calls": r["stats"]["solver_calls"]}
        for r in records
    }


def test_generated_tasks_match_the_pin(tmp_path):
    assert outcomes(tmp_path) == json.loads(PIN.read_text())


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    with tempfile.TemporaryDirectory() as workdir:
        pins = outcomes(workdir)
    PIN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} generated-task pins to {PIN}")
