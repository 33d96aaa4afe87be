"""Pinned ground-evaluation outcomes of the reference triples.

`diff_pin.json` holds, for each triple of `perfbench/reference.json`, the
`diff` object of the `pushdown-synth diff` record at 2,000 trials and seeds
0 and 7, and, for each triple that pushes a pre-filter down, the
`run_pipeline` result (its `repr`) of the original and of the reference
rewritten pipeline on `generate_frame(Random(1), fixture, 10000)`. The
mismatch counts, counterexamples, exploration statistics and long-frame
results all come from the generated kernels of `interp`, so a change to how
they evaluate that moves any verdict or value fails here.

Regenerate (only for a change meant to alter the outcomes) with
`PYTHONPATH=src:. python tests/test_diff_pin.py`.
"""

import json
import random
import sys
import tempfile
from pathlib import Path

from pushdown_synth import interp
from pushdown_synth.cli import run
from pushdown_synth.parser import parse
from pushdown_synth.typecheck import typecheck

from conftest import FIXTURES

PIN = Path(__file__).with_name("diff_pin.json")
TRIALS = 2000
SEEDS = (0, 7)
ROWS = 10000


def diff_outcomes(workdir):
    """{"triple seed": diff object} of every reference triple."""
    from perfbench.workloads import load_reference

    outcomes = {}
    for name, spec in load_reference()["triples"].items():
        triple = Path(workdir) / f"{name}.json"
        triple.write_text(json.dumps({"q": spec["q"],
                                      "residual": spec["residual"]}))
        fixture = FIXTURES / f"{spec['fixture']}.pdsl"
        for seed in SEEDS:
            out = Path(workdir) / f"{name}-{seed}.json"
            run(["diff", "--triple", str(triple), "--trials", str(TRIALS),
                 "--seed", str(seed), "--out", str(out), str(fixture)])
            outcomes[f"{name} {seed}"] = json.loads(out.read_text())["diff"]
    return outcomes


def pipeline_outcomes():
    """{triple: [original, rewritten] result reprs} of every triple with a
    pre-filter, on its fixture's seeded long frame."""
    from perfbench.tasks import generate_frame
    from perfbench.workloads import load_reference, rewritten_source

    outcomes = {}
    for name, spec in load_reference()["triples"].items():
        if spec["verdict"] != "solved" or not spec["q"]:
            continue
        source = (FIXTURES / f"{spec['fixture']}.pdsl").read_text()
        frame = generate_frame(random.Random(1), spec["fixture"], ROWS)
        outcomes[name] = [
            repr(interp.run_pipeline(typecheck(parse(text), name=name), frame))
            for text in (source, rewritten_source(source, spec["q"],
                                                  spec["residual"]))]
    return outcomes


def outcomes(workdir):
    return {"diff": diff_outcomes(workdir), "pipeline": pipeline_outcomes()}


def test_diff_and_pipeline_outcomes_match_the_pin(tmp_path):
    assert outcomes(tmp_path) == json.loads(PIN.read_text())


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent.parent))
    with tempfile.TemporaryDirectory() as workdir:
        pins = outcomes(workdir)
    PIN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins['diff'])} diff and {len(pins['pipeline'])} "
          f"pipeline pins to {PIN}")
