"""Pinned SMT transcripts of four fixtures under the builtin backend.

For each fixture, `transcript_pin.json` holds the sha256 of the
`synth --solver builtin --smt-log` transcript of one run on that file: the
declarations, every query and every answer. A change to the encoding, to the
order or shape of the queries, or to how answers are read back into the
search moves a digest and fails here. A transcript does not depend on
`PYTHONHASHSEED`.

Regenerate (only for a change meant to alter the transcripts) with
`PYTHONPATH=src python tests/test_transcript_pin.py`.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from pushdown_synth.cli import run

PIN = Path(__file__).with_name("transcript_pin.json")
FIXTURES = ["top2", "discount", "frequent", "count_taut"]


def transcript_digest(name, workdir):
    from conftest import FIXTURES as FIXTURE_DIR

    log = Path(workdir) / f"{name}.smt"
    run(["synth", "--solver", "builtin", "--smt-log", str(log),
         "--out", str(Path(workdir) / f"{name}.json"),
         str(FIXTURE_DIR / f"{name}.pdsl")])
    return hashlib.sha256(log.read_bytes()).hexdigest()


def test_the_pin_covers_the_fixtures():
    assert sorted(json.loads(PIN.read_text())) == sorted(FIXTURES)


@pytest.mark.parametrize("name", FIXTURES)
def test_transcript_matches_the_pin(name, tmp_path):
    expected = json.loads(PIN.read_text())[name]
    assert transcript_digest(name, tmp_path) == expected


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    with tempfile.TemporaryDirectory() as workdir:
        pins = {name: transcript_digest(name, workdir) for name in FIXTURES}
    PIN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} transcript pins to {PIN}")
