"""Pinned SMT declarations of the tasks whose universes `universe_pin.json`
pins.

For each of those 80 tasks, `declaration_pin.json` holds the sha256 of the
declaration texts that `encode.TaskContext` sends, in order, to a session
that records them and starts no solver: sorts, helpers, `facc`, `wfrow`,
the declared constants and every universe atom's `define-fun`. A change to
the encoding, or to the order in which it declares sorts and list
operations, moves a digest and fails here.

Regenerate (only for a change meant to alter the encoding) with
`PYTHONPATH=src:. python tests/test_declaration_pin.py`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pushdown_synth.encode import TaskContext

from test_universe_pin import SOURCES, build_task

PIN = Path(__file__).with_name("declaration_pin.json")


class RecordingSession:
    """Takes the declarations of a `TaskContext` in the order sent."""

    def __init__(self):
        self.texts = []

    def declare(self, text):
        self.texts.append(text)

    def declare_const(self, name, sort_text, decode):
        self.texts.append(f"(declare-const {name} {sort_text})")


def declarations(name, source):
    session = RecordingSession()
    TaskContext(*build_task(name, source), session)
    return session.texts


def declaration_digest(name, source) -> str:
    h = hashlib.sha256()
    for text in declarations(name, source):
        h.update(text.encode() + b"\n")
    return h.hexdigest()


def test_the_pin_covers_every_task():
    assert sorted(json.loads(PIN.read_text())) == sorted(SOURCES)


@pytest.mark.parametrize("task_id", sorted(SOURCES))
def test_declarations_match_the_pin(task_id):
    expected = json.loads(PIN.read_text())[task_id]
    assert declaration_digest(*SOURCES[task_id]) == expected


if __name__ == "__main__":
    pins = {task_id: declaration_digest(*SOURCES[task_id])
            for task_id in SOURCES}
    PIN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} declaration pins to {PIN}")
