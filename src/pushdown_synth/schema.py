"""Published shape of result records plus a small validator."""

from __future__ import annotations

# a frame as `diff` prints it: rows of printed values
FRAME = {"type": "array",
         "items": {"type": "array", "items": {"type": "string"}}}

RESULT_SCHEMA = {
    "type": "object",
    "required": ["task", "status", "stats"],
    "properties": {
        "task": {"type": "string"},
        "status": {"enum": ["solved", "fail", "budget", "inconclusive", "error"]},
        "mode": {"enum": ["exact", "partial", "split", None]},
        "q_atoms": {"type": "array", "items": {"type": "string"}},
        "residual_atoms": {"type": "array", "items": {"type": "string"}},
        "certified_residual_atoms": {"type": "array", "items": {"type": "string"}},
        "invariant_atoms": {"type": "array", "items": {"type": "string"}},
        "rewritten": {"type": "string"},
        "diff": {
            "type": "object",
            "required": ["trials", "mismatches", "seed", "examples",
                         "exhaustive"],
            "properties": {
                "trials": {"type": "integer"},
                "mismatches": {"type": "integer"},
                "seed": {"type": "integer"},
                "examples": {"type": "array", "items": FRAME},
                "exhaustive": {
                    "type": ["object", "null"],
                    "required": ["depth", "fixpoint", "pairs", "transitions"],
                    "properties": {
                        "depth": {"type": "integer"},
                        "fixpoint": {"type": "boolean"},
                        "pairs": {"type": "integer"},
                        "transitions": {"type": "integer"},
                        "counterexample": FRAME,
                    },
                },
            },
        },
        "screen": {"type": "object"},
        "error": {"type": "string"},
        "universes": {"type": "object"},
        "stats": {
            "type": "object",
            "required": [
                "wall_ms", "solver_calls", "worklist_iters",
                "u_q_size", "u_residual_size", "u_psi_size",
            ],
            "properties": {
                "wall_ms": {"type": "number"},
                "solver_calls": {"type": "integer"},
                "worklist_iters": {"type": "integer"},
                "u_q_size": {"type": "integer"},
                "u_residual_size": {"type": "integer"},
                "u_psi_size": {"type": "integer"},
                "p_size": {"type": "integer"},
                "measure_log": {"type": "array"},
                "notes": {"type": "array"},
                "backend": {"type": "string"},
            },
        },
    },
}


class SchemaError(ValueError):
    pass


def _check(value, schema, path):
    if "enum" in schema:
        if value not in schema["enum"]:
            raise SchemaError(f"{path}: {value!r} not in {schema['enum']}")
        return
    kind = schema.get("type")
    if isinstance(kind, list):  # `[type, "null"]`: the type, or null
        if value is None:
            return
        kind = kind[0]
    if kind == "object":
        if not isinstance(value, dict):
            raise SchemaError(f"{path}: expected object")
        for req in schema.get("required", ()):
            if req not in value:
                raise SchemaError(f"{path}: missing required key {req!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check(value[key], sub, f"{path}.{key}")
    elif kind == "array":
        if not isinstance(value, list):
            raise SchemaError(f"{path}: expected array")
        item_schema = schema.get("items")
        if item_schema:
            for i, item in enumerate(value):
                _check(item, item_schema, f"{path}[{i}]")
    elif kind == "string":
        if not isinstance(value, str):
            raise SchemaError(f"{path}: expected string")
    elif kind == "boolean":
        if not isinstance(value, bool):
            raise SchemaError(f"{path}: expected boolean")
    elif kind == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(f"{path}: expected integer")
    elif kind == "number":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"{path}: expected number")


def validate_record(record: dict):
    _check(record, RESULT_SCHEMA, "record")
    return True
