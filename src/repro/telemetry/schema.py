"""JSON Schema for run manifests, plus a dependency-free validator.

The canonical schema is the ``MANIFEST_JSON_SCHEMA`` dict below; a
byte-identical copy is checked into ``tests/data/run_manifest.schema.json``
so CI can validate CLI output without importing this package, and a test
asserts the two copies never drift.

:func:`validate` implements the subset of JSON Schema the repo's
schemas use (type, including a list of types; properties, required,
additionalProperties, items, enum).  It is the one validator
everywhere: the package imports nothing outside the standard library,
and the test suite checks its verdicts against ``jsonschema``.
"""

from __future__ import annotations

MANIFEST_JSON_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": "phantom.run-manifest/1",
    "title": "Phantom reproduction run manifest",
    "type": "object",
    "required": ["schema", "command", "created_at", "config", "phases",
                 "metrics", "pmc", "outcome", "totals"],
    "properties": {
        "schema": {"type": "string", "enum": ["phantom.run-manifest/1"]},
        "command": {"type": "string"},
        "created_at": {"type": "string"},
        "config": {"type": "object"},
        "phases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "cycles", "wall_time_s"],
                "properties": {
                    "name": {"type": "string"},
                    "cycles": {"type": "integer"},
                    "wall_time_s": {"type": "number"},
                },
            },
        },
        "metrics": {
            "type": "object",
            "required": ["counters"],
            "properties": {
                "counters": {"type": "object"},
                "base_labels": {"type": "object"},
            },
        },
        "pmc": {"type": "object"},
        "outcome": {
            "type": "object",
            "required": ["status"],
            "properties": {
                "status": {"type": "string"},
                "resume": {
                    "type": "object",
                    "required": ["from", "jobs_skipped", "jobs_rerun"],
                    "properties": {
                        "from": {"type": "string"},
                        "jobs_skipped": {"type": "integer"},
                        "jobs_rerun": {"type": "integer"},
                    },
                },
            },
        },
        "totals": {
            "type": "object",
            "required": ["cycles", "wall_time_s", "simulated_seconds"],
            "properties": {
                "cycles": {"type": "integer"},
                "wall_time_s": {"type": "number"},
                "simulated_seconds": {"type": "number"},
            },
        },
    },
}

CONTRACT_VIOLATION_JSON_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": "phantom.contract-violation/1",
    "title": "Phantom leakage-contract violation artifact",
    "type": "object",
    "required": ["schema", "contract", "mitigation", "uarches",
                 "protects", "classes", "divergences", "pair"],
    "properties": {
        "schema": {"type": "string",
                   "enum": ["phantom.contract-violation/1"]},
        "contract": {"type": "string"},
        "mitigation": {"type": "string"},
        "uarches": {"type": "array", "items": {"type": "string"}},
        "protects": {"type": "array", "items": {"type": "string"}},
        "classes": {"type": "array", "items": {"type": "string"}},
        "divergences": {"type": "array", "items": {"type": "string"}},
        "shrink_checks": {"type": "integer"},
        "pair": {
            "type": "object",
            "required": ["schema", "name", "secret_a", "secret_b",
                         "program"],
            "properties": {
                "schema": {"type": "string",
                           "enum": ["phantom.fuzz-pair/1"]},
                "name": {"type": "string"},
                "secret_a": {"type": "string"},
                "secret_b": {"type": "string"},
                "program": {
                    "type": "object",
                    "required": ["schema", "name", "seed", "shape",
                                 "user_items"],
                    "properties": {
                        "schema": {"type": "string",
                                   "enum": ["phantom.fuzz-program/1"]},
                        "name": {"type": "string"},
                        "seed": {"type": "integer"},
                        "shape": {"type": "string"},
                        "user_items": {"type": "array",
                                       "items": {"type": "object"}},
                        "kernel_items": {"type": "array",
                                         "items": {"type": "object"}},
                        "patches": {"type": "array",
                                    "items": {"type": "object"}},
                        "secret_loads": {"type": "array",
                                         "items": {"type": "array"}},
                        "regs": {"type": "object"},
                        "data": {"type": "string"},
                        "runs": {"type": "integer"},
                        "max_instructions": {"type": "integer"},
                        "description": {"type": "string"},
                    },
                },
            },
        },
    },
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


class SchemaError(ValueError):
    """A document does not conform to its schema."""


def _is_type(doc, name: str) -> bool:
    if isinstance(doc, bool) and name in ("integer", "number"):
        return False
    return isinstance(doc, _TYPES[name])


def _check(doc, schema: dict, path: str) -> None:
    expected = schema.get("type")
    if expected is not None:
        names = [expected] if isinstance(expected, str) else expected
        if not any(_is_type(doc, name) for name in names):
            raise SchemaError(f"{path}: expected {' or '.join(names)}, "
                              f"got {type(doc).__name__}")
    if "enum" in schema and doc not in schema["enum"]:
        raise SchemaError(f"{path}: {doc!r} not in {schema['enum']}")
    if isinstance(doc, dict):
        for name in schema.get("required", ()):
            if name not in doc:
                raise SchemaError(f"{path}: missing required key {name!r}")
        props = schema.get("properties", {})
        for key, value in doc.items():
            if key in props:
                _check(value, props[key], f"{path}.{key}")
            elif schema.get("additionalProperties") is False:
                raise SchemaError(f"{path}: unexpected key {key!r}")
    if isinstance(doc, list) and "items" in schema:
        for i, item in enumerate(doc):
            _check(item, schema["items"], f"{path}[{i}]")


def validate(doc: dict, schema: dict | None = None) -> None:
    """Raise :class:`SchemaError` if *doc* does not match *schema*
    (defaults to the run-manifest schema)."""
    schema = schema if schema is not None else MANIFEST_JSON_SCHEMA
    _check(doc, schema, "$")


def validate_manifest(doc: dict) -> None:
    """Validate one run-manifest document."""
    validate(doc, MANIFEST_JSON_SCHEMA)


def validate_violation(doc: dict) -> None:
    """Validate one contract-violation artifact."""
    validate(doc, CONTRACT_VIOLATION_JSON_SCHEMA)
