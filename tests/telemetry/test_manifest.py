"""Run manifests: building, schema validity, write/load round-trips."""

import copy

import pytest

from repro.kernel import Machine, SYS_GETPID
from repro.pipeline import ZEN2
from repro.telemetry import (MANIFEST_SCHEMA, REGISTRY, RunManifest,
                             SchemaError, machine_config,
                             validate_manifest)


def test_machine_config_captures_the_run_parameters():
    machine = Machine(ZEN2, kaslr_seed=7)
    config = machine_config(machine)
    assert config["uarch"] == "Zen 2"
    assert config["vendor"] == "amd"
    assert config["kaslr_seed"] == 7
    assert isinstance(config["mitigations"], dict)
    assert all(isinstance(v, bool)
               for v in config["mitigations"].values())


def test_begin_phase_finish_produces_a_valid_document():
    REGISTRY.enable()
    machine = Machine(ZEN2, kaslr_seed=1)
    manifest = RunManifest.begin("test-run", machine=machine, extra=3)
    with manifest.phase("syscalls", machine=machine):
        machine.syscall(SYS_GETPID)
    manifest.finish("success", machine=machine, answer=42)
    doc = manifest.to_dict()
    validate_manifest(doc)
    assert doc["schema"] == MANIFEST_SCHEMA
    assert doc["config"]["extra"] == 3
    assert doc["outcome"] == {"status": "success", "answer": 42}
    (phase,) = doc["phases"]
    assert phase["name"] == "syscalls"
    assert phase["cycles"] > 0
    assert doc["totals"]["cycles"] == machine.cycles
    assert doc["totals"]["simulated_seconds"] == machine.seconds()
    assert doc["pmc"]["syscalls"] == 1
    assert "cycles" not in doc["pmc"]          # totals.cycles holds them
    assert set(doc["metrics"]) == {"counters", "base_labels"}
    assert any(k.startswith("cache_hits{")
               for k in doc["metrics"]["counters"])


def test_phase_records_even_when_body_raises():
    manifest = RunManifest.begin("test-error")
    with pytest.raises(RuntimeError):
        with manifest.phase("doomed"):
            raise RuntimeError("boom")
    assert [p.name for p in manifest.phases] == ["doomed"]


def test_write_and_load_round_trip(tmp_path):
    manifest = RunManifest.begin("test-io", config={"seed": 9})
    manifest.finish("success")
    path = manifest.write(tmp_path, name="run.json")
    doc = RunManifest.load(path)
    validate_manifest(doc)
    assert doc == manifest.to_dict()


def test_default_write_name_includes_command(tmp_path):
    manifest = RunManifest.begin("my cmd")
    manifest.finish("success")
    path = manifest.write(tmp_path)
    assert path.name.startswith("my_cmd-")
    assert path.suffix == ".json"


def test_validator_rejects_missing_sections():
    manifest = RunManifest.begin("test-invalid")
    manifest.finish("success")
    doc = manifest.to_dict()
    del doc["totals"]
    with pytest.raises(SchemaError):
        validate_manifest(doc)


def test_validator_rejects_wrong_schema_id():
    manifest = RunManifest.begin("test-schema-id")
    manifest.finish("success")
    doc = manifest.to_dict()
    doc["schema"] = "phantom.run-manifest/999"
    with pytest.raises(SchemaError):
        validate_manifest(doc)


def test_validator_rejects_malformed_phase():
    manifest = RunManifest.begin("test-bad-phase")
    manifest.finish("success")
    doc = manifest.to_dict()
    doc["phases"] = [{"name": "p"}]   # missing cycles/wall_time_s
    with pytest.raises(SchemaError):
        validate_manifest(doc)


def _variants(valid: dict, breaks) -> list[dict]:
    """*valid* plus one copy per ``(path, value)`` break, where a value
    of ``KeyError`` deletes the key instead of setting it."""
    docs = [valid]
    for path, value in breaks:
        doc = copy.deepcopy(valid)
        *parents, leaf = path
        node = doc
        for key in parents:
            node = node[key]
        if value is KeyError:
            del node[leaf]
        else:
            node[leaf] = value
        docs.append(doc)
    return docs


def test_mini_validator_agrees_without_jsonschema(monkeypatch):
    """The standard-library checker is the only validator the package
    runs.  ``jsonschema`` stays the reference it must agree with, on
    valid and broken documents of all three schemas, and the checker
    must work with ``jsonschema`` impossible to import."""
    import sys

    jsonschema = pytest.importorskip("jsonschema")
    from repro.telemetry import (CONTRACT_VIOLATION_JSON_SCHEMA,
                                 MANIFEST_JSON_SCHEMA, SPAN_JSON_SCHEMA,
                                 validate)

    manifest = RunManifest.begin("test-fallback")
    manifest.finish("success", jobs=2)
    manifest_docs = _variants(manifest.to_dict(), [
        (("totals", "cycles"), "not-an-int"),
        (("totals", "cycles"), True),
        (("totals", "wall_time_s"), 3),
        (("schema",), "phantom.run-manifest/999"),
        (("phases",), [{"name": "p"}]),
        (("outcome", "resume"), {"from": "j.jsonl"}),
        (("metrics",), KeyError),
    ])
    span = {"schema": "phantom.span/1", "name": "job", "trace_id": "ab",
            "span_id": "cd", "parent_id": None, "start_s": 1.0,
            "duration_s": 0.5, "status": "ok", "pid": 7, "attrs": {}}
    span_docs = _variants(span, [
        (("parent_id",), "ef"),
        (("parent_id",), 3),
        (("parent_id",), False),
        (("status",), "maybe"),
        (("pid",), 7.5),
        (("attrs",), KeyError),
    ])
    program = {"schema": "phantom.fuzz-program/1", "name": "p", "seed": 1,
               "shape": "branchy", "user_items": [{"op": "nop"}]}
    violation = {"schema": "phantom.contract-violation/1",
                 "contract": "no-leak", "mitigation": "none",
                 "uarches": ["zen2"], "protects": ["cycles"],
                 "classes": ["cycles"], "divergences": ["cycles: 1 != 2"],
                 "pair": {"schema": "phantom.fuzz-pair/1", "name": "p",
                          "secret_a": "00", "secret_b": "01",
                          "program": program}}
    violation_docs = _variants(violation, [
        (("uarches",), ["zen2", 3]),
        (("shrink_checks",), 2),
        (("shrink_checks",), "2"),
        (("pair", "program", "seed"), None),
        (("pair", "program", "user_items"), [1]),
        (("classes",), KeyError),
    ])

    monkeypatch.setitem(sys.modules, "jsonschema", None)
    for schema, docs in ((MANIFEST_JSON_SCHEMA, manifest_docs),
                         (SPAN_JSON_SCHEMA, span_docs),
                         (CONTRACT_VIOLATION_JSON_SCHEMA, violation_docs)):
        verdicts = []
        for doc in docs:
            try:
                jsonschema.validate(doc, schema)
                expected = True
            except jsonschema.ValidationError:
                expected = False
            try:
                validate(doc, schema)
                got = True
            except SchemaError:
                got = False
            assert got == expected, (schema["$id"], doc)
            verdicts.append(got)
        # Each schema saw both verdicts, so agreement is not vacuous.
        assert verdicts[0] and not all(verdicts)
