"""``benchmarks/_harness.py::emit`` keeps an archived manifest that
differs from the new one only in timestamps and host wall times, and
rewrites it when the simulated work changed."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent.parent / "benchmarks" / "_harness.py"

DOC = {
    "schema": "phantom.run-manifest/1",
    "command": "bench table1",
    "created_at": "2026-01-01T00:00:00Z",
    "config": {"jobs": 1},
    "phases": [{"name": "matrix", "cycles": 16936, "wall_time_s": 1.5}],
    "totals": {"cycles": 16936, "wall_time_s": 1.5},
    "outcome": {"status": "ok", "elapsed_seconds": 2.0},
}


@pytest.fixture
def harness(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
    return module


def rerun(harness, doc) -> str:
    harness.emit("t", ["table"], manifest=doc)
    return (harness.RESULTS_DIR / "t.manifest.json").read_text()


def test_host_timing_alone_keeps_the_archived_manifest(harness):
    first = rerun(harness, DOC)
    later = copy.deepcopy(DOC)
    later["created_at"] = "2026-02-02T00:00:00Z"
    later["phases"][0]["wall_time_s"] = 9.9
    later["totals"]["wall_time_s"] = 9.9
    later["outcome"]["elapsed_seconds"] = 11.0
    later["config"]["jobs"] = 2
    assert rerun(harness, later) == first


def test_changed_cycles_rewrite_the_manifest(harness):
    rerun(harness, DOC)
    moved = copy.deepcopy(DOC)
    moved["phases"][0]["cycles"] = 16909
    assert json.loads(rerun(harness, moved)) == moved


def test_unreadable_manifest_is_replaced(harness):
    (harness.RESULTS_DIR / "t.manifest.json").write_text("{torn")
    assert json.loads(rerun(harness, DOC)) == DOC
