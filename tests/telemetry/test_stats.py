"""Stats rendering, manifest diffs, and schema-copy synchronisation."""

import json
from pathlib import Path

from repro.telemetry import (MANIFEST_JSON_SCHEMA, RunManifest,
                             diff_manifests, summarize_manifest)

SCHEMA_COPY = Path(__file__).parent.parent / "data" / \
    "run_manifest.schema.json"


def _doc(command="kaslr", status="success", cycles=1000, counters=None,
         pmc=None):
    manifest = RunManifest.begin(command, config={"uarch": "Zen 2"})
    manifest.finish(status)
    doc = manifest.to_dict()
    doc["totals"]["cycles"] = cycles
    doc["totals"]["simulated_seconds"] = cycles / 3.1e9
    doc["phases"] = [{"name": "attack", "cycles": cycles,
                      "wall_time_s": 0.5}]
    doc["metrics"]["counters"] = counters or {}
    doc["pmc"] = pmc or {}
    return doc


def test_checked_in_schema_matches_canonical():
    # The copy CI validates against must never drift from the source.
    assert json.loads(SCHEMA_COPY.read_text()) == MANIFEST_JSON_SCHEMA


def test_summary_renders_the_run():
    doc = _doc(counters={"btb_installs": 12}, pmc={"syscalls": 3})
    text = "\n".join(summarize_manifest(doc))
    assert "run: kaslr" in text
    assert "status: success" in text
    assert "uarch=Zen 2" in text
    assert "1,000 cycles" in text
    assert "attack" in text
    assert "btb_installs" in text and "12" in text
    assert "syscalls" in text


def test_summary_lists_enabled_mitigations():
    doc = _doc()
    doc["config"]["mitigations"] = {"retpolines": True, "auto_ibrs": False}
    text = "\n".join(summarize_manifest(doc))
    assert "mitigations on: retpolines" in text


def test_diff_reports_moved_counters():
    before = _doc(cycles=1000, counters={"btb_installs": 10, "same": 5})
    after = _doc(cycles=1500, counters={"btb_installs": 40, "same": 5})
    text = "\n".join(diff_manifests(before, after))
    assert "totals.cycles: 1,000 -> 1,500" in text
    assert "+500 (+50.0%)" in text
    assert "btb_installs" in text
    assert "+30 (+300.0%)" in text
    assert "same" not in text


def test_diff_reports_status_change():
    before = _doc(status="success")
    after = _doc(status="failure")
    text = "\n".join(diff_manifests(before, after))
    assert "status: success -> failure" in text


def test_diff_of_identical_runs_says_so():
    doc = _doc()
    text = "\n".join(diff_manifests(doc, doc))
    assert "no differences" in text


def test_diff_handles_new_counters():
    before = _doc(counters={})
    after = _doc(counters={"fresh_counter": 9})
    text = "\n".join(diff_manifests(before, after))
    assert "fresh_counter" in text and "+9" in text


def test_diff_of_identical_histograms_is_silent():
    # Archived manifests still carry histogram blocks; only counters,
    # PMC and phases are compared.
    doc = _doc()
    doc["metrics"]["histograms"] = {"h": {"count": 1, "sum": 1.0,
                                          "mean": 1.0, "min": 1.0,
                                          "max": 1.0}}
    text = "\n".join(diff_manifests(doc, doc))
    assert "histograms" not in text
    assert "no differences" in text
