"""Merging per-job telemetry into campaign views: counter and PMC sums,
archived gauge/histogram blocks, absorbed resume lineage."""

from repro.telemetry import RunManifest
from repro.telemetry.merge import merge_metric_snapshots, merge_pmc


def _snapshot(counters=None):
    return {"counters": counters or {}}


def test_counters_add():
    merged = merge_metric_snapshots(_snapshot(counters={"a": 2}),
                                    _snapshot(counters={"a": 5, "b": 1}))
    assert merged["counters"] == {"a": 7, "b": 1}


def test_archived_gauges_and_histograms_are_dropped():
    # Manifests written before the registry held only counters carry
    # (empty or not) gauge and histogram blocks; merging keeps counters.
    archived = {"counters": {"a": 1}, "gauges": {"depth": 3},
                "histograms": {"h": {"count": 1, "sum": 1.0, "mean": 1.0,
                                     "min": 1.0, "max": 1.0}}}
    merged = merge_metric_snapshots(archived, _snapshot(counters={"a": 2}))
    assert merged == {"counters": {"a": 3}, "base_labels": {}}


def test_merge_does_not_mutate_inputs():
    base = _snapshot(counters={"a": 1})
    other = _snapshot(counters={"a": 2})
    merge_metric_snapshots(base, other)
    assert base["counters"] == {"a": 1}
    assert other["counters"] == {"a": 2}


def test_pmc_banks_sum():
    assert merge_pmc({"x": 1, "y": 2}, {"y": 3, "z": 4}) \
        == {"x": 1, "y": 5, "z": 4}


def test_absorb_merges_counters_and_lifts_observability_lineage():
    host = RunManifest.begin("matrix", config={})
    host.finish("success")
    host.metrics = _snapshot(counters={"btb_installs": 1})
    campaign = {
        "phases": [{"name": "jobs", "cycles": 10, "wall_time_s": 1.0}],
        "metrics": _snapshot(counters={"btb_installs": 3}),
        "pmc": {"syscalls": 2},
        "totals": {"cycles": 10, "simulated_seconds": 0.5},
        "outcome": {"status": "success",
                    "resume": {"from": "journal.jsonl",
                               "jobs_skipped": 4, "jobs_rerun": 2}},
    }
    host.absorb(campaign)
    assert host.metrics["counters"] == {"btb_installs": 4}
    assert host.pmc["syscalls"] == 2
    # Resume lineage lifts into the host outcome ...
    assert host.outcome["resume"] == {"from": "journal.jsonl",
                                      "jobs_skipped": 4, "jobs_rerun": 2}
    # ... but never overwrites lineage the host already carries.
    host.absorb({"outcome": {"resume": {"jobs_skipped": 0}}})
    assert host.outcome["resume"]["jobs_skipped"] == 4
