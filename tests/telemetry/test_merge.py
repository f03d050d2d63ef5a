"""Merging per-job telemetry into campaign views (satellite: histogram
merge semantics and absorb lineage)."""

from repro.telemetry import RunManifest
from repro.telemetry.merge import merge_metric_snapshots, merge_pmc


def _snapshot(counters=None, gauges=None, histograms=None, labels=None):
    snap = {"counters": counters or {}, "gauges": gauges or {},
            "histograms": histograms or {}}
    if labels is not None:
        snap["base_labels"] = labels
    return snap


def test_counters_add_and_gauges_keep_max():
    merged = merge_metric_snapshots(
        _snapshot(counters={"a": 2}, gauges={"depth": 3}),
        _snapshot(counters={"a": 5, "b": 1}, gauges={"depth": 2}))
    assert merged["counters"] == {"a": 7, "b": 1}
    assert merged["gauges"] == {"depth": 3}


def test_histograms_add_counts_and_widen_bounds():
    a = {"h": {"count": 2, "sum": 3.0, "mean": 1.5, "min": 1.0, "max": 2.0}}
    b = {"h": {"count": 1, "sum": 9.0, "mean": 9.0, "min": 9.0, "max": 9.0}}
    merged = merge_metric_snapshots(_snapshot(histograms=a),
                                    _snapshot(histograms=b))
    assert merged["histograms"]["h"] == {
        "count": 3, "sum": 12.0, "mean": 4.0, "min": 1.0, "max": 9.0}


def test_empty_histogram_merges_without_poisoning_bounds():
    empty = {"h": {"count": 0, "sum": 0.0, "mean": 0.0,
                   "min": None, "max": None}}
    full = {"h": {"count": 2, "sum": 1.0, "mean": 0.5,
                  "min": 0.25, "max": 0.75}}
    merged = merge_metric_snapshots(_snapshot(histograms=empty),
                                    _snapshot(histograms=full))
    assert merged["histograms"]["h"]["min"] == 0.25
    assert merged["histograms"]["h"]["max"] == 0.75
    both_empty = merge_metric_snapshots(_snapshot(histograms=empty),
                                        _snapshot(histograms=empty))
    assert both_empty["histograms"]["h"]["min"] is None
    assert both_empty["histograms"]["h"]["max"] is None


def test_disjoint_histogram_keys_pass_through_as_copies():
    a = {"only_a": {"count": 1, "sum": 1.0, "mean": 1.0,
                    "min": 1.0, "max": 1.0}}
    b = {"only_b": {"count": 1, "sum": 2.0, "mean": 2.0,
                    "min": 2.0, "max": 2.0}}
    merged = merge_metric_snapshots(_snapshot(histograms=a),
                                    _snapshot(histograms=b))
    assert set(merged["histograms"]) == {"only_a", "only_b"}
    merged["histograms"]["only_b"]["count"] = 99
    assert b["only_b"]["count"] == 1       # inputs never mutated


def test_merge_does_not_mutate_inputs():
    base = _snapshot(counters={"a": 1})
    other = _snapshot(counters={"a": 2})
    merge_metric_snapshots(base, other)
    assert base["counters"] == {"a": 1}
    assert other["counters"] == {"a": 2}


def test_pmc_banks_sum():
    assert merge_pmc({"x": 1, "y": 2}, {"y": 3, "z": 4}) \
        == {"x": 1, "y": 5, "z": 4}


def test_absorb_merges_histograms_and_lifts_observability_lineage():
    host = RunManifest.begin("matrix", config={})
    host.metrics = _snapshot(histograms={
        "profile_decode_seconds": {"count": 1, "sum": 0.5, "mean": 0.5,
                                   "min": 0.5, "max": 0.5}})
    host.finish("success")
    host.metrics = _snapshot(histograms={
        "profile_decode_seconds": {"count": 1, "sum": 0.5, "mean": 0.5,
                                   "min": 0.5, "max": 0.5}})
    campaign = {
        "phases": [{"name": "jobs", "cycles": 10, "wall_time_s": 1.0}],
        "metrics": _snapshot(histograms={
            "profile_decode_seconds": {"count": 3, "sum": 4.5, "mean": 1.5,
                                       "min": 0.25, "max": 3.0}}),
        "pmc": {"syscalls": 2},
        "totals": {"cycles": 10, "simulated_seconds": 0.5},
        "outcome": {"status": "success",
                    "resume": {"from": "journal.jsonl",
                               "jobs_skipped": 4, "jobs_rerun": 2},
                    "spans": {"trace_id": "ab" * 16, "count": 42},
                    "progress": {"done": 6, "failed": 0}},
    }
    host.absorb(campaign)
    merged = host.metrics["histograms"]["profile_decode_seconds"]
    assert merged["count"] == 4
    assert merged["min"] == 0.25 and merged["max"] == 3.0
    assert host.pmc["syscalls"] == 2
    # Recovery AND observability lineage lift into the host outcome.
    assert host.outcome["resume"] == {"from": "journal.jsonl",
                                      "jobs_skipped": 4, "jobs_rerun": 2}
    assert host.outcome["spans"] == {"trace_id": "ab" * 16, "count": 42}
    assert host.outcome["progress"] == {"done": 6, "failed": 0}
    # But absorb never overwrites lineage the host already carries.
    host.absorb({"outcome": {"spans": {"count": 0}}})
    assert host.outcome["spans"]["count"] == 42
