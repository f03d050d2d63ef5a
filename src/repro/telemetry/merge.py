"""Merging telemetry across runs: metric snapshots, PMC banks, docs.

The parallel campaign runner (:mod:`repro.runner`) executes every job
in its own metrics scope — a worker process, or a reset registry in
serial mode — and each job returns a small ``phantom.run-manifest/1``
document.  These helpers fold those per-job documents into one
campaign-level view:

* **counters** and **pmc** values are totals, so they add.

All functions are pure: inputs are never mutated.
"""

from __future__ import annotations


def merge_metric_snapshots(base: dict, other: dict) -> dict:
    """Fold one registry snapshot into another (see module doc)."""
    out = {"counters": dict(base.get("counters", {}))}
    for key, value in other.get("counters", {}).items():
        out["counters"][key] = out["counters"].get(key, 0) + value
    labels_a = base.get("base_labels", {})
    labels_b = other.get("base_labels", {})
    out["base_labels"] = {k: v for k, v in labels_a.items()
                          if labels_b.get(k, v) == v} or dict(labels_b)
    return out


def merge_pmc(base: dict, other: dict) -> dict:
    """Sum two performance-counter snapshots."""
    out = dict(base)
    for name, value in other.items():
        out[name] = out.get(name, 0) + value
    return out
