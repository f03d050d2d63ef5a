"""Exporters: stitched span traces and metric snapshots, outbound.

Two wire formats the rest of the world already speaks:

* :func:`to_chrome_trace` — Chrome trace-event JSON (the ``"X"``
  complete-event form) from ``phantom.span/1`` records; load the
  result straight into Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  Each emitting process becomes one track, so
  the worker fan-out of a campaign is visible as parallel lanes.
* :func:`to_openmetrics` — OpenMetrics text exposition from any
  metrics snapshot (the ``{"counters": …}`` dict a
  :class:`~repro.telemetry.MetricsRegistry` produces and run manifests
  embed), optionally folding in a PMC snapshot.  Point a Prometheus
  scrape job (or ``promtool check metrics``) at the output.

Both are pure functions of their inputs — no I/O, no registry access —
so they export live snapshots and years-old archived manifests alike.
"""

from __future__ import annotations

import re

#: Leading component every exported metric name carries.
_PREFIX = "phantom_"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_KEY = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")


def to_chrome_trace(records: list[dict]) -> dict:
    """``phantom.span/1`` records → a Chrome trace-event document.

    Timestamps are rebased to the earliest span so the trace starts at
    t=0 regardless of wall-clock epoch; span/parent ids and status ride
    along in ``args`` for drill-down in the Perfetto UI.
    """
    events = []
    t0 = min((r["start_s"] for r in records), default=0.0)
    for record in records:
        events.append({
            "name": record["name"],
            "cat": "phantom" if record["status"] == "ok"
                   else "phantom,error",
            "ph": "X",
            "ts": round((record["start_s"] - t0) * 1e6, 3),
            "dur": round(record["duration_s"] * 1e6, 3),
            "pid": record.get("pid", 0),
            "tid": record.get("pid", 0),
            "args": {"span_id": record["span_id"],
                     "parent_id": record.get("parent_id"),
                     "status": record["status"],
                     **record.get("attrs", {})},
        })
    trace_ids = sorted({r.get("trace_id", "") for r in records})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": "phantom.span/1",
                      "trace_id": trace_ids[0] if trace_ids else ""},
    }


def _metric_name(key: str) -> tuple[str, str]:
    """``"name{a=b,c=d}"`` → (sanitized metric name, label body)."""
    match = _KEY.match(key)
    name = _NAME_OK.sub("_", match.group("name"))
    labels = match.group("labels") or ""
    return name, labels


def _label_block(label_body: str, base: dict) -> str:
    """Merge instrument labels with base labels into ``{k="v",…}``."""
    pairs = dict(base)
    if label_body:
        for part in label_body.split(","):
            key, _, value = part.partition("=")
            pairs[key.strip()] = value.strip()
    if not pairs:
        return ""
    inner = ",".join(f'{_NAME_OK.sub("_", k)}="{v}"'
                     for k, v in sorted(pairs.items()))
    return "{" + inner + "}"


def to_openmetrics(metrics: dict, *, pmc: dict | None = None) -> str:
    """A metrics snapshot (+ optional PMC bank) → OpenMetrics text.

    Counters become ``counter`` families (``_total`` samples); PMC
    values export as counters under ``phantom_pmc_``.  Ends with the
    mandatory ``# EOF`` marker.
    """
    base_labels = dict(metrics.get("base_labels", {}))
    lines: list[str] = []

    for prefix, snapshot in (("", metrics.get("counters", {})),
                             ("pmc_", pmc or {})):
        for key, value in sorted(snapshot.items()):
            name, labels = _metric_name(key)
            family = f"{_PREFIX}{prefix}{name}"
            lines.append(f"# TYPE {family} counter")
            lines.append(f"{family}_total"
                         f"{_label_block(labels, base_labels)} {value}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"
