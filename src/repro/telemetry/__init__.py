"""Unified telemetry: metrics registry, structured traces, run manifests.

Four views over one event stream on two clocks (see
``docs/observability.md``):

* :mod:`.metrics` — a process-wide registry of labelled counters the
  simulator layers emit into (no-op when disabled);
* :mod:`.trace`   — typed, cycle-stamped events (retire, episode,
  resteer, syscall, probe round) fanned out to sinks;
* :mod:`.manifest` — one JSON document per experiment run: config,
  phase profile, metric/PMC snapshots, outcome.  Summarize or diff
  manifests with :mod:`.stats` (``repro stats`` on the CLI);
* :mod:`.spans`   — campaign-wide distributed tracing
  (``phantom.span/1`` wall-clock spans with cross-process context
  propagation, stitched into one causally-ordered trace), whose
  per-process files also carry the trace events of a capture that
  asks for them;
* :mod:`.progress` — a ``repro top``-style single-line TTY renderer of
  job completions;
* :mod:`.exporters` — Chrome trace-event JSON (Perfetto) from span
  records, OpenMetrics text from counter and PMC snapshots.

Everything is behaviour-neutral: telemetry never touches simulated
cycles or machine state, so enabling it cannot change any result.
"""

from __future__ import annotations

from . import metrics as metrics
from .exporters import to_chrome_trace, to_openmetrics
from .manifest import MANIFEST_SCHEMA, PhaseProfile, RunManifest, \
    machine_config
from .merge import merge_metric_snapshots, merge_pmc
from .metrics import Counter, MetricsRegistry, REGISTRY, counter
from .progress import ProgressReporter
from .schema import CONTRACT_VIOLATION_JSON_SCHEMA, \
    MANIFEST_JSON_SCHEMA, SchemaError, validate, validate_manifest, \
    validate_violation
from .spans import SPAN_JSON_SCHEMA, SPAN_SCHEMA, SPANS, Span, \
    SpanRecorder, StitchedTrace, TraceContext, critical_path, read_spans, \
    stitch, stitch_events, stitch_to_file, summarize_trace, trace_structure, \
    validate_span, write_jsonl
from .stats import diff_manifests, summarize_manifest
from .trace import JsonLinesSink, MemorySink, TRACE, TRACE_SCHEMA, \
    TraceCollector, TraceEvent, read_jsonl

__all__ = [
    "CONTRACT_VIOLATION_JSON_SCHEMA",
    "Counter",
    "JsonLinesSink",
    "MANIFEST_JSON_SCHEMA",
    "MANIFEST_SCHEMA",
    "MemorySink",
    "MetricsRegistry",
    "PhaseProfile",
    "ProgressReporter",
    "REGISTRY",
    "RunManifest",
    "SPANS",
    "SPAN_JSON_SCHEMA",
    "SPAN_SCHEMA",
    "SchemaError",
    "Span",
    "SpanRecorder",
    "StitchedTrace",
    "TRACE",
    "TRACE_SCHEMA",
    "TraceCollector",
    "TraceContext",
    "TraceEvent",
    "counter",
    "critical_path",
    "diff_manifests",
    "enable_metrics",
    "machine_config",
    "merge_metric_snapshots",
    "merge_pmc",
    "metrics",
    "one_line_summary",
    "read_jsonl",
    "read_spans",
    "stitch",
    "stitch_events",
    "stitch_to_file",
    "summarize_manifest",
    "summarize_trace",
    "to_chrome_trace",
    "to_openmetrics",
    "trace_structure",
    "validate",
    "validate_manifest",
    "validate_span",
    "validate_violation",
    "write_jsonl",
]


def enable_metrics(**base_labels: str) -> MetricsRegistry:
    """Switch the process registry on (optionally setting base labels)."""
    if base_labels:
        REGISTRY.set_base_labels(**base_labels)
    REGISTRY.enable()
    return REGISTRY


def one_line_summary(*machines) -> str:
    """One line of telemetry for example scripts: episodes, resteers,
    probe rounds, simulated time — summed over *machines* plus the
    process metrics registry."""
    frontend = sum(m.cpu.pmc.read("resteer_frontend") for m in machines)
    backend = sum(m.cpu.pmc.read("resteer_backend") for m in machines)
    syscalls = sum(m.cpu.pmc.read("syscalls") for m in machines)
    seconds = sum(m.seconds() for m in machines)
    probe_rounds = sum(
        value for key, value in REGISTRY.snapshot()["counters"].items()
        if key.partition("{")[0] == "sidechannel_probe_rounds")
    return (f"telemetry: {frontend + backend} speculation episodes "
            f"({frontend} frontend / {backend} backend resteers), "
            f"{probe_rounds} probe rounds, {syscalls} syscalls, "
            f"{seconds * 1000:.3f} ms simulated")
