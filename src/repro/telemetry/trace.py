"""Structured event trace: typed events with cycle timestamps.

The simulator emits *events* — instruction retire, speculation episode,
frontend/backend resteer, syscall, probe round — into a process-wide
:class:`TraceCollector`, the CPU's only per-step observation
channel.  Sinks (anything with ``emit(event)``) consume them: the span
recorder (:data:`repro.telemetry.spans.SPANS`, which files each event
under its enclosing span — the CLI's ``--trace-out``), an in-memory
sink, and programmatic consumers such as
:class:`repro.analysis.Tracer`, whose text timeline is just one
rendering of the same event stream (and whose ``write_jsonl`` is the
JSON-lines file sink's one user).

Emission is a no-op while the collector is disabled; enabling it never
touches simulated state, so tracing is behaviour-neutral by
construction.

Schema (``phantom.trace/1``) — every line carries::

    {"schema": "phantom.trace/1", "kind": <str>, "cycle": <int>, ...}

Event kinds and their extra fields:

* ``retire``        — pc, text, kernel_mode
* ``episode``       — source_pc, predicted_kind, actual_kind, target,
                      reach, flavour ("phantom"|"spectre"),
                      cross_privilege, nested
* ``resteer``       — source ("frontend"|"backend"), pc
* ``syscall``       — nr
* ``probe_round``   — channel, set, misses
* ``trace_truncated`` — limit (the tracer's instruction limit; emitted
                      once, by the first instruction beyond it)
* ``orphan_episodes`` — count (episodes with no traced instruction)
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

TRACE_SCHEMA = "phantom.trace/1"


@dataclass
class TraceEvent:
    """One typed, cycle-stamped trace event."""

    kind: str
    cycle: int
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"schema": TRACE_SCHEMA, "kind": self.kind,
               "cycle": self.cycle}
        out.update(self.fields)
        return out


class MemorySink:
    """Collects events in a list (programmatic consumers)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)


class JsonLinesSink:
    """Writes one JSON object per event to a file."""

    def __init__(self, path) -> None:
        self.path = path
        self._fp = open(path, "w", encoding="utf-8")

    def emit(self, event: TraceEvent) -> None:
        json.dump(event.to_dict(), self._fp, separators=(",", ":"))
        self._fp.write("\n")

    def close(self) -> None:
        self._fp.flush()
        self._fp.close()


class TraceCollector:
    """Fan-out point between the simulator's emitters and the sinks."""

    def __init__(self) -> None:
        self.enabled = False
        self._sinks: list = []

    # -- sink management ---------------------------------------------------

    def add_sink(self, sink) -> None:
        """Attach *sink* (once: attaching it again changes nothing)."""
        if sink not in self._sinks:
            self._sinks.append(sink)
        self.enabled = True

    def remove_sink(self, sink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)
        if not self._sinks:
            self.enabled = False

    @contextmanager
    def sink(self, sink):
        """Attach *sink* for the duration of a ``with`` block."""
        self.add_sink(sink)
        try:
            yield sink
        finally:
            self.remove_sink(sink)

    # -- emission ----------------------------------------------------------

    def emit(self, kind: str, cycle: int, **fields) -> None:
        """Emit one event (call only behind an ``enabled`` check on hot
        paths; calling while disabled is still safe)."""
        if not self.enabled:
            return
        event = TraceEvent(kind=kind, cycle=cycle, fields=fields)
        for sink in self._sinks:
            sink.emit(event)


#: The process-wide collector the simulator emits into.
TRACE = TraceCollector()


def read_jsonl(path) -> list[dict]:
    """Load a JSON-lines trace file back into dicts."""
    events = []
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
