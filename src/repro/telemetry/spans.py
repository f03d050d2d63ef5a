"""Campaign-wide distributed tracing: ``phantom.span/1`` records.

Phantom's methodology is *observing* where in a pipeline a
misprediction becomes visible; this module applies the same discipline
to our own campaign fleet.  A **span** is one named wall-clock interval
— a campaign, a job, a phase inside a job, a fast-path compile, a
checkpoint flush — recorded as one JSON line:

.. code-block:: json

    {"schema": "phantom.span/1", "name": "matrix[zen2/jmp/call]",
     "trace_id": "…32 hex…", "span_id": "…16 hex…",
     "parent_id": "…16 hex…", "start_s": 1723000000.0, "duration_s": 0.12,
     "status": "ok", "pid": 4242, "attrs": {}}

The same files carry the cycle clock: while a capture asks for
events, the recorder is a sink on :data:`~repro.telemetry.trace.TRACE`
and writes each ``phantom.trace/1`` event unchanged plus the id of its
innermost open span (``"span_id"``), so one event stream runs on two
clocks and :func:`stitch_events` orders it at any ``--jobs``.

Three rules make the layer fit the repo's telemetry contract:

* **Disabled tracing is a no-op branch.**  The process-wide
  :data:`SPANS` recorder starts disabled; every emission site guards on
  ``SPANS.enabled`` (or goes through :meth:`SpanRecorder.span`, which
  yields a shared null span when disabled).  Enabling it never touches
  simulated state, so observables are bit-identical with spans on or
  off; without events it leaves ``TRACE`` off, so the fast engine
  keeps its compiled dispatch.
* **Context propagates through job specs.**  The parent opens a
  campaign root span and stamps a :class:`TraceContext` (trace id,
  parent span id, capture directory, whether to record events) into
  each
  :class:`~repro.runner.JobSpec`; workers :meth:`~SpanRecorder.adopt`
  the context and append their spans to a per-worker
  ``worker-<pid>.jsonl`` file in the same directory.  The stitcher
  (:func:`stitch`) later merges every file into one causally-ordered
  trace.
* **Structure is deterministic at any ``--jobs``.**  Span ids derive
  from SHA-256 over ``(trace_id, parent_id, name, seq)`` — never from
  pids, clocks or worker identity — and the sequence number counts
  same-named siblings within the emitting process (explicitly 0 for
  job spans, whose labels are unique within a campaign).  Two runs of
  the same campaign produce the same tree of names and parent/child
  edges whether one worker ran everything or sixteen shared the load;
  only the timing fields differ.

Exporters for the stitched trace live in
:mod:`repro.telemetry.exporters` (Chrome trace-event JSON for Perfetto,
OpenMetrics text for metrics snapshots); ``repro trace summarize`` and
``repro trace export`` are the CLI front ends.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .trace import TRACE, TRACE_SCHEMA

SPAN_SCHEMA = "phantom.span/1"

#: Name of the stitched, causally-ordered output file inside a capture
#: directory (excluded when re-reading the directory's raw records).
STITCHED_NAME = "trace.jsonl"

SPAN_JSON_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": "phantom.span/1",
    "title": "Phantom distributed-trace span record",
    "type": "object",
    "required": ["schema", "name", "trace_id", "span_id", "parent_id",
                 "start_s", "duration_s", "status", "pid", "attrs"],
    "properties": {
        "schema": {"type": "string", "enum": ["phantom.span/1"]},
        "name": {"type": "string"},
        "trace_id": {"type": "string"},
        "span_id": {"type": "string"},
        "parent_id": {"type": ["string", "null"]},
        "start_s": {"type": "number"},
        "duration_s": {"type": "number"},
        "status": {"type": "string", "enum": ["ok", "error"]},
        "pid": {"type": "integer"},
        "attrs": {"type": "object"},
    },
}


def validate_span(doc: dict) -> None:
    """Raise :class:`repro.telemetry.SchemaError` on a malformed record."""
    from .schema import validate

    validate(doc, SPAN_JSON_SCHEMA)


def new_trace_id() -> str:
    """A fresh 128-bit trace id (hex)."""
    return os.urandom(16).hex()


def derive_span_id(trace_id: str, parent_id: str | None, name: str,
                   seq: int) -> str:
    """Deterministic 64-bit span id.

    SHA-256 over the causal coordinates only — never the pid, worker or
    clock — so the id of, say, job ``matrix[zen2/jmp/call]`` under a
    given campaign span is the same whichever worker runs it.  That is
    what makes stitched traces structurally identical at any ``--jobs``.
    """
    blob = f"{trace_id}|{parent_id or ''}|{name}|{seq}".encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class TraceContext:
    """The cross-process propagation envelope.

    Frozen and picklable: the executor stamps one into every
    :class:`~repro.runner.JobSpec` it dispatches, and
    :func:`~repro.runner.execute_job` hands it to
    :meth:`SpanRecorder.adopt` inside the worker.  It deliberately
    carries no file handles or clocks — only the coordinates a worker
    needs to keep emitting into the same trace, and whether its
    ``TRACE`` events go there too.
    """

    trace_id: str
    parent_span_id: str
    span_dir: str
    events: bool = False


class Span:
    """One open (or closed) span; build records via the recorder."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_s",
                 "duration_s", "status", "pid", "attrs")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: str | None, attrs: dict | None = None) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = time.time()
        self.duration_s = 0.0
        self.status = "ok"
        self.pid = os.getpid()
        self.attrs = dict(attrs or {})

    def set(self, *, status: str | None = None, **attrs) -> "Span":
        """Attach attributes (and optionally a status) to the span."""
        if status is not None:
            self.status = status
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        return {"schema": SPAN_SCHEMA, "name": self.name,
                "trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id, "start_s": self.start_s,
                "duration_s": self.duration_s, "status": self.status,
                "pid": self.pid, "attrs": self.attrs}


class _NullSpan:
    """What :meth:`SpanRecorder.span` yields while disabled: accepts
    the same calls, records nothing."""

    __slots__ = ()

    span_id = None
    parent_id = None

    def set(self, *, status: str | None = None, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Process-wide span emitter with one JSONL file per process.

    Lifecycle: the *parent* process calls :meth:`start` (opens the root
    span and a ``parent-<pid>.jsonl`` file) and eventually
    :meth:`finish`; *workers* call :meth:`adopt` with the propagated
    :class:`TraceContext` (idempotent per process — pool workers are
    reused across jobs).  Every span record is flushed as it is
    written, and with it the events before it, so a SIGKILLed worker
    loses at most its currently-open spans and their events, never
    previously completed ones, and a forked child never replays the
    parent's buffer.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.events = False
        self.trace_id: str | None = None
        self._dir: Path | None = None
        self._fh = None
        self._pid: int | None = None
        self._stack: list[Span] = []
        self._seq: dict[tuple, int] = {}
        self._root: Span | None = None
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def _configure(self, span_dir, trace_id: str, role: str,
                   events: bool) -> None:
        path = Path(span_dir)
        path.mkdir(parents=True, exist_ok=True)
        self._dir = path
        self.trace_id = trace_id
        self._pid = os.getpid()
        self._fh = open(path / f"{role}-{self._pid}.jsonl", "a",
                        encoding="utf-8")
        self._stack = []
        self._seq = {}
        self._root = None
        self.enabled = True
        self.events = events
        if events:
            TRACE.add_sink(self)
        else:   # a reused worker may have been a sink for a past trace
            TRACE.remove_sink(self)

    def start(self, span_dir, *, name: str, trace_id: str | None = None,
              events: bool = False) -> Span:
        """Parent-side: configure capture under *span_dir* and open the
        trace's root span, named ``run:<name>``; with *events*, this
        process's and every adopting worker's ``TRACE`` events are
        captured too."""
        self._configure(span_dir, trace_id or new_trace_id(), "parent",
                        events)
        self._root = self._open(f"run:{name}", parent_id=None)
        return self._root

    def adopt(self, ctx: TraceContext) -> None:
        """Worker-side: join the trace described by *ctx*.

        Re-configures only when the context is new to this process —
        a reused pool worker keeps its file; a freshly forked child
        (same context, different pid) gets its own, so two processes
        never interleave writes into one file.  The worker becomes a
        ``TRACE`` sink only when *ctx* asks for events.
        """
        if (self.enabled and self._pid == os.getpid()
                and self.trace_id == ctx.trace_id
                and self._dir == Path(ctx.span_dir)):
            return
        self._configure(ctx.span_dir, ctx.trace_id, "worker", ctx.events)

    def finish(self, *, status: str = "ok") -> Path | None:
        """Close the root span (if any) and stop recording.

        Returns the capture directory so callers can stitch it."""
        if not self.enabled:
            return None
        TRACE.remove_sink(self)
        while self._stack and self._stack[-1] is not self._root:
            self._close(self._stack[-1])
        if self._root is not None:
            self._root.status = status
            self._close(self._root)
        span_dir = self._dir
        if self._fh is not None:
            self._fh.close()
        self.enabled = False
        self.events = False
        self.trace_id = None
        self._dir = None
        self._fh = None
        self._root = None
        self._stack = []
        self._seq = {}
        return span_dir

    # -- emission ----------------------------------------------------------

    @property
    def current_id(self) -> str | None:
        """Span id of the innermost open span (implicit parent)."""
        return self._stack[-1].span_id if self._stack else None

    def context(self) -> TraceContext | None:
        """The propagation envelope for the current position, or
        ``None`` while disabled."""
        if not self.enabled:
            return None
        return TraceContext(trace_id=self.trace_id,
                            parent_span_id=self.current_id or "",
                            span_dir=str(self._dir), events=self.events)

    def _next_seq(self, parent_id: str | None, name: str) -> int:
        with self._lock:
            key = (parent_id, name)
            seq = self._seq.get(key, 0)
            self._seq[key] = seq + 1
        return seq

    def _open(self, name: str, parent_id: str | None, *,
              seq: int | None = None, attrs: dict | None = None) -> Span:
        if seq is None:
            seq = self._next_seq(parent_id, name)
        span = Span(name, self.trace_id,
                    derive_span_id(self.trace_id, parent_id, name, seq),
                    parent_id, attrs)
        self._stack.append(span)
        return span

    def _write(self, span: Span) -> None:
        with self._lock:
            self._fh.write(json.dumps(span.to_dict(),
                                      separators=(",", ":")) + "\n")
            self._fh.flush()

    def _close(self, span: Span) -> None:
        span.duration_s = time.time() - span.start_s
        if span in self._stack:
            self._stack.remove(span)
        self._write(span)

    @contextmanager
    def span(self, name: str, *, parent_id: str | None = "",
             seq: int | None = None, **attrs):
        """Bracket a wall-clock interval with one span.

        ``parent_id`` defaults to the innermost open span (pass an
        explicit id — e.g. from a propagated context — to parent across
        processes); ``seq`` overrides the sibling counter when the
        caller knows a deterministic one (0 for job spans).  While
        disabled this yields the shared :data:`NULL_SPAN` and records
        nothing.  An escaping exception marks the span ``error``.
        """
        if not self.enabled:
            yield NULL_SPAN
            return
        parent = self.current_id if parent_id == "" else parent_id
        span = self._open(name, parent, seq=seq, attrs=attrs)
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            self._close(span)

    def event(self, name: str, *, parent_id: str | None = "",
              status: str = "ok", **attrs) -> None:
        """A zero-duration span: something *happened* (a checkpoint
        flush, a failed journal write) rather than took time.
        Thread-safe."""
        if not self.enabled:
            return
        parent = self.current_id if parent_id == "" else parent_id
        seq = self._next_seq(parent, name)
        span = Span(name, self.trace_id,
                    derive_span_id(self.trace_id, parent, name, seq),
                    parent, attrs)
        span.status = status
        self._write(span)

    def emit(self, event) -> None:
        """``TRACE`` sink: write *event*'s ``phantom.trace/1`` record
        plus the innermost open span's id; it reaches the disk with the
        next span record."""
        record = event.to_dict()
        record["span_id"] = self.current_id
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            self._fh.write(line)


#: The process-wide recorder every instrumentation point emits into.
SPANS = SpanRecorder()


# -- stitching ---------------------------------------------------------------

def _read_records(source, schemas):
    """``(file, line number, record)`` for each record of *schemas* in
    a capture directory (every ``*.jsonl`` except the stitched output)
    or a single file.  Malformed lines are skipped (a SIGKILLed worker
    may tear its last record — that costs one record, not the trace).
    """
    source = Path(source)
    if source.is_dir():
        paths = sorted(p for p in source.glob("*.jsonl")
                       if p.name != STITCHED_NAME)
    else:
        paths = [source]
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh):
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(doc, dict) and doc.get("schema") in schemas:
                    yield str(path), number, doc


def read_spans(source) -> list[dict]:
    """Load raw span records (not trace events) from a capture
    directory or a single file."""
    return [doc for _, _, doc in _read_records(source, (SPAN_SCHEMA,))]


@dataclass
class StitchedTrace:
    """One causally-ordered trace assembled from per-process files."""

    spans: list[dict] = field(default_factory=list)   # preorder walk
    roots: list[dict] = field(default_factory=list)
    orphans: list[dict] = field(default_factory=list)
    by_id: dict = field(default_factory=dict)
    children: dict = field(default_factory=dict)

    def child_spans(self, span: dict) -> list[dict]:
        return self.children.get(span["span_id"], [])

    def problems(self) -> list[str]:
        """Well-formedness violations (empty for a healthy trace)."""
        out = []
        if len(self.roots) != 1:
            out.append(f"expected exactly one root span, "
                       f"found {len(self.roots)}")
        if self.orphans:
            names = sorted({o["name"] for o in self.orphans})
            out.append(f"{len(self.orphans)} orphan span(s) reference "
                       f"missing parents: {', '.join(names[:5])}")
        return out


def stitch(records: list[dict]) -> StitchedTrace:
    """Merge raw records into one causally-ordered trace.

    Parents precede children (preorder walk from the roots); siblings
    order by start time, tie-broken by span id so the stitched output
    is stable.  Spans whose parent id resolves to no record — a parent
    lost to a SIGKILL before it could close — are collected as orphans
    and appended after the rooted spans rather than dropped.
    """
    by_id = {r["span_id"]: r for r in records}
    children: dict[str, list[dict]] = {}
    roots: list[dict] = []
    orphans: list[dict] = []
    for record in records:
        parent = record.get("parent_id")
        if parent is None:
            roots.append(record)
        elif parent in by_id:
            children.setdefault(parent, []).append(record)
        else:
            orphans.append(record)

    def order(siblings: list[dict]) -> list[dict]:
        return sorted(siblings, key=lambda r: (r["start_s"], r["span_id"]))

    for parent_id in children:
        children[parent_id] = order(children[parent_id])
    roots = order(roots)
    orphans = order(orphans)

    spans: list[dict] = []
    stack = list(reversed(roots))
    while stack:
        record = stack.pop()
        spans.append(record)
        stack.extend(reversed(children.get(record["span_id"], ())))
    spans.extend(orphans)
    return StitchedTrace(spans=spans, roots=roots, orphans=orphans,
                         by_id=by_id, children=children)


def stitch_to_file(span_dir) -> Path:
    """Stitch a capture directory and write the ordered trace to
    ``<dir>/trace.jsonl``; returns its path."""
    return write_jsonl(Path(span_dir) / STITCHED_NAME,
                       stitch(read_spans(span_dir)).spans)


def write_jsonl(path, records) -> Path:
    """Write *records* one compact JSON object per line; returns *path*."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    return Path(path)


def stitch_events(source) -> list[dict]:
    """A capture's ``phantom.trace/1`` events in one order.

    Within a process each event keeps its place in that process's
    file: emission order.  The events of a span that ran in another
    process than its parent (a job on a pool worker) go, in sibling
    start order, just before the parent's first line in the parent's
    file — after what the parent traced before the campaign, before
    its ``reduce``.  So ``--jobs 1`` gives plain emission order, and
    each job's own sequence is the same at any ``--jobs``.  Events of
    an unrecorded span follow the rest, per file.
    """
    spans: dict[str, tuple] = {}   # span_id -> (file, line, record)
    events: list[tuple] = []
    for item in _read_records(source, (SPAN_SCHEMA, TRACE_SCHEMA)):
        if item[2]["schema"] == SPAN_SCHEMA:
            spans[item[2]["span_id"]] = item
        else:
            events.append(item)

    def chain(span_id, path):      # *span_id* and its ancestors in *path*
        while span_id in spans and spans[span_id][0] == path:
            yield span_id
            span_id = spans[span_id][2]["parent_id"]

    first: dict[str, int] = {}     # a span's first subtree line, own file
    for path, number, doc in events + list(spans.values()):
        for span_id in chain(doc["span_id"], path):
            first[span_id] = min(first.get(span_id, number), number)

    @functools.cache
    def prefix(span_id, path) -> tuple:
        """Sort-key levels above an item of *path* under *span_id*."""
        top = None
        for top in chain(span_id, path):
            pass
        parent = spans[top][2]["parent_id"] if top else None
        if parent in spans:        # *top* ran in another process
            return prefix(parent, spans[parent][0]) + (
                (first[parent] - 0.5, spans[top][2]["start_s"], top),)
        return () if top and parent is None else ((math.inf, path),)

    events.sort(key=lambda e: prefix(e[2]["span_id"], e[0]) + ((e[1],),))
    return [doc for _, _, doc in events]


def trace_structure(trace: StitchedTrace) -> tuple:
    """The trace's shape with every execution detail erased.

    A nested ``(name, (child, …))`` tuple per root, children sorted —
    equal structures mean the same span names connected by the same
    parent/child edges, which is exactly the ``--jobs``-independence
    guarantee (timing, pids and ids are allowed to differ)."""
    def shape(record: dict) -> tuple:
        kids = tuple(sorted(shape(child)
                            for child in trace.child_spans(record)))
        return (record["name"], kids)

    return tuple(sorted(shape(root) for root in trace.roots))


def critical_path(trace: StitchedTrace) -> list[dict]:
    """Root-to-leaf chain that dominated the wall clock: from each
    span, descend into its longest child."""
    if not trace.roots:
        return []
    path = [max(trace.roots, key=lambda r: r["duration_s"])]
    while True:
        kids = trace.child_spans(path[-1])
        if not kids:
            return path
        path.append(max(kids, key=lambda r: r["duration_s"]))


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1000:7.2f}ms"


def summarize_trace(trace: StitchedTrace) -> list[str]:
    """Text summary: critical path, a per-span-name table (count /
    total / mean / min / max) — the phase histogram — and each job's
    cost on both clocks: host time and simulated cycles."""
    lines: list[str] = []
    if not trace.spans:
        return ["no spans"]
    root = trace.roots[0] if trace.roots else trace.spans[0]
    lines.append(f"trace {root['trace_id']}: {len(trace.spans)} spans, "
                 f"root {root['name']!r} {_fmt_s(root['duration_s'])}")
    for problem in trace.problems():
        lines.append(f"WARNING: {problem}")

    lines.append("critical path:")
    for depth, span in enumerate(critical_path(trace)):
        lines.append(f"  {'  ' * depth}{_fmt_s(span['duration_s'])}  "
                     f"{span['name']}")

    by_name: dict[str, list[float]] = {}
    for span in trace.spans:
        by_name.setdefault(span["name"], []).append(span["duration_s"])
    lines.append("spans by name:")
    width = max(len(name) for name in by_name)
    lines.append(f"  {'name':<{width}s}  {'count':>5s}  {'total':>9s}  "
                 f"{'mean':>9s}  {'min':>9s}  {'max':>9s}")
    for name in sorted(by_name, key=lambda n: -sum(by_name[n])):
        durations = by_name[name]
        lines.append(
            f"  {name:<{width}s}  {len(durations):>5d}  "
            f"{_fmt_s(sum(durations)):>9s}  "
            f"{_fmt_s(sum(durations) / len(durations)):>9s}  "
            f"{_fmt_s(min(durations)):>9s}  {_fmt_s(max(durations)):>9s}")
    jobs = [span for span in trace.spans if "cycles" in span["attrs"]]
    if jobs:
        lines.append("jobs:")
        width = max(len(span["name"]) for span in jobs)
        lines.append(f"  {'job':<{width}s}  {'host':>9s}  {'cycles':>12s}")
        for span in jobs:
            lines.append(f"  {span['name']:<{width}s}  "
                         f"{_fmt_s(span['duration_s']):>9s}  "
                         f"{span['attrs']['cycles']:>12,d}")
    errors = [s for s in trace.spans if s["status"] != "ok"]
    if errors:
        lines.append(f"errors: {len(errors)} span(s) closed with "
                     f"status=error "
                     f"({', '.join(sorted({s['name'] for s in errors})[:5])})")
    return lines
