"""Execution tracing: per-instruction timeline with speculation episodes.

Attach a :class:`Tracer` to a machine, run code, and render a text
timeline interleaving architectural instructions with the phantom /
Spectre episodes they triggered — the tool we reach for when a new
experiment misbehaves.

The tracer is a sink of the process-wide ``phantom.trace/1`` stream
(:data:`~repro.telemetry.trace.TRACE`): it keeps the ``retire`` and
``episode`` events it sees, and its text renderer and
:meth:`Tracer.write_jsonl` are two views of that list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..pipeline import EpisodeRecord, Reach
from ..telemetry.trace import TRACE, JsonLinesSink, TraceEvent


@dataclass
class TraceEntry:
    """One retired instruction plus the episodes it triggered."""

    pc: int
    text: str
    cycle: int
    kernel_mode: bool
    episodes: list[EpisodeRecord] = field(default_factory=list)


class Tracer:
    """Records an instruction/episode timeline from a machine.

    A ``phantom.trace/1`` sink: inside the ``with`` block it is attached
    to :data:`~repro.telemetry.trace.TRACE`, each ``retire`` event
    becomes an entry and each ``episode`` event attaches to the latest
    entry.  Sinks attached before it (``--trace-out``) keep receiving
    the same stream; only the tracer's own sink is detached on exit.

    Episodes after the ``limit``-th instruction are not dropped: the
    first overflow emits a ``trace_truncated`` event, and later
    episodes land in :attr:`orphan_episodes`, as do episodes recorded
    before the first instruction retires.
    """

    def __init__(self, machine, *, limit: int = 10_000) -> None:
        self.machine = machine
        self.limit = limit
        self.entries: list[TraceEntry] = []
        self.events: list[TraceEvent] = []
        self.orphan_episodes: list[EpisodeRecord] = []
        self.truncated = False
        self.dropped_instructions = 0

    # -- recording -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        TRACE.add_sink(self)
        return self

    def __exit__(self, *exc) -> None:
        TRACE.remove_sink(self)
        if self.orphan_episodes:
            self.events.append(TraceEvent(
                "orphan_episodes", self.machine.cpu.cycles,
                {"count": len(self.orphan_episodes)}))

    def emit(self, event: TraceEvent) -> None:
        if event.kind == "retire":
            if len(self.entries) >= self.limit:
                if not self.truncated:
                    self.truncated = True
                    self.events.append(TraceEvent(
                        "trace_truncated", event.cycle,
                        {"limit": self.limit}))
                self.dropped_instructions += 1
                return
            fields = event.fields
            self.entries.append(TraceEntry(
                pc=fields["pc"], text=fields["text"], cycle=event.cycle,
                kernel_mode=fields["kernel_mode"]))
        elif event.kind == "episode":
            episode = EpisodeRecord.from_event(event)
            if self.entries and not self.truncated:
                self.entries[-1].episodes.append(episode)
            else:
                # Before the first instruction, or past the truncation
                # point: keep them visible instead of attaching to
                # nothing.
                self.orphan_episodes.append(episode)
        else:
            return
        self.events.append(event)

    def close(self) -> None:
        pass

    # -- structured export -----------------------------------------------------

    def write_jsonl(self, path) -> int:
        """Dump the typed event stream as JSON-lines; returns event count."""
        sink = JsonLinesSink(path)
        try:
            for event in self.events:
                sink.emit(event)
        finally:
            sink.close()
        return len(self.events)

    # -- rendering -------------------------------------------------------------

    @staticmethod
    def _reach_tag(reach: Reach) -> str:
        return {Reach.NONE: "--", Reach.FETCH: "IF", Reach.DECODE: "ID",
                Reach.EXECUTE: "EX"}[reach]

    @classmethod
    def _episode_line(cls, ep: EpisodeRecord) -> str:
        flavour = "phantom" if ep.frontend_resteer else "spectre"
        nested = " nested" if ep.nested else ""
        predicted = (ep.predicted_kind.value
                     if ep.predicted_kind else "none")
        return (f"{'':>10s} |  {flavour}{nested}: predicted "
                f"{predicted} at {ep.source_pc:#x} -> "
                f"{ep.target:#x} reach={cls._reach_tag(ep.reach)}")

    def render(self, *, show_episodes: bool = True) -> str:
        """Text timeline: ``cycle  mode  pc  instruction`` plus episode
        annotations indented beneath their triggering instruction."""
        lines = []
        for entry in self.entries:
            mode = "K" if entry.kernel_mode else "u"
            lines.append(f"{entry.cycle:>10d} {mode} {entry.pc:#014x}  "
                         f"{entry.text}")
            if not show_episodes:
                continue
            for ep in entry.episodes:
                lines.append(self._episode_line(ep))
        if self.truncated:
            lines.append(f"{'':>10s} ~  trace truncated at limit="
                         f"{self.limit} ({self.dropped_instructions} "
                         f"instructions dropped)")
        if self.orphan_episodes and show_episodes:
            lines.append(f"{'':>10s} ~  {len(self.orphan_episodes)} "
                         f"orphan episode(s) not attached to any "
                         f"traced instruction:")
            for ep in self.orphan_episodes:
                lines.append(self._episode_line(ep))
        return "\n".join(lines)

    def episode_count(self, *, frontend: bool | None = None) -> int:
        total = 0
        for entry in self.entries:
            for ep in entry.episodes:
                if frontend is None or ep.frontend_resteer == frontend:
                    total += 1
        for ep in self.orphan_episodes:
            if frontend is None or ep.frontend_resteer == frontend:
                total += 1
        return total
