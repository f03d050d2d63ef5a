"""Trace collector: sinks, schema, JSON-lines round-trips."""

from repro.telemetry import TRACE, TRACE_SCHEMA, read_jsonl
from repro.telemetry.trace import (JsonLinesSink, MemorySink,
                                   TraceCollector, TraceEvent)


def test_disabled_collector_drops_events():
    collector = TraceCollector()
    collector.emit("retire", 1, pc=0x1000)
    sink = MemorySink()
    collector.add_sink(sink)
    collector.remove_sink(sink)
    assert sink.events == []


def test_adding_a_sink_enables_removing_disables():
    collector = TraceCollector()
    assert not collector.enabled
    sink = MemorySink()
    collector.add_sink(sink)
    assert collector.enabled
    collector.remove_sink(sink)
    assert not collector.enabled


def test_events_fan_out_to_all_sinks():
    collector = TraceCollector()
    a, b = MemorySink(), MemorySink()
    collector.add_sink(a)
    collector.add_sink(b)
    collector.emit("episode", 42, flavour="phantom")
    assert len(a.events) == len(b.events) == 1
    assert a.events[0].kind == "episode"
    assert a.events[0].cycle == 42
    assert a.events[0].fields["flavour"] == "phantom"


def test_event_dict_carries_schema():
    event = TraceEvent("retire", 7, {"pc": 0x1000})
    doc = event.to_dict()
    assert doc["schema"] == TRACE_SCHEMA
    assert doc["kind"] == "retire"
    assert doc["cycle"] == 7
    assert doc["pc"] == 0x1000


def test_jsonl_sink_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    collector = TraceCollector()
    with collector.sink(JsonLinesSink(path)) as sink:
        collector.emit("retire", 1, pc=0x40)
        collector.emit("syscall", 2, nr=39)
        sink.close()
    events = read_jsonl(path)
    assert [e["kind"] for e in events] == ["retire", "syscall"]
    assert all(e["schema"] == TRACE_SCHEMA for e in events)


def test_sink_contextmanager_detaches_on_error():
    collector = TraceCollector()
    try:
        with collector.sink(MemorySink()):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert not collector.enabled


def test_machine_emits_typed_events(tmp_path):
    from repro.kernel import Machine, SYS_GETPID
    from repro.pipeline import ZEN2

    machine = Machine(ZEN2)
    sink = MemorySink()
    with TRACE.sink(sink):
        machine.syscall(SYS_GETPID)
    kinds = {e.kind for e in sink.events}
    assert "retire" in kinds
    assert "syscall" in kinds
    assert "episode" in kinds and "resteer" in kinds
    episode = next(e for e in sink.events if e.kind == "episode")
    assert episode.fields["flavour"] in ("phantom", "spectre")
    assert episode.fields["reach"] in ("NONE", "FETCH", "DECODE", "EXECUTE")
