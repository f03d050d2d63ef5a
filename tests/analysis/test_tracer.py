"""Execution tracer: timelines, episode attribution, rendering."""

from repro.analysis import Tracer
from repro.core import AttackerRuntime
from repro.isa import Assembler, Reg
from repro.kernel import Machine, SYS_GETPID
from repro.pipeline import ZEN2
from repro.telemetry import TRACE, MemorySink

CODE = 0x0000_0000_0900_0000


def test_traces_instructions():
    machine = Machine(ZEN2)
    asm = Assembler(CODE)
    asm.mov_ri(Reg.RAX, 5)
    asm.add_ri(Reg.RAX, 2)
    asm.hlt()
    machine.load_user_image(asm.image())
    with Tracer(machine) as trace:
        machine.run_user(CODE)
    assert len(trace.entries) == 3
    assert trace.entries[0].pc == CODE
    assert "mov_ri" in trace.entries[0].text
    assert trace.entries[-1].cycle >= trace.entries[0].cycle


def test_kernel_mode_marked():
    machine = Machine(ZEN2)
    with Tracer(machine) as trace:
        machine.syscall(SYS_GETPID)
    modes = {entry.kernel_mode for entry in trace.entries}
    assert modes == {True, False}
    rendered = trace.render()
    assert " K " in rendered and " u " in rendered


def test_episodes_attributed_to_instruction():
    machine = Machine(ZEN2, syscall_noise_evictions=0)
    attacker = AttackerRuntime(machine)
    src = 0x0000_0000_0910_0AC0
    target = 0x0000_0000_0920_0000
    attacker.write_code(target, b"\x90\xf4")
    attacker.train_indirect(src, target)
    attacker.write_code(src, b"\x90" * 4 + b"\xf4")
    with Tracer(machine) as trace:
        machine.run_user(src)
    phantom_entries = [e for e in trace.entries if e.episodes]
    assert phantom_entries
    assert phantom_entries[0].pc == src
    assert trace.episode_count(frontend=True) >= 1
    assert "phantom" in trace.render()


def test_tracer_restores_hooks():
    """The tracer is a TRACE sink only while its block runs, and it
    leaves the CPU's own episode log alone."""
    machine = Machine(ZEN2)
    with Tracer(machine) as trace:
        assert TRACE.enabled
        machine.syscall(SYS_GETPID)
    assert not TRACE.enabled
    assert machine.cpu.record_episodes is False
    assert machine.cpu.episodes == []
    assert trace.episode_count() >= 1


def test_limit_respected():
    machine = Machine(ZEN2)
    asm = Assembler(CODE)
    for _ in range(50):
        asm.nop()
    asm.hlt()
    machine.load_user_image(asm.image())
    with Tracer(machine, limit=10) as trace:
        machine.run_user(CODE)
    assert len(trace.entries) == 10


def test_hooks_restored_when_body_raises():
    """Only the tracer's own sink is detached, even on an exception: a
    sink attached before it (as ``--trace-out`` does) keeps receiving
    the stream, inside the block and after it."""
    machine = Machine(ZEN2)
    outer = MemorySink()
    with TRACE.sink(outer):
        try:
            with Tracer(machine) as trace:
                machine.syscall(SYS_GETPID)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        traced = len(outer.events)
        assert [e for e in outer.events if e.kind in ("retire", "episode")] \
            == trace.events
        machine.syscall(SYS_GETPID)
        assert TRACE.enabled
    assert not TRACE.enabled
    assert len(outer.events) > traced
    assert len(trace.entries) == sum(e.kind == "retire"
                                     for e in outer.events[:traced])
    assert machine.cpu.record_episodes is False


def _nop_sled_machine(n):
    machine = Machine(ZEN2)
    asm = Assembler(CODE)
    for _ in range(n):
        asm.nop()
    asm.hlt()
    machine.load_user_image(asm.image())
    return machine


def test_truncation_is_marked_not_silent():
    machine = _nop_sled_machine(50)
    with Tracer(machine, limit=10) as trace:
        machine.run_user(CODE)
    assert len(trace.entries) == 10
    assert trace.truncated
    assert trace.dropped_instructions == 41   # 40 nops + hlt
    assert "trace truncated at limit=10" in trace.render()
    assert any(e.kind == "trace_truncated" for e in trace.events)


def test_episodes_after_truncation_become_orphans():
    machine = Machine(ZEN2, syscall_noise_evictions=0)
    attacker = AttackerRuntime(machine)
    src = 0x0000_0000_0910_0AC0
    target = 0x0000_0000_0920_0000
    attacker.write_code(target, b"\x90\xf4")
    attacker.train_indirect(src, target)
    # 8 nops before the phantom source: a limit of 4 cuts the trace
    # well before the episode fires.
    attacker.write_code(src - 8, b"\x90" * 12 + b"\xf4")
    with Tracer(machine, limit=4) as trace:
        machine.run_user(src - 8)
    assert trace.truncated
    assert trace.orphan_episodes
    assert trace.episode_count(frontend=True) >= 1   # orphans counted
    assert all(not e.episodes for e in trace.entries)
    rendered = trace.render()
    assert "orphan episode" in rendered
    assert any(e.kind == "orphan_episodes" for e in trace.events)


def test_typed_events_written_as_jsonl(tmp_path):
    machine = Machine(ZEN2)
    with Tracer(machine) as trace:
        machine.syscall(SYS_GETPID)
    path = tmp_path / "trace.jsonl"
    count = trace.write_jsonl(path)
    from repro.telemetry import TRACE_SCHEMA, read_jsonl
    events = read_jsonl(path)
    assert len(events) == count == len(trace.events)
    assert all(e["schema"] == TRACE_SCHEMA for e in events)
    kinds = {e["kind"] for e in events}
    assert "retire" in kinds and "episode" in kinds
