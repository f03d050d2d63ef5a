"""Execution harness: run one :class:`FuzzProgram` on one engine.

A harness run builds a miniature two-world machine — user code/data/
stack plus an optional supervisor nano-kernel stub — directly on
:class:`~repro.memory.MemorySystem` and :class:`~repro.pipeline.CPU`
rather than booting a full :class:`~repro.kernel.Machine`.  Booting the
kernel image costs ~170 ms; this harness is ~1 ms per program, which is
what makes a 200-program oracle sweep fit a CI smoke budget.  The trap
protocol (syscall/sysret save-restore, costs, PMC accounting) mirrors
``Machine._trap`` so syscall-crossing programs exercise the same
privilege-switch paths the real experiments do, and the mitigations
run through the very :class:`MitigationConfig` methods a booted
machine calls.

Everything that can end a run is folded into a deterministic *outcome
string* (``halt``, ``pagefault:u:r:0x15002000``, ``limit``, ...), so a
program whose architectural behaviour is "fault on run 2" still
replays bit-identically and still diverges loudly if one engine faults
differently from the other.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from ..errors import (DecodeError, GeneralProtectionFault, HaltRequested,
                      MemoryError_, PageFault, ReproError, SimulationLimit)
from ..isa import Image, Reg, Segment
from ..kernel.mitigations import DEFAULT_MITIGATIONS, MitigationConfig
from ..memory import MemorySystem
from ..params import PAGE_SIZE
from ..pipeline import CPU, Microarch
from .program import (BuiltProgram, FuzzProgram, KERNEL_CODE,
                      KERNEL_CODE_PAGES, KERNEL_STACK_TOP,
                      KERNEL_STACK_PAGES, USER_DATA, USER_DATA_PAGES,
                      USER_STACK_TOP, USER_STACK_PAGES)

#: Physical memory given to each fuzz world (a handful of pages used).
PHYS_SIZE = 4 << 20


class ProgramExit(ReproError):
    """Deterministic early stop raised by the harness trap handler."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


@dataclass(frozen=True)
class Observables:
    """Everything two engines must agree on, byte for byte."""

    outcome: str                       # per-run outcomes joined by ";"
    pc: int
    kernel_mode: bool
    regs: tuple[int, ...]
    flags: tuple[bool, bool, bool, bool]
    cycles: int
    instructions: int
    pmc: tuple[tuple[str, int], ...]
    episodes: tuple[tuple, ...]        # EpisodeRecord.key() + (cycle,)
    data_sha: str

    #: Field presentation order for divergence reports.
    FIELDS = ("outcome", "pc", "kernel_mode", "regs", "flags", "cycles",
              "instructions", "pmc", "episodes", "data_sha")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


def compare_observables(a: Observables, b: Observables,
                        *, exclude: tuple[str, ...] = ()) -> list[str]:
    """Human-readable list of differing fields (empty when identical)."""
    diffs = []
    for name in Observables.FIELDS:
        if name in exclude:
            continue
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb:
            if name == "pmc":  # report only the differing counters
                da, db = dict(va), dict(vb)
                keys = sorted(k for k in set(da) | set(db)
                              if da.get(k) != db.get(k))
                va = {k: da.get(k) for k in keys}
                vb = {k: db.get(k) for k in keys}
            diffs.append(f"{name}: {va!r} != {vb!r}")
    return diffs


@dataclass
class World:
    """A built fuzz machine, kept alive for post-run invariant checks."""

    built: BuiltProgram
    mem: MemorySystem
    cpu: CPU
    saved_user_pc: int = 0
    saved_user_rsp: int = 0
    run_outcomes: list[str] = field(default_factory=list)
    mitigations: MitigationConfig = DEFAULT_MITIGATIONS

    @property
    def program(self) -> FuzzProgram:
        return self.built.program


def build_world(program: FuzzProgram | BuiltProgram, uarch: Microarch, *,
                fastpath: bool,
                mitigations: MitigationConfig = DEFAULT_MITIGATIONS
                ) -> World:
    """Map a program's images into a fresh MemorySystem + CPU.

    *mitigations* (default: the paper's baseline) arms the same
    switches a booted :class:`~repro.kernel.Machine` would, through the
    same :class:`~repro.kernel.mitigations.MitigationConfig` methods:
    the MSR bits are set before the first instruction, and the
    kernel-entry actions (IBPB, RSB stuffing) run in the trap handler.
    """
    built = program if isinstance(program, BuiltProgram) else program.build()
    mem = MemorySystem(PHYS_SIZE, hierarchy=uarch.hierarchy,
                       rng=random.Random(0), fastpath=fastpath)
    cpu = CPU(uarch, mem, rng=random.Random(0), fastpath=fastpath)
    mitigations.arm(cpu)

    mem.load_image(built.user_image, user=True)
    data = built.program.data.ljust(USER_DATA_PAGES * PAGE_SIZE, b"\x00")
    data_image = Image()
    data_image.add(Segment(USER_DATA, data))
    mem.load_image(data_image, user=True, nx=True)
    mem.map_anonymous(USER_STACK_TOP - USER_STACK_PAGES * PAGE_SIZE,
                      USER_STACK_PAGES * PAGE_SIZE, user=True, nx=True)
    if built.kernel_image is not None:
        mem.load_image(built.kernel_image, user=False)
        mem.map_anonymous(KERNEL_STACK_TOP - KERNEL_STACK_PAGES * PAGE_SIZE,
                          KERNEL_STACK_PAGES * PAGE_SIZE, user=False,
                          nx=True)

    world = World(built=built, mem=mem, cpu=cpu, mitigations=mitigations)
    cpu.trap_handler = _make_trap_handler(world)
    return world


#: Where the fuzz world's RSB-stuffing pad "lives": the tail of the
#: mapped kernel code region (never executed architecturally — only
#: the return predictor sees it, mirroring ``rsb_stuff_pad``).
RSB_STUFF_PAD = KERNEL_CODE + KERNEL_CODE_PAGES * PAGE_SIZE - 64


def _make_trap_handler(world: World):
    """Nano-kernel trap protocol, mirroring ``Machine._trap``."""

    def trap(cpu: CPU, trap_name: str, instr, result) -> None:
        uarch = cpu.uarch
        if trap_name == "syscall":
            if cpu.kernel_mode:
                raise ProgramExit("nested-syscall")
            if world.built.kernel_image is None:
                raise ProgramExit("syscall-no-kernel")
            world.saved_user_pc = result.next_pc
            world.saved_user_rsp = cpu.state.read(Reg.RSP)
            world.mitigations.enter_kernel(cpu, RSB_STUFF_PAD)
            cpu.kernel_mode = True
            cpu.state.write(Reg.RSP, KERNEL_STACK_TOP - 64)
            cpu.cycles += uarch.syscall_entry_cost
            cpu.pmc.add("syscalls")
            cpu.pc = KERNEL_CODE
            return
        if trap_name == "sysret":
            if not cpu.kernel_mode:
                raise ProgramExit("sysret-user")
            cpu.kernel_mode = False
            cpu.state.write(Reg.RSP, world.saved_user_rsp)
            cpu.cycles += uarch.syscall_exit_cost
            cpu.pc = world.saved_user_pc
            return
        if trap_name == "ud2":
            raise ProgramExit("ud2")
        raise ProgramExit(f"trap:{trap_name}")

    return trap


def _reset_for_run(world: World) -> None:
    """Per-run architectural reset (a fresh process entering the same
    warm machine: caches, BTB and rewritten code persist across runs)."""
    cpu = world.cpu
    cpu.kernel_mode = False
    state = cpu.state
    for i in range(16):
        state.regs[i] = 0
    flags = state.flags
    flags.zf = flags.sf = flags.cf = flags.of = False
    for reg, value in world.program.initial_regs().items():
        state.write(reg, value)
    state.write(Reg.RSP, USER_STACK_TOP - 64)


def _apply_patches(world: World, before_run: int) -> None:
    """Rewrite patched items in place (self-modifying code event)."""
    for patch in world.program.patches:
        if patch.before_run != before_run:
            continue
        va, raw = world.built.patch_bytes(patch)
        pa = world.mem.aspace.translate(va, write=True, user_mode=True)
        world.mem.phys.write(pa, raw)
        world.cpu.invalidate_code(va, va + len(raw))


def _run_once(world: World) -> str:
    """One entry-to-exit run; returns the outcome token."""
    cpu = world.cpu
    try:
        cpu.run(world.built.entry,
                max_instructions=world.program.max_instructions)
    except HaltRequested:
        return "halt"
    except ProgramExit as exc:
        return exc.reason
    except PageFault as fault:
        mode = "u" if fault.user else "k"
        kind = "x" if fault.exec_ else ("w" if fault.write else "r")
        return f"pagefault:{mode}:{kind}:{fault.va:#x}"
    except GeneralProtectionFault:
        return "gpf"
    except SimulationLimit:
        return "limit"
    except DecodeError:
        return "decode-error"
    except MemoryError_:
        return "memory-error"
    except ReproError as exc:  # any other modelled stop, deterministically
        return f"error:{type(exc).__name__}"
    return "returned"


def _data_digest(world: World) -> str:
    """SHA-256 over the (physical) data region after the final run."""
    digest = hashlib.sha256()
    for page in range(USER_DATA_PAGES):
        va = USER_DATA + page * PAGE_SIZE
        pa = world.mem.aspace.translate_noperm(va)
        if pa is None:
            digest.update(b"\x00" * PAGE_SIZE)
        else:
            digest.update(world.mem.phys.read(pa, PAGE_SIZE))
    return digest.hexdigest()


def collect_observables(world: World) -> Observables:
    cpu = world.cpu
    flags = cpu.state.flags
    episodes = tuple(e.key() + (e.cycle,) for e in cpu.episodes)
    return Observables(
        outcome=";".join(world.run_outcomes),
        pc=cpu.pc,
        kernel_mode=cpu.kernel_mode,
        regs=tuple(cpu.state.regs),
        flags=(flags.zf, flags.sf, flags.cf, flags.of),
        cycles=cpu.cycles,
        instructions=cpu.pmc.read("instructions"),
        pmc=tuple(cpu.pmc.snapshot().items()),
        episodes=episodes,
        data_sha=_data_digest(world),
    )


def run_world(world: World) -> Observables:
    """Execute every scheduled run of an already-built world."""
    for run_index in range(world.program.runs):
        if run_index:
            _apply_patches(world, run_index)
        _reset_for_run(world)
        world.run_outcomes.append(_run_once(world))
    return collect_observables(world)


def run_program(program: FuzzProgram | BuiltProgram, uarch: Microarch, *,
                fastpath: bool, record_episodes: bool = True,
                mitigations: MitigationConfig = DEFAULT_MITIGATIONS
                ) -> tuple[Observables, World]:
    """Run every scheduled run of *program* on one engine.

    Returns the final observables plus the live :class:`World` so
    invariant checks can inspect engine-internal caches afterwards.
    """
    world = build_world(program, uarch, fastpath=fastpath,
                        mitigations=mitigations)
    world.cpu.record_episodes = record_episodes
    observables = run_world(world)
    return observables, world
