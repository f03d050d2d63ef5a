"""A UnixBench-flavoured workload suite for mitigation-overhead runs.

The paper measures SuppressBPOnNonBr's cost with UnixBench (§6.3: 0.69 %
single-core, 0.42 % multi-core, geometric mean of 5 runs per test).
This suite mirrors the mix: ALU-heavy loops (dhrystone/whetstone
stand-ins), syscall and "pipe" style kernel-entry pressure, a branchy
shell-like dispatcher and a memory-copy loop — all executing on the
simulated CPU, where the mitigation's frontend cost accrues naturally.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import ClassVar

from ..isa import Assembler, Cond, Reg
from ..kernel import (DEFAULT_MITIGATIONS, Machine, MachineSpec,
                      MitigationConfig, SYS_GETPID, SYS_NOISE)
from ..pipeline import Microarch
from ..runner import JobContext, JobSpec, run_campaign

_CODE_BASE = 0x0000_0000_0300_0000
_DATA_BASE = 0x0000_0000_0380_0000


def _run(machine: Machine, asm: Assembler) -> None:
    image = asm.image()
    machine.load_user_image(image)
    machine.run_user(image.segments[0].base, max_instructions=500_000)


def wl_dhrystone(machine: Machine) -> None:
    """Integer ALU loop."""
    asm = Assembler(_CODE_BASE)
    asm.mov_ri(Reg.RCX, 400)
    asm.mov_ri(Reg.RAX, 0)
    asm.label("loop")
    asm.add_ri(Reg.RAX, 7)
    asm.xor_rr(Reg.RBX, Reg.RAX)
    asm.shl_ri(Reg.RBX, 1)
    asm.sub_ri(Reg.RCX, 1)
    asm.jcc(Cond.NE, "loop")
    asm.hlt()
    _run(machine, asm)


def wl_whetstone(machine: Machine) -> None:
    """Shift/or chains (floating point stands in as integer mix)."""
    asm = Assembler(_CODE_BASE + 0x10000)
    asm.mov_ri(Reg.RCX, 300)
    asm.mov_ri(Reg.RDX, 0x1234_5678)
    asm.label("loop")
    asm.mov_rr(Reg.RAX, Reg.RDX)
    asm.shr_ri(Reg.RAX, 3)
    asm.or_rr(Reg.RDX, Reg.RAX)
    asm.add_rr(Reg.RDX, Reg.RAX)
    asm.sub_ri(Reg.RCX, 1)
    asm.jcc(Cond.NE, "loop")
    asm.hlt()
    _run(machine, asm)


def wl_syscall(machine: Machine) -> None:
    """getpid() in a loop (UnixBench syscall test)."""
    for _ in range(60):
        machine.syscall(SYS_GETPID)


def wl_pipe(machine: Machine) -> None:
    """Kernel-entry pressure with a branchy kernel body."""
    for _ in range(60):
        machine.syscall(SYS_NOISE)


def wl_shell(machine: Machine) -> None:
    """Branchy user code with calls (shell-script dispatch pattern)."""
    asm = Assembler(_CODE_BASE + 0x20000)
    asm.mov_ri(Reg.RCX, 120)
    asm.label("loop")
    asm.mov_rr(Reg.RAX, Reg.RCX)
    asm.and_ri(Reg.RAX, 3)
    asm.cmp_ri(Reg.RAX, 1)
    asm.jcc(Cond.E, "case1")
    asm.cmp_ri(Reg.RAX, 2)
    asm.jcc(Cond.E, "case2")
    asm.call("work")
    asm.jmp("next")
    asm.label("case1")
    asm.call("work")
    asm.jmp("next")
    asm.label("case2")
    asm.call("work")
    asm.label("next")
    asm.sub_ri(Reg.RCX, 1)
    asm.jcc(Cond.NE, "loop")
    asm.hlt()
    asm.label("work")
    asm.add_ri(Reg.RDX, 1)
    asm.ret()
    _run(machine, asm)


def wl_memcpy(machine: Machine) -> None:
    """Load/store streaming loop."""
    machine.map_user(_DATA_BASE, 2 * 4096)
    asm = Assembler(_CODE_BASE + 0x30000)
    asm.mov_ri(Reg.RSI, _DATA_BASE)
    asm.mov_ri(Reg.RDI, _DATA_BASE + 4096)
    asm.mov_ri(Reg.RCX, 120)
    asm.label("loop")
    asm.load(Reg.RAX, Reg.RSI)
    asm.store(Reg.RDI, 0, Reg.RAX)
    asm.add_ri(Reg.RSI, 8)
    asm.add_ri(Reg.RDI, 8)
    asm.sub_ri(Reg.RCX, 1)
    asm.jcc(Cond.NE, "loop")
    asm.hlt()
    _run(machine, asm)


WORKLOADS: dict[str, Callable[[Machine], None]] = {
    "dhrystone": wl_dhrystone,
    "whetstone": wl_whetstone,
    "syscall": wl_syscall,
    "pipe": wl_pipe,
    "shell": wl_shell,
    "memcpy": wl_memcpy,
}


@dataclass
class SuiteResult:
    """Cycle counts per workload for one configuration."""

    cycles: dict[str, int]

    def geometric_mean(self) -> float:
        values = list(self.cycles.values())
        return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass(frozen=True)
class SuiteExperiment:
    """The §6.3 campaign: one job per workload.

    Every run inside a job boots from the same :class:`MachineSpec`
    with ``rng_seed = seed + run`` — exactly the machines the serial
    suite built — so cycle counts match the pre-runner API at any
    ``--jobs``.
    """

    name: ClassVar[str] = "suite"

    machine: MachineSpec
    runs: int = 5
    seed: int = 0

    def campaign_config(self) -> dict:
        return {"uarch": self.machine.uarch, "runs": self.runs,
                "seed": self.seed,
                "workloads": sorted(WORKLOADS)}

    def job_specs(self) -> list[JobSpec]:
        return [JobSpec.make(self.name, (name,), self.seed,
                             machine=self.machine, workload=name)
                for name in WORKLOADS]

    def run_one(self, spec: JobSpec, ctx: JobContext) -> tuple[str, int]:
        workload = WORKLOADS[spec.param("workload")]
        cycles = 0
        for r in range(self.runs):
            machine = ctx.boot(
                spec.machine.with_(rng_seed=self.seed + r))
            before = machine.cycles
            workload(machine)
            cycles += machine.cycles - before
        return spec.key[0], cycles // self.runs

    def reduce(self, results) -> SuiteResult:
        return SuiteResult(cycles=dict(r.value for r in results if r.ok))


def run_suite(uarch: Microarch, *,
              mitigations: MitigationConfig = DEFAULT_MITIGATIONS,
              runs: int = 5, sibling_load: bool = False,
              seed: int = 0, jobs: int = 1) -> SuiteResult:
    """Run each workload *runs* times; per-workload cycles = mean.

    ``jobs`` shards the workloads across worker processes; cycle counts
    are identical at any value.
    """
    experiment = SuiteExperiment(
        machine=MachineSpec(uarch=uarch, mitigations=mitigations,
                            rng_seed=seed, sibling_load=sibling_load),
        runs=runs, seed=seed)
    return run_campaign(experiment, jobs=jobs).raise_on_failure().value


def mitigation_overhead(uarch: Microarch, *, runs: int = 5,
                        sibling_load: bool = False,
                        jobs: int = 1) -> float:
    """SuppressBPOnNonBr overhead as a geometric-mean ratio - 1."""
    base = run_suite(uarch, runs=runs, sibling_load=sibling_load,
                     jobs=jobs)
    hardened = run_suite(
        uarch, runs=runs, sibling_load=sibling_load, jobs=jobs,
        mitigations=MitigationConfig(suppress_bp_on_non_br=True))
    return hardened.geometric_mean() / base.geometric_mean() - 1.0
