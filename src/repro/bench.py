"""Simulator throughput benchmarks: simulated instructions per second.

Unlike everything else in :mod:`repro`, this module measures *host*
performance — how fast the simulator itself retires simulated
instructions — for the two execution engines (the naive interpreter and
the fast path, see :mod:`repro.fastpath`).  Three workloads cover the
simulator's main cost regimes:

* ``straight_line`` — unrolled arithmetic with one predictable loop
  branch: the decode/execute steady state, no speculation machinery.
* ``branch_heavy``  — a xorshift-fed data-dependent branch per
  iteration: constant BTB training, mispredicts and backend Spectre
  windows, the regime the experiments actually live in.
* ``syscall``       — user/kernel round trips on a booted
  :class:`~repro.kernel.Machine`: privilege transitions, IBPB/fence
  mitigation work and kernel-text execution.

Results are written as a ``phantom.bench/1`` document.  Regression
comparison is done on the fast/slow *speedup ratio*, not
absolute IPS: the ratio divides out host speed, so a baseline committed
from one machine remains meaningful on any other (CI runners included).

Every host-timed gate in the repository measures through one protocol,
:func:`paired_rounds`: the variants run in rotating order for
:data:`ROUNDS` rounds, each run is timed by the process's CPU clock,
and the gate reads the median per-round ratio.  A neighbour that slows
the host for a while slows both variants of a round alike, so the
ratio divides it out as well.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from .errors import HaltRequested
from .fastpath import ENV_VAR
from .isa import Assembler, Cond, Reg
from .memory import MemorySystem
from .params import PAGE_SIZE
from .pipeline import CPU, ZEN2

BENCH_SCHEMA = "phantom.bench/1"

#: Workload names in report order.
WORKLOADS = ("straight_line", "branch_heavy", "syscall")

#: Iterations per workload, sized so one ``repro bench`` run takes
#: well under a minute.
_SIZES = {
    "straight_line": 1_500,
    "branch_heavy": 3_000,
    # Round trips are cheap but individually tiny; anything under a few
    # hundred milliseconds of CPU time measures the OS scheduler, not
    # the simulator.
    "syscall": 300,
}

#: Allowed fractional speedup drop against a baseline.
TOLERANCE = 0.30

#: Rounds per paired measurement: a multiple of 2 and of 3, so with two
#: or three variants each one runs in every position equally often.
ROUNDS = 6

_CODE = 0x0000_0010_0000
_STACK = 0x0000_7FF0_0000


@dataclass
class Rounds:
    """What :func:`paired_rounds` measured, per variant and round."""

    seconds: dict[str, list[float]]
    #: What each timed callable returned, per round.
    results: dict[str, list]

    def median(self, name: str) -> float:
        """Median CPU seconds of variant *name*."""
        return statistics.median(self.seconds[name])

    def ratio(self, num: str, den: str) -> tuple[float, float]:
        """Median and interquartile range of the per-round ratio
        ``num / den``."""
        ratios = [a / b for a, b in zip(self.seconds[num],
                                        self.seconds[den])]
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        return statistics.median(ratios), q3 - q1


def paired_rounds(
        variants: dict[str, Callable[[], Callable[[], object]]]) -> Rounds:
    """Time *variants* in :data:`ROUNDS` rotating rounds.

    Each variant is a set-up callable that returns the callable to
    time, so boots and image loads stay outside the timed region.
    Round *r* starts with variant ``r % len(variants)``; with two
    variants they alternate.  Each run is timed by
    :func:`time.process_time`, which a waiting neighbour process does
    not advance.
    """
    names = list(variants)
    seconds = {name: [] for name in names}
    results = {name: [] for name in names}
    for r in range(ROUNDS):
        shift = r % len(names)
        for name in names[shift:] + names[:shift]:
            run = variants[name]()
            start = time.process_time()
            value = run()
            seconds[name].append(time.process_time() - start)
            results[name].append(value)
    return Rounds(seconds, results)


@dataclass
class WorkloadResult:
    """One workload measured under both engines."""

    name: str
    iterations: int
    instructions: int          # simulated instructions per engine run
    slow_seconds: float        # median over the rounds
    fast_seconds: float
    #: Median per-round slow/fast ratio and its interquartile range.
    speedup: float
    speedup_iqr: float = 0.0

    @property
    def slow_ips(self) -> float:
        return self.instructions / self.slow_seconds

    @property
    def fast_ips(self) -> float:
        return self.instructions / self.fast_seconds

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "iterations": self.iterations,
            "instructions": self.instructions,
            "slow_seconds": round(self.slow_seconds, 4),
            "fast_seconds": round(self.fast_seconds, 4),
            "slow_ips": round(self.slow_ips, 1),
            "fast_ips": round(self.fast_ips, 1),
            "speedup": round(self.speedup, 3),
            "speedup_iqr": round(self.speedup_iqr, 3),
        }


# -- workload programs --------------------------------------------------------

def _straight_line(iters: int) -> Assembler:
    """Unrolled integer arithmetic; one predictable backward branch."""
    asm = Assembler(_CODE)
    asm.mov_ri(Reg.RAX, 1)
    asm.mov_ri(Reg.RBX, 3)
    asm.mov_ri(Reg.RCX, iters)
    asm.label("loop")
    for _ in range(16):
        asm.add_rr(Reg.RAX, Reg.RBX)
        asm.xor_rr(Reg.RBX, Reg.RAX)
        asm.add_ri(Reg.RAX, 7)
    asm.sub_ri(Reg.RCX, 1)
    asm.jcc(Cond.NE, "loop")
    asm.hlt()
    return asm


def _branch_heavy(iters: int) -> Assembler:
    """A data-dependent branch per iteration, fed by xorshift64.

    The branch resolves on pseudo-random state, so the conditional
    predictor mispredicts at a steady rate and every mispredict opens a
    backend Spectre window — the simulator's most expensive steady
    state, and the regime the paper's experiments exercise.
    """
    asm = Assembler(_CODE)
    asm.mov_ri(Reg.RAX, 0x9E3779B97F4A7C15)
    asm.mov_ri(Reg.RBX, 0)
    asm.mov_ri(Reg.RCX, iters)
    asm.label("loop")
    asm.mov_rr(Reg.RDX, Reg.RAX)
    asm.shl_ri(Reg.RDX, 13)
    asm.xor_rr(Reg.RAX, Reg.RDX)
    asm.mov_rr(Reg.RDX, Reg.RAX)
    asm.shr_ri(Reg.RDX, 7)
    asm.xor_rr(Reg.RAX, Reg.RDX)
    asm.mov_rr(Reg.RDX, Reg.RAX)
    asm.shl_ri(Reg.RDX, 17)
    asm.xor_rr(Reg.RAX, Reg.RDX)
    asm.mov_rr(Reg.RDX, Reg.RAX)
    asm.and_ri(Reg.RDX, 1)
    asm.cmp_ri(Reg.RDX, 0)
    asm.jcc(Cond.E, "skip")
    asm.add_ri(Reg.RBX, 1)
    asm.label("skip")
    asm.sub_ri(Reg.RCX, 1)
    asm.jcc(Cond.NE, "loop")
    asm.hlt()
    return asm


def _program(builder, iters: int, fastpath: bool):
    """Load one user-mode program; return the callable that runs it to
    HLT and returns the instructions retired."""
    mem = MemorySystem(256 << 20, fastpath=fastpath)
    cpu = CPU(ZEN2, mem, fastpath=fastpath)
    mem.map_anonymous(_STACK - 16 * PAGE_SIZE, 16 * PAGE_SIZE,
                      user=True, nx=True)
    cpu.state.write(Reg.RSP, _STACK)
    mem.load_image(builder(iters).image(), user=True)

    def run() -> int:
        try:
            cpu.run(_CODE, max_instructions=1_000_000_000)
        except HaltRequested:
            pass
        return cpu.pmc.read("instructions")
    return run


def _syscalls(iters: int, fastpath: bool):
    """Boot a machine; return the callable that makes *iters* getpid
    round trips and returns the instructions they retired.

    The engine is selected through the environment toggle the escape
    hatch documents (a :class:`Machine` boots its own memory system),
    restored afterwards.
    """
    from .kernel import Machine
    from .pipeline import by_name

    saved = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = "1" if fastpath else "0"
    try:
        machine = Machine(by_name("zen 2"), kaslr_seed=0)
    finally:
        if saved is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = saved
    machine.syscall(39)          # warm caches and predictors

    def run() -> int:
        base = machine.cpu.pmc.read("instructions")
        for _ in range(iters):
            machine.syscall(39)
        return machine.cpu.pmc.read("instructions") - base
    return run


def _setup(name: str, fastpath: bool):
    iters = _SIZES[name]
    if name == "syscall":
        return _syscalls(iters, fastpath)
    builder = _straight_line if name == "straight_line" else _branch_heavy
    return _program(builder, iters, fastpath)


def measure(name: str) -> WorkloadResult:
    """Measure one workload under both engines in paired rounds."""
    rounds = paired_rounds({"slow": lambda: _setup(name, False),
                            "fast": lambda: _setup(name, True)})
    for slow_instrs, fast_instrs in zip(rounds.results["slow"],
                                        rounds.results["fast"]):
        if slow_instrs != fast_instrs:
            raise AssertionError(
                f"{name}: engines retired different instruction counts "
                f"({slow_instrs} slow vs {fast_instrs} fast) — the fast "
                f"path diverged architecturally")
    instructions = rounds.results["fast"][-1]
    speedup, iqr = rounds.ratio("slow", "fast")
    return WorkloadResult(name=name, iterations=_SIZES[name],
                          instructions=instructions,
                          slow_seconds=rounds.median("slow"),
                          fast_seconds=rounds.median("fast"),
                          speedup=speedup, speedup_iqr=iqr)


def run_bench(workloads=WORKLOADS) -> list[WorkloadResult]:
    return [measure(name) for name in workloads]


# -- document / comparison ----------------------------------------------------

def document(results: list[WorkloadResult]) -> dict:
    """Build the ``phantom.bench/1`` document for *results*."""
    return {
        "schema": BENCH_SCHEMA,
        "rounds": ROUNDS,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "workloads": [r.to_dict() for r in results],
    }


def compare(doc: dict, baseline: dict) -> list[str]:
    """Regressions of *doc* against *baseline*; empty when clean.

    Compares the fast/slow speedup per workload — absolute IPS depends
    on the host, the ratio does not — and flags any workload whose
    ratio fell more than :data:`TOLERANCE` below the baseline's.
    Raises :class:`ValueError` when *baseline* is not a bench document
    or ran a workload at a different size: such ratios do not compare.
    """
    if baseline.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"baseline is not a {BENCH_SCHEMA} document "
            f"(schema={baseline.get('schema')!r})")
    base = {w["name"]: w for w in baseline.get("workloads", [])}
    problems = []
    for entry in doc["workloads"]:
        ref = base.get(entry["name"])
        if ref is None:
            continue
        if ref["iterations"] != entry["iterations"]:
            raise ValueError(
                f"baseline ran {entry['name']} at {ref['iterations']} "
                f"iterations, this run at {entry['iterations']}")
        floor = ref["speedup"] * (1.0 - TOLERANCE)
        if entry["speedup"] < floor:
            problems.append(
                f"{entry['name']}: speedup {entry['speedup']:.2f}x fell "
                f"below {floor:.2f}x (baseline {ref['speedup']:.2f}x "
                f"- {TOLERANCE:.0%} tolerance)")
    return problems


def format_table(results: list[WorkloadResult]) -> str:
    lines = [f"{'workload':16s} {'instrs':>10s} {'slow ips':>10s} "
             f"{'fast ips':>10s} {'speedup':>8s} {'iqr':>6s}"]
    for r in results:
        lines.append(f"{r.name:16s} {r.instructions:10,d} "
                     f"{r.slow_ips:10,.0f} {r.fast_ips:10,.0f} "
                     f"{r.speedup:7.2f}x {r.speedup_iqr:6.2f}")
    return "\n".join(lines)


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def is_bench_document(doc: dict) -> bool:
    return isinstance(doc, dict) and doc.get("schema") == BENCH_SCHEMA


def summarize_bench(doc: dict) -> str:
    """Human-readable summary of one ``phantom.bench/1`` document.

    Keys this module no longer writes (older documents carry a
    per-workload stat block and a ``quick`` flag) are ignored."""
    host = doc.get("host", {})
    rounds = doc.get("rounds")
    lines = [
        f"bench document, median of {rounds} paired rounds" if rounds
        else "bench document",
        f"host: {host.get('implementation', '?')} "
        f"{host.get('python', '?')} on {host.get('machine', '?')}",
        "",
    ]
    for entry in doc.get("workloads", []):
        lines.append(
            f"{entry['name']:16s} {entry['instructions']:10,d} instrs  "
            f"{entry['slow_ips']:10,.0f} slow ips  "
            f"{entry['fast_ips']:10,.0f} fast ips  "
            f"{entry['speedup']:6.2f}x"
            + (f" (IQR {entry['speedup_iqr']:.2f})"
               if "speedup_iqr" in entry else ""))
    return "\n".join(lines)


def diff_bench(a: dict, b: dict) -> str:
    """Workload-by-workload comparison of two bench documents."""
    left = {w["name"]: w for w in a.get("workloads", [])}
    right = {w["name"]: w for w in b.get("workloads", [])}
    lines = [f"{'workload':16s} {'speedup A':>10s} {'speedup B':>10s} "
             f"{'delta':>8s}"]
    for name in dict.fromkeys([*left, *right]):
        wa, wb = left.get(name), right.get(name)
        if wa is None or wb is None:
            lines.append(f"{name:16s} only in "
                         f"{'B' if wa is None else 'A'}")
            continue
        delta = wb["speedup"] - wa["speedup"]
        lines.append(f"{name:16s} {wa['speedup']:9.2f}x {wb['speedup']:9.2f}x "
                     f"{delta:+7.2f}x")
    return "\n".join(lines)
