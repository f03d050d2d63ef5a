"""Machine-checkable invariants of the dual-engine simulator.

Each check returns a list of :class:`Violation` records (empty when the
invariant holds); the oracle folds them into its verdict next to the
engine-differential diffs.  The four families from the issue:

1. **Transient stores are never architecturally visible** — a program
   replayed on a de-speculated variant of the same µarch (zero backend
   window, zero phantom execute µops) must reach the identical
   architectural state: registers, flags, data-region digest, outcome.
   Anything speculation "leaked" into architecture shows up here.
2. **PMC counters are monotone** — sampled at every ``retire`` event
   of the ``phantom.trace/1`` stream (a trace sink is architecturally
   invisible, so traced and untraced runs must still produce equal
   observables).
3. **Generation-guarded caches never serve stale entries** — after a
   run, every surviving cache entry (software-TLB PTE, decoded
   instruction, transient decode tuple) is re-derived from the current
   page tables and memory image and must match; and every cached pc
   must be indexed in ``CPU._code_pages`` and every compiled entry in
   its block index, otherwise ``invalidate_code`` could miss it on the
   next self-modifying write.
4. **Resteer episodes are well-formed** — cycles monotone, canonical
   addresses, reach consistent with the episode flavour and the
   µarch's decoder-race outcome, and the episode list consistent with
   the resteer PMCs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import DecodeError
from ..isa import BranchKind, Instruction, decode
from ..params import PAGE_SHIFT, PAGE_SIZE, is_canonical
from ..pipeline import CPU, Microarch, Reach
from ..telemetry.trace import TraceEvent
from .harness import Observables, World, compare_observables, run_program
from .program import FuzzProgram

#: Maximum encoded instruction length (mirrors the CPU's fetch window).
_MAX_INSTR_BYTES = 16

#: Observable fields that may legitimately differ once speculation is
#: disabled: timing, performance counters and the episodes themselves.
SPECULATIVE_FIELDS = ("cycles", "pmc", "episodes")


@dataclass(frozen=True)
class Violation:
    """One invariant failure."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


def despeculated(uarch: Microarch) -> Microarch:
    """*uarch* with every transient window closed: no backend Spectre
    window, and a decoder that resteers before anything can issue."""
    return replace(uarch, backend_window_uops=0,
                   frontend_resteer_latency=uarch.issue_latency)


# ---------------------------------------------------------------------------
# 1. transient stores never become architectural
# ---------------------------------------------------------------------------

def check_no_transient_architectural_effect(
        program: FuzzProgram, uarch: Microarch,
        reference: Observables) -> list[Violation]:
    """Replay on the de-speculated µarch; architecture must match.

    Skipped for programs that execute ``rdtsc``: reading the cycle
    counter makes architectural state legitimately timing-dependent.
    """
    if program.uses_rdtsc:
        return []
    nospec, _ = run_program(program, despeculated(uarch), fastpath=True)
    diffs = compare_observables(reference, nospec,
                                exclude=SPECULATIVE_FIELDS)
    return [Violation("transient-architectural",
                      f"{uarch.name}: speculation changed architectural "
                      f"state: {diff}") for diff in diffs]


# ---------------------------------------------------------------------------
# 2. PMC monotonicity
# ---------------------------------------------------------------------------

class PMCMonotoneHook:
    """Trace sink sampling *cpu*'s PMC bank at every ``retire`` event;
    any counter that ever decreases is recorded.  Attach it with
    ``TRACE.sink(hook)`` around the run it should watch."""

    def __init__(self, cpu: CPU) -> None:
        self._counts = cpu.pmc.counts
        self._previous = list(cpu.pmc.counts)
        self._events = cpu.pmc.snapshot().keys()
        self.violations: list[Violation] = []

    def emit(self, event: TraceEvent) -> None:
        if event.kind != "retire":
            return
        pc = event.fields["pc"]
        counts = self._counts
        previous = self._previous
        for slot, value in enumerate(counts):
            if value < previous[slot]:
                name = list(self._events)[slot]
                self.violations.append(Violation(
                    "pmc-monotone",
                    f"{name} decreased {previous[slot]} -> {value} "
                    f"at pc={pc:#x}"))
            previous[slot] = value

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# 3. generation-guarded caches serve no stale entries
# ---------------------------------------------------------------------------

def _read_code(world: World, pc: int, size: int) -> bytes | None:
    """Current bytes at *pc* via the page tables (None if unmapped)."""
    out = bytearray()
    pos = pc
    while pos < pc + size:
        pa = world.mem.aspace.translate_noperm(pos)
        if pa is None:
            return bytes(out) if out else None
        chunk = min(pc + size - pos, PAGE_SIZE - (pos & (PAGE_SIZE - 1)))
        out += world.mem.phys.read(pa, chunk)
        pos += chunk
    return bytes(out)


def _check_decoded(world: World, pc: int, cached: Instruction | None,
                   label: str) -> Violation | None:
    raw = _read_code(world, pc, _MAX_INSTR_BYTES)
    if raw is None:
        return None  # page gone: entry unreachable, nothing to compare
    try:
        current = decode(raw)
    except DecodeError:
        current = None
    if cached is None:
        if current is not None:
            return Violation(
                "stale-cache",
                f"{label} caches 'undecodable' at {pc:#x} but bytes now "
                f"decode to {current}")
        return None
    if current != cached:
        return Violation(
            "stale-cache",
            f"{label} entry at {pc:#x} decodes {cached} but memory now "
            f"holds {current}")
    return None


def check_cache_coherence(world: World) -> list[Violation]:
    """Re-derive every surviving cache entry from current state."""
    violations: list[Violation] = []
    cpu, mem = world.cpu, world.mem
    aspace = mem.aspace

    # Software TLB: entries are only valid for the generation they were
    # filled under; when generations match, each cached resolution must
    # agree with a fresh page walk.
    xlat = mem.xlat
    if xlat._generation == aspace.generation:
        for vpn, entry in xlat._ptes.items():
            current = aspace.pte(vpn << PAGE_SHIFT)
            if entry is not current and entry != current:
                violations.append(Violation(
                    "stale-cache",
                    f"TLB caches {entry} for vpn {vpn:#x}, page tables "
                    f"hold {current}"))

    # Decode cache and transient decode cache: cached instructions must
    # match what the current code bytes decode to.
    for pc, instr in cpu._decode_cache.items():
        violation = _check_decoded(world, pc, instr, "decode-cache")
        if violation is not None:
            violations.append(violation)
    if cpu._transient_gen == aspace.generation:
        for pc, entry in cpu._transient_cache.items():
            cached = entry[0] if entry is not None else None
            violation = _check_decoded(world, pc, cached, "transient-cache")
            if violation is not None:
                violations.append(violation)

    # Invalidation-index coverage: a cached pc missing from
    # ``_code_pages`` would survive ``invalidate_code`` and serve stale
    # bytes after the next self-modifying write.
    indexed = {pc for pcs in cpu._code_pages.values() for pc in pcs}
    for label, cache in (("decode", cpu._decode_cache),
                         ("transient", cpu._transient_cache),
                         ("compiled-user", cpu._code_user),
                         ("compiled-kernel", cpu._code_kernel)):
        missing = set(cache) - indexed
        for pc in sorted(missing):
            violations.append(Violation(
                "stale-cache",
                f"{label} cache holds pc {pc:#x} not indexed for "
                f"invalidation"))
    return violations


# ---------------------------------------------------------------------------
# 4. episode well-formedness
# ---------------------------------------------------------------------------

def check_episodes(observables: Observables,
                   uarch: Microarch) -> list[Violation]:
    violations: list[Violation] = []
    kinds = {kind.value for kind in BranchKind if kind.is_branch}
    last_cycle = 0
    for episode in observables.episodes:
        (source_pc, predicted, actual, target, reach, frontend,
         _cross, _nested, cycle) = episode
        where = f"episode at pc={source_pc:#x} cycle={cycle}"
        if cycle < last_cycle:
            violations.append(Violation(
                "episode-form", f"{where}: cycle went backwards "
                f"({last_cycle} -> {cycle})"))
        last_cycle = max(last_cycle, cycle)
        if not is_canonical(source_pc) or not is_canonical(target):
            violations.append(Violation(
                "episode-form", f"{where}: non-canonical address "
                f"(source={source_pc:#x}, target={target:#x})"))
        if reach not in Reach.__members__:
            violations.append(Violation(
                "episode-form", f"{where}: unknown reach {reach!r}"))
            continue
        if predicted is not None and predicted not in kinds:
            violations.append(Violation(
                "episode-form", f"{where}: predicted kind {predicted!r} "
                f"is not a branch kind"))
        if frontend and reach == Reach.EXECUTE.name \
                and uarch.phantom_exec_uops == 0:
            violations.append(Violation(
                "episode-form",
                f"{where}: frontend resteer reached EXECUTE on "
                f"{uarch.name}, whose decoder wins the race"))
        if not frontend and reach != Reach.EXECUTE.name:
            violations.append(Violation(
                "episode-form",
                f"{where}: backend-detected episode with reach {reach} "
                f"(execute-detected mispredictions execute by definition)"))
    return violations


def check_pmc_episode_consistency(
        observables: Observables) -> list[Violation]:
    """The resteer PMCs and the episode record are two views of the
    same events; they must agree exactly."""
    violations: list[Violation] = []
    pmc = dict(observables.pmc)
    frontend = sum(1 for e in observables.episodes if e[5])
    backend = sum(1 for e in observables.episodes if not e[5])
    if pmc.get("resteer_frontend") != frontend:
        violations.append(Violation(
            "pmc-episode",
            f"resteer_frontend={pmc.get('resteer_frontend')} but "
            f"{frontend} frontend episodes recorded"))
    if pmc.get("resteer_backend") != backend:
        violations.append(Violation(
            "pmc-episode",
            f"resteer_backend={pmc.get('resteer_backend')} but "
            f"{backend} backend episodes recorded"))
    return violations
