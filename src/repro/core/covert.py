"""Kernel-to-user covert channels over P1 and P2 (paper §6.4, Table 2).

A kernel module performs direct branches; the attacker hijacks one
with an injected jmp* prediction.  Two channel variants:

* **fetch** (all Zen): the injected target T_b is a mapped (b=1) or
  unmapped (b=0) kernel address mapping to a chosen I-cache set;
  Prime+Probe on that set reads the bit.
* **execute** (Zen 1/2 only): the injected target is a kernel load
  gadget dereferencing RDI; the attacker passes a kernel pointer whose
  physical line maps to a chosen (b=1) or different (b=0) D-cache set.

This is a controlled channel-capacity experiment: module and kernel
addresses are known, as in the paper's setup.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import ClassVar

from ..kernel import KERNEL_IMAGE_REGION, MachineSpec, SYS_COVERT
from ..runner import JobContext, JobSpec, derive_seed
from ..sidechannel import PrimeProbeL1D, PrimeProbeL1I
from .primitives import PhantomInjector

#: I-cache / D-cache set used for the "1" symbol.
CHANNEL_SET = 37
#: Image-relative offset region for mapped fetch targets.
FETCH_TARGET_OFFSET = 0x30_0000
#: An unmapped kernel address region (below the KASLR range).
UNMAPPED_KERNEL = KERNEL_IMAGE_REGION - 0x4000_0000


@dataclass
class CovertResult:
    """Accuracy and rate of one covert-channel run (Table 2 row)."""

    bits: int
    correct: int
    seconds: float

    @property
    def accuracy(self) -> float:
        return self.correct / self.bits

    @property
    def bits_per_second(self) -> float:
        return self.bits / self.seconds if self.seconds else float("inf")

    def to_dict(self) -> dict:
        return {"bits": self.bits, "correct": self.correct,
                "accuracy": self.accuracy,
                "bits_per_second": self.bits_per_second,
                "simulated_seconds": self.seconds}


@dataclass(frozen=True)
class CovertExperiment:
    """A Table 2 campaign: *n_bits* sharded into fixed-size chunks.

    Each chunk transmits on a fresh machine (bit patterns come from
    :func:`repro.runner.derive_seed` over the chunk key, so the stream
    is the same at any ``--jobs``); the reduce step sums bits, correct
    receptions and simulated transmit time into one
    :class:`CovertResult`.
    """

    name: ClassVar[str] = "covert"

    machine: MachineSpec
    channel: str = "fetch"              # "fetch" | "execute"
    n_bits: int = 4096
    seed: int = 1
    chunk_bits: int = 512               # fixed: never depends on --jobs

    def campaign_config(self) -> dict:
        return {"channel": self.channel, "n_bits": self.n_bits,
                "seed": self.seed, "uarch": self.machine.uarch}

    def job_specs(self) -> list[JobSpec]:
        if self.channel not in ("fetch", "execute"):
            raise ValueError(f"unknown covert channel {self.channel!r}; "
                             f"expected 'fetch' or 'execute'")
        specs = []
        n_chunks = max(1, math.ceil(self.n_bits / self.chunk_bits))
        for index in range(n_chunks):
            bits = min(self.chunk_bits,
                       self.n_bits - index * self.chunk_bits)
            key = (self.channel, index)
            specs.append(JobSpec.make(
                self.name, key, derive_seed(self.seed, key),
                machine=self.machine, bits=bits))
        return specs

    def run_one(self, spec: JobSpec, ctx: JobContext) -> CovertResult:
        transmit = (fetch_covert_channel if self.channel == "fetch"
                    else execute_covert_channel)
        machine = ctx.boot(spec.machine)
        return transmit(machine, n_bits=spec.param("bits"), seed=spec.seed)

    def reduce(self, results) -> CovertResult:
        chunks = [r.value for r in results if r.ok]
        return CovertResult(bits=sum(c.bits for c in chunks),
                            correct=sum(c.correct for c in chunks),
                            seconds=sum(c.seconds for c in chunks))


def fetch_covert_channel(machine, *, n_bits: int = 4096,
                         seed: int = 1) -> CovertResult:
    """Table 2 (top): transmit random bits via phantom *fetch*."""
    rng = random.Random(seed)
    injector = PhantomInjector(machine)
    pp = PrimeProbeL1I(machine)
    branch = machine.modules.sym("covert_branch_0")
    t1 = (machine.kaslr.image_base + FETCH_TARGET_OFFSET
          + CHANNEL_SET * 64)
    t0 = UNMAPPED_KERNEL + CHANNEL_SET * 64

    sent = [rng.randrange(2) for _ in range(n_bits)]
    start = machine.seconds()
    correct = 0
    for bit in sent:
        pp.prime(CHANNEL_SET)
        injector.inject(branch, t1 if bit else t0)
        machine.syscall(SYS_COVERT)
        received = int(pp.probe_misses(CHANNEL_SET) > 0)
        correct += received == bit
    return CovertResult(bits=n_bits, correct=correct,
                        seconds=machine.seconds() - start)


def execute_covert_channel(machine, *, n_bits: int = 4096,
                           seed: int = 2) -> CovertResult:
    """Table 2 (bottom): transmit random bits via phantom *execute*.

    Requires a phantom window that reaches execute (Zen 1/2).
    """
    if not machine.uarch.phantom_reaches_execute:
        raise ValueError(f"{machine.uarch.name}: no phantom execute window")
    rng = random.Random(seed)
    injector = PhantomInjector(machine)
    pp = PrimeProbeL1D(machine)
    branch = machine.modules.sym("covert_branch_0")
    gadget = machine.modules.sym("covert_load_gadget")
    physmap = machine.kaslr.physmap_base
    # Physical lines whose D-cache sets encode the symbol.
    ptr1 = physmap + 0x10_0000 + CHANNEL_SET * 64
    ptr0 = physmap + 0x10_0000 + (CHANNEL_SET ^ 32) * 64

    sent = [rng.randrange(2) for _ in range(n_bits)]
    start = machine.seconds()
    correct = 0
    for bit in sent:
        pp.prime(CHANNEL_SET)
        injector.inject(branch, gadget)
        machine.syscall(SYS_COVERT, ptr1 if bit else ptr0)
        received = int(pp.probe_misses(CHANNEL_SET) > 0)
        correct += received == bit
    return CovertResult(bits=n_bits, correct=correct,
                        seconds=machine.seconds() - start)
