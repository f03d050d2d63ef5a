"""Known-answer witnesses: the paper's listings as contract inputs.

The relational fuzzer finds *unknown* violations; this module pins the
*known* ones.  Each witness replays one of Phantom's published attack
listings on a freshly booted :class:`~repro.kernel.Machine`, twice,
with two different secret values steering the phantom target (or, for
Listing 3's second phase, the disclosure pointer), and extracts the
:class:`~repro.sidechannel.leaktrace.LeakTrace` of each run.  Diffing
the two traces over a contract's protected channels must reproduce the
paper's answers:

* every listing **violates** ``no-if-leak`` on unmitigated Zen 2 *and*
  Zen 3 — the decoder-detectable misprediction fetches the
  secret-steered target into L1I/L2 before any resolution (§6.2);
* every listing **satisfies** ``suppress-bp-safe`` — the MSR gate stops
  transient *execution* at non-branch sites, so no secret-dependent
  data access survives (O4: the fetch itself still happens, which is
  exactly why that contract's clause only covers ``dcache``);
* Listing 3 under ``no-leak`` shows a ``dcache``/``l2`` data leak on
  Zen 2 (phantom window reaches execute) but **not** on Zen 3 (decoder
  wins the resteer race) — Table 1's regime split.

These are the fuzzing analogue of the repo's end-to-end exploit tests:
if a model change silently closes (or opens) a channel, the known
answers move before any fuzz campaign does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.kaslr_image import TARGET_REGION_OFFSET
from ..core.primitives import P2MappedMemory, PhantomInjector
from ..kernel import (MachineSpec, SYS_GETPID, SYS_READV)
from ..kernel.layout import (DISCLOSURE_GADGET_OFFSET, FDGET_POS_OFFSET,
                             TASK_PID_NR_NS_OFFSET)
from ..kernel.mitigations import Mitigation
from ..pipeline import by_name
from ..sidechannel.leaktrace import LeakTrace, capture
from .contracts import Contract
from .oracle import DEFAULT_UARCHES, Divergence

#: The pinned witnesses, in paper order.
LISTINGS = ("listing1", "listing2", "listing3")

#: Default secret pair for the known-answer runs (arbitrary, distinct,
#: both mapping inside the probe target region).
SECRET_A = 11
SECRET_B = 52


def run_listing(name: str, uarch: str, mitigations, secret: int
                ) -> LeakTrace:
    """Replay one listing with *secret* steering the attack; returns
    the machine's leak trace.

    *mitigations* is a :class:`~repro.kernel.MitigationConfig`.  The
    boot is fully pinned (``kaslr_seed=0``, ``rng_seed=0``, no syscall
    noise), so two runs differ only through *secret*.
    """
    secret &= 0xFF
    spec = MachineSpec(uarch=uarch, kaslr_seed=0, rng_seed=0,
                       mitigations=mitigations,
                       syscall_noise_evictions=0)
    machine = spec.boot()
    machine.cpu.record_episodes = True
    injector = PhantomInjector(machine)
    image = machine.kaslr.image_base
    # The instruction-fetch channel: phantom target indexed by the
    # secret, one I-cache line per value, inside the mapped image.
    if_target = image + TARGET_REGION_OFFSET + secret * 64

    if name == "listing1":
        # getpid(): jmp* prediction on __task_pid_nr_ns's nopl.
        injector.inject(image + TASK_PID_NR_NS_OFFSET, if_target)
        machine.syscall(SYS_GETPID)
    elif name == "listing2":
        # readv(): same site class, __fdget_pos's nopl.
        injector.inject(image + FDGET_POS_OFFSET, if_target)
        machine.syscall(SYS_READV, 3, 0)
    elif name == "listing3":
        # Phase 1 — the fetch channel, as listing 2.
        injector.inject(image + FDGET_POS_OFFSET, if_target)
        machine.syscall(SYS_READV, 3, 0)
        # Phase 2 — the execute channel: point the phantom window at
        # the disclosure gadget and steer its load through RSI -> R12
        # (§7.2) to a secret-indexed physmap line.  Only µarches whose
        # window reaches execute leave this residue.
        injector.inject(image + FDGET_POS_OFFSET,
                        image + DISCLOSURE_GADGET_OFFSET)
        pointer = (machine.kaslr.physmap_base + 0x1_0000 + secret * 64
                   - P2MappedMemory.GADGET_DISPLACEMENT)
        machine.syscall(SYS_READV, 3, pointer)
    else:
        raise ValueError(f"unknown listing {name!r} "
                         f"(one of {LISTINGS})")
    trace = capture(machine.cpu, machine.mem)
    machine.cpu.release()
    return trace


@dataclass
class WitnessVerdict:
    """Contract check of one listing across the µarch matrix."""

    listing: str
    contract: Contract
    mitigation: Mitigation
    uarches: tuple[str, ...]
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(sorted({d.klass for d in self.divergences}))

    def classes_on(self, uarch: str) -> tuple[str, ...]:
        display = by_name(uarch).name
        return tuple(sorted({d.klass for d in self.divergences
                             if d.uarch == display}))

    def to_dict(self) -> dict:
        return {"listing": self.listing, "contract": self.contract.name,
                "mitigation": self.mitigation.name, "ok": self.ok,
                "classes": list(self.classes),
                "divergences": [str(d) for d in self.divergences]}


def check_listing(name: str, contract: Contract,
                  uarches: Sequence[str] = DEFAULT_UARCHES, *,
                  mitigation: Mitigation | None = None,
                  secret_a: int = SECRET_A,
                  secret_b: int = SECRET_B) -> WitnessVerdict:
    """Run one listing under *contract* with two secrets; any protected
    channel differing between the runs is a contract violation."""
    effective = mitigation if mitigation is not None \
        else contract.resolve_mitigation()
    verdict = WitnessVerdict(listing=name, contract=contract,
                             mitigation=effective,
                             uarches=tuple(uarches))
    for uarch in uarches:
        trace_a = run_listing(name, uarch, effective.config, secret_a)
        trace_b = run_listing(name, uarch, effective.config, secret_b)
        display = by_name(uarch).name
        for channel, summary in trace_a.diff(trace_b, contract.protects):
            verdict.divergences.append(
                Divergence("contract", display, f"{channel}: {summary}"))
    return verdict
