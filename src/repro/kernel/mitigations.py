"""Mitigation configuration (paper §2.4, §6.3, §8).

The threat model assumes a default hardened configuration: retpolines
and untrain-ret are considered deployed (the kernel text contains no
exploitable *indirect* branches — all syscall dispatch here is compiled
to compare+direct-branch chains, which is what retpolines achieve), and
the hardware mitigations are toggles the experiments flip:

* ``suppress_bp_on_non_br`` — AMD MSR 0xC00110E3 bit (Zen 2+): prevents
  branch prediction on non-branches.  The paper shows it only stops
  transient *execute* (O4).
* ``auto_ibrs`` — Zen 4: restricts cross-privilege prediction use — but
  only after instruction fetch/decode (O5).
* ``ibpb_on_kernel_entry`` — flush all predictions when entering the
  kernel.  Expensive, but it stops P1/P2/P3 (§8.2).

On top of the raw :class:`MitigationConfig` switches, the module keeps
an **enumerable registry** of named mitigation settings
(:data:`MITIGATIONS`): the unit the leakage contracts of
:mod:`repro.fuzz.contracts`, the ``repro fuzz --mitigation`` flag and
the mitigation test-suite all speak.  Every entry documents exactly
which frontend/BTB behaviours it toggles, and the tests in
``tests/kernel/test_mitigations.py`` hold each entry to that claim.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class MitigationConfig:
    """Software/hardware mitigation switches for one boot."""

    suppress_bp_on_non_br: bool = False
    auto_ibrs: bool = False
    ibpb_on_kernel_entry: bool = False
    #: RSB stuffing on kernel entry (§2.4): overwrite user-poisoned
    #: return predictions with a fenced kernel pad.
    rsb_stuffing_on_entry: bool = False
    # Descriptive flags (threat-model documentation; both are modelled
    # structurally: the kernel has no indirect branches to hijack and
    # returns are not trained cross-privilege in these exploits).
    retpolines: bool = True
    untrain_ret: bool = True

    def with_(self, **changes) -> "MitigationConfig":
        return replace(self, **changes)

    def arm(self, cpu) -> None:
        """Set the MSR bits on *cpu*, before its first instruction."""
        cpu.msr.suppress_bp_on_non_br = self.suppress_bp_on_non_br
        cpu.msr.auto_ibrs = self.auto_ibrs

    def enter_kernel(self, cpu, rsb_pad: int) -> None:
        """The kernel-entry actions, run on every syscall: IBPB
        flushes all predictions; RSB stuffing overwrites user-poisoned
        return predictions with *rsb_pad*, a fenced kernel address
        (§2.4), at 2 cycles per stuffed slot."""
        if self.ibpb_on_kernel_entry:
            cpu.bpu.ibpb()
        if self.rsb_stuffing_on_entry:
            rsb = cpu.bpu.rsb
            rsb.clear()
            for _ in range(rsb.depth):
                rsb.push(rsb_pad)
            cpu.cycles += 2 * rsb.depth

    def toggled(self) -> tuple[str, ...]:
        """Names of the switches this config turns on relative to the
        paper's baseline (the descriptive flags are always-on in both
        and never appear here)."""
        baseline = MitigationConfig()
        return tuple(f.name for f in fields(self)
                     if getattr(self, f.name) != getattr(baseline, f.name))


#: The paper's baseline: default Ubuntu with state-of-the-art Spectre
#: defenses (§3) — but the Phantom-specific MSR bits off.
DEFAULT_MITIGATIONS = MitigationConfig()

#: Everything AMD recommends switched on.
HARDENED = MitigationConfig(suppress_bp_on_non_br=True, auto_ibrs=True)

#: The big hammer (§8.2).
IBPB_HARDENED = MitigationConfig(suppress_bp_on_non_br=True, auto_ibrs=True,
                                 ibpb_on_kernel_entry=True)


@dataclass(frozen=True)
class Mitigation:
    """One named, documented mitigation setting.

    ``toggles`` is the registry's *claim*: the exact set of
    :class:`MitigationConfig` switches this mitigation arms.  The test
    suite asserts ``config.toggled() == toggles`` for every entry, so a
    silently-widened config can never hide behind a familiar name.
    """

    name: str
    config: MitigationConfig
    toggles: tuple[str, ...]
    #: Which machinery the switch acts on (documentation + test spec).
    mechanism: str
    description: str

    def to_dict(self) -> dict:
        return {"name": self.name, "toggles": list(self.toggles),
                "mechanism": self.mechanism,
                "description": self.description}


def _entry(name: str, mechanism: str, description: str,
           **switches) -> Mitigation:
    config = MitigationConfig(**switches)
    return Mitigation(name=name, config=config,
                      toggles=config.toggled(), mechanism=mechanism,
                      description=description)


#: The enumerable mitigation registry, in escalation order.
MITIGATIONS: tuple[Mitigation, ...] = (
    _entry("none", "—",
           "Paper baseline: retpolines + untrain-ret only; every "
           "Phantom-specific switch off."),
    _entry("suppress-bp", "frontend (decode gate)",
           "SuppressBPOnNonBr MSR bit: predictions on non-branch bytes "
           "never reach transient execute; fetch and decode still "
           "happen (O4).",
           suppress_bp_on_non_br=True),
    _entry("auto-ibrs", "frontend (privilege gate)",
           "AutoIBRS (Zen 4): cross-privilege predictions are refused, "
           "but only after the predicted target was fetched and "
           "decoded (O5).",
           auto_ibrs=True),
    _entry("ibpb", "BTB (full predictor flush)",
           "IBPB on every kernel entry: all branch predictions — "
           "including injected ones — are flushed before kernel code "
           "runs (§8.2).",
           ibpb_on_kernel_entry=True),
    _entry("rsb-stuffing", "RSB (return predictor overwrite)",
           "RSB stuffing on kernel entry: user-poisoned return "
           "predictions are overwritten with a fenced kernel pad "
           "(§2.4); costs 2 cycles per stuffed slot.",
           rsb_stuffing_on_entry=True),
    _entry("hardened", "frontend (both MSR gates)",
           "Everything AMD recommends: SuppressBPOnNonBr + AutoIBRS.",
           suppress_bp_on_non_br=True, auto_ibrs=True),
    _entry("ibpb-hardened", "frontend + BTB",
           "The hardened MSR setting plus IBPB on kernel entry.",
           suppress_bp_on_non_br=True, auto_ibrs=True,
           ibpb_on_kernel_entry=True),
)

_BY_NAME = {m.name: m for m in MITIGATIONS}


def mitigation_names() -> tuple[str, ...]:
    return tuple(m.name for m in MITIGATIONS)


def mitigation_by_name(name: str) -> Mitigation:
    """Resolve a registry entry, separator- and case-insensitive
    (``SuppressBP``/``suppress_bp``/``suppress-bp`` all match)."""
    key = name.strip().lower().replace("_", "-").replace(" ", "-")
    try:
        return _BY_NAME[key]
    except KeyError:
        known = ", ".join(mitigation_names())
        raise ValueError(
            f"unknown mitigation {name!r} (one of: {known})") from None
