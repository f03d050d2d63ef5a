"""Speculative disclosure-gadget scanner (paper §9.3, Kasper-style).

Conventional Spectre-v1 gadgets need *two* dependent loads behind a
mispredictable bounds check: one fetching the secret, one transmitting
it through the cache.  Phantom's P3 supplies the transmitting load
elsewhere, so any bounds-checked path with a *single*
attacker-controlled load (an "MDS gadget") becomes exploitable — which
is how the paper, based on Kasper's numbers, estimates the gadget
population growing ~4x (183 -> 722).

The scanner walks CFG paths behind conditional branches with a simple
register taint analysis:

* attacker taint enters through the ABI argument registers;
* a load whose address is attacker-tainted marks its destination
  SECRET;
* a load whose address is SECRET-tainted is a transmission — the
  classic v1 double-load;
* ``lfence`` ends the speculative path (the §8.2 mitigation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..isa import Image, Mnemonic, Reg
from .cfg import build_cfg, conditional_blocks, paths_after
from .disasm import DecodedInstr

#: Registers carrying attacker-controlled syscall arguments.
ATTACKER_REGS = frozenset({Reg.RDI, Reg.RSI, Reg.RDX})


class Taint(enum.Enum):
    CLEAN = 0
    ATTACKER = 1
    SECRET = 2


class GadgetKind(enum.Enum):
    #: Double load: exploitable by conventional Spectre.
    SPECTRE_V1 = "spectre-v1"
    #: Single attacker-controlled load: exploitable only with P3.
    MDS_SINGLE_LOAD = "mds-single-load"


@dataclass(frozen=True)
class GadgetReport:
    """One finding: a speculative path that discloses."""

    kind: GadgetKind
    branch_pc: int       # the mispredictable conditional
    load_pc: int         # the (first) attacker-controlled load
    second_load_pc: int | None = None


def _propagate(instr: DecodedInstr, taint: dict[Reg, Taint]
               ) -> tuple[Taint | None, bool]:
    """Update *taint* for one instruction.

    Returns ``(load_taint, is_fence)`` where ``load_taint`` is the
    address taint of a load performed by this instruction (None when it
    does not load).
    """
    i = instr.instr
    m = i.mnemonic
    if i.is_fence:
        return None, True
    if m is Mnemonic.MOV_RI:
        taint[i.dest] = Taint.CLEAN
        return None, False
    if m is Mnemonic.MOV_RR:
        taint[i.dest] = taint.get(i.src, Taint.CLEAN)
        return None, False
    if m is Mnemonic.LEA:
        taint[i.dest] = taint.get(i.base, Taint.CLEAN)
        return None, False
    if m in (Mnemonic.MOV_RM, Mnemonic.MOVB_RM):
        addr_taint = taint.get(i.base, Taint.CLEAN)
        taint[i.dest] = Taint.SECRET if addr_taint is not Taint.CLEAN \
            else Taint.CLEAN
        return addr_taint, False
    if m is Mnemonic.XOR_RR and i.dest == i.src:
        taint[i.dest] = Taint.CLEAN
        return None, False
    if m in (Mnemonic.ADD_RR, Mnemonic.SUB_RR, Mnemonic.XOR_RR,
             Mnemonic.OR_RR):
        a = taint.get(i.dest, Taint.CLEAN)
        b = taint.get(i.src, Taint.CLEAN)
        taint[i.dest] = max(a, b, key=lambda t: t.value)
        return None, False
    if m is Mnemonic.AND_RI and 0 <= (i.imm or 0) <= 0xFFF:
        # The array_index_nospec idiom (§2.4 [74]): masking the index
        # to a small bound makes the speculative dereference harmless —
        # the value can no longer select attacker-chosen addresses.
        taint[i.dest] = Taint.CLEAN
        return None, False
    if m in (Mnemonic.ADD_RI, Mnemonic.SUB_RI, Mnemonic.AND_RI,
             Mnemonic.SHL_RI, Mnemonic.SHR_RI):
        return None, False   # arithmetic on an immediate keeps taint
    if m is Mnemonic.POP:
        taint[i.dest] = Taint.CLEAN
        return None, False
    return None, False


def scan_path(branch_pc: int, path: list[DecodedInstr]
              ) -> GadgetReport | None:
    """Classify one speculative path; returns the strongest finding."""
    taint: dict[Reg, Taint] = {reg: Taint.ATTACKER for reg in ATTACKER_REGS}
    first_load: int | None = None
    for instr in path:
        load_taint, fence = _propagate(instr, taint)
        if fence:
            break   # lfence: speculation cannot proceed past here
        if load_taint is Taint.ATTACKER and first_load is None:
            first_load = instr.pc
        elif load_taint is Taint.SECRET and first_load is not None:
            return GadgetReport(GadgetKind.SPECTRE_V1, branch_pc,
                                first_load, instr.pc)
    if first_load is not None:
        return GadgetReport(GadgetKind.MDS_SINGLE_LOAD, branch_pc,
                            first_load)
    return None


def scan_function(image: Image, entry: int, *,
                  window: int = 24) -> list[GadgetReport]:
    """All gadget findings reachable from *entry* (deduplicated,
    strongest-kind-per-branch)."""
    graph = build_cfg(image, entry)
    best: dict[int, GadgetReport] = {}
    for block in conditional_blocks(graph):
        branch_pc = block.terminator.pc
        for path in paths_after(graph, block, max_instructions=window):
            report = scan_path(branch_pc, path)
            if report is None:
                continue
            current = best.get(branch_pc)
            if current is None \
                    or (current.kind is GadgetKind.MDS_SINGLE_LOAD
                        and report.kind is GadgetKind.SPECTRE_V1):
                best[branch_pc] = report
    return sorted(best.values(), key=lambda r: r.branch_pc)


@dataclass
class ScanSummary:
    """Corpus-level gadget census."""

    spectre_v1: int = 0
    mds_single_load: int = 0

    @property
    def phantom_exploitable(self) -> int:
        """With P3 every single-load gadget transmits too (§9.3)."""
        return self.spectre_v1 + self.mds_single_load

    @property
    def amplification(self) -> float:
        if not self.spectre_v1:
            return float("inf")
        return self.phantom_exploitable / self.spectre_v1


def scan_corpus(image: Image, entries: list[int], *,
                window: int = 24) -> ScanSummary:
    """Scan every function and tally the gadget classes."""
    summary = ScanSummary()
    for entry in entries:
        for report in scan_function(image, entry, window=window):
            if report.kind is GadgetKind.SPECTRE_V1:
                summary.spectre_v1 += 1
            else:
                summary.mds_single_load += 1
    return summary
