"""Binary rewriting with relocation: apply mitigations to existing code.

The hardening transforms of §2.4/§8.2 are compiler passes on real
systems; this module applies them to already-assembled functions:

* **lift** — decode the function into an instruction list, turning
  intra-function PC-relative branches into label references;
* **transform** — insert barriers / replace indirect branches;
* **emit** — reassemble at a (possibly new) base with every displaced
  branch fixed up.  Out-of-function direct targets are preserved as
  absolute addresses, so rewritten functions keep calling their
  original callees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import Assembler, BranchKind, Image, Instruction, Mnemonic
from ..isa.hardening import emit_retpoline, emit_retpoline_call
from .disasm import DecodedInstr, Disassembler

_PCREL = frozenset({Mnemonic.JMP, Mnemonic.JMP_SHORT, Mnemonic.JCC,
                    Mnemonic.CALL})


@dataclass
class RewriteItem:
    """One instruction of the function being rewritten.

    ``label`` names this position for intra-function branch fixups;
    ``local_target`` is set when the original instruction branches to
    another instruction *inside* the function, ``absolute_target`` when
    it leaves the function.  ``retpoline`` marks indirect branches the
    emitter must expand into thunks.
    """

    original: Instruction
    label: str
    local_target: str | None = None
    absolute_target: int | None = None
    retpoline: bool = False


@dataclass
class FunctionCode:
    """A decoded function ready for transformation."""

    entry: int
    items: list[RewriteItem] = field(default_factory=list)

    def mnemonics(self) -> list[Mnemonic]:
        return [item.original.mnemonic for item in self.items]


def lift_function(image: Image, entry: int, *,
                  max_bytes: int = 4096) -> FunctionCode:
    """Linear-sweep decode of a self-contained function at *entry*.

    The sweep continues past a ``ret`` while earlier branches target
    bytes beyond it (multi-exit functions); branches leaving the swept
    range keep absolute targets.
    """
    disasm = Disassembler(image)
    decoded: list[DecodedInstr] = []
    pc = entry
    pending_targets: set[int] = set()
    while pc < entry + max_bytes:
        instr = disasm.instruction_at(pc)
        if instr is None:
            break
        decoded.append(instr)
        if instr.kind in (BranchKind.DIRECT, BranchKind.CONDITIONAL,
                          BranchKind.CALL_DIRECT):
            target = instr.target()
            if entry <= target < entry + max_bytes:
                pending_targets.add(target)
        pc = instr.end
        if instr.instr.mnemonic in (Mnemonic.RET, Mnemonic.HLT) \
                and not any(t >= pc for t in pending_targets):
            break
    starts = {d.pc for d in decoded}
    code = FunctionCode(entry=entry)
    for d in decoded:
        item = RewriteItem(original=d.instr, label=f"pc_{d.pc:x}")
        if d.instr.mnemonic in _PCREL:
            target = d.target()
            if target in starts:
                item.local_target = f"pc_{target:x}"
            else:
                item.absolute_target = target
        code.items.append(item)
    return code


def insert_lfence_after_conditionals(code: FunctionCode) -> FunctionCode:
    """§8.2: place a speculation barrier on both sides of every jcc.

    The not-taken side gets an lfence directly after the branch; the
    taken side gets one at each conditional-branch target (which takes
    over the target's label so branches land on the fence first).
    """
    taken_labels = {item.local_target for item in code.items
                    if item.original.mnemonic is Mnemonic.JCC
                    and item.local_target}
    out = FunctionCode(entry=code.entry)
    fence_id = 0
    for item in code.items:
        if item.label in taken_labels:
            out.items.append(RewriteItem(
                original=Instruction(Mnemonic.LFENCE), label=item.label))
            item = RewriteItem(original=item.original,
                               label=f"{item.label}_post",
                               local_target=item.local_target,
                               absolute_target=item.absolute_target,
                               retpoline=item.retpoline)
        out.items.append(item)
        if item.original.mnemonic is Mnemonic.JCC:
            out.items.append(RewriteItem(
                original=Instruction(Mnemonic.LFENCE),
                label=f"__fence_{fence_id}"))
            fence_id += 1
    return out


def retpoline_indirect_branches(code: FunctionCode) -> FunctionCode:
    """§2.4: mark ``jmp *reg`` / ``call *reg`` for retpoline expansion."""
    out = FunctionCode(entry=code.entry)
    for item in code.items:
        if item.original.mnemonic in (Mnemonic.JMP_REG, Mnemonic.CALL_REG):
            out.items.append(RewriteItem(original=item.original,
                                         label=item.label, retpoline=True))
        else:
            out.items.append(item)
    return out


def emit_function(code: FunctionCode, base: int) -> Image:
    """Reassemble *code* at *base*, fixing up every displacement."""
    asm = Assembler(base)
    for item in code.items:
        asm.label(item.label)
        instr = item.original
        if item.retpoline:
            if instr.mnemonic is Mnemonic.JMP_REG:
                emit_retpoline(asm, instr.dest)
            else:
                emit_retpoline_call(asm, instr.dest)
            continue
        m = instr.mnemonic
        if m in _PCREL:
            target = item.local_target if item.local_target is not None \
                else item.absolute_target
            if m in (Mnemonic.JMP, Mnemonic.JMP_SHORT):
                # Short jumps are re-emitted near: insertions may have
                # pushed their targets out of rel8 range.
                asm.jmp(target)
            elif m is Mnemonic.JCC:
                asm.jcc(instr.cc, target)
            else:
                asm.call(target)
        else:
            asm.emit(instr)
    segment, _ = asm.finish()
    image = Image()
    image.add(segment)
    return image


def harden_function(image: Image, entry: int, new_base: int, *,
                    lfence: bool = True,
                    retpoline: bool = True) -> Image:
    """Lift, transform, re-emit: the full §8.2 hardening pipeline."""
    code = lift_function(image, entry)
    if lfence:
        code = insert_lfence_after_conditionals(code)
    if retpoline:
        code = retpoline_indirect_branches(code)
    return emit_function(code, new_base)
