"""Loadable kernel modules used by the experiments.

* ``covert_fn`` — a chain of direct branches (paper §6.4's covert-channel
  victim: "a kernel module that performs a number of direct branches.
  We aim to hijack one of these").
* ``mds_read_data`` — the Listing 4 MDS gadget: a bounds check guarding
  a single data load, followed by a direct ``call parse_data`` whose
  BTB entry the attacker hijacks with P3 (paper §7.4).
* ``p3_gadget`` — the disclosure gadget P3 jumps to: shift the byte
  into a cache-line-aligned offset (bits [13:6]) and load.
* ``rev_fn`` — nops followed by ``ret``: the kernel address K used for
  the BTB reverse engineering (paper §6.2).
* ``noise_fn`` — branchy filler used by the mitigation-overhead
  workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import Assembler, Cond, Image, Reg
from ..isa.hardening import emit_retpoline

MODULE_SIZE = 2 * 1024 * 1024

COVERT_FN_OFFSET = 0x100
MDS_FN_OFFSET = 0x800
P3_GADGET_OFFSET = 0xC00
COVERT_LOAD_GADGET_OFFSET = 0xD00
REV_FN_OFFSET = 0xE40
NOISE_FN_OFFSET = 0x1200
BTC_FN_OFFSET = 0x1400
BTC_SAFE_FN_OFFSET = 0x1600

#: Number of direct branches in the covert module's chain.
COVERT_BRANCHES = 8

#: In-bounds length of the MDS module's array.
MDS_ARRAY_LENGTH = 16


@dataclass
class KernelModules:
    """Assembled module text + symbols."""

    image: Image
    symbols: dict[str, int]
    base: int

    def sym(self, name: str) -> int:
        return self.symbols[name]


def build_modules(module_base: int, data_base: int) -> KernelModules:
    """Assemble all modules at *module_base*.

    ``data_base`` is the kernel data region: ``array_length`` lives at
    ``data_base`` and ``array`` at ``data_base + 0x40``.
    """
    image = Image()
    symbols: dict[str, int] = {}

    # --- covert-channel victim: direct branch chain ----------------------
    asm = Assembler(module_base + COVERT_FN_OFFSET)
    asm.label("covert_fn")
    for i in range(COVERT_BRANCHES):
        asm.label(f"covert_branch_{i}")
        asm.jmp(f"covert_hop_{i}")
        asm.label(f"covert_hop_{i}")
        asm.nopl(8)
    asm.ret()
    segment, covert_symbols = asm.finish()
    image.add(segment, covert_symbols)
    symbols.update(covert_symbols)

    # --- MDS gadget (Listing 4) ------------------------------------------
    asm = Assembler(module_base + MDS_FN_OFFSET)
    asm.label("mds_read_data")
    # if (user_index < *array_length)
    asm.mov_ri(Reg.RBX, data_base)
    asm.load(Reg.RBX, Reg.RBX)          # rbx = *array_length
    asm.cmp_rr(Reg.RDI, Reg.RBX)
    asm.jcc(Cond.AE, "mds_out")
    #   data = array[user_index]
    asm.mov_ri(Reg.RCX, data_base + 0x40)
    asm.add_rr(Reg.RCX, Reg.RDI)
    asm.loadb(Reg.RDX, Reg.RCX)
    #   parse_data(data)  — this call's prediction is what P3 hijacks
    asm.label("mds_call_site")
    asm.call("parse_data")
    asm.label("mds_out")
    asm.ret()
    asm.label("parse_data")
    asm.nop()
    asm.ret()
    segment, mds_symbols = asm.finish()
    image.add(segment, mds_symbols)
    symbols.update(mds_symbols)

    # --- P3 disclosure gadget ---------------------------------------------
    # rdx holds the byte to leak; rsi the reload buffer base (kernel VA).
    asm = Assembler(module_base + P3_GADGET_OFFSET)
    asm.label("p3_gadget")
    asm.shl_ri(Reg.RDX, 6)              # byte -> bits [13:6]
    asm.add_rr(Reg.RDX, Reg.RSI)
    asm.loadb(Reg.R9, Reg.RDX)          # the secret-dependent load
    asm.ret()
    segment, p3_symbols = asm.finish()
    image.add(segment, p3_symbols)
    symbols.update(p3_symbols)

    # --- execute-covert-channel gadget (paper §6.4, "Execute") ------------
    # T: "a memory load of the address in register R"; R here is RDI,
    # which syscall arguments reach unclobbered.
    asm = Assembler(module_base + COVERT_LOAD_GADGET_OFFSET)
    asm.label("covert_load_gadget")
    asm.loadb(Reg.R9, Reg.RDI)
    asm.ret()
    segment, cl_symbols = asm.finish()
    image.add(segment, cl_symbols)
    symbols.update(cl_symbols)

    # --- reverse-engineering probe: nops + ret ----------------------------
    asm = Assembler(module_base + REV_FN_OFFSET)
    asm.label("rev_fn")
    asm.nop_sled(64)
    asm.ret()
    segment, rev_symbols = asm.finish()
    image.add(segment, rev_symbols)
    symbols.update(rev_symbols)

    # --- BTI victims: an indirect call dispatcher ---------------------------
    # ``btc_fn`` is the classic Spectre-v2 target: a kernel jmp* whose
    # prediction an attacker can poison (the kernel proper is built
    # retpolined; third-party modules are where such branches survive).
    # ``btc_safe_fn`` is the same dispatcher built with a retpoline.
    asm = Assembler(module_base + BTC_FN_OFFSET)
    asm.label("btc_fn")
    asm.mov_ri(Reg.RAX, module_base + BTC_FN_OFFSET + 0x80)
    asm.jmp_reg(Reg.RAX)
    asm.pad_to(module_base + BTC_FN_OFFSET + 0x80)
    asm.label("btc_default")
    asm.nop()
    asm.ret()
    segment, btc_symbols = asm.finish()
    image.add(segment, btc_symbols)
    symbols.update(btc_symbols)

    asm = Assembler(module_base + BTC_SAFE_FN_OFFSET)
    asm.label("btc_safe_fn")
    asm.mov_ri(Reg.RAX, module_base + BTC_FN_OFFSET + 0x80)
    emit_retpoline(asm, Reg.RAX)
    segment, safe_symbols = asm.finish()
    image.add(segment, safe_symbols)
    symbols.update(safe_symbols)

    # --- branchy filler ----------------------------------------------------
    asm = Assembler(module_base + NOISE_FN_OFFSET)
    asm.label("noise_fn")
    asm.mov_ri(Reg.R10, 8)
    asm.label("noise_loop")
    asm.sub_ri(Reg.R10, 1)
    asm.jcc(Cond.NE, "noise_loop")
    asm.ret()
    segment, noise_symbols = asm.finish()
    image.add(segment, noise_symbols)
    symbols.update(noise_symbols)

    return KernelModules(image=image, symbols=symbols, base=module_base)
