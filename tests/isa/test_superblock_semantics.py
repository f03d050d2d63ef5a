"""``superblock_arch_lines`` must be bit-equivalent to ``execute``.

The superblock engine concatenates per-instruction source lines into
one fused closure.  For every fusible mnemonic the emitted lines must
produce exactly the architectural effect of the interpretive
``execute`` dispatch — every register, every flag, and the identical
load/store callback sequence — over randomized input states, and up
to the point where a memory callback faults mid-block.  The
classification itself is pinned too: anything that branches, traps,
serializes or reads the clock must be refused.
"""

import random

from repro.errors import PageFault
from repro.isa import (ArchState, Assembler, Cond, Reg, decode, execute)
from repro.isa.instructions import Mnemonic
from repro.isa.semantics import (SUPERBLOCK_FUSIBLE, SUPERBLOCK_HELPERS,
                                 superblock_arch_lines, superblock_fusible)

PC_BASE = 0x0000_0040_0000


def fusible_corpus():
    """At least one instruction for every fusible mnemonic."""
    asm = Assembler(PC_BASE)
    asm.nop()
    asm.nopl(6)
    asm.mov_ri(Reg.RAX, 0x1122334455667788)
    asm.mov_rr(Reg.RBX, Reg.RCX)
    asm.load(Reg.RDX, Reg.RBX, 0x40)
    asm.loadb(Reg.RSI, Reg.RBX, 3)
    asm.store(Reg.RBX, 0x18, Reg.RDI)
    asm.lea(Reg.R8, Reg.RSP, -16)
    asm.add_ri(Reg.RAX, 123456)
    asm.add_rr(Reg.RAX, Reg.R9)
    asm.sub_ri(Reg.RCX, 7)
    asm.sub_rr(Reg.RCX, Reg.RDX)
    asm.cmp_ri(Reg.RAX, 99)
    asm.cmp_rr(Reg.RAX, Reg.RBX)
    asm.test_rr(Reg.RAX, Reg.RAX)
    asm.and_ri(Reg.RDX, 0xFF)
    asm.xor_rr(Reg.RSI, Reg.RDI)
    asm.or_rr(Reg.RSI, Reg.R10)
    asm.shl_ri(Reg.RAX, 13)
    asm.shr_ri(Reg.RAX, 7)
    asm.inc(Reg.R11)
    asm.dec(Reg.R11)
    asm.neg(Reg.RDX)
    asm.not_(Reg.RDX)
    asm.imul_rr(Reg.RAX, Reg.RBX)
    asm.xchg_rr(Reg.RAX, Reg.RBX)
    for cc in Cond:
        asm.cmov(cc, Reg.RAX, Reg.RBX)
    asm.push(Reg.RCX)
    asm.pop(Reg.RDX)
    segment, _ = asm.finish()
    out, off = [], 0
    while off < len(segment.data):
        instr = decode(segment.data, off)
        out.append((PC_BASE + off, instr))
        off += instr.length
    return out


def nonfusible_corpus():
    asm = Assembler(PC_BASE)
    asm.jcc(Cond.E, "fwd")
    asm.jmp("fwd")
    asm.jmp_reg(Reg.RAX)
    asm.call("fwd")
    asm.call_reg(Reg.RBX)
    asm.ret()
    asm.rdtsc()
    asm.lfence()
    asm.mfence()
    asm.syscall()
    asm.sysret()
    asm.hlt()
    asm.ud2()
    asm.label("fwd")
    asm.nop()
    segment, _ = asm.finish()
    out, off = [], 0
    while off < len(segment.data):
        instr = decode(segment.data, off)
        out.append(instr)
        off += instr.length
    return out[:-1]   # drop the trailing landing-pad nop


def fuse(instrs_with_pcs) -> "callable":
    """A fused closure over *instrs_with_pcs*, the way the CPU builds
    superblock bodies (same helper globals, same local names)."""
    lines = ["def _blk(state, load, store):",
             "    regs = state.regs",
             "    flags = state.flags"]
    for _, instr in instrs_with_pcs:
        for line in superblock_arch_lines(instr):
            lines.append("    " + line)
    lines.append("    return None")
    namespace = dict(SUPERBLOCK_HELPERS)
    exec(compile("\n".join(lines), "<test-superblock>", "exec"), namespace)
    return namespace["_blk"]


def random_state(rng: random.Random) -> ArchState:
    state = ArchState()
    for reg in Reg:
        state.write(reg, rng.getrandbits(64))
    state.flags.zf = rng.random() < 0.5
    state.flags.sf = rng.random() < 0.5
    state.flags.cf = rng.random() < 0.5
    state.flags.of = rng.random() < 0.5
    return state


def recording_memory(log: list, fault_at: int | None = None):
    """Load/store callbacks that log every access; the *fault_at*-th
    access (1-based) is logged and then raises ``PageFault``."""
    def access(entry: tuple) -> None:
        log.append(entry)
        if len(log) == fault_at:
            raise PageFault(entry[1], present=False,
                            write=entry[0] == "store")

    def load(addr: int, size: int) -> int:
        access(("load", addr, size))
        return (addr * 0x9E3779B1 + size) & ((1 << (size * 8)) - 1)

    def store(addr: int, size: int, value: int) -> None:
        access(("store", addr, size, value))

    return load, store


def fault_points(block) -> tuple:
    """No fault, then a fault at each of *block*'s memory accesses
    (every fusible memory mnemonic makes exactly one)."""
    accesses = sum(instr.is_load or instr.is_store for _, instr in block)
    return (None, *range(1, accesses + 1))


def run_to_fault(fn) -> bool:
    """Run ``fn()``; True when it raised ``PageFault``."""
    try:
        fn()
    except PageFault:
        return True
    return False


def execute_block(block, state, load, store) -> None:
    for pc, instr in block:
        execute(instr, pc, state, load, store)


def dump(state: ArchState) -> tuple:
    return (tuple(state.regs), state.flags.zf, state.flags.sf,
            state.flags.cf, state.flags.of)


class TestClassification:
    def test_corpus_covers_every_fusible_mnemonic(self):
        seen = {instr.mnemonic for _, instr in fusible_corpus()}
        assert seen == set(SUPERBLOCK_FUSIBLE)

    def test_every_corpus_instruction_is_fusible(self):
        for _, instr in fusible_corpus():
            assert superblock_fusible(instr), instr

    def test_control_flow_traps_fences_and_rdtsc_are_refused(self):
        refused = nonfusible_corpus()
        assert len(refused) >= 13
        for instr in refused:
            assert not superblock_fusible(instr), instr
        assert {i.mnemonic for i in refused} & {
            Mnemonic.RDTSC, Mnemonic.LFENCE, Mnemonic.SYSCALL}


class TestFusedEquivalence:
    def test_single_instructions_match_execute(self):
        rng = random.Random(0x5B)
        for pc, instr in fusible_corpus():
            fn = fuse([(pc, instr)])
            for _ in range(20):
                seed_state = random_state(rng)
                for fault_at in fault_points([(pc, instr)]):
                    ref = ArchState()
                    fut = ArchState()
                    ref.regs[:] = seed_state.regs
                    fut.regs[:] = seed_state.regs
                    for name in ("zf", "sf", "cf", "of"):
                        setattr(ref.flags, name,
                                getattr(seed_state.flags, name))
                        setattr(fut.flags, name,
                                getattr(seed_state.flags, name))
                    ref_log, fut_log = [], []
                    ref_fault = run_to_fault(lambda: execute(
                        instr, pc, ref, *recording_memory(ref_log, fault_at)))
                    fut_fault = run_to_fault(lambda: fn(
                        fut, *recording_memory(fut_log, fault_at)))
                    assert ref_fault == fut_fault == (fault_at is not None)
                    assert dump(fut) == dump(ref), instr
                    assert fut_log == ref_log, instr

    def test_whole_corpus_fused_as_one_block(self):
        rng = random.Random(0xB5)
        corpus = fusible_corpus()
        fn = fuse(corpus)
        for _ in range(50):
            seed_state = random_state(rng)
            for fault_at in fault_points(corpus):
                ref = ArchState()
                fut = ArchState()
                ref.regs[:] = seed_state.regs
                fut.regs[:] = seed_state.regs
                for name in ("zf", "sf", "cf", "of"):
                    setattr(ref.flags, name, getattr(seed_state.flags, name))
                    setattr(fut.flags, name, getattr(seed_state.flags, name))
                ref_log, fut_log = [], []
                ref_fault = run_to_fault(lambda: execute_block(
                    corpus, ref, *recording_memory(ref_log, fault_at)))
                fut_fault = run_to_fault(lambda: fn(
                    fut, *recording_memory(fut_log, fault_at)))
                assert ref_fault == fut_fault == (fault_at is not None)
                assert dump(fut) == dump(ref)
                assert fut_log == ref_log

    def test_random_blocks_match_sequential_execution(self):
        rng = random.Random(0xC4FE)
        corpus = fusible_corpus()
        for _ in range(40):
            block = [corpus[rng.randrange(len(corpus))]
                     for _ in range(rng.randrange(2, 24))]
            fn = fuse(block)
            seed_state = random_state(rng)
            for fault_at in fault_points(block):
                ref = ArchState()
                fut = ArchState()
                ref.regs[:] = seed_state.regs
                fut.regs[:] = seed_state.regs
                for name in ("zf", "sf", "cf", "of"):
                    setattr(ref.flags, name, getattr(seed_state.flags, name))
                    setattr(fut.flags, name, getattr(seed_state.flags, name))
                ref_log, fut_log = [], []
                ref_fault = run_to_fault(lambda: execute_block(
                    block, ref, *recording_memory(ref_log, fault_at)))
                fut_fault = run_to_fault(lambda: fn(
                    fut, *recording_memory(fut_log, fault_at)))
                assert ref_fault == fut_fault == (fault_at is not None)
                assert dump(fut) == dump(ref)
                assert fut_log == ref_log
