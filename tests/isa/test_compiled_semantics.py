"""``compile_executor`` thunks must be bit-equivalent to ``execute``.

The fast path replaces the interpretive ``execute`` dispatch with one
closure per decoded instruction.  For every implemented mnemonic the
two must agree on: the returned ``ExecResult`` (next pc, trap, memory
access), every register, every flag, and the exact sequence of
load/store callbacks — over randomized input states, and after a
memory callback faults mid-instruction.
"""

import random

from repro.errors import PageFault
from repro.isa import (ArchState, Assembler, Cond, Reg, compile_executor,
                       decode, execute)

PC_BASE = 0x0000_0040_0000


def corpus():
    """One of every implemented operation, branches included."""
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
        asm.jcc(cc, "fwd")
    asm.jmp("fwd")
    asm.jmp_short("fwd")
    asm.jmp_reg(Reg.RAX)
    asm.call("fwd")
    asm.call_reg(Reg.RBX)
    asm.ret()
    asm.push(Reg.RCX)
    asm.pop(Reg.RDX)
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
        out.append((PC_BASE + off, instr))
        off += instr.length
    return out


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
        # Deterministic value derived from the request, same both runs.
        return (addr * 0x9E3779B1 + size) & ((1 << (size * 8)) - 1)

    def store(addr: int, size: int, value: int) -> None:
        access(("store", addr, size, value))

    return load, store


def run_to_fault(fn):
    """``fn()``'s result, or the fault it raised."""
    try:
        return fn()
    except PageFault as fault:
        return ("fault", fault.va, fault.write)


def dump(state: ArchState) -> tuple:
    return (tuple(state.regs), state.flags.zf, state.flags.sf,
            state.flags.cf, state.flags.of)


def test_every_mnemonic_matches_interpreter():
    rng = random.Random(1234)
    instrs = corpus()
    assert len(instrs) > 60
    faulted = set()
    for pc, instr in instrs:
        thunk = compile_executor(instr, pc)
        for _ in range(8):
            seed_state = random_state(rng)
            # fault_at=1 faults the first (for every mnemonic here, the
            # only) load or store: PUSH/CALL have already moved RSP.
            for fault_at in (None, 1):
                ref_state, fast_state = seed_state.copy(), seed_state.copy()
                ref_log, fast_log = [], []
                ref_load, ref_store = recording_memory(ref_log, fault_at)
                fast_load, fast_store = recording_memory(fast_log, fault_at)
                ref = run_to_fault(lambda: execute(
                    instr, pc, ref_state, ref_load, ref_store,
                    rdtsc=lambda: 777))
                fast = run_to_fault(lambda: thunk(
                    fast_state, fast_load, fast_store, lambda: 777))
                assert fast == ref, instr
                assert fast_log == ref_log, instr
                assert dump(fast_state) == dump(ref_state), instr
                if isinstance(ref, tuple):
                    faulted.add(instr.mnemonic)
    assert faulted == {instr.mnemonic for _, instr in instrs
                       if instr.is_load or instr.is_store}


def test_thunk_returns_fresh_results():
    """Each invocation must allocate a new ExecResult: results outlive
    re-execution of the same pc inside backend-mispredict windows."""
    pc, instr = corpus()[0]
    thunk = compile_executor(instr, pc)
    state = ArchState()
    load, store = recording_memory([])
    first = thunk(state, load, store, lambda: 0)
    second = thunk(state, load, store, lambda: 0)
    assert first is not second
