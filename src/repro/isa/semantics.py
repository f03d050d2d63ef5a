"""Architectural execution semantics for the implemented x86-64 subset.

Each instruction's effect is written twice, on purpose:

* :func:`execute` is the hand-written interpreter — the naive engine
  and the oracle the fast path is checked against;
* :data:`SEMANTICS` is one table of per-mnemonic statement templates
  from which the fast form is generated: :func:`compile_executor`
  (one closure per decoded instruction).

Memory traffic is routed through caller-supplied load/store callables
so the cache hierarchy observes every access.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from ..params import MASK64, canonical
from .instructions import Cond, Instruction, Mnemonic, Reg


@dataclass(slots=True)
class Flags:
    """The subset of RFLAGS the implemented instructions read or write."""

    zf: bool = False
    sf: bool = False
    cf: bool = False
    of: bool = False


@dataclass(slots=True)
class ArchState:
    """Architectural register state."""

    regs: list[int] = field(default_factory=lambda: [0] * 16)
    flags: Flags = field(default_factory=Flags)

    def read(self, reg: Reg) -> int:
        return self.regs[reg]

    def write(self, reg: Reg, value: int) -> None:
        self.regs[reg] = value & MASK64

    def copy(self) -> "ArchState":
        clone = ArchState(regs=list(self.regs), flags=Flags(
            self.flags.zf, self.flags.sf, self.flags.cf, self.flags.of))
        return clone


@dataclass(slots=True)
class ExecResult:
    """Outcome of architecturally executing one instruction."""

    next_pc: int
    taken: bool | None = None          # branch direction (None: not a branch)
    target: int | None = None          # resolved branch target, if branch
    trap: str | None = None            # 'syscall' | 'sysret' | 'hlt' | 'ud2'


LoadFn = Callable[[int, int], int]
StoreFn = Callable[[int, int, int], None]


def _signed(value: int) -> int:
    value &= MASK64
    return value - (1 << 64) if value & (1 << 63) else value


def _set_logic_flags(flags: Flags, result: int) -> None:
    result &= MASK64
    flags.zf = result == 0
    flags.sf = bool(result >> 63)
    flags.cf = False
    flags.of = False


def _set_add_flags(flags: Flags, a: int, b: int, result: int) -> None:
    flags.zf = (result & MASK64) == 0
    flags.sf = bool((result >> 63) & 1)
    flags.cf = result > MASK64
    flags.of = (_signed(a) + _signed(b)) != _signed(result)


def _set_sub_flags(flags: Flags, a: int, b: int, result: int) -> None:
    flags.zf = (result & MASK64) == 0
    flags.sf = bool((result >> 63) & 1)
    flags.cf = (a & MASK64) < (b & MASK64)
    flags.of = (_signed(a) - _signed(b)) != _signed(result & MASK64)


#: The 16 condition codes as expressions over ``flags`` (P/NP: parity
#: is not modelled).  :func:`condition_met` and the executor thunks
#: both evaluate these strings.
COND_EXPR: dict[Cond, str] = {
    Cond.O: "flags.of",
    Cond.NO: "not flags.of",
    Cond.B: "flags.cf",
    Cond.AE: "not flags.cf",
    Cond.E: "flags.zf",
    Cond.NE: "not flags.zf",
    Cond.BE: "flags.cf or flags.zf",
    Cond.A: "not flags.cf and not flags.zf",
    Cond.S: "flags.sf",
    Cond.NS: "not flags.sf",
    Cond.P: "False",
    Cond.NP: "True",
    Cond.L: "flags.sf != flags.of",
    Cond.GE: "flags.sf == flags.of",
    Cond.LE: "flags.zf or (flags.sf != flags.of)",
    Cond.G: "not flags.zf and (flags.sf == flags.of)",
}


def _generate(source: str, name: str, namespace: dict) -> dict:
    """Run generated *source* in *namespace* and return the namespace.

    The code is compiled under a file name inside this package, so
    profilers that attribute frames by file charge it to ``isa``.
    """
    filename = os.path.join(os.path.dirname(__file__), f"<{name}>")
    exec(compile(source, filename, "exec"), namespace)
    return namespace


_COND_FN: dict[Cond, Callable[[Flags], bool]] = {
    cc: _generate(f"def cond(flags):\n    return {expr}",
                  f"cond:{cc.name}", {})["cond"]
    for cc, expr in COND_EXPR.items()
}


def condition_met(cc: Cond, flags: Flags) -> bool:
    """Evaluate condition code *cc* against *flags*."""
    return _COND_FN[cc](flags)


def execute(instr: Instruction, pc: int, state: ArchState,
            load: LoadFn, store: StoreFn,
            rdtsc: Callable[[], int] | None = None) -> ExecResult:
    """Execute *instr* at *pc*, mutating *state* and calling load/store.

    ``load(addr, size) -> value`` and ``store(addr, size, value)`` are
    supplied by the pipeline so memory effects traverse the cache
    hierarchy.  Returns the architectural :class:`ExecResult`.
    """
    m = instr.mnemonic
    flags = state.flags
    fall = (pc + instr.length) & MASK64
    res = ExecResult(next_pc=fall)

    def mem_addr() -> int:
        assert instr.base is not None
        return canonical(state.read(instr.base) + instr.disp)

    if m in (Mnemonic.NOP, Mnemonic.NOPL, Mnemonic.LFENCE, Mnemonic.MFENCE):
        return res
    if m in (Mnemonic.JMP, Mnemonic.JMP_SHORT):
        res.taken = True
        res.target = instr.target(pc)
        res.next_pc = res.target
        return res
    if m is Mnemonic.JMP_REG:
        res.taken = True
        res.target = canonical(state.read(instr.dest))
        res.next_pc = res.target
        return res
    if m is Mnemonic.JCC:
        res.taken = condition_met(instr.cc, flags)
        res.target = instr.target(pc)
        res.next_pc = res.target if res.taken else fall
        return res
    if m in (Mnemonic.CALL, Mnemonic.CALL_REG):
        rsp = (state.read(Reg.RSP) - 8) & MASK64
        state.write(Reg.RSP, rsp)
        store(rsp, 8, fall)
        res.taken = True
        if m is Mnemonic.CALL:
            res.target = instr.target(pc)
        else:
            res.target = canonical(state.read(instr.dest))
        res.next_pc = res.target
        return res
    if m is Mnemonic.RET:
        rsp = state.read(Reg.RSP)
        ret_addr = canonical(load(rsp, 8))
        state.write(Reg.RSP, (rsp + 8) & MASK64)
        res.taken = True
        res.target = ret_addr
        res.next_pc = ret_addr
        return res
    if m is Mnemonic.MOV_RI:
        state.write(instr.dest, instr.imm)
        return res
    if m is Mnemonic.MOV_RR:
        state.write(instr.dest, state.read(instr.src))
        return res
    if m is Mnemonic.MOV_RM:
        addr = mem_addr()
        state.write(instr.dest, load(addr, 8))
        return res
    if m is Mnemonic.MOVB_RM:
        # Modelled as a zero-extending byte load (movzx-style), which is
        # how the paper's disclosure gadgets use byte loads.
        addr = mem_addr()
        state.write(instr.dest, load(addr, 1) & 0xFF)
        return res
    if m is Mnemonic.MOV_MR:
        addr = mem_addr()
        store(addr, 8, state.read(instr.src))
        return res
    if m is Mnemonic.LEA:
        state.write(instr.dest, canonical(state.read(instr.base) + instr.disp))
        return res
    if m is Mnemonic.ADD_RI or m is Mnemonic.ADD_RR:
        a = state.read(instr.dest)
        b = instr.imm if m is Mnemonic.ADD_RI else state.read(instr.src)
        result = a + (b & MASK64)
        _set_add_flags(flags, a, b & MASK64, result)
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.SUB_RI or m is Mnemonic.SUB_RR:
        a = state.read(instr.dest)
        b = instr.imm if m is Mnemonic.SUB_RI else state.read(instr.src)
        result = (a - (b & MASK64)) & MASK64
        _set_sub_flags(flags, a, b & MASK64, result)
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.CMP_RI or m is Mnemonic.CMP_RR:
        a = state.read(instr.dest)
        b = instr.imm if m is Mnemonic.CMP_RI else state.read(instr.src)
        result = (a - (b & MASK64)) & MASK64
        _set_sub_flags(flags, a, b & MASK64, result)
        return res
    if m is Mnemonic.TEST_RR:
        _set_logic_flags(flags, state.read(instr.dest)
                         & state.read(instr.src))
        return res
    if m is Mnemonic.INC:
        a = state.read(instr.dest)
        result = (a + 1) & MASK64
        # inc preserves CF, updates the rest like add.
        carry = flags.cf
        _set_add_flags(flags, a, 1, a + 1)
        flags.cf = carry
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.DEC:
        a = state.read(instr.dest)
        result = (a - 1) & MASK64
        carry = flags.cf
        _set_sub_flags(flags, a, 1, result)
        flags.cf = carry
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.NEG:
        a = state.read(instr.dest)
        result = (-a) & MASK64
        _set_sub_flags(flags, 0, a, result)
        flags.cf = a != 0
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.NOT:
        state.write(instr.dest, ~state.read(instr.dest))
        return res   # not touches no flags
    if m is Mnemonic.IMUL_RR:
        a = _signed(state.read(instr.dest))
        b = _signed(state.read(instr.src))
        product = a * b
        result = product & MASK64
        overflow = product != _signed(result)
        flags.cf = flags.of = overflow
        # zf/sf are architecturally undefined after imul; we model them
        # from the truncated result for determinism.
        flags.zf = result == 0
        flags.sf = bool(result >> 63)
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.XCHG_RR:
        a = state.read(instr.dest)
        state.write(instr.dest, state.read(instr.src))
        state.write(instr.src, a)
        return res
    if m is Mnemonic.CMOV:
        if condition_met(instr.cc, flags):
            state.write(instr.dest, state.read(instr.src))
        return res
    if m is Mnemonic.AND_RI:
        result = state.read(instr.dest) & (instr.imm & MASK64)
        _set_logic_flags(flags, result)
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.XOR_RR:
        result = state.read(instr.dest) ^ state.read(instr.src)
        _set_logic_flags(flags, result)
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.OR_RR:
        result = state.read(instr.dest) | state.read(instr.src)
        _set_logic_flags(flags, result)
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.SHL_RI:
        result = (state.read(instr.dest) << instr.imm) & MASK64
        _set_logic_flags(flags, result)
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.SHR_RI:
        result = state.read(instr.dest) >> instr.imm
        _set_logic_flags(flags, result)
        state.write(instr.dest, result)
        return res
    if m is Mnemonic.PUSH:
        rsp = (state.read(Reg.RSP) - 8) & MASK64
        state.write(Reg.RSP, rsp)
        store(rsp, 8, state.read(instr.dest))
        return res
    if m is Mnemonic.POP:
        rsp = state.read(Reg.RSP)
        state.write(instr.dest, load(rsp, 8))
        state.write(Reg.RSP, (rsp + 8) & MASK64)
        return res
    if m is Mnemonic.RDTSC:
        cycles = rdtsc() if rdtsc is not None else 0
        state.write(Reg.RAX, cycles & 0xFFFFFFFF)
        state.write(Reg.RDX, (cycles >> 32) & 0xFFFFFFFF)
        return res
    if m is Mnemonic.SYSCALL:
        res.trap = "syscall"
        return res
    if m is Mnemonic.SYSRET:
        res.trap = "sysret"
        return res
    if m is Mnemonic.HLT:
        res.trap = "hlt"
        return res
    if m is Mnemonic.UD2:
        res.trap = "ud2"
        return res
    raise AssertionError(f"unhandled mnemonic {m}")


# ---------------------------------------------------------------------------
# the fast path: one semantics table, one code generator
# ---------------------------------------------------------------------------

#: ``thunk(state, load, store, rdtsc) -> ExecResult``
ExecutorFn = Callable[
    [ArchState, LoadFn, StoreFn, "Callable[[], int] | None"], ExecResult]

#: Fixed registers the templates name (``{rax}``, ``{rdx}``, ``{rsp}``).
_FIXED = {"rax": int(Reg.RAX), "rdx": int(Reg.RDX), "rsp": int(Reg.RSP)}


class Semantics(NamedTuple):
    """One mnemonic's architectural effect as fast-path source templates.

    ``body`` holds statements over the locals ``regs``, ``flags``,
    ``load``, ``store`` and ``rdtsc`` and the globals of
    ``_EXECUTOR_NAMESPACE``.  Fields ``{d} {s} {b} {disp} {imm}``
    are the operands, ``{cond}`` is the :data:`COND_EXPR` of a
    JCC/CMOV, and ``_``-prefixed names are per-instruction temporaries.
    Register writes keep :func:`execute`'s order relative to loads and
    stores, so a faulting access leaves the same state.

    The other fields build the :class:`ExecResult`, for the mnemonics
    that have them: ``exit`` gives its control-flow arguments (default
    ``next_pc=fall``; ``fall`` and ``tgt`` are the fall-through and
    direct-branch target) and ``trap`` the trap name.
    """

    body: tuple[str, ...] = ()
    exit: str | None = None
    trap: str | None = None


#: Inline sign-flag test (``value >= 2**63`` is bit 63 of a masked value).
_B63 = "0x8000000000000000"
_LOGIC_FLAGS = ("flags.zf = _r == 0", "flags.sf = _r >= " + _B63,
                "flags.cf = False", "flags.of = False")
_TAKEN = "next_pc={0}, taken=True, target={0}"
_EFFECTIVE = "_a = canonical(regs[{b}] + {disp})"
_RSP_DOWN = ("_a = (regs[{rsp}] - 8) & MASK64", "regs[{rsp}] = _a")
_RSP_UP = "regs[{rsp}] = (_a + 8) & MASK64"


def _logic(result: str, write: bool = True) -> tuple[str, ...]:
    body = ("_r = " + result,) + _LOGIC_FLAGS
    return body + ("regs[{d}] = _r",) if write else body


def _add(src: str) -> tuple[str, ...]:
    return ("_x = regs[{d}]", "_r = _x + " + src,
            "_af(flags, _x, " + src + ", _r)", "regs[{d}] = _r & MASK64")


def _sub(src: str, write: bool = True) -> tuple[str, ...]:
    body = ("_x = regs[{d}]", "_r = (_x - " + src + ") & MASK64",
            "_sf(flags, _x, " + src + ", _r)")
    return body + ("regs[{d}] = _r",) if write else body


_S = Semantics

#: The fast path's instruction semantics, one entry per mnemonic.
#: :func:`compile_executor` is generated from it; :func:`execute` is
#: written independently.
SEMANTICS: dict[Mnemonic, Semantics] = {
    Mnemonic.NOP: _S(),
    Mnemonic.NOPL: _S(),
    Mnemonic.LFENCE: _S(),
    Mnemonic.MFENCE: _S(),
    Mnemonic.JMP: _S(exit=_TAKEN.format("tgt")),
    Mnemonic.JMP_SHORT: _S(exit=_TAKEN.format("tgt")),
    Mnemonic.JMP_REG: _S(("_t = canonical(regs[{d}])",),
                         exit=_TAKEN.format("_t")),
    Mnemonic.JCC: _S(("_k = {cond}",),
                     exit="next_pc=tgt if _k else fall, taken=_k, target=tgt"),
    Mnemonic.CALL: _S(_RSP_DOWN + ("store(_a, 8, fall)",),
                      exit=_TAKEN.format("tgt")),
    Mnemonic.CALL_REG: _S(_RSP_DOWN + ("store(_a, 8, fall)",
                                       "_t = canonical(regs[{d}])"),
                          exit=_TAKEN.format("_t")),
    Mnemonic.RET: _S(("_a = regs[{rsp}]", "_t = canonical(load(_a, 8))",
                      _RSP_UP),
                     exit=_TAKEN.format("_t")),
    Mnemonic.MOV_RI: _S(("regs[{d}] = {imm}",)),
    Mnemonic.MOV_RR: _S(("regs[{d}] = regs[{s}]",)),
    Mnemonic.MOV_RM: _S((_EFFECTIVE, "regs[{d}] = load(_a, 8) & MASK64")),
    Mnemonic.MOVB_RM: _S((_EFFECTIVE, "regs[{d}] = load(_a, 1) & 0xFF")),
    Mnemonic.MOV_MR: _S((_EFFECTIVE, "store(_a, 8, regs[{s}])")),
    Mnemonic.LEA: _S(("regs[{d}] = canonical(regs[{b}] + {disp})",)),
    Mnemonic.ADD_RI: _S(_add("{imm}")),
    Mnemonic.ADD_RR: _S(_add("regs[{s}]")),
    Mnemonic.SUB_RI: _S(_sub("{imm}")),
    Mnemonic.SUB_RR: _S(_sub("regs[{s}]")),
    Mnemonic.CMP_RI: _S(_sub("{imm}", write=False)),
    Mnemonic.CMP_RR: _S(_sub("regs[{s}]", write=False)),
    Mnemonic.TEST_RR: _S(_logic("regs[{d}] & regs[{s}]", write=False)),
    Mnemonic.AND_RI: _S(_logic("regs[{d}] & {imm}")),
    Mnemonic.XOR_RR: _S(_logic("regs[{d}] ^ regs[{s}]")),
    Mnemonic.OR_RR: _S(_logic("regs[{d}] | regs[{s}]")),
    Mnemonic.SHL_RI: _S(_logic("(regs[{d}] << {imm}) & MASK64")),
    Mnemonic.SHR_RI: _S(_logic("regs[{d}] >> {imm}")),
    Mnemonic.INC: _S(("_x = regs[{d}]", "_c = flags.cf",
                      "_af(flags, _x, 1, _x + 1)", "flags.cf = _c",
                      "regs[{d}] = (_x + 1) & MASK64")),
    Mnemonic.DEC: _S(("_x = regs[{d}]", "_r = (_x - 1) & MASK64",
                      "_c = flags.cf", "_sf(flags, _x, 1, _r)",
                      "flags.cf = _c", "regs[{d}] = _r")),
    Mnemonic.NEG: _S(("_x = regs[{d}]", "_r = (-_x) & MASK64",
                      "_sf(flags, 0, _x, _r)", "flags.cf = _x != 0",
                      "regs[{d}] = _r")),
    Mnemonic.NOT: _S(("regs[{d}] = ~regs[{d}] & MASK64",)),
    Mnemonic.IMUL_RR: _S(("_p = _sg(regs[{d}]) * _sg(regs[{s}])",
                          "_r = _p & MASK64",
                          "flags.cf = flags.of = _p != _sg(_r)",
                          "flags.zf = _r == 0", "flags.sf = _r >= " + _B63,
                          "regs[{d}] = _r")),
    Mnemonic.XCHG_RR: _S(("_x = regs[{d}]", "regs[{d}] = regs[{s}]",
                          "regs[{s}] = _x")),
    Mnemonic.CMOV: _S(("if {cond}:", "    regs[{d}] = regs[{s}]")),
    Mnemonic.PUSH: _S(_RSP_DOWN + ("store(_a, 8, regs[{d}])",)),
    Mnemonic.POP: _S(("_a = regs[{rsp}]", "regs[{d}] = load(_a, 8) & MASK64",
                      _RSP_UP)),
    Mnemonic.RDTSC: _S(("_c = rdtsc() if rdtsc is not None else 0",
                        "regs[{rax}] = _c & 0xFFFFFFFF",
                        "regs[{rdx}] = (_c >> 32) & 0xFFFFFFFF")),
    Mnemonic.SYSCALL: _S(trap="syscall"),
    Mnemonic.SYSRET: _S(trap="sysret"),
    Mnemonic.HLT: _S(trap="hlt"),
    Mnemonic.UD2: _S(trap="ud2"),
}

#: Mnemonics whose execution raises a trap.
TRAP_MNEMONICS = frozenset(m for m, sem in SEMANTICS.items() if sem.trap)

#: Names the generated executor code expects in its globals, shared
#: read-only by every generated function.
_EXECUTOR_NAMESPACE = {
    "MASK64": MASK64,
    "canonical": canonical,
    "_af": _set_add_flags,
    "_sf": _set_sub_flags,
    "_sg": _signed,
}

_OPERAND_NAMES = {name: name for name in ("d", "s", "b", "disp", "imm")}

#: ``(mnemonic value, cc) -> factory``; filled on first use.  Keyed by
#: the member's value because hashing an ``Enum`` member runs Python.
_FACTORIES: dict = {}


def _executor_factory(m: Mnemonic, cc: Cond | None) -> Callable:
    """Generate ``factory(d, s, b, disp, imm, fall, tgt) -> thunk`` for
    *m* (and *cc*, for JCC/CMOV) from its :data:`SEMANTICS` entry."""
    sem = SEMANTICS[m]
    fields = dict(_FIXED, cond=COND_EXPR.get(cc, ""), **_OPERAND_NAMES)
    body = [line.format_map(fields) for line in sem.body]
    args = [sem.exit or "next_pc=fall"]
    if sem.trap:
        args.append(f"trap={sem.trap!r}")
    text = "\n".join(body)
    src = ["def factory(d, s, b, disp, imm, fall, tgt):",
           "    def thunk(state, load, store, rdtsc):"]
    if "regs" in text:
        src.append("        regs = state.regs")
    if "flags" in text:
        src.append("        flags = state.flags")
    src += ["        " + line for line in body]
    src += [f"        return ExecResult({', '.join(args)})",
            "    return thunk"]
    name = m.name if cc is None else f"{m.name}.{cc.name}"
    namespace = dict(_EXECUTOR_NAMESPACE, ExecResult=ExecResult)
    return _generate("\n".join(src), f"executor:{name}", namespace)["factory"]


def compile_executor(instr: Instruction, pc: int) -> ExecutorFn:
    """Specialise the fast-path semantics for one decoded instruction.

    Returns a thunk with the mnemonic dispatch, condition, operand
    indices and address arithmetic resolved once.  The thunk mutates
    *state* and calls load/store exactly as :func:`execute` would and
    returns an equal :class:`ExecResult` — every register, flag,
    memory-access and trap effect is byte-identical, so the fast path
    stays architecturally invisible (pinned by
    ``tests/isa/test_compiled_semantics.py``).  Thunk code is generated
    from :data:`SEMANTICS` once per mnemonic (and condition) per
    process; each call only binds the operands.  A fresh ``ExecResult``
    is allocated per call: results outlive the next execution of the
    same pc (e.g. a backend-mispredict window re-running it
    transiently), so thunks must never reuse one.
    """
    key = (instr.mnemonic._value_, instr.cc)
    factory = _FACTORIES.get(key)
    if factory is None:
        factory = _FACTORIES[key] = _executor_factory(instr.mnemonic,
                                                      instr.cc)
    dest, src, base, imm = instr.dest, instr.src, instr.base, instr.imm
    fall = (pc + instr.length) & MASK64
    return factory(None if dest is None else int(dest),
                   None if src is None else int(src),
                   None if base is None else int(base),
                   instr.disp, None if imm is None else imm & MASK64,
                   fall, (fall + instr.disp) & MASK64)

