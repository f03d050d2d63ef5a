"""Observation channels for Phantom speculation (paper §5.1, Figure 5).

A user-space harness in the spirit of Figure 4: training code **A**
installs a BTB entry; victim code **B** (at a BTB-aliased address)
carries an instruction of a possibly different type; the *landing site*
— wherever the trained prediction makes the frontend go — holds a
signal gadget.  Three channels observe how far the landing advanced:

* **IF** — time an instruction fetch of the landing line (I-cache,
  Figure 5 A; for pc-relative trainings the probe is C', the address at
  the same relative distance from B as C is from A);
* **ID** — prime the landing's µop-cache set with a jmp-series of 7
  direct branches 4096 bytes apart (Figure 5 B), then count µop-cache
  misses when re-executing the series;
* **EX** — the landing gadget loads ``[rcx]``; time a reload of the
  probe address.

Nothing reads simulator internals: the channels go through timers and
performance counters only, like the paper's native tooling.

Each channel sets up only what it reads, as its first step and before
any training: IF calibrates the landing's exec hit/miss threshold, EX
calibrates the probe line's load threshold, and ID builds the
jmp-series.  The landing gadget and the victim are common to all three
and built with the experiment.

Each measurement should run on a **fresh machine** (the paper uses
fresh victim processes): a victim branch that executes architecturally
installs its own correct BTB entry, which would make later rounds
measure a correctly predicted branch instead of a phantom.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from ..isa import Assembler, Cond, Reg
from ..params import PAGE_SIZE, VA_MASK
from ..pipeline import Reach
from ..sidechannel import Timer, calibrate_threshold
from .attacker import AttackerRuntime


class TrainKind(enum.Enum):
    """Training branch types of Table 1's rows."""

    INDIRECT = "jmp*"
    DIRECT = "jmp"
    CONDITIONAL = "jcc"
    RETURN = "ret"
    NON_BRANCH = "non branch"


class VictimKind(enum.Enum):
    """Victim instruction types of Table 1's columns."""

    INDIRECT = "jmp*"
    DIRECT = "jmp"
    CONDITIONAL = "jcc"
    RETURN = "ret"
    NON_BRANCH = "non branch"


#: Encoded length of each victim's branch-source instruction.
_VICTIM_LEN = {
    VictimKind.INDIRECT: 2,      # jmp rax
    VictimKind.DIRECT: 5,        # jmp rel32
    VictimKind.CONDITIONAL: 6,   # jcc rel32
    VictimKind.RETURN: 1,        # ret
    VictimKind.NON_BRANCH: 1,    # nop
}

# Fixed user-space layout of the experiment.
_A_PAGE = 0x0000_0000_0410_0000     # training page
_C_TARGET = 0x0000_0000_0480_0B00   # absolute target C (jmp* training)
_SERIES_BASE = 0x0000_0000_0500_0000
_PROBE_DATA = 0x0000_0000_0580_0000
_RSB_SEED_CALL = 0x0000_0000_0590_0AFB  # call ends at the 0xB00 edge

#: Page offset where every branch victim's source instruction *ends*:
#: the fall-through (and all landings) start a fresh cache line and
#: µop-cache window (set 44).
_EDGE_OFFSET = 0xB00
#: Non-branch victims sit mid-line instead so that their architectural
#: fall-through never touches the landing's line or µop-cache set.
_NB_OFFSET = 0xAC8
#: Page offset of the pc-relative training target: C' then shares the
#: landing line offset.
_PCREL_TARGET_OFFSET = 0x2B00


@dataclass
class ExperimentResult:
    """Per-channel outcome for one (training, victim) combination."""

    fetch: bool
    decode: bool
    execute: bool

    @property
    def reach(self) -> Reach:
        if self.execute:
            return Reach.EXECUTE
        if self.decode:
            return Reach.DECODE
        if self.fetch:
            return Reach.FETCH
        return Reach.NONE


class TypeConfusionExperiment:
    """One channel measurement for one cell of Table 1.

    Use a fresh machine per measurement (see module docstring).
    """

    def __init__(self, machine, train_kind: TrainKind,
                 victim_kind: VictimKind) -> None:
        if (train_kind.value == victim_kind.value
                and train_kind not in (TrainKind.DIRECT,
                                       TrainKind.CONDITIONAL)):
            raise ValueError(
                f"symmetric combination {train_kind.value} x "
                f"{victim_kind.value} is not a Phantom case")
        self.machine = machine
        self.train_kind = train_kind
        self.victim_kind = victim_kind
        self.attacker = AttackerRuntime(machine)
        self.timer = Timer(machine)

        mask = machine.uarch.btb.user_alias_mask()
        if victim_kind is VictimKind.NON_BRANCH:
            offset = _NB_OFFSET
        else:
            offset = _EDGE_OFFSET - _VICTIM_LEN[victim_kind]
        self.train_src = _A_PAGE + offset
        self.victim_src = (self.train_src ^ mask) & VA_MASK
        self.victim_page = self.victim_src & ~(PAGE_SIZE - 1)

        self._build_victim()
        self.landing = self._landing_address()
        self._build_landing_gadget()

    # -- per-channel set-up (computed on first read) -------------------------

    @cached_property
    def exec_threshold(self) -> int:
        """IF channel: I-cache hit/miss threshold of the landing line."""
        return calibrate_threshold(self.timer, self.landing, exec_=True)

    @cached_property
    def load_threshold(self) -> int:
        """EX channel: D-cache hit/miss threshold of the probe line."""
        return calibrate_threshold(self.timer, _PROBE_DATA)

    @cached_property
    def series_entry(self) -> int:
        """ID channel: Figure 5 B's jmp-series, 7 forward jmps 4096 bytes
        apart in the landing's µop-cache set, ending in hlt."""
        offset = self.landing & 0xFC0
        entry = _SERIES_BASE + offset
        asm = Assembler(entry)
        for i in range(7):
            asm.jmp(_SERIES_BASE + (i + 1) * PAGE_SIZE + offset)
            asm.pad_to(_SERIES_BASE + (i + 1) * PAGE_SIZE + offset)
        asm.hlt()
        segment, _ = asm.finish()
        self.attacker.write_code(segment.base, segment.data)
        return entry

    # -- construction -------------------------------------------------------

    def _build_victim(self) -> None:
        att = self.attacker
        b = self.victim_src
        cont = self.victim_page + 0xC80     # architectural continuation
        att.ensure_mapped(self.victim_page, 4 * PAGE_SIZE)
        att.write_code(cont, b"\xf4")       # hlt

        kind = self.victim_kind
        if kind is VictimKind.NON_BRANCH:
            asm = Assembler(b)
            asm.nop()
            asm.hlt()                        # stays in the victim's line
            self.entry = b
        elif kind is VictimKind.INDIRECT:
            asm = Assembler(b - 10)
            asm.mov_ri(Reg.RAX, cont)
            asm.jmp_reg(Reg.RAX)
            self.entry = b - 10
        elif kind is VictimKind.DIRECT:
            asm = Assembler(b)
            asm.jmp(cont)
            self.entry = b
        elif kind is VictimKind.CONDITIONAL:
            asm = Assembler(b - 3)
            asm.xor_rr(Reg.RAX, Reg.RAX)
            asm.jcc(Cond.E, cont)            # always taken
            self.entry = b - 3
        elif kind is VictimKind.RETURN:
            asm = Assembler(b - 12)
            asm.mov_ri(Reg.RAX, cont)
            asm.push(Reg.RAX)
            asm.pad_to(b)
            asm.ret()
            self.entry = b - 12
        segment, _ = asm.finish()
        att.write_code(segment.base, segment.data)

    def _landing_address(self) -> int:
        """Where the trained prediction sends the frontend."""
        if self.train_kind is TrainKind.INDIRECT:
            return _C_TARGET
        if self.train_kind in (TrainKind.DIRECT, TrainKind.CONDITIONAL):
            # PC-relative entry: landing C' = B + (C_A - A).
            rel = (_A_PAGE + _PCREL_TARGET_OFFSET) - self.train_src
            return (self.victim_src + rel) & VA_MASK
        if self.train_kind is TrainKind.RETURN:
            # Predicted target = stale RSB top (seeded during training).
            return _RSB_SEED_CALL + 5
        # NON_BRANCH training: straight-line speculation past the
        # victim's branch: the fall-through line.
        return (self.victim_src + _VICTIM_LEN[self.victim_kind]) & VA_MASK

    def _build_landing_gadget(self) -> None:
        """``mov rbx, [rcx] ; hlt`` at the landing site."""
        asm = Assembler(self.landing)
        asm.load(Reg.RBX, Reg.RCX)
        asm.hlt()
        segment, _ = asm.finish()
        self.attacker.write_code(segment.base, segment.data)
        self.attacker.ensure_mapped(_PROBE_DATA, PAGE_SIZE)

    # -- per-trial steps -----------------------------------------------------

    def _train(self) -> None:
        att = self.attacker
        kind = self.train_kind
        src = self.train_src
        if kind is TrainKind.INDIRECT:
            att.train_indirect(src, _C_TARGET,
                               regs={Reg.RCX: _PROBE_DATA})
        elif kind is TrainKind.DIRECT:
            att.train_direct(src, _A_PAGE + _PCREL_TARGET_OFFSET)
        elif kind is TrainKind.CONDITIONAL:
            # Several rounds: the 2-bit direction counter must cross
            # into predicted-taken before the entry redirects fetch.
            for _ in range(3):
                att.train_cond(src, _A_PAGE + _PCREL_TARGET_OFFSET)
        elif kind is TrainKind.RETURN:
            att.train_ret(src)
            # Leave a stale RSB entry for the victim's return
            # prediction to land on (and for us to observe).
            att.seed_rsb(_RSB_SEED_CALL)
        elif kind is TrainKind.NON_BRANCH:
            att.execute_nops(src)

    def _run_victim(self) -> None:
        self.machine.run_user(self.entry, regs={Reg.RCX: _PROBE_DATA})

    def _reset_channels(self) -> None:
        self.machine.clflush(self.landing)
        self.machine.clflush(_PROBE_DATA)

    # -- channels --------------------------------------------------------------

    def measure_fetch(self) -> bool:
        """IF channel: did the landing line enter the I-cache?"""
        threshold = self.exec_threshold
        self._train()
        self._reset_channels()
        self._run_victim()
        return self.timer.time_exec(self.landing) < threshold

    def measure_decode(self) -> bool:
        """ID channel: did decoding the landing evict a primed way?"""
        series = self.series_entry
        self._train()
        self._reset_channels()
        self.machine.run_user(series)   # prime the µop set
        self._run_victim()
        with self.machine.cpu.pmc.sample("op_cache_miss") as sample:
            self.machine.run_user(series)
        return sample["op_cache_miss"] > 0

    def measure_decode_with_negative_control(self) -> bool:
        """The paper's reliability refinement for the ID channel (§5.1):
        "complementary negative testing using a training branch that
        does not alias with the victim branch" — conclude ID only when
        the aliased training shows strictly more µop-cache misses than
        a non-aliasing control training.

        Only meaningful for injected (branch-trained) predictions; the
        non-branch "training" installs nothing to control against.
        """
        if self.train_kind is TrainKind.NON_BRANCH:
            raise ValueError("negative control needs a trained branch")
        series = self.series_entry

        def misses_with_training(src: int) -> int:
            saved = self.train_src
            self.train_src = src
            try:
                self._train()
            finally:
                self.train_src = saved
            self._reset_channels()
            self.machine.run_user(series)
            self._run_victim()
            with self.machine.cpu.pmc.sample("op_cache_miss") as sample:
                self.machine.run_user(series)
            return sample["op_cache_miss"]

        # Same page offset, different tag: no aliasing with the victim.
        control_src = self.train_src + 0x40_0000
        assert not self.machine.uarch.btb.collides(control_src,
                                                   self.victim_src)
        negative = misses_with_training(control_src)
        positive = misses_with_training(self.train_src)
        return positive > negative

    def measure_execute(self) -> bool:
        """EX channel: did the landing's load fill the probe line?"""
        threshold = self.load_threshold
        self._train()
        self._reset_channels()
        self._run_victim()
        return self.timer.time_load(_PROBE_DATA) < threshold
