"""Superblock fusion: equivalence and lifecycle.

The fast engine consumes straight-line runs in one fused call behind a
BTB entry guard.  It must be observably identical to the naive engine
(architecture, cycles, PMCs, episodes), split/retire around
self-modifying writes, survive remaps, fall back when the instruction
budget cannot fit a whole block, and bail to the slow step the moment a
BTB entry lands inside a fused range — phantom episodes included.
"""

import pytest

from repro.errors import HaltRequested, SimulationLimit
from repro.isa import Assembler, BranchKind, Cond, Reg
from repro.memory import MemorySystem
from repro.params import PAGE_SIZE
from repro.pipeline import CPU, ZEN2

CODE = 0x0000_0010_0000
STACK = 0x0000_7FF0_0000


class Twin:
    """One CPU per engine, same program, same inputs."""

    def __init__(self, *, fastpath: bool = True):
        self.mem = MemorySystem(128 << 20, fastpath=fastpath)
        self.cpu = CPU(ZEN2, self.mem, fastpath=fastpath)
        self.cpu.record_episodes = True
        self.mem.map_anonymous(STACK - 16 * PAGE_SIZE, 16 * PAGE_SIZE,
                               user=True, nx=True)
        self.cpu.state.write(Reg.RSP, STACK)

    def load(self, asm: Assembler) -> None:
        self.mem.load_image(asm.image(), user=True)

    def run(self, pc: int = CODE, max_instructions: int = 200_000) -> None:
        try:
            self.cpu.run(pc, max_instructions=max_instructions)
        except HaltRequested:
            return
        raise AssertionError("program did not halt")

    def observables(self) -> tuple:
        return (self.cpu.cycles, self.cpu.pmc.snapshot(),
                self.cpu.episodes,
                tuple(self.cpu.state.read(r) for r in Reg))

    def superblock_heads(self) -> list[int]:
        return [head for head, (n, _) in self.cpu._code_user.items()
                if n > 1]

    def interior_pc(self) -> int:
        """A pc inside a live user superblock that is not its head."""
        heads = self.superblock_heads()
        return next(pc for pc, owners in self.cpu._block_index.items()
                    if any(not kernel and head != pc and head in heads
                           for kernel, head in owners))


def fused_loop(iters: int = 100, body: int = 8) -> Assembler:
    """A loop whose body is one long fusible straight-line run."""
    asm = Assembler(CODE)
    asm.mov_ri(Reg.RAX, 1)
    asm.mov_ri(Reg.RBX, 3)
    asm.mov_ri(Reg.RCX, iters)
    asm.label("loop")
    for _ in range(body):
        asm.add_rr(Reg.RAX, Reg.RBX)
        asm.xor_rr(Reg.RBX, Reg.RAX)
        asm.add_ri(Reg.RAX, 7)
    asm.sub_ri(Reg.RCX, 1)
    asm.jcc(Cond.NE, "loop")
    asm.hlt()
    return asm


def branchy(iters: int = 200) -> Assembler:
    """Data-dependent branches: mispredicts open transient windows."""
    asm = Assembler(CODE)
    asm.mov_ri(Reg.RAX, 0x9E3779B97F4A7C15)
    asm.mov_ri(Reg.RCX, iters)
    asm.label("loop")
    asm.mov_rr(Reg.RDX, Reg.RAX)
    asm.shl_ri(Reg.RDX, 13)
    asm.xor_rr(Reg.RAX, Reg.RDX)
    asm.mov_rr(Reg.RDX, Reg.RAX)
    asm.shr_ri(Reg.RDX, 7)
    asm.xor_rr(Reg.RAX, Reg.RDX)
    asm.mov_rr(Reg.RDX, Reg.RAX)
    asm.and_ri(Reg.RDX, 1)
    asm.cmp_ri(Reg.RDX, 0)
    asm.jcc(Cond.E, "skip")
    asm.add_ri(Reg.RBX, 1)
    asm.label("skip")
    asm.sub_ri(Reg.RCX, 1)
    asm.jcc(Cond.NE, "loop")
    asm.hlt()
    return asm


class TestEquivalence:
    @pytest.mark.parametrize("program", [fused_loop, branchy])
    def test_superblocks_match_naive_engine(self, program):
        slow = Twin(fastpath=False)
        fused = Twin()
        for twin in (slow, fused):
            twin.load(program())
            twin.run()
        assert fused.observables() == slow.observables()
        assert fused.cpu.sb_compiled > 0
        assert fused.cpu.sb_fused_instructions >= \
            3 * fused.cpu.sb_compiled
        assert slow.cpu.sb_compiled == 0


class TestLifecycle:
    def test_midblock_write_retires_and_recompiles(self):
        fused = Twin()
        fused.load(fused_loop())
        fused.run()
        compiled = fused.cpu.sb_compiled
        heads = fused.superblock_heads()
        assert heads
        interior = fused.interior_pc()
        owner = next(head for kernel, head
                     in fused.cpu._block_index[interior]
                     if not kernel and head in heads)
        fused.cpu.invalidate_code(interior, interior + 1)
        assert owner not in fused.cpu._code_user
        assert fused.cpu.sb_invalidated > 0
        # Re-dispatch recompiles over whatever decodes survive, and the
        # rerun still matches the naive engine exactly.  The naive twin
        # gets the identical invalidation: dropping µop-cache windows
        # is cycle-visible, and both engines must pay it.
        slow = Twin(fastpath=False)
        slow.load(fused_loop())
        slow.run()
        slow.cpu.invalidate_code(interior, interior + 1)
        fused.run()
        slow.run()
        assert fused.observables() == slow.observables()
        assert fused.cpu.sb_compiled > compiled

    def test_remap_keeps_compiled_entries(self):
        """A page-table change flushes nothing compiled: entries hold
        only decoded instructions, address-pure BTB keys and live
        callbacks, exactly like the decode cache both engines share."""
        twins = fused, slow = Twin(), Twin(fastpath=False)
        for twin in twins:
            twin.load(fused_loop(50))
            twin.run()
            twin.run()         # the second pass compiles the prologue
        entries = dict(fused.cpu._code_user)
        assert fused.superblock_heads()
        compiled = fused.cpu.sb_compiled
        for twin in twins:
            generation = twin.mem.aspace.generation
            twin.mem.map_anonymous(0x0000_0300_0000, PAGE_SIZE, user=True)
            assert twin.mem.aspace.generation != generation
            twin.run()
        assert all(fused.cpu._code_user[head] is entry
                   for head, entry in entries.items())
        assert fused.cpu.sb_compiled == compiled
        assert fused.observables() == slow.observables()

    def test_budget_smaller_than_block_still_exact(self):
        for budget in (1, 2, 7):
            fused = Twin()
            fused.load(fused_loop())
            fused.run()        # warm + compile
            slow = Twin(fastpath=False)
            slow.load(fused_loop())
            slow.run()
            for twin in (fused, slow):
                with pytest.raises(SimulationLimit):
                    twin.cpu.run(CODE, max_instructions=budget)
            assert fused.cpu.pmc.read("instructions") == \
                slow.cpu.pmc.read("instructions")
            assert fused.cpu.pc == slow.cpu.pc
            assert fused.cpu.cycles == slow.cpu.cycles


class TestProbeGuard:
    def test_btb_entry_inside_block_bails_to_step_path(self):
        """An aliasing BTB entry landing mid-block must force the
        slow step, which performs the phantom episode — the fast and
        naive engines stay identical through it."""
        fused = Twin()
        slow = Twin(fastpath=False)
        twins = (fused, slow)
        for twin in twins:
            twin.load(fused_loop())
            twin.run()
        interior = fused.interior_pc()
        bails = fused.cpu.sb_probe_bails
        for twin in twins:
            # Train a jump "at" a straight-line pc: the decoder will
            # detect the disagreement (Phantom's trigger condition).
            twin.cpu.bpu.btb.train(interior, BranchKind.DIRECT,
                                   CODE, kernel_mode=False)
            twin.run()
        assert fused.cpu.sb_probe_bails > bails
        assert fused.observables() == slow.observables()
        # The rerun actually tripped phantom machinery somewhere.
        assert any(e.frontend_resteer for e in fused.cpu.episodes)


class TestTransientBlocks:
    def test_compile_and_invalidate(self):
        fused = Twin()
        fused.load(branchy(400))
        fused.run()
        assert fused.cpu.tb_compiled > 0
        assert any(entry is not None
                   for entry in fused.cpu._tb_user.values())
        invalidated = fused.cpu.sb_invalidated
        fused.cpu.invalidate_code(CODE, CODE + PAGE_SIZE)
        assert not fused.cpu._tb_user
        assert fused.cpu.sb_invalidated > invalidated
