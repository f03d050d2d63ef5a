"""The fast-path execution engine: equivalence, caching, invalidation.

The compiled-code cache (one step closure per ``(pc, privilege)``,
compiled on a pc's second visit) and the naive interpreter must be
indistinguishable to everything architectural and everything the paper
measures: cycles, PMCs, speculation episodes.  These tests pin that
equivalence at CPU level, the second-visit compile rule, an exact
instruction budget, the BTB pre-probe that sends a trained pc through
the same prediction query as the naive engine, and the cache-coherence
rules (``invalidate_code`` must drop compiled/decode/transient entries
and the µop-cache windows they fed; a remap drops nothing compiled).
Speculative windows compile nothing; their per-µop transient decode
cache must drop rewritten bytes just as the decode cache does.
"""

import pytest

from repro.errors import HaltRequested, SimulationLimit
from repro.isa import Assembler, BranchKind, Cond, Mnemonic, Reg
from repro.params import canonical
from repro.memory import MemorySystem
from repro.params import PAGE_SIZE
from repro.pipeline import CPU, ZEN2

CODE = 0x0000_0010_0000
DATA = 0x0000_0200_0000
STACK = 0x0000_7FF0_0000


class Twin:
    """One CPU per engine, same program, same inputs."""

    def __init__(self, fastpath: bool):
        self.mem = MemorySystem(128 << 20, fastpath=fastpath)
        self.cpu = CPU(ZEN2, self.mem, fastpath=fastpath)
        self.cpu.record_episodes = True
        self.mem.map_anonymous(STACK - 16 * PAGE_SIZE, 16 * PAGE_SIZE,
                               user=True, nx=True)
        self.cpu.state.write(Reg.RSP, STACK)

    def load(self, asm: Assembler, **attrs):
        self.mem.load_image(asm.image(), user=True, **attrs)

    def load_and_run(self, asm: Assembler, **attrs):
        self.load(asm, **attrs)
        self.run()

    def run(self, pc: int = CODE):
        try:
            self.cpu.run(pc, max_instructions=200_000)
        except HaltRequested:
            return
        raise AssertionError("program did not halt")

    def observables(self) -> tuple:
        return (self.cpu.cycles, self.cpu.pmc.snapshot(),
                self.cpu.episodes,
                tuple(self.cpu.state.read(r) for r in Reg))


def branchy_program(iters: int = 300) -> Assembler:
    """Data-dependent branches: mispredicts, Spectre windows, episodes."""
    asm = Assembler(CODE)
    asm.mov_ri(Reg.RAX, 0x9E3779B97F4A7C15)
    asm.mov_ri(Reg.RBX, DATA)
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
    asm.store(Reg.RBX, 0, Reg.RAX)
    asm.load(Reg.RSI, Reg.RBX, 0)
    asm.label("skip")
    asm.call("leaf")
    asm.sub_ri(Reg.RCX, 1)
    asm.jcc(Cond.NE, "loop")
    asm.hlt()
    asm.label("leaf")
    asm.add_ri(Reg.RDI, 1)
    asm.ret()
    return asm


def straight_loop(iters: int = 100, body: int = 8) -> Assembler:
    """A loop whose body is one long straight-line run."""
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


def branchy(iters: int = 200, disp: int | None = None) -> Assembler:
    """Data-dependent branches: mispredicts open transient windows.

    With *disp*, the skippable instruction is a load from
    ``DATA + disp``, so mispredicted windows touch a D-cache line."""
    asm = Assembler(CODE)
    asm.mov_ri(Reg.RAX, 0x9E3779B97F4A7C15)
    asm.mov_ri(Reg.RCX, iters)
    if disp is not None:
        asm.mov_ri(Reg.RSI, DATA)
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
    if disp is None:
        asm.add_ri(Reg.RBX, 1)
    else:
        asm.load(Reg.RBX, Reg.RSI, disp)
    asm.label("skip")
    asm.sub_ri(Reg.RCX, 1)
    asm.jcc(Cond.NE, "loop")
    asm.hlt()
    return asm


class TestEngineEquivalence:
    def test_identical_cycles_pmcs_and_episodes(self):
        slow, fast = Twin(fastpath=False), Twin(fastpath=True)
        for twin in (slow, fast):
            twin.mem.map_anonymous(DATA, PAGE_SIZE, user=True)
            twin.load_and_run(branchy_program())
        assert fast.cpu.cycles == slow.cpu.cycles
        assert fast.cpu.pmc.snapshot() == slow.cpu.pmc.snapshot()
        assert fast.cpu.episodes == slow.cpu.episodes
        for r in Reg:
            assert fast.cpu.state.read(r) == slow.cpu.state.read(r), r

    def test_mispredicts_actually_happened(self):
        fast = Twin(fastpath=True)
        fast.mem.map_anonymous(DATA, PAGE_SIZE, user=True)
        fast.load_and_run(branchy_program())
        assert fast.cpu.pmc.read("branch_mispredict") > 10

    @pytest.mark.parametrize("program", [straight_loop, branchy])
    def test_engines_agree(self, program):
        slow, fast = Twin(fastpath=False), Twin(fastpath=True)
        for twin in (slow, fast):
            twin.load_and_run(program())
        assert fast.observables() == slow.observables()
        assert fast.cpu._code_user and not slow.cpu._code_user


class TestStepCache:
    def test_cache_fills_after_warm_execution(self):
        fast = Twin(fastpath=True)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RCX, 3)
        asm.label("loop")
        sub = asm.pc
        asm.sub_ri(Reg.RCX, 1)
        jcc = asm.pc
        asm.jcc(Cond.NE, "loop")
        asm.hlt()
        fast.load_and_run(asm)
        # Only the loop body ran twice; the prologue mov and the hlt
        # ran once each and stay uncompiled.
        assert set(fast.cpu._code_user) == {sub, jcc}

    def test_pc_compiles_on_its_second_visit(self):
        fast = Twin(fastpath=True)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RAX, 1)
        asm.mov_ri(Reg.RDX, 2)
        asm.hlt()
        fast.load_and_run(asm)
        assert fast.cpu._decode_cache
        assert not fast.cpu._code_user      # every pc retired once
        fast.run()
        assert set(fast.cpu._code_user) == set(fast.cpu._decode_cache)

    def test_disabled_engine_compiles_nothing(self):
        slow = Twin(fastpath=False)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RAX, 5)
        asm.hlt()
        slow.load_and_run(asm)
        slow.run()
        assert not slow.cpu._code_user
        assert slow.cpu.sb_compiled == slow.cpu.tb_compiled == 0
        assert slow.cpu.state.read(Reg.RAX) == 5

    def test_invalidate_drops_compiled_thunks(self):
        fast = Twin(fastpath=True)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RAX, 1)
        asm.hlt()
        fast.load_and_run(asm)
        fast.run()
        assert CODE in fast.cpu._code_user
        fast.cpu.invalidate_code(CODE, CODE + 16)
        assert CODE not in fast.cpu._code_user
        assert CODE not in fast.cpu._decode_cache

    def test_self_modifying_code_reexecutes(self):
        fast = Twin(fastpath=True)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RAX, 1)
        asm.hlt()
        fast.load_and_run(asm)
        assert fast.cpu.state.read(Reg.RAX) == 1
        pa = fast.mem.aspace.translate_noperm(CODE)
        fast.mem.phys.write(pa + 2, (77).to_bytes(8, "little"))
        fast.cpu.invalidate_code(CODE, CODE + 16)
        fast.run()
        assert fast.cpu.state.read(Reg.RAX) == 77

    def test_invalidate_flushes_uop_windows(self):
        fast = Twin(fastpath=True)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RCX, 2)
        asm.label("loop")
        asm.nop_sled(32)
        asm.sub_ri(Reg.RCX, 1)
        asm.jcc(Cond.NE, "loop")
        asm.hlt()
        fast.load_and_run(asm)
        assert fast.cpu.uopcache.lookup(CODE)
        fast.cpu.invalidate_code(CODE, CODE + 64)
        assert not fast.cpu.uopcache.lookup(CODE)

    def test_invalidate_reaches_back_across_page_boundary(self):
        """An instruction starting on the previous page whose bytes
        spill into the invalidated range must be dropped too."""
        fast = Twin(fastpath=True)
        straddle = CODE + PAGE_SIZE - 4   # 10-byte mov crosses the page
        asm = Assembler(straddle)
        asm.mov_ri(Reg.RAX, 0xAB)
        asm.hlt()
        fast.mem.load_image(asm.image(), user=True)
        fast.run(straddle)
        fast.run(straddle)
        assert straddle in fast.cpu._code_user
        fast.cpu.invalidate_code(CODE + PAGE_SIZE, CODE + PAGE_SIZE + 8)
        assert straddle not in fast.cpu._code_user

    def test_remap_keeps_compiled_entries(self):
        """A page-table change flushes nothing compiled: entries hold
        only decoded instructions, address-pure BTB keys and live
        callbacks, exactly like the decode cache both engines share."""
        twins = fast, slow = Twin(fastpath=True), Twin(fastpath=False)
        for twin in twins:
            twin.load(straight_loop(50))
            twin.run()
            twin.run()         # the second pass compiles the prologue
        entries = dict(fast.cpu._code_user)
        assert set(entries) == set(fast.cpu._decode_cache)
        for twin in twins:
            generation = twin.mem.aspace.generation
            twin.mem.map_anonymous(0x0000_0300_0000, PAGE_SIZE, user=True)
            assert twin.mem.aspace.generation != generation
            twin.run()
        assert fast.cpu._code_user.keys() == entries.keys()
        assert all(fast.cpu._code_user[pc] is step
                   for pc, step in entries.items())
        assert fast.observables() == slow.observables()

    @pytest.mark.parametrize("budget", [1, 2, 7])
    def test_budget_limit_is_exact(self, budget):
        """A warm run stopped by the budget retires exactly *budget*
        instructions and stops where the naive engine stops."""
        twins = fast, slow = Twin(fastpath=True), Twin(fastpath=False)
        for twin in twins:
            twin.load_and_run(straight_loop())
        retired = fast.cpu.pmc.read("instructions")
        for twin in twins:
            with pytest.raises(SimulationLimit):
                twin.cpu.run(CODE, max_instructions=budget)
        assert fast.cpu.pmc.read("instructions") == retired + budget
        assert fast.cpu.pc == slow.cpu.pc
        assert fast.observables() == slow.observables()


class TestProbeGuard:
    def test_trained_pc_predicts_like_naive_engine(self):
        """A BTB entry trained at a compiled straight-line pc meets its
        step closure's key-footprint probe, so the closure itself calls
        ``predict_in_block`` and the decoder detects the disagreement
        (Phantom's trigger): the same phantom episode as the naive
        engine, with no slow step at that pc."""
        fast, slow = twins = Twin(fastpath=True), Twin(fastpath=False)
        predicted = []
        predict = fast.cpu.bpu.predict_in_block

        def spy(pc, length, *, kernel_mode):
            predicted.append(pc)
            return predict(pc, length, kernel_mode=kernel_mode)

        # Bound before the first compile, so every closure captures it.
        fast.cpu.bpu.predict_in_block = spy
        for twin in twins:
            twin.load_and_run(straight_loop())
        target = next(pc for pc, instr in slow.cpu._decode_cache.items()
                      if instr.mnemonic is Mnemonic.XOR_RR)
        assert target in fast.cpu._code_user
        del predicted[:]
        for twin in twins:
            twin.run()
        assert target not in predicted      # the probe skipped the query
        slow_pcs = TestTrapPcs.spy_slow_steps(fast)
        for twin in twins:
            twin.cpu.bpu.btb.train(target, BranchKind.DIRECT, CODE,
                                   kernel_mode=False)
            twin.run()
        assert target in predicted and target not in slow_pcs
        assert any(e.frontend_resteer and e.source_pc == target
                   for e in fast.cpu.episodes)
        assert fast.observables() == slow.observables()


class TestTrapPcs:
    """Trap-raising pcs compile on their second visit like any other
    pc, so a loop ending in ``hlt`` or ``syscall`` stops paying a slow
    step per visit (the regression an old compile-after-raise rule
    guarded against)."""

    @staticmethod
    def spy_slow_steps(twin: Twin) -> list[int]:
        """Record the pc of every step the fast engine runs slowly."""
        slow_pcs = []
        step_slow = twin.cpu._step_slow

        def spy():
            slow_pcs.append(twin.cpu.pc)
            step_slow()

        twin.cpu._step_slow = spy
        return slow_pcs

    def test_hlt_compiles_on_second_visit(self):
        fast, slow = Twin(fastpath=True), Twin(fastpath=False)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RAX, 1)
        asm.mov_ri(Reg.RDX, 2)
        hlt = asm.pc
        asm.hlt()
        slow_pcs = self.spy_slow_steps(fast)
        for twin in (fast, slow):
            twin.load_and_run(asm)
        assert hlt in slow_pcs and hlt not in fast.cpu._code_user
        for _ in range(2):
            del slow_pcs[:]
            for twin in (fast, slow):
                twin.run()
            assert slow_pcs == []       # hlt included: all compiled
            assert hlt in fast.cpu._code_user
        assert fast.cpu.cycles == slow.cpu.cycles
        assert fast.cpu.pmc.snapshot() == slow.cpu.pmc.snapshot()

    def test_syscall_loop_dispatches_compiled(self):
        fast, slow = Twin(fastpath=True), Twin(fastpath=False)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RCX, 5)
        asm.label("loop")
        syscall = asm.pc
        asm.syscall()
        asm.sub_ri(Reg.RCX, 1)
        asm.jcc(Cond.NE, "loop")
        asm.hlt()
        traps = []

        def handler(cpu, trap, instr, result):
            traps.append(trap)
            cpu.pc = canonical(result.next_pc)

        for twin in (fast, slow):
            twin.cpu.trap_handler = handler
        slow_pcs = self.spy_slow_steps(fast)
        for twin in (fast, slow):
            twin.load_and_run(asm)
        assert traps == ["syscall"] * 10
        assert slow_pcs.count(syscall) == 1
        assert syscall in fast.cpu._code_user
        assert fast.cpu.cycles == slow.cpu.cycles
        assert fast.cpu.pmc.snapshot() == slow.cpu.pmc.snapshot()


class TestL1MissCounting:
    """Satellite: the shared L1-miss heuristic (latency >= L2 latency).

    Pins the current counting behaviour for both cache levels on both
    engines: the first touch of a line is a miss, re-touches are hits.
    """

    @pytest.mark.parametrize("fastpath", [False, True])
    def test_l1d_miss_counted_once_per_cold_line(self, fastpath):
        twin = Twin(fastpath=fastpath)
        twin.mem.map_anonymous(DATA, PAGE_SIZE, user=True)
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RBX, DATA)
        asm.load(Reg.RAX, Reg.RBX, 0)
        asm.load(Reg.RDX, Reg.RBX, 0)
        asm.hlt()
        twin.load_and_run(asm)
        assert twin.cpu.pmc.read("l1d_access") == 2
        assert twin.cpu.pmc.read("l1d_miss") == 1

    @pytest.mark.parametrize("fastpath", [False, True])
    def test_l1i_miss_counted_once_per_cold_line(self, fastpath):
        twin = Twin(fastpath=fastpath)
        asm = Assembler(CODE)   # ~16 bytes: one cache line of code
        asm.mov_ri(Reg.RAX, 1)
        asm.mov_ri(Reg.RDX, 2)
        asm.hlt()
        twin.load_and_run(asm)
        assert twin.cpu.pmc.read("l1i_miss") == 1
        assert twin.cpu.pmc.read("l1i_access") == \
            twin.cpu.pmc.read("instructions")

    def test_threshold_is_l2_latency(self):
        twin = Twin(fastpath=True)
        assert twin.cpu._l1_miss_threshold == \
            twin.mem.hier.params.l2_latency


OLD_DISP, NEW_DISP = 0x1000, 0x2000


class TestTransientDecodeCache:
    def test_rewrite_on_mispredicted_path(self):
        """Rewriting bytes a speculative window decodes, then
        invalidating them, evicts those pcs from the transient decode
        cache; the rerun's windows decode the new bytes, exactly as the
        naive engine's do."""
        old = branchy(disp=OLD_DISP).image().segments[0].data
        new = branchy(disp=NEW_DISP).image().segments[0].data
        assert len(old) == len(new)
        changed = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
        lo, hi = CODE + changed[0], CODE + changed[-1] + 1

        fast, slow = twins = Twin(fastpath=True), Twin(fastpath=False)
        for twin in twins:
            twin.mem.map_anonymous(DATA, 4 * PAGE_SIZE, user=True, nx=True)
            twin.load_and_run(branchy(disp=OLD_DISP))
        load_pc, load = next((pc, instr) for pc, instr
                             in slow.cpu._decode_cache.items()
                             if instr.mnemonic is Mnemonic.MOV_RM)
        assert load_pc < lo < hi <= load_pc + load.length
        assert load_pc in fast.cpu._transient_cache
        assert fast.cpu.pmc.read("transient_load") > 0

        for twin in twins:
            twin.mem.write_data(lo, hi - lo,
                                int.from_bytes(new[lo - CODE:hi - CODE],
                                               "little"),
                                user_mode=True)
            twin.cpu.invalidate_code(lo, hi)
            for disp in (OLD_DISP, NEW_DISP):
                twin.mem.clflush(DATA + disp)
        rewritten = set(range(load_pc, hi))
        assert not rewritten & set(fast.cpu._transient_cache)
        assert not rewritten & set(fast.cpu._decode_cache)

        loads = fast.cpu.pmc.read("transient_load")
        for twin in twins:
            twin.run()
        assert fast.cpu.pmc.read("transient_load") > loads
        assert fast.cpu._transient_cache[load_pc][0].disp == NEW_DISP
        assert fast.observables() == slow.observables()
        assert fast.mem.hier.l1d.occupied_sets() == \
            slow.mem.hier.l1d.occupied_sets()
        translate = fast.mem.aspace.translate_noperm
        assert fast.mem.hier.data_cached(translate(DATA + NEW_DISP))
        assert not fast.mem.hier.data_cached(translate(DATA + OLD_DISP))
