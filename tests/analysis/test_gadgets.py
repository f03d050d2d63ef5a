"""Gadget scanner: taint rules, classification, corpus census."""

import pytest

from repro.analysis import (GadgetKind, build_cfg, generate_corpus,
                            paths_after, scan_corpus, scan_function)
from repro.isa import Assembler, Cond, Reg

BASE = 0xFFFF_FFFF_D000_0000
DATA = 0xFFFF_FFFF_D800_0000


def scan(builder, **kwargs):
    asm = Assembler(BASE)
    builder(asm)
    return scan_function(asm.image(), BASE, **kwargs)


class TestClassification:
    def test_v1_double_load(self):
        def builder(asm):
            asm.cmp_ri(Reg.RDI, 64)
            asm.jcc(Cond.AE, "out")
            asm.mov_ri(Reg.RCX, DATA)
            asm.add_rr(Reg.RCX, Reg.RDI)
            asm.loadb(Reg.RAX, Reg.RCX)      # secret
            asm.mov_ri(Reg.RBX, DATA + 0x1000)
            asm.add_rr(Reg.RBX, Reg.RAX)
            asm.loadb(Reg.R9, Reg.RBX)       # transmit
            asm.label("out")
            asm.ret()

        reports = scan(builder)
        assert len(reports) == 1
        assert reports[0].kind is GadgetKind.SPECTRE_V1
        assert reports[0].second_load_pc is not None

    def test_mds_single_load(self):
        def builder(asm):
            asm.cmp_ri(Reg.RDI, 64)
            asm.jcc(Cond.AE, "out")
            asm.mov_ri(Reg.RCX, DATA)
            asm.add_rr(Reg.RCX, Reg.RDI)
            asm.loadb(Reg.RAX, Reg.RCX)
            asm.label("out")
            asm.ret()

        reports = scan(builder)
        assert len(reports) == 1
        assert reports[0].kind is GadgetKind.MDS_SINGLE_LOAD

    def test_clean_load_not_reported(self):
        def builder(asm):
            asm.cmp_ri(Reg.RDI, 64)
            asm.jcc(Cond.AE, "out")
            asm.mov_ri(Reg.RCX, DATA)
            asm.load(Reg.RAX, Reg.RCX, 0x20)   # fixed address
            asm.label("out")
            asm.ret()

        assert scan(builder) == []

    def test_no_branch_no_gadget(self):
        def builder(asm):
            asm.mov_ri(Reg.RCX, DATA)
            asm.add_rr(Reg.RCX, Reg.RDI)
            asm.loadb(Reg.RAX, Reg.RCX)
            asm.ret()

        assert scan(builder) == []

    def test_lfence_kills_the_gadget(self):
        """§8.2: a barrier behind the branch stops the speculative path
        before the tainted load."""
        def builder(asm):
            asm.cmp_ri(Reg.RDI, 64)
            asm.jcc(Cond.AE, "out")
            asm.lfence()
            asm.mov_ri(Reg.RCX, DATA)
            asm.add_rr(Reg.RCX, Reg.RDI)
            asm.loadb(Reg.RAX, Reg.RCX)
            asm.label("out")
            asm.ret()

        assert scan(builder) == []

    def test_taint_cleared_by_immediate_overwrite(self):
        def builder(asm):
            asm.cmp_ri(Reg.RDI, 64)
            asm.jcc(Cond.AE, "out")
            asm.mov_ri(Reg.RDI, 4)            # overwrites attacker input
            asm.mov_ri(Reg.RCX, DATA)
            asm.add_rr(Reg.RCX, Reg.RDI)
            asm.loadb(Reg.RAX, Reg.RCX)
            asm.label("out")
            asm.ret()

        assert scan(builder) == []

    def test_nospec_mask_sanitizes(self):
        """array_index_nospec (§2.4 [74]): a small AND mask makes the
        speculative dereference harmless, and the scanner knows."""
        def builder(asm):
            asm.cmp_ri(Reg.RDI, 64)
            asm.jcc(Cond.AE, "out")
            asm.and_ri(Reg.RDI, 63)
            asm.mov_ri(Reg.RCX, DATA)
            asm.add_rr(Reg.RCX, Reg.RDI)
            asm.loadb(Reg.RAX, Reg.RCX)
            asm.label("out")
            asm.ret()

        assert scan(builder) == []

    def test_wide_mask_does_not_sanitize(self):
        """AND with a wide immediate still leaves attacker reach."""
        def builder(asm):
            asm.cmp_ri(Reg.RDI, 64)
            asm.jcc(Cond.AE, "out")
            asm.and_ri(Reg.RDI, 0xFFFFFF)
            asm.mov_ri(Reg.RCX, DATA)
            asm.add_rr(Reg.RCX, Reg.RDI)
            asm.loadb(Reg.RAX, Reg.RCX)
            asm.label("out")
            asm.ret()

        reports = scan(builder)
        assert reports and reports[0].kind is GadgetKind.MDS_SINGLE_LOAD

    def test_taint_flows_through_mov_and_lea(self):
        def builder(asm):
            asm.cmp_ri(Reg.RSI, 64)
            asm.jcc(Cond.AE, "out")
            asm.mov_rr(Reg.R8, Reg.RSI)
            asm.lea(Reg.R9, Reg.R8, 0x100)
            asm.load(Reg.RAX, Reg.R9)
            asm.label("out")
            asm.ret()

        reports = scan(builder)
        assert reports and reports[0].kind is GadgetKind.MDS_SINGLE_LOAD

    def test_window_bound_respected(self):
        """A load beyond the speculation window is unreachable."""
        def builder(asm):
            asm.cmp_ri(Reg.RDI, 64)
            asm.jcc(Cond.AE, "out")
            for _ in range(30):
                asm.add_ri(Reg.RBX, 1)
            asm.mov_ri(Reg.RCX, DATA)
            asm.add_rr(Reg.RCX, Reg.RDI)
            asm.loadb(Reg.RAX, Reg.RCX)
            asm.label("out")
            asm.ret()

        assert scan(builder, window=24) == []
        assert scan(builder, window=64) != []


class TestCFG:
    def test_duplicate_target_is_one_edge(self):
        """A jcc to its own fallthrough has one successor edge, so the
        block's speculative paths are not counted twice."""
        asm = Assembler(BASE)
        asm.cmp_ri(Reg.RDI, 64)
        asm.jcc(Cond.AE, "next")
        asm.label("next")
        asm.ret()
        graph = build_cfg(asm.image(), BASE)
        next_pc = asm.image().symbols["next"]
        assert list(graph.blocks) == [BASE, next_pc]
        assert graph.edges == {BASE: {next_pc: "fallthrough"}, next_pc: {}}
        assert len(paths_after(graph, graph.blocks[BASE])) == 1


class TestCorpusCensus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(total=300, seed=5)

    def test_scanner_recovers_ground_truth(self, corpus):
        summary = scan_corpus(corpus.image, corpus.entries)
        assert summary.spectre_v1 == corpus.count("v1_double_load")
        assert summary.mds_single_load == corpus.count("mds_single_load")

    def test_amplification_ratio_near_paper(self, corpus):
        """§9.3: Phantom grows the gadget population ~4x (183 -> 722)."""
        summary = scan_corpus(corpus.image, corpus.entries)
        assert 2.5 < summary.amplification < 6.0

    def test_hardened_corpus_scans_clean(self):
        corpus = generate_corpus(total=150, seed=6, hardened=True)
        summary = scan_corpus(corpus.image, corpus.entries)
        assert summary.spectre_v1 == 0
        assert summary.mds_single_load == 0

    def test_census_pinned(self):
        """The exact census at 2,000 functions: a change to the CFG or
        the taint walk that loses or double-counts a path shows here."""
        corpus = generate_corpus(total=2000, seed=7)
        summary = scan_corpus(corpus.image, corpus.entries)
        assert (summary.spectre_v1, summary.mds_single_load,
                summary.phantom_exploitable) == (164, 425, 589)
