"""Retpoline and lfence codegen: architectural and speculative behaviour."""

from repro.analysis import (emit_lfence_guard, emit_retpoline,
                            emit_retpoline_call)
from repro.isa import Assembler, BranchKind, Reg
from repro.kernel import Machine
from repro.pipeline import ZEN2

CODE = 0x0000_0000_0A00_0000
DEST = 0x0000_0000_0A10_0000


def build_machine():
    return Machine(ZEN2, syscall_noise_evictions=0)


class TestRetpolineJmp:
    def setup_machine(self):
        machine = build_machine()
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RAX, DEST)
        labels = emit_retpoline(asm, Reg.RAX)
        machine.load_user_image(asm.image())
        dest = Assembler(DEST)
        dest.mov_ri(Reg.RBX, 0x5AFE)
        dest.hlt()
        machine.load_user_image(dest.image())
        return machine, labels

    def test_architecturally_reaches_target(self):
        machine, _ = self.setup_machine()
        machine.run_user(CODE)
        assert machine.cpu.state.read(Reg.RBX) == 0x5AFE

    def test_no_indirect_branch_trained(self):
        """The whole point: no jmp* retires, so no INDIRECT BTB entry
        exists for an attacker to poison."""
        machine, _ = self.setup_machine()
        machine.run_user(CODE)
        kinds = {entry.kind
                 for ways in machine.cpu.bpu.btb._sets.values()
                 for entry in ways.values()}
        assert BranchKind.INDIRECT not in kinds
        assert BranchKind.CALL_INDIRECT not in kinds

    def test_speculation_captured_by_fence(self):
        """The thunk ret's RSB prediction points into the capture loop;
        the fence there stops transient progress (no load at DEST can
        run speculatively)."""
        machine, labels = self.setup_machine()
        machine.cpu.record_episodes = True
        machine.run_user(CODE)
        for ep in machine.cpu.episodes:
            if not ep.frontend_resteer:
                # Backend (ret) mispredictions must land in the capture
                # loop, never at the architectural destination early.
                assert ep.target == labels["capture"]


class TestRetpolineCall:
    def test_call_returns_to_continuation(self):
        machine = build_machine()
        asm = Assembler(CODE)
        asm.mov_ri(Reg.RAX, DEST)
        emit_retpoline_call(asm, Reg.RAX)
        asm.mov_ri(Reg.RCX, 0xC0DE)
        asm.hlt()
        machine.load_user_image(asm.image())
        dest = Assembler(DEST)
        dest.mov_ri(Reg.RBX, 0x5AFE)
        dest.ret()
        machine.load_user_image(dest.image())
        machine.run_user(CODE)
        assert machine.cpu.state.read(Reg.RBX) == 0x5AFE
        assert machine.cpu.state.read(Reg.RCX) == 0xC0DE


def test_emitted_bytes_pinned():
    """The kernel's retpolined module code is built with these emitters;
    its bytes feed every boot's image, so they must not drift."""
    asm = Assembler(CODE)
    asm.mov_ri(Reg.RAX, DEST)
    emit_retpoline(asm, Reg.RAX)
    emit_retpoline_call(asm, Reg.R11)
    emit_lfence_guard(asm)
    (segment,) = asm.image().segments
    assert segment.data.hex() == (
        "48b80000100a00000000"
        "e8080000000faee8e9f8ffffff4889842400000000c3"
        "e805000000e916000000"
        "e8080000000faee8e9f8ffffff4c899c2400000000c3"
        "0faee8")

