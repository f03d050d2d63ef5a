"""Transient loads that straddle a page boundary.

A straddling transient load translates both pages: its tail comes from
the second page's frame, and a fault on the second page ends the
window before any younger µop executes.
"""

import pytest

from repro.isa import Assembler, Reg
from repro.memory import MemorySystem
from repro.params import PAGE_SIZE
from repro.pipeline import CPU, ZEN2
from repro.pipeline.cpu import _TransientState

CODE = 0x0000_0010_0000
DATA = 0x0000_0200_0000
PROBE = 0x0000_0300_0000


@pytest.fixture(params=[False, True], ids=["slow", "fast"])
def setup(request):
    mem = MemorySystem(64 << 20, fastpath=request.param)
    cpu = CPU(ZEN2, mem, fastpath=request.param)
    asm = Assembler(CODE)
    asm.load(Reg.RAX, Reg.RSI)   # straddles DATA's first page
    asm.load(Reg.RBX, Reg.RDI)   # probe: executes only if the window goes on
    asm.hlt()
    mem.load_image(asm.image(), user=True)
    mem.map_anonymous(PROBE, PAGE_SIZE, user=True, nx=True)
    # Two data pages on frames that are not physically adjacent.
    first = mem.frames.alloc_page()
    mem.frames.alloc_page()
    second = mem.frames.alloc_page()
    mem.aspace.map_page(DATA, first, user=True, nx=True)
    mem.phys.write(first + PAGE_SIZE - 4, bytes.fromhex("88776655"))
    mem.phys.write(second, bytes.fromhex("44332211"))
    return mem, cpu, second


def _window(cpu):
    transient = _TransientState(cpu, cpu.state.copy())
    transient.arch.write(Reg.RSI, DATA + PAGE_SIZE - 4)
    transient.arch.write(Reg.RDI, PROBE)
    executed = cpu._transient_run(CODE, 16, transient, False)
    return executed, transient.arch


def test_tail_comes_from_second_page_frame(setup):
    mem, cpu, second = setup
    mem.aspace.map_page(DATA + PAGE_SIZE, second, user=True, nx=True)
    executed, arch = _window(cpu)
    assert executed == 2
    assert arch.read(Reg.RAX) == 0x1122334455667788
    assert mem.hier.data_cached(second)
    assert mem.hier.data_cached(mem.aspace.translate_noperm(PROBE))


def test_unmapped_second_page_ends_the_window(setup):
    mem, cpu, _ = setup
    executed, _ = _window(cpu)
    assert executed == 0
    assert not mem.hier.data_cached(mem.aspace.translate_noperm(PROBE))
