"""Data accesses that straddle a page boundary.

Each page of a straddling load or store is translated on its own, so
its bytes come from (or go to) that page's frame even when the frames
are not physically adjacent.  The pages below are mapped to frames in
the order 0, 2, 1, so reading past page 0 into the physically next
frame would return page 2's bytes.
"""

import pytest

from repro.errors import PageFault
from repro.memory import MemorySystem
from repro.params import PAGE_SIZE

VA = 0x0000_5555_0000_0000
VALUE = 0x1122334455667788


@pytest.fixture(params=[False, True], ids=["slow", "fast"])
def setup(request):
    mem = MemorySystem(64 << 20, fastpath=request.param)
    frames = [mem.frames.alloc_page() for _ in range(3)]
    mapped = (frames[0], frames[2], frames[1])
    for index, frame in enumerate(mapped):
        mem.aspace.map_page(VA + index * PAGE_SIZE, frame, user=True,
                            nx=True)
    return mem, mapped


class TestArchitectural:
    def test_read_takes_tail_from_next_page_frame(self, setup):
        mem, _ = setup
        mem.write_data(VA + PAGE_SIZE, 8, VALUE, user_mode=True)
        value, _ = mem.read_data(VA + PAGE_SIZE - 4, 8, user_mode=True)
        assert value == 0x5566778800000000

    def test_write_splits_across_frames(self, setup):
        mem, mapped = setup
        mem.write_data(VA + 2 * PAGE_SIZE - 4, 8, VALUE, user_mode=True)
        assert mem.phys.read(mapped[1] + PAGE_SIZE - 4, 4) == \
            bytes.fromhex("88776655")
        assert mem.phys.read(mapped[2], 4) == bytes.fromhex("44332211")
        value, _ = mem.read_data(VA + 2 * PAGE_SIZE - 4, 8, user_mode=True)
        assert value == VALUE

    def test_each_page_pays_its_walk_and_miss(self, setup):
        mem, _ = setup
        _, cycles = mem.read_data(VA + PAGE_SIZE - 4, 8, user_mode=True)
        cold = mem.dtlb.walk_penalty + mem.hier.params.mem_latency
        assert cycles == 2 * cold
        assert mem.dtlb.misses == 2
        assert mem.data_latency(VA + PAGE_SIZE - 4, 8, user_mode=True) == \
            2 * mem.hier.params.l1_latency

    def test_read_into_unmapped_page_faults(self, setup):
        mem, _ = setup
        with pytest.raises(PageFault) as info:
            mem.read_data(VA + 3 * PAGE_SIZE - 4, 8, user_mode=True)
        assert info.value.va == VA + 3 * PAGE_SIZE
        assert not info.value.present

    def test_faulting_write_changes_no_byte(self, setup):
        mem, mapped = setup
        mem.aspace.set_attrs(VA + 2 * PAGE_SIZE, writable=False)
        with pytest.raises(PageFault) as info:
            mem.write_data(VA + 2 * PAGE_SIZE - 4, 8, VALUE, user_mode=True)
        assert info.value.write and info.value.present
        assert mem.phys.read(mapped[1] + PAGE_SIZE - 4, 4) == bytes(4)
