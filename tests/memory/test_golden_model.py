"""Golden memory-model trace: pinned cycles, cache stats and residency.

The naive and fast engines share ``repro.memory``, so the engine
differential cannot notice a slip in the cache, TLB or hierarchy code.
This test replays one scripted sequence of data loads and stores, code
fetches (some crossing a page), I-prefetches and ``clflush``\\es on a
small hierarchy, under LRU and under RANDOM replacement, and compares
what the model did with values recorded from the reference
implementation: the cycles of every operation, each cache's
hit/miss/eviction/flush counts, the lines resident in every set (MRU
last) and the TLB hit/miss counts.

The small geometry (L1s: 8 sets x 2 ways, L2: 16 sets x 4 ways)
overflows sets constantly and forces inclusive L2 back-invalidations;
the 80 touched data pages overflow the 64-entry TLBs.  No data access
straddles a page.
"""

import hashlib
import random

import pytest

from repro.memory import (CacheGeometry, HierarchyParams, MemorySystem,
                          Replacement)
from repro.params import PAGE_SIZE

DATA_VA = 0x0000_5555_0000_0000
CODE_VA = 0x0000_5555_4000_0000
DATA_PAGES = 80
CODE_PAGES = 4
OPS = 1500


def _run(replacement: Replacement) -> dict:
    params = HierarchyParams(l1i=CacheGeometry(1024, 2),
                             l1d=CacheGeometry(1024, 2),
                             l2=CacheGeometry(4096, 4),
                             replacement=replacement)
    mem = MemorySystem(16 << 20, hierarchy=params, rng=random.Random(5))
    data_pa = mem.map_anonymous(DATA_VA, DATA_PAGES * PAGE_SIZE, user=True,
                                nx=True)
    code_pa = mem.map_anonymous(CODE_VA, CODE_PAGES * PAGE_SIZE, user=True)
    rng = random.Random(0x601D)
    cycles = []
    for _ in range(OPS):
        op = rng.randrange(10)
        # Most traffic hits 32 hot lines (4 per L1 set, so sets
        # overflow); the rest sweeps all data pages and overflows the
        # TLB.
        if rng.random() < 0.7:
            va = DATA_VA + rng.randrange(32 * 64 // 8) * 8
        else:
            va = DATA_VA + rng.randrange(DATA_PAGES * PAGE_SIZE // 8) * 8
        if op < 4:
            cycles.append(mem.read_data(va, 8, user_mode=True)[1])
        elif op < 6:
            cycles.append(mem.write_data(va, 8, rng.getrandbits(64),
                                         user_mode=True))
        elif op < 8:
            pc = CODE_VA + (rng.randrange(PAGE_SIZE - 16, PAGE_SIZE + 16)
                            if rng.random() < 0.3 else
                            rng.randrange(CODE_PAGES * PAGE_SIZE - 16))
            cycles.append(mem.fetch_code(pc, 16, user_mode=True)[1])
        elif op == 8:
            mem.clflush(va if rng.random() < 0.5 else
                        CODE_VA + rng.randrange(CODE_PAGES * PAGE_SIZE))
        else:
            mem.hier.prefetch_instr(code_pa
                                    + rng.randrange(CODE_PAGES * PAGE_SIZE))
    hier = mem.hier

    def residency(cache, base):
        return [(index, [(line - base) >> 6 for line in lines])
                for index, lines in cache.occupied_sets()]

    return {
        "cycles_sum": sum(cycles),
        "cycles_sha": hashlib.sha256(repr(cycles).encode()).hexdigest()[:16],
        "stats": {c.name: (c.stats.hits, c.stats.misses, c.stats.evictions,
                           c.stats.flushes)
                  for c in (hier.l1i, hier.l1d, hier.l2)},
        "l1i": residency(hier.l1i, code_pa),
        "l1d": residency(hier.l1d, data_pa),
        "l2_sha": hashlib.sha256(repr(residency(hier.l2, 0)).encode())
        .hexdigest()[:16],
        "tlb": {"itlb": (mem.itlb.hits, mem.itlb.misses),
                "dtlb": (mem.dtlb.hits, mem.dtlb.misses)},
    }


#: Recorded from the reference implementation; regenerate only for a
#: deliberate change to the memory model.
GOLDEN = {
    Replacement.LRU: {
        "cycles_sum": 108428,
        "cycles_sha": "07235dfa8856e506",
        "stats": {"L1I": (122, 270, 218, 77),
                  "L1D": (207, 685, 629, 40),
                  "L2": (223, 732, 642, 43)},
        "l1i": [(0, [128, 64]), (1, [57, 161]), (2, [82, 178]),
                (3, [35, 115]), (4, [28, 252]), (5, [205, 197]),
                (6, [94, 54]), (7, [63, 39])],
        "l1d": [(0, [16, 24]), (1, [25, 9]), (2, [4954, 2706]),
                (3, [11, 3]), (4, [4, 4724]), (5, [5, 1421]),
                (6, [2926, 30]), (7, [31, 1303])],
        "l2_sha": "dbb4a39cf1696896",
        "tlb": {"itlb": (341, 4), "dtlb": (812, 80)},
    },
    Replacement.RANDOM: {
        "cycles_sum": 115468,
        "cycles_sha": "46cebdfda23a3c39",
        "stats": {"L1I": (107, 285, 174, 177),
                  "L1D": (193, 699, 536, 148),
                  "L2": (206, 778, 686, 48)},
        "l1i": [(0, [64]), (1, [57, 161]), (2, [82]), (3, [35, 115]),
                (4, [28, 252]), (5, [205, 197]), (6, [86, 54]),
                (7, [23, 39])],
        "l1d": [(0, [0, 24]), (1, [25]), (2, [4954, 2706]), (3, [11, 3]),
                (4, [4, 4724]), (5, [5, 1421]), (6, [22, 30]),
                (7, [31, 1303])],
        "l2_sha": "ac693840f2a4e689",
        "tlb": {"itlb": (341, 4), "dtlb": (812, 80)},
    },
}


@pytest.mark.parametrize("replacement", list(GOLDEN), ids=lambda r: r.value)
def test_golden_memory_model(replacement):
    assert _run(replacement) == GOLDEN[replacement]
