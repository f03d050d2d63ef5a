"""The cheap attacker paths against the byte-copying ones they replace.

* ``code_latency``/``data_latency`` must make exactly the walk of
  ``fetch_code``/``read_data``: on twin memory systems driven by the
  same random operations they agree on cycles, on every cache's stats
  and residency, on both TLBs and on the attributes of every fault,
  including page-crossing sizes and frames outside physical memory.
* ``Cache.invalidate_range`` must have exactly the effect of calling
  ``invalidate`` on every line of the range, whichever of its two walks
  it takes.
"""

import copy
import random

import pytest

from repro.errors import MemoryError_, PageFault
from repro.memory import (Cache, CacheGeometry, HierarchyParams,
                          MemorySystem, Replacement)
from repro.params import PAGE_SIZE

BASE = 0x0000_5555_0000_0000
KERNEL = 0xFFFF_FFFF_8000_0000
PAGES = 12
PHYS = 1 << 20


def _twin(replacement: Replacement, fastpath: bool) -> MemorySystem:
    params = HierarchyParams(l1i=CacheGeometry(1024, 2),
                             l1d=CacheGeometry(1024, 2),
                             l2=CacheGeometry(4096, 4),
                             replacement=replacement)
    mem = MemorySystem(PHYS, hierarchy=params, rng=random.Random(3),
                       fastpath=fastpath)
    # Pages 0-3 code, 4-7 data, 8 read-only data, 9 kernel, 10 a frame
    # past the end of physical memory, 11 unmapped.
    for page in range(PAGES - 1):
        va = BASE + page * PAGE_SIZE
        pa = PHYS if page == 10 else mem.frames.alloc_page()
        mem.aspace.map_page(va, pa, user=page != 9, nx=4 <= page < 9,
                            writable=page != 8)
    mem.aspace.map_page(KERNEL, mem.frames.alloc_page())
    return mem


def _state(mem: MemorySystem):
    caches = [(c.name, c.occupied_sets(), c.stats)
              for c in (mem.hier.l1i, mem.hier.l1d, mem.hier.l2)]
    tlbs = [(list(t._map), t.hits, t.misses) for t in (mem.itlb, mem.dtlb)]
    return caches, tlbs


def _outcome(call):
    try:
        result = call()
    except PageFault as fault:
        return ("fault", fault.va, fault.present, fault.write, fault.user,
                fault.exec_)
    except MemoryError_ as err:
        return ("phys", str(err))
    return ("ok", result if isinstance(result, int) else result[1])


@pytest.mark.parametrize("fastpath", [False, True], ids=["slow", "fast"])
@pytest.mark.parametrize("replacement", list(Replacement),
                         ids=lambda r: r.value)
@pytest.mark.parametrize("seed", range(3))
def test_latency_walk_matches_copying_walk(seed, replacement, fastpath):
    cheap = _twin(replacement, fastpath)
    full = _twin(replacement, fastpath)
    rng = random.Random(seed)
    for step in range(800):
        op = rng.randrange(5)
        if rng.random() < 0.4:
            # Near a page boundary, so sizes up to 32 cross it.
            va = BASE + rng.randrange(1, PAGES) * PAGE_SIZE \
                - rng.randrange(1, 24)
        else:
            va = BASE + rng.randrange(PAGES * PAGE_SIZE)
        if rng.random() < 0.05:
            va = KERNEL + rng.randrange(PAGE_SIZE - 8)
        size = rng.choice((1, 2, 4, 8, 8, 16, 32))
        user = rng.random() < 0.9
        if op < 2:
            got = _outcome(lambda: cheap.code_latency(va, size,
                                                      user_mode=user))
            want = _outcome(lambda: full.fetch_code(va, size,
                                                    user_mode=user))
        elif op < 4:
            got = _outcome(lambda: cheap.data_latency(va, size,
                                                      user_mode=user))
            want = _outcome(lambda: full.read_data(va, size,
                                                   user_mode=user))
        else:
            cheap.clflush(va)
            full.clflush(va)
            got = want = None
        assert got == want, (step, hex(va), size)
        if step % 50 == 0:
            assert _state(cheap) == _state(full), step
    assert _state(cheap) == _state(full)


def _filled_cache(replacement: Replacement, seed: int) -> Cache:
    cache = Cache("uop", 64 * 8 * 64, 8, replacement=replacement,
                  rng=random.Random(seed))
    rng = random.Random(seed)
    for _ in range(2000):
        cache.access(BASE + rng.randrange(64 * 1024))
    return cache


def _raw(cache: Cache):
    """Every set's ways in fill order (the order RANDOM victims index)."""
    return ({index: list(ways.items())
             for index, ways in cache._sets.items()}, cache.stats)


@pytest.mark.parametrize("replacement", list(Replacement),
                         ids=lambda r: r.value)
@pytest.mark.parametrize("span", [1, 3, 64, 130, 28 * 1024, 64 * 1024])
def test_invalidate_range_matches_per_line_loop(replacement, span):
    rng = random.Random(span)
    for trial in range(20):
        ranged = _filled_cache(replacement, trial)
        looped = copy.deepcopy(ranged)
        lo = BASE + rng.randrange(64 * 1024)
        hi = lo + span
        lines = (hi - (lo & ~63) + 63) // 64
        # Small spans take the per-line walk, large ones the set walk.
        assert (lines <= len(ranged._sets)) == (span <= 130)
        ranged.invalidate_range(lo, hi)
        line = lo & ~63
        while line < hi:
            looped.invalidate(line)
            line += 64
        assert _raw(ranged) == _raw(looped)
        # The survivors' order decides later victims: keep both going.
        for _ in range(200):
            addr = BASE + rng.randrange(64 * 1024)
            assert ranged.access(addr) == looped.access(addr)
        assert _raw(ranged) == _raw(looped)


def test_invalidate_range_empty_is_noop():
    cache = _filled_cache(Replacement.LRU, 0)
    before = copy.deepcopy(_raw(cache))
    cache.invalidate_range(BASE + 100, BASE + 100)
    cache.invalidate_range(BASE + 200, BASE + 100)
    assert _raw(cache) == before
