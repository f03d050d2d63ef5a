"""Cache model: geometry, LRU, eviction, prime+probe building blocks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import Cache, Replacement

LINE = 64


def make_cache(size=32 * 1024, ways=8, **kwargs):
    return Cache("test", size, ways, **kwargs)


class TestGeometry:
    def test_l1_geometry(self):
        cache = make_cache()
        assert cache.num_sets == 64

    def test_l2_geometry(self):
        cache = make_cache(512 * 1024, 8)
        assert cache.num_sets == 1024

    def test_set_index_uses_line_bits(self):
        cache = make_cache()
        assert cache.set_index(0) == 0
        assert cache.set_index(64) == 1
        assert cache.set_index(64 * 64) == 0  # wraps at 64 sets

    def test_same_page_offset_same_set(self):
        cache = make_cache()
        assert cache.set_index(0x1AC0) == cache.set_index(0x7AC0)

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            Cache("bad", 1000, 3)


class TestAccess:
    def test_miss_then_hit(self):
        cache = make_cache()
        hit, _ = cache.access(0x1000)
        assert not hit
        hit, _ = cache.access(0x1000)
        assert hit

    def test_same_line_hits(self):
        cache = make_cache()
        cache.access(0x1000)
        hit, _ = cache.access(0x103F)
        assert hit

    def test_adjacent_line_misses(self):
        cache = make_cache()
        cache.access(0x1000)
        hit, _ = cache.access(0x1040)
        assert not hit

    def test_lru_eviction_order(self):
        cache = make_cache()
        set0 = [i * 64 * 64 for i in range(9)]  # 9 lines in set 0, 8 ways
        for addr in set0[:8]:
            cache.access(addr)
        # Touch line 0 to make line 1 the LRU victim.
        cache.access(set0[0])
        _, evicted = cache.access(set0[8])
        assert evicted == set0[1]

    def test_fill_does_not_change_stats(self):
        cache = make_cache()
        cache.fill(0x2000)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0
        assert cache.lookup(0x2000)

    def test_invalidate(self):
        cache = make_cache()
        cache.access(0x3000)
        assert cache.invalidate(0x3000)
        assert not cache.lookup(0x3000)
        assert not cache.invalidate(0x3000)

    def test_flush_all(self):
        cache = make_cache()
        for i in range(100):
            cache.access(i * 64)
        cache.flush_all()
        assert all(cache.set_occupancy(s) == 0 for s in range(cache.num_sets))

    def test_random_replacement_stays_within_ways(self):
        cache = make_cache(replacement=Replacement.RANDOM,
                           rng=random.Random(7))
        for i in range(100):
            cache.access(i * 64 * 64)  # all map to set 0
        assert cache.set_occupancy(0) == 8


class TestPrimeProbe:
    """The eviction behaviour Prime+Probe depends on."""

    def test_priming_fills_set(self):
        cache = make_cache()
        target_set = 11
        prime = [(target_set * 64) + i * 64 * 64 for i in range(8)]
        for addr in prime:
            cache.access(addr)
        assert cache.set_occupancy(target_set) == 8

    def test_victim_access_evicts_a_primed_line(self):
        cache = make_cache()
        target_set = 11
        prime = [(target_set * 64) + i * 64 * 64 for i in range(8)]
        for addr in prime:
            cache.access(addr)
        victim = (target_set * 64) + 100 * 64 * 64
        cache.access(victim)
        resident = cache.resident_lines(target_set)
        assert victim in resident
        assert len(set(prime) & set(resident)) == 7

    def test_probe_after_no_victim_all_hit(self):
        cache = make_cache()
        target_set = 11
        prime = [(target_set * 64) + i * 64 * 64 for i in range(8)]
        for addr in prime:
            cache.access(addr)
        hits = sum(cache.access(addr)[0] for addr in prime)
        assert hits == 8


@given(st.lists(st.integers(min_value=0, max_value=(1 << 30) - 1),
                min_size=1, max_size=200))
@settings(max_examples=100)
def test_occupancy_never_exceeds_ways(addrs):
    cache = make_cache(4096, 4)
    for addr in addrs:
        cache.access(addr)
    for s in range(cache.num_sets):
        assert cache.set_occupancy(s) <= 4


@given(st.lists(st.integers(min_value=0, max_value=(1 << 24) - 1),
                min_size=1, max_size=100))
@settings(max_examples=100)
def test_most_recent_access_always_resident(addrs):
    cache = make_cache(4096, 4)
    for addr in addrs:
        cache.access(addr)
        assert cache.lookup(addr)


@given(st.lists(st.integers(min_value=0, max_value=(1 << 24) - 1),
                min_size=2, max_size=100))
@settings(max_examples=100)
def test_stats_balance(addrs):
    cache = make_cache(4096, 4)
    for addr in addrs:
        cache.access(addr)
    assert cache.stats.hits + cache.stats.misses == len(addrs)


@settings(max_examples=50, derandomize=True)
@given(st.lists(st.integers(0, (1 << 20) - 1), max_size=300))
def test_occupied_sets_lists_exactly_the_non_empty_sets(addrs):
    cache = make_cache(4 * 1024, 4)
    for addr in addrs:
        cache.access(addr)
    expected = [(index, cache.resident_lines(index))
                for index in range(cache.num_sets)
                if cache.resident_lines(index)]
    assert cache.occupied_sets() == expected
