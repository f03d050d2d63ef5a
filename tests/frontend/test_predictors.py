"""RSB, conditional predictor, µop cache unit tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import RSB, ConditionalPredictor, UopCache


class TestRSB:
    def test_lifo_order(self):
        rsb = RSB()
        rsb.push(0x100)
        rsb.push(0x200)
        assert rsb.pop() == 0x200
        assert rsb.pop() == 0x100

    def test_underflow_returns_none(self):
        rsb = RSB()
        assert rsb.pop() is None
        assert rsb.underflows == 1

    def test_overflow_drops_oldest(self):
        rsb = RSB(depth=4)
        for i in range(6):
            rsb.push(i)
        assert rsb.overflows == 2
        assert len(rsb) == 4
        assert rsb.pop() == 5

    def test_peek_does_not_pop(self):
        rsb = RSB()
        rsb.push(0x42)
        assert rsb.peek() == 0x42
        assert len(rsb) == 1

    def test_clear(self):
        rsb = RSB()
        rsb.push(1)
        rsb.clear()
        assert rsb.peek() is None

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            RSB(depth=0)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 48),
                    min_size=1, max_size=40))
    @settings(max_examples=100)
    def test_matched_push_pop_is_stack(self, addrs):
        rsb = RSB(depth=64)
        for a in addrs:
            rsb.push(a)
        for a in reversed(addrs):
            assert rsb.pop() == a


class TestConditionalPredictor:
    def test_initial_prediction_not_taken(self):
        assert not ConditionalPredictor().predict(0x1234)

    def test_training_toward_taken(self):
        pht = ConditionalPredictor()
        pht.update(0x1234, True)
        assert not pht.predict(0x1234)  # weakly not-taken now
        pht.update(0x1234, True)
        assert pht.predict(0x1234)      # crossed into taken

    def test_hysteresis(self):
        pht = ConditionalPredictor()
        for _ in range(4):
            pht.update(0x40, True)
        pht.update(0x40, False)
        assert pht.predict(0x40)  # one not-taken doesn't flip a saturated ctr

    def test_distinct_pcs_independent(self):
        pht = ConditionalPredictor()
        for _ in range(3):
            pht.update(0x40, True)
        assert not pht.predict(0x41)

    def test_clear(self):
        pht = ConditionalPredictor()
        for _ in range(3):
            pht.update(0x40, True)
        pht.clear()
        assert not pht.predict(0x40)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            ConditionalPredictor(entries=1000)


class TestUopCache:
    def test_geometry(self):
        uc = UopCache()
        assert uc.set_index(0x000) == 0
        assert uc.set_index(0x040) == 1
        assert uc.set_index(0xFC0) == 63
        assert uc.set_index(0x1000) == 0  # wraps: VA[6:12) only

    def test_page_offset_aliasing(self):
        """Addresses one page apart share a set — the property the
        jmp-series priming in Figure 5 B exploits."""
        uc = UopCache()
        assert uc.set_index(0x5AC0) == uc.set_index(0x7AC0)

    def test_miss_then_hit_counts(self):
        uc = UopCache()
        assert not uc.access(0x1000)
        assert uc.access(0x1000)
        stats = uc._cache.stats
        assert (stats.misses, stats.hits) == (1, 1)

    def test_priming_and_eviction(self):
        """Fill a set with 8 windows 4096 bytes apart (the jmp-series),
        then a speculative fill of a 9th aliasing window evicts one."""
        uc = UopCache()
        series = [0xAC0 + i * 4096 for i in range(8)]
        for va in series:
            uc.access(va)
        uc.fill(0x30AC0)  # phantom target decode
        # Probe MRU-first to avoid the classic LRU self-eviction cascade.
        hits = sum(uc.access(va) for va in reversed(series))
        assert hits == 7  # one way was evicted

    def test_no_eviction_when_offsets_differ(self):
        uc = UopCache()
        series = [0xAC0 + i * 4096 for i in range(8)]
        for va in series:
            uc.access(va)
        uc.fill(0x30B00)  # different page offset -> different set
        hits = sum(uc.access(va) for va in series)
        assert hits == 8

    def test_fill_does_not_count_dispatch_events(self):
        uc = UopCache()
        uc.fill(0x2000)
        stats = uc._cache.stats
        assert (stats.misses, stats.hits) == (0, 0)
        assert uc.lookup(0x2000)

    def test_invalidate_window(self):
        uc = UopCache()
        uc.access(0x2000)
        uc.invalidate_window(0x2000)
        assert not uc.lookup(0x2000)
