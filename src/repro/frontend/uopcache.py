"""µop cache: 64 sets x 8 ways, indexed by virtual address bits [6:12).

Geometry follows the paper's reverse engineering (§5.1): "these caches
always have 64 8-way sets, selected by the lower 12 bits of the
instruction's virtual address".  Entries cover 64-byte instruction
windows; decoding instructions in a window fills it, and filling a full
set evicts — the effect the ID observation channel measures through the
``op_cache_hit_miss`` performance counters.
"""

from __future__ import annotations

from ..memory.cache import Cache
from ..params import CACHE_LINE


class UopCache:
    """Virtually indexed µop cache with hit/miss accounting."""

    SETS = 64
    WAYS = 8
    WINDOW = CACHE_LINE  # 64-byte instruction windows

    def __init__(self) -> None:
        self._cache = Cache("uop", self.SETS * self.WAYS * self.WINDOW,
                            self.WAYS, line_size=self.WINDOW)

    def set_index(self, va: int) -> int:
        """Set selected by VA bits [6:12)."""
        return (va >> 6) & (self.SETS - 1)

    def lookup(self, va: int) -> bool:
        """Does the window holding *va* have cached µops?"""
        return self._cache.lookup(va)

    def access(self, va: int) -> bool:
        """Dispatch-path access: hit serves µops, miss decodes + fills.

        Returns True on hit.  This is the event pair the paper samples
        (Zen: ``op_cache_hit_miss``; Intel: ``idq.dsb_cycles``).
        """
        return self._cache.access(va)[0]

    def fill(self, va: int) -> None:
        """Fill without counting dispatch events (speculative decode)."""
        self._cache.fill(va)

    def invalidate_window(self, va: int) -> None:
        self._cache.invalidate(va)

    def invalidate_range(self, lo: int, hi: int) -> None:
        """Drop every window overlapping ``[lo, hi)``."""
        self._cache.invalidate_range(lo, hi)

    def flush(self) -> None:
        self._cache.flush_all()

    def set_occupancy(self, set_index: int) -> int:
        return self._cache.set_occupancy(set_index)
