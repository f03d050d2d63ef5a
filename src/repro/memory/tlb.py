"""A small fully-associative TLB.

Only timing is modelled: translation correctness always comes from the
page tables.  A TLB miss adds a page-walk penalty, which contributes
realistic noise floor to the timing side channels.
"""

from __future__ import annotations

from collections import OrderedDict

from ..params import PAGE_SHIFT


class TLB:
    """LRU translation cache keyed by virtual page number."""

    def __init__(self, entries: int = 64, walk_penalty: int = 20) -> None:
        self.entries = entries
        self.walk_penalty = walk_penalty
        self._map: OrderedDict[int, int] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, va: int) -> int:
        """Record a translation of *va*; returns added latency in cycles."""
        vpn = va >> PAGE_SHIFT
        try:
            self._map.move_to_end(vpn)
        except KeyError:
            pass
        else:
            self.hits += 1
            return 0
        self.misses += 1
        self._map[vpn] = vpn
        if len(self._map) > self.entries:
            self._map.popitem(last=False)
        return self.walk_penalty

    def flush(self) -> None:
        """Full TLB flush (context switch without PCID)."""
        self._map.clear()

    def flush_page(self, va: int) -> None:
        self._map.pop(va >> PAGE_SHIFT, None)
