"""Cache hierarchy: split L1 (I/D) over a unified, inclusive L2.

Timing model: an access costs the hit latency of the level it hits in;
a full miss costs the memory latency.  L2 is inclusive — evicting a
line from L2 back-invalidates it from both L1s, which is what makes
L2 Prime+Probe (paper §7.2) evict victim lines for real.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..params import CACHE_LINE
from .cache import Cache, Replacement


@dataclass(frozen=True)
class CacheGeometry:
    size: int
    ways: int

    @property
    def sets(self) -> int:
        return self.size // (self.ways * CACHE_LINE)


@dataclass(frozen=True)
class HierarchyParams:
    """Geometry and latency knobs (defaults approximate AMD Zen)."""

    l1i: CacheGeometry = CacheGeometry(32 * 1024, 8)
    l1d: CacheGeometry = CacheGeometry(32 * 1024, 8)
    l2: CacheGeometry = CacheGeometry(512 * 1024, 8)
    l1_latency: int = 4
    l2_latency: int = 14
    mem_latency: int = 150
    replacement: Replacement = Replacement.LRU


class MemoryHierarchy:
    """Physically indexed L1I + L1D over inclusive unified L2."""

    def __init__(self, params: HierarchyParams | None = None,
                 rng: random.Random | None = None) -> None:
        self.params = params or HierarchyParams()
        rng = rng or random.Random(0)
        p = self.params
        self.l1i = Cache("L1I", p.l1i.size, p.l1i.ways,
                         replacement=p.replacement, rng=rng)
        self.l1d = Cache("L1D", p.l1d.size, p.l1d.ways,
                         replacement=p.replacement, rng=rng)
        self.l2 = Cache("L2", p.l2.size, p.l2.ways,
                        replacement=p.replacement, rng=rng)

    def _l1_miss(self, pa: int) -> int:
        """Serve an L1 miss from L2 or memory; returns latency in cycles.

        An L1 hit never reaches here: real caches do not refresh L2 LRU
        state on an L1 hit, and neither does the model.
        """
        hit2, evicted = self.l2.access(pa)
        if evicted is not None:
            self._back_invalidate(evicted)
        if hit2:
            return self.params.l2_latency
        return self.params.mem_latency

    def _back_invalidate(self, line: int) -> None:
        """Inclusive L2: a line leaving L2 leaves the L1s too."""
        self.l1i.invalidate(line)
        self.l1d.invalidate(line)

    def access_data(self, pa: int) -> int:
        """Data load/store at physical address *pa*; returns cycles."""
        if self.l1d.access(pa)[0]:
            return self.params.l1_latency
        return self._l1_miss(pa)

    def access_instr(self, pa: int) -> int:
        """Instruction fetch at physical address *pa*; returns cycles."""
        if self.l1i.access(pa)[0]:
            return self.params.l1_latency
        return self._l1_miss(pa)

    def prefetch_instr(self, pa: int) -> None:
        """Fill the instruction path without timing (I-prefetcher)."""
        if not self.l1i.lookup(pa):
            evicted = self.l2.fill(pa)
            if evicted is not None:
                self._back_invalidate(evicted)
            self.l1i.fill(pa)

    def flush_line(self, pa: int) -> None:
        """clflush semantics: remove the line from every level."""
        self.l1i.invalidate(pa)
        self.l1d.invalidate(pa)
        self.l2.invalidate(pa)

    def flush_all(self) -> None:
        self.l1i.flush_all()
        self.l1d.flush_all()
        self.l2.flush_all()

    def instr_cached(self, pa: int) -> bool:
        return self.l1i.lookup(pa) or self.l2.lookup(pa)

    def data_cached(self, pa: int) -> bool:
        return self.l1d.lookup(pa) or self.l2.lookup(pa)
