"""Set-associative cache model with LRU/random replacement.

The cache stores full line addresses (not just tags) so an inclusive
outer level can back-invalidate inner levels on eviction, and so tests
and Prime+Probe code can reason about exactly which lines are resident.
"""

from __future__ import annotations

import enum
import random
from collections import defaultdict
from dataclasses import dataclass

from ..params import CACHE_LINE, CACHE_LINE_SHIFT
from ..telemetry import metrics as _metrics

_REG = _metrics.REGISTRY


class Replacement(enum.Enum):
    LRU = "lru"
    RANDOM = "random"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.flushes = 0


class Cache:
    """One level of set-associative cache.

    Addresses handed to the cache may be virtual or physical; the cache
    is agnostic and the owner decides (L1/L2 here are physically
    indexed; the µop cache is virtually indexed per the paper).
    """

    def __init__(self, name: str, size: int, ways: int,
                 line_size: int = CACHE_LINE,
                 replacement: Replacement = Replacement.LRU,
                 rng: random.Random | None = None) -> None:
        if size % (ways * line_size):
            raise ValueError(f"{name}: size {size} not divisible by "
                             f"ways*line ({ways}*{line_size})")
        self.name = name
        self.size = size
        self.ways = ways
        self.line_size = line_size
        self.num_sets = size // (ways * line_size)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: set count {self.num_sets} not a "
                             f"power of two")
        self.replacement = replacement
        self._rng = rng or random.Random(0)
        #: Set index -> ``{line address: LRU timestamp}`` of its
        #: resident ways, in fill order (the order RANDOM replacement
        #: indexes).  :meth:`access` creates a set on its first fill and
        #: every other method only reads with ``get``, so a fresh
        #: machine's caches start empty without allocating every set
        #: (the L2 alone has 1,024).
        self._sets: defaultdict[int, dict[int, int]] = defaultdict(dict)
        #: ``line_addr``/``set_index`` as masks, for the hot paths.
        self._line_mask = ~(line_size - 1)
        self._set_mask = self.num_sets - 1
        self._tick = 0
        self.stats = CacheStats()
        # Telemetry instruments (no-op unless the registry is enabled).
        self._m_hits = _metrics.counter("cache_hits", level=name)
        self._m_misses = _metrics.counter("cache_misses", level=name)
        self._m_evictions = _metrics.counter("cache_evictions", level=name)

    # -- geometry ----------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        return addr & self._line_mask

    def set_index(self, addr: int) -> int:
        return (addr >> CACHE_LINE_SHIFT) & self._set_mask

    # -- operations --------------------------------------------------------

    def lookup(self, addr: int) -> bool:
        """Non-destructive presence check (no fill, no LRU update)."""
        return addr & self._line_mask in self._sets.get(
            (addr >> CACHE_LINE_SHIFT) & self._set_mask, ())

    def access(self, addr: int) -> tuple[bool, int | None]:
        """Access *addr*: returns ``(hit, evicted_line_or_None)``.

        On a miss the line is filled, possibly evicting the LRU (or a
        random) victim from the set.
        """
        self._tick = tick = self._tick + 1
        line = addr & self._line_mask
        ways = self._sets[(addr >> CACHE_LINE_SHIFT) & self._set_mask]
        if line in ways:
            ways[line] = tick
            self.stats.hits += 1
            if _REG.enabled:
                self._m_hits.value += 1
            return True, None
        self.stats.misses += 1
        if _REG.enabled:
            self._m_misses.value += 1
        evicted = None
        if len(ways) >= self.ways:
            if self.replacement is Replacement.LRU:
                oldest = tick
                for way, used in ways.items():
                    if used < oldest:
                        evicted, oldest = way, used
            else:
                evicted = list(ways)[self._rng.randrange(len(ways))]
            del ways[evicted]
            self.stats.evictions += 1
            if _REG.enabled:
                self._m_evictions.value += 1
        ways[line] = tick
        return False, evicted

    def fill(self, addr: int) -> int | None:
        """Fill *addr*'s line without counting a hit/miss (prefetch path)."""
        hit, evicted = self.access(addr)
        if hit:
            self.stats.hits -= 1
            if _REG.enabled:
                self._m_hits.value -= 1
        else:
            self.stats.misses -= 1
            if _REG.enabled:
                self._m_misses.value -= 1
            if evicted is not None:
                self.stats.evictions -= 1
                if _REG.enabled:
                    self._m_evictions.value -= 1
        return evicted

    def invalidate(self, addr: int) -> bool:
        """Drop *addr*'s line if present.  Returns True if it was resident."""
        ways = self._sets.get((addr >> CACHE_LINE_SHIFT) & self._set_mask)
        if ways and ways.pop(addr & self._line_mask, None) is not None:
            self.stats.flushes += 1
            return True
        return False

    def invalidate_range(self, lo: int, hi: int) -> None:
        """Drop every resident line overlapping ``[lo, hi)``.

        Same effect as calling :meth:`invalidate` on each line of the
        range (the same lines dropped, the survivors' order kept, one
        flush counted per dropped line), but walks whichever is
        smaller: the range's lines or the sets filled so far.
        """
        if hi <= lo:
            return
        lo &= self._line_mask
        line_size = self.line_size
        if (hi - lo + line_size - 1) // line_size <= len(self._sets):
            for line in range(lo, hi, line_size):
                self.invalidate(line)
            return
        for ways in self._sets.values():
            for line in [line for line in ways if lo <= line < hi]:
                del ways[line]
                self.stats.flushes += 1

    def flush_all(self) -> None:
        self._sets.clear()
        self.stats.flushes += 1

    # -- introspection (tests / attack tooling) -----------------------------

    def resident_lines(self, set_index: int) -> list[int]:
        """Line addresses currently resident in *set_index* (MRU last)."""
        ways = self._sets.get(set_index, {})
        return sorted(ways, key=ways.__getitem__)

    def occupied_sets(self) -> list[tuple[int, list[int]]]:
        """``(set_index, resident_lines)`` of every non-empty set, in set
        order (lines MRU last, as :meth:`resident_lines`)."""
        return [(index, self.resident_lines(index))
                for index, ways in sorted(self._sets.items()) if ways]

    def set_occupancy(self, set_index: int) -> int:
        return len(self._sets.get(set_index, ()))
