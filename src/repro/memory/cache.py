"""Set-associative cache model with LRU/random replacement.

The cache stores full line addresses (not just tags) so an inclusive
outer level can back-invalidate inner levels on eviction, and so tests
and Prime+Probe code can reason about exactly which lines are resident.
"""

from __future__ import annotations

import enum
import random
from collections import defaultdict
from dataclasses import dataclass, field

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


@dataclass
class _Way:
    line: int           # full line address (line-aligned)
    last_used: int      # LRU timestamp


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
        #: Set index -> resident ways.  :meth:`access` creates a set on
        #: its first fill and every other method only reads with
        #: ``get``, so a fresh machine's caches start empty without
        #: allocating every set (the L2 alone has 1,024).
        self._sets: defaultdict[int, list[_Way]] = defaultdict(list)
        self._tick = 0
        self.stats = CacheStats()
        # Telemetry instruments (no-op unless the registry is enabled).
        self._m_hits = _metrics.counter("cache_hits", level=name)
        self._m_misses = _metrics.counter("cache_misses", level=name)
        self._m_evictions = _metrics.counter("cache_evictions", level=name)

    # -- geometry ----------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        return addr & ~(self.line_size - 1)

    def set_index(self, addr: int) -> int:
        return (addr >> CACHE_LINE_SHIFT) & (self.num_sets - 1)

    # -- operations --------------------------------------------------------

    def lookup(self, addr: int) -> bool:
        """Non-destructive presence check (no fill, no LRU update)."""
        line = self.line_addr(addr)
        return any(w.line == line
                   for w in self._sets.get(self.set_index(addr), ()))

    def access(self, addr: int) -> tuple[bool, int | None]:
        """Access *addr*: returns ``(hit, evicted_line_or_None)``.

        On a miss the line is filled, possibly evicting the LRU (or a
        random) victim from the set.
        """
        self._tick += 1
        line = self.line_addr(addr)
        ways = self._sets[self.set_index(addr)]
        for way in ways:
            if way.line == line:
                way.last_used = self._tick
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
                victim = min(range(len(ways)), key=lambda i: ways[i].last_used)
            else:
                victim = self._rng.randrange(len(ways))
            evicted = ways.pop(victim).line
            self.stats.evictions += 1
            if _REG.enabled:
                self._m_evictions.value += 1
        ways.append(_Way(line=line, last_used=self._tick))
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
        line = self.line_addr(addr)
        ways = self._sets.get(self.set_index(addr), ())
        for i, way in enumerate(ways):
            if way.line == line:
                ways.pop(i)
                self.stats.flushes += 1
                return True
        return False

    def flush_all(self) -> None:
        self._sets.clear()
        self.stats.flushes += 1

    # -- introspection (tests / attack tooling) -----------------------------

    def resident_lines(self, set_index: int) -> list[int]:
        """Line addresses currently resident in *set_index* (MRU last)."""
        ways = self._sets.get(set_index, ())
        return [w.line for w in sorted(ways, key=lambda w: w.last_used)]

    def occupied_sets(self) -> list[tuple[int, list[int]]]:
        """``(set_index, resident_lines)`` of every non-empty set, in set
        order (lines MRU last, as :meth:`resident_lines`)."""
        return [(index, self.resident_lines(index))
                for index, ways in sorted(self._sets.items()) if ways]

    def set_occupancy(self, set_index: int) -> int:
        return len(self._sets.get(set_index, ()))
