"""Memory system facade: page tables + TLBs + cache hierarchy + DRAM.

This is the single interface the pipeline uses for all memory traffic.
Every access translates through the :class:`AddressSpace` (permission
checks included) and charges cycles according to TLB and cache state.
"""

from __future__ import annotations

import random

from ..errors import MemoryError_
from ..fastpath import fastpath_enabled
from ..params import HUGE_PAGE_SIZE, PAGE_SIZE, canonical
from .cache import Cache
from .hierarchy import HierarchyParams, MemoryHierarchy
from .paging import AddressSpace, TranslationFront
from .phys import PhysicalMemory
from .tlb import TLB


class FrameAllocator:
    """Bump allocator over physical frames."""

    def __init__(self, phys: PhysicalMemory, start: int = PAGE_SIZE) -> None:
        self._phys = phys
        self._next = start

    def alloc(self, size: int, align: int = PAGE_SIZE) -> int:
        """Allocate *size* physically contiguous bytes; returns base PA."""
        base = (self._next + align - 1) & ~(align - 1)
        if base + size > self._phys.size:
            raise MemoryError_(
                f"out of physical memory ({base + size:#x} > "
                f"{self._phys.size:#x})")
        self._next = base + size
        return base

    def alloc_page(self) -> int:
        return self.alloc(PAGE_SIZE)

    def alloc_huge(self) -> int:
        return self.alloc(HUGE_PAGE_SIZE, align=HUGE_PAGE_SIZE)

    @property
    def used(self) -> int:
        return self._next


class MemorySystem:
    """Paging + caches + physical memory, with cycle accounting."""

    def __init__(self, phys_size: int,
                 hierarchy: HierarchyParams | None = None,
                 rng: random.Random | None = None,
                 fastpath: bool | None = None) -> None:
        rng = rng or random.Random(0)
        self.phys = PhysicalMemory(phys_size)
        self.frames = FrameAllocator(self.phys)
        self.aspace = AddressSpace()
        self.hier = MemoryHierarchy(hierarchy, rng=rng)
        self.itlb = TLB()
        self.dtlb = TLB()
        self.fastpath = fastpath_enabled() if fastpath is None else \
            bool(fastpath)
        self.xlat = TranslationFront(self.aspace)
        #: Translation entry point shared by the data/instruction paths
        #: and the CPU's transient machinery.  The memoized front and
        #: the raw page walk are interchangeable (same results, same
        #: PageFaults) — the binding just decides the cost of a hit.
        self.translate = self.xlat.translate if self.fastpath else \
            self.aspace.translate

    # -- the access walk -------------------------------------------------------

    def _walk(self, va: int, size: int, *, fetch: bool = False,
              write: bool = False, user_mode: bool = False,
              chunks: list[tuple[int, int]] | None = None) -> int:
        """Translate, TLB and cache-line walk of one access; returns cycles.

        The access is split at page boundaries.  Each page is
        translated (permissions enforced; a :class:`PageFault` stops the
        walk there, after the earlier pages' TLB and cache traffic),
        recorded in the I- or D-TLB, then has every line it covers
        accessed through L1I or L1D, and finally its physical range is
        bounds-checked.  An instruction fetch overlaps the page walk
        with the line fills; a data access waits for the walk, and the
        pages of a straddling data access are served one after the
        other.  When *chunks* is given, each page's ``(pa, length)`` is
        appended to it for the caller's byte copy.
        """
        if fetch:
            tlb, touch = self.itlb, self.hier.access_instr
        else:
            tlb, touch = self.dtlb, self.hier.access_data
        translate = self.translate
        check = self.phys._check
        cycles = 0
        pos = va
        end = va + size
        while pos < end:
            pa = translate(pos, write=write, exec_=fetch, user_mode=user_mode)
            chunk = PAGE_SIZE - (pos & (PAGE_SIZE - 1))
            if end - pos < chunk:
                chunk = end - pos
            cycles += tlb.access(pos)
            line = pa & ~63
            latency = touch(line)
            line += 64
            while line < pa + chunk:
                lat = touch(line)
                if lat > latency:
                    latency = lat
                line += 64
            if not fetch:
                cycles += latency
            elif latency > cycles:
                cycles = latency
            check(pa, chunk)
            if chunks is not None:
                chunks.append((pa, chunk))
            pos += chunk
        return cycles

    # -- data path -----------------------------------------------------------

    def data_latency(self, va: int, size: int, *,
                     user_mode: bool = False) -> int:
        """Cycles of loading *size* bytes at *va*, copying none of them.

        Exactly the translation, TLB and cache traffic (and faults) of
        :meth:`read_data`."""
        return self._walk(va, size, user_mode=user_mode)

    def read_data(self, va: int, size: int, *,
                  user_mode: bool = False) -> tuple[int, int]:
        """Load *size* bytes at *va*.  Returns ``(value, cycles)``."""
        chunks: list[tuple[int, int]] = []
        cycles = self._walk(va, size, user_mode=user_mode, chunks=chunks)
        read = self.phys.read_int
        value = shift = 0
        for pa, length in chunks:
            value |= read(pa, length) << shift
            shift += length << 3
        return value, cycles

    def write_data(self, va: int, size: int, value: int, *,
                   user_mode: bool = False) -> int:
        """Store *value* at *va*.  Returns cycles.

        Every page is translated before any byte is written, so a store
        faulting on its second page leaves memory unchanged."""
        chunks: list[tuple[int, int]] = []
        cycles = self._walk(va, size, write=True, user_mode=user_mode,
                            chunks=chunks)
        write = self.phys.write_int
        for pa, length in chunks:
            write(pa, length, value)
            value >>= length << 3
        return cycles

    # -- instruction path ------------------------------------------------------

    def code_latency(self, va: int, size: int, *,
                     user_mode: bool = False) -> int:
        """Cycles of fetching *size* code bytes at *va*, copying none.

        Exactly the translation, TLB and cache traffic (and faults) of
        :meth:`fetch_code`."""
        return self._walk(va, size, fetch=True, user_mode=user_mode)

    def fetch_code(self, va: int, size: int, *,
                   user_mode: bool = False) -> tuple[bytes, int]:
        """Fetch *size* code bytes at *va* (exec permission enforced).

        Returns ``(bytes, cycles)``.  Fetches crossing a page boundary
        translate both pages.
        """
        chunks: list[tuple[int, int]] = []
        cycles = self._walk(va, size, fetch=True, user_mode=user_mode,
                            chunks=chunks)
        read = self.phys.read
        return b"".join([read(pa, length) for pa, length in chunks]), cycles

    # -- loading ---------------------------------------------------------------

    def load_image(self, image, *, user: bool = False, nx: bool = False,
                   writable: bool = True) -> None:
        """Allocate frames for *image*'s segments, map and copy them."""
        for segment in image.segments:
            base_va = segment.base & ~(PAGE_SIZE - 1)
            end_va = (segment.end + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
            span = end_va - base_va
            pa = self.frames.alloc(span)
            self.aspace.map_range(base_va, pa, span, user=user, nx=nx,
                                  writable=writable)
            self.phys.write(pa + (segment.base - base_va), segment.data)

    def map_anonymous(self, va: int, size: int, **attrs) -> int:
        """Map zeroed memory at *va*; returns the physical base."""
        pa = self.frames.alloc(size)
        self.aspace.map_range(va, pa, size, **attrs)
        return pa

    # -- attacker-visible helpers ----------------------------------------------

    def clflush(self, va: int) -> None:
        """Flush the line holding *va* from all cache levels."""
        pa = self.aspace.translate_noperm(canonical(va))
        if pa is not None:
            self.hier.flush_line(pa)
