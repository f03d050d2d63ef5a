"""Page tables: virtual-to-physical translation with x86-style permissions.

The model is a flat dictionary of 4 KiB page translations (the paging
radix tree is irrelevant to the experiments; only permissions, presence
and physical contiguity matter).  ``huge`` marks pages belonging to a
2 MiB transparent huge page, which the physmap exploit needs for L2
Prime+Probe eviction sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PageFault
from ..params import (HUGE_PAGE_SIZE, PAGE_SHIFT, PAGE_SIZE, canonical,
                      is_canonical)


@dataclass
class PTE:
    """Page table entry for one 4 KiB virtual page."""

    pfn: int
    writable: bool = True
    user: bool = False
    nx: bool = False
    huge: bool = False

    @property
    def executable(self) -> bool:
        return not self.nx


@dataclass
class LinearRange:
    """A large linear mapping ``[va, va+size) -> [pa, pa+size)``.

    Used for the kernel image and physmap, whose sizes (up to 64 GB)
    make per-page PTEs impractical.  Individual pages inside a range can
    still be overridden by materialising a PTE (``set_attrs``).
    """

    va: int
    pa: int
    size: int
    writable: bool = True
    user: bool = False
    nx: bool = False

    def covers(self, va: int) -> bool:
        return self.va <= va < self.va + self.size

    def pte_for(self, va: int) -> PTE:
        off = (va - self.va) & ~(PAGE_SIZE - 1)
        return PTE(pfn=(self.pa + off) >> PAGE_SHIFT, writable=self.writable,
                   user=self.user, nx=self.nx, huge=True)


class AddressSpace:
    """One process/kernel address space.

    ``generation`` increments on every page-table mutation (map, unmap,
    attribute change).  Translation caches — :class:`TranslationFront`
    and the CPU's transient decode cache — compare it against the value
    they captured and flush wholesale on mismatch, so they never need to
    know *which* page changed.
    """

    def __init__(self) -> None:
        self._ptes: dict[int, PTE] = {}
        self._ranges: list[LinearRange] = []
        self.generation = 0

    def map_page(self, va: int, pa: int, *, writable: bool = True,
                 user: bool = False, nx: bool = False,
                 huge: bool = False) -> None:
        """Install a 4 KiB translation ``va -> pa``."""
        if va & (PAGE_SIZE - 1) or pa & (PAGE_SIZE - 1):
            raise ValueError(f"unaligned mapping {va:#x} -> {pa:#x}")
        if not is_canonical(va):
            raise ValueError(f"non-canonical va {va:#x}")
        self._ptes[va >> PAGE_SHIFT] = PTE(pfn=pa >> PAGE_SHIFT,
                                           writable=writable, user=user,
                                           nx=nx, huge=huge)
        self.generation += 1

    def map_range(self, va: int, pa: int, size: int, *, writable: bool = True,
                  user: bool = False, nx: bool = False,
                  huge: bool = False) -> None:
        """Map a physically contiguous range page by page."""
        if size % PAGE_SIZE:
            raise ValueError(f"size not page aligned: {size:#x}")
        for off in range(0, size, PAGE_SIZE):
            self.map_page(va + off, pa + off, writable=writable, user=user,
                          nx=nx, huge=huge)

    def map_huge_page(self, va: int, pa: int, **attrs) -> None:
        """Map one 2 MiB physically contiguous huge page."""
        if va & (HUGE_PAGE_SIZE - 1) or pa & (HUGE_PAGE_SIZE - 1):
            raise ValueError(f"unaligned huge mapping {va:#x} -> {pa:#x}")
        self.map_range(va, pa, HUGE_PAGE_SIZE, huge=True, **attrs)

    def unmap(self, va: int, size: int = PAGE_SIZE) -> None:
        for off in range(0, size, PAGE_SIZE):
            self._ptes.pop((va + off) >> PAGE_SHIFT, None)
        self.generation += 1

    def map_linear(self, va: int, pa: int, size: int, *,
                   writable: bool = True, user: bool = False,
                   nx: bool = False) -> None:
        """Install a large linear mapping without per-page PTEs."""
        if va & (PAGE_SIZE - 1) or pa & (PAGE_SIZE - 1) \
                or size & (PAGE_SIZE - 1):
            raise ValueError("linear mapping must be page aligned")
        if not is_canonical(va):
            raise ValueError(f"non-canonical va {va:#x}")
        new = LinearRange(canonical(va), pa, size, writable=writable,
                          user=user, nx=nx)
        for other in self._ranges:
            if new.va < other.va + other.size and other.va < new.va + new.size:
                raise ValueError(
                    f"linear range {va:#x}+{size:#x} overlaps existing")
        self._ranges.append(new)
        self.generation += 1

    def _range_for(self, va: int) -> LinearRange | None:
        for rng_ in self._ranges:
            if rng_.covers(va):
                return rng_
        return None

    def pte(self, va: int) -> PTE | None:
        """Return the PTE covering *va*, or None."""
        va = canonical(va)
        entry = self._ptes.get(va >> PAGE_SHIFT)
        if entry is not None:
            return entry
        covering = self._range_for(va)
        if covering is not None:
            return covering.pte_for(va)
        return None

    def set_attrs(self, va: int, **attrs) -> None:
        """Alter attributes of an existing PTE (the paper's K-page trick).

        Pages covered only by a linear range are materialised as
        individual PTEs first (they then shadow the range).
        """
        entry = self.pte(va)
        if entry is None:
            raise KeyError(f"no mapping at {va:#x}")
        key = canonical(va) >> PAGE_SHIFT
        if key not in self._ptes:
            self._ptes[key] = entry
        entry = self._ptes[key]
        for name, value in attrs.items():
            if not hasattr(entry, name):
                raise AttributeError(name)
            setattr(entry, name, value)
        self.generation += 1

    def is_mapped(self, va: int) -> bool:
        return self.pte(va) is not None

    def translate(self, va: int, *, write: bool = False, exec_: bool = False,
                  user_mode: bool = False) -> int:
        """Translate *va*, enforcing permissions.  Raises PageFault.

        ``user_mode`` is the privilege of the access; supervisor-mode
        code may access user pages (SMEP/SMAP are not modelled — the
        paper's kernels allow the transient loads the exploits rely on).
        """
        va = canonical(va)
        entry = self._ptes.get(va >> PAGE_SHIFT)
        if entry is None:
            covering = self._range_for(va)
            if covering is not None:
                entry = covering.pte_for(va)
        if entry is None:
            raise PageFault(va, present=False, write=write, user=user_mode,
                            exec_=exec_)
        if user_mode and not entry.user:
            raise PageFault(va, present=True, write=write, user=True,
                            exec_=exec_)
        if write and not entry.writable:
            raise PageFault(va, present=True, write=True, user=user_mode)
        if exec_ and entry.nx:
            raise PageFault(va, present=True, user=user_mode, exec_=True)
        return (entry.pfn << PAGE_SHIFT) | (va & (PAGE_SIZE - 1))

    def translate_noperm(self, va: int) -> int | None:
        """Translate without permission checks (for test introspection)."""
        entry = self.pte(va)
        if entry is None:
            return None
        return (entry.pfn << PAGE_SHIFT) | (va & (PAGE_SIZE - 1))


#: Cache sentinel distinguishing "never looked up" from "known unmapped".
_UNRESOLVED = object()


class TranslationFront:
    """Software TLB in front of :meth:`AddressSpace.translate`.

    Caches the *resolved PTE* (or ``None`` for unmapped pages) per
    virtual page number, so a warm translation costs one dict probe
    instead of a PTE lookup plus a linear scan of the address space's
    ``LinearRange`` list.  Permission checks still run per access —
    they depend on the access type — and replicate
    :meth:`AddressSpace.translate` bit for bit, including the exact
    :class:`~repro.errors.PageFault` attribute combinations.

    Coherence: the cache is valid only for the :attr:`AddressSpace
    .generation` it was filled under; any page-table mutation bumps the
    generation and the next translation flushes wholesale.  PTEs that
    live in the page-table dict are cached by identity, so in-place
    attribute updates through ``set_attrs`` would be coherent even
    without the generation bump; materialised range PTEs are snapshots
    and rely on it.
    """

    __slots__ = ("aspace", "_ptes", "_generation")

    def __init__(self, aspace: AddressSpace) -> None:
        self.aspace = aspace
        self._ptes: dict[int, PTE | None] = {}
        self._generation = aspace.generation

    def translate(self, va: int, *, write: bool = False, exec_: bool = False,
                  user_mode: bool = False) -> int:
        """Drop-in replacement for :meth:`AddressSpace.translate`."""
        aspace = self.aspace
        if self._generation != aspace.generation:
            self._ptes.clear()
            self._generation = aspace.generation
        va = canonical(va)
        vpn = va >> PAGE_SHIFT
        entry = self._ptes.get(vpn, _UNRESOLVED)
        if entry is _UNRESOLVED:
            entry = aspace._ptes.get(vpn)
            if entry is None:
                covering = aspace._range_for(va)
                if covering is not None:
                    entry = covering.pte_for(va)
            self._ptes[vpn] = entry
        if entry is None:
            raise PageFault(va, present=False, write=write, user=user_mode,
                            exec_=exec_)
        if user_mode and not entry.user:
            raise PageFault(va, present=True, write=write, user=True,
                            exec_=exec_)
        if write and not entry.writable:
            raise PageFault(va, present=True, write=True, user=user_mode)
        if exec_ and entry.nx:
            raise PageFault(va, present=True, user=user_mode, exec_=True)
        return (entry.pfn << PAGE_SHIFT) | (va & (PAGE_SIZE - 1))
