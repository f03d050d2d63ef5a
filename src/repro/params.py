"""Global architectural constants shared across the simulator.

These mirror the fixed quantities the paper relies on: 48-bit canonical
virtual addresses, 4 KiB pages, 64-byte cache lines and 32-byte fetch
blocks ("typically 32 B", paper section 6).
"""

from __future__ import annotations

#: Number of implemented virtual-address bits (x86-64 4-level paging).
VA_BITS = 48

#: Bytes per page.
PAGE_SIZE = 4096
PAGE_SHIFT = 12

#: Bytes per 2 MiB transparent huge page (used by the physmap exploit).
HUGE_PAGE_SIZE = 2 * 1024 * 1024
HUGE_PAGE_SHIFT = 21

#: Bytes per cache line.
CACHE_LINE = 64
CACHE_LINE_SHIFT = 6

#: Bytes fetched per instruction-fetch transaction.
FETCH_BLOCK = 32

#: Mask selecting the low 64 bits of an integer (register width).
MASK64 = (1 << 64) - 1

#: Mask selecting a canonical 48-bit virtual address.
VA_MASK = (1 << VA_BITS) - 1

#: Lower-half addresses below this bound are already canonical.
_LOWER_HALF_END = 1 << (VA_BITS - 1)

#: Number of possible kernel-image KASLR slots (paper section 7.1, [38]).
KERNEL_IMAGE_SLOTS = 488

#: Number of possible physmap KASLR slots (paper section 7.2, [38]).
PHYSMAP_SLOTS = 25600


def canonical(va: int) -> int:
    """Sign-extend bit 47 of *va* into bits 48..63 (x86-64 canonical form)."""
    if 0 <= va < _LOWER_HALF_END:
        return va
    va &= MASK64
    if va & (1 << (VA_BITS - 1)):
        return va | (MASK64 ^ VA_MASK)
    return va & VA_MASK


def is_canonical(va: int) -> bool:
    """Return True if *va* is a canonical 48-bit virtual address."""
    return canonical(va) == (va & MASK64)


def is_kernel_va(va: int) -> bool:
    """Return True for upper-half (supervisor) canonical addresses."""
    return bool(va & (1 << (VA_BITS - 1)))


def page_base(va: int) -> int:
    """Round *va* down to its 4 KiB page base."""
    return va & ~(PAGE_SIZE - 1)


def line_base(addr: int) -> int:
    """Round *addr* down to its cache-line base."""
    return addr & ~(CACHE_LINE - 1)
