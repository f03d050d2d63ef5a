"""Sparse physical memory backing store.

Pages are allocated lazily, so simulating the paper's 8 GB (Zen 1) and
64 GB (EPYC 7252) machines costs memory proportional only to the pages
actually touched.
"""

from __future__ import annotations

from ..errors import MemoryError_
from ..params import PAGE_SHIFT, PAGE_SIZE


class PhysicalMemory:
    """Byte-addressable physical memory of a fixed size."""

    def __init__(self, size: int) -> None:
        if size <= 0 or size % PAGE_SIZE:
            raise ValueError(f"size must be a positive page multiple: {size}")
        self.size = size
        self._pages: dict[int, bytearray] = {}

    def _page(self, pfn: int) -> bytearray:
        page = self._pages.get(pfn)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[pfn] = page
        return page

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise MemoryError_(
                f"physical access [{addr:#x},{addr + size:#x}) outside "
                f"{self.size:#x}-byte memory")

    def read(self, addr: int, size: int) -> bytes:
        """Read *size* bytes at physical address *addr*."""
        self._check(addr, size)
        out = bytearray()
        while size:
            pfn, off = addr >> PAGE_SHIFT, addr & (PAGE_SIZE - 1)
            chunk = min(size, PAGE_SIZE - off)
            page = self._pages.get(pfn)
            if page is None:
                out += bytes(chunk)
            else:
                out += page[off:off + chunk]
            addr += chunk
            size -= chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write *data* at physical address *addr*."""
        self._check(addr, len(data))
        pos = 0
        while pos < len(data):
            pfn, off = addr >> PAGE_SHIFT, addr & (PAGE_SIZE - 1)
            chunk = min(len(data) - pos, PAGE_SIZE - off)
            self._page(pfn)[off:off + chunk] = data[pos:pos + chunk]
            addr += chunk
            pos += chunk

    def read_int(self, addr: int, size: int) -> int:
        return int.from_bytes(self.read(addr, size), "little")

    def write_int(self, addr: int, size: int, value: int) -> None:
        self.write(addr, (value & ((1 << (8 * size)) - 1)).to_bytes(size,
                                                                    "little"))
