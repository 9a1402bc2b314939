"""Sparse, paged physical memory with privilege checking.

Memory is allocated lazily in 4 KiB pages.  Reads of never-written
pages *inside a mapped region* return zeroes; accesses outside every
mapped region raise an access fault.  Regions also carry a
kernel-only flag so user-mode accesses to kernel space raise privilege
faults — one of the paper's crash channels.

Addresses are 32-bit physical.  The mRISC-64 core computes addresses
in 64-bit registers; the memory system masks them to 32 bits (the
machine has no virtual memory — see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import layout
from .exceptions import FaultKind, SimException

ADDR_MASK = 0xFFFF_FFFF
_PAGE = layout.PAGE_SIZE
_PAGE_MASK = _PAGE - 1


@dataclass(frozen=True)
class Region:
    """A mapped address range."""

    name: str
    base: int
    end: int               # exclusive
    kernel_only: bool = False
    writable: bool = True

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


def default_regions() -> list[Region]:
    """The standard memory map (see :mod:`repro.isa.layout`)."""
    return [
        Region("user-code", layout.USER_CODE_BASE, layout.USER_DATA_BASE),
        Region("user-data", layout.USER_DATA_BASE, layout.USER_STACK_BASE),
        Region("user-stack", layout.USER_STACK_BASE, layout.USER_STACK_END),
        Region("kernel-code", layout.KERNEL_CODE_BASE,
               layout.KERNEL_DATA_BASE, kernel_only=True),
        Region("kernel-data", layout.KERNEL_DATA_BASE,
               layout.KERNEL_STACK_TOP + 0x100, kernel_only=True),
        Region("output", layout.OUTPUT_BASE, layout.OUTPUT_LIMIT,
               kernel_only=True),
    ]


class Memory:
    """Byte-addressable sparse physical memory."""

    def __init__(self, regions: list[Region] | None = None) -> None:
        self.regions = regions if regions is not None else default_regions()
        self._pages: dict[int, bytearray] = {}
        #: copy-on-write backing (see :meth:`restore_pages`): immutable
        #: pages shared with a checkpoint; a write materialises a
        #: private ``bytearray`` copy into ``_pages`` first.
        self._backing: dict[int, bytes] | None = None
        # Sorted region list for fast lookup; region count is tiny so a
        # linear scan is fine and avoids bisect bookkeeping.
        self._regions_sorted = sorted(self.regions, key=lambda r: r.base)
        #: page base -> the region holding the *whole* page, filled by
        #: page_region (a page a region only partly covers is never
        #: memoised, so its accesses keep the full lookup)
        self._page_region: dict[int, Region] = {}

    # ------------------------------------------------------------------
    # region / privilege checks
    # ------------------------------------------------------------------
    def region_of(self, addr: int) -> Region | None:
        addr &= ADDR_MASK
        for region in self._regions_sorted:
            if region.contains(addr):
                return region
        return None

    def page_region(self, addr: int) -> Region | None:
        """The region holding *addr* (None outside every region),
        remembered in ``_page_region`` when it holds *addr*'s whole
        page."""
        region = self.region_of(addr)
        page = addr & ADDR_MASK & ~_PAGE_MASK
        if region is not None and region.base <= page \
                and page + _PAGE <= region.end:
            self._page_region[page] = region
        return region

    def check_access(self, addr: int, nbytes: int, *, write: bool,
                     kernel_mode: bool) -> None:
        """Raise the appropriate :class:`SimException` on a bad access.

        Containment contract: addresses arrive here from registers
        that faults may have corrupted arbitrarily, so *every* shape
        of bad address — negative, past the 32-bit physical space,
        wrapping around it, or carrying a corrupt size — must become a
        simulated memory fault, never a host-level error.
        """
        addr &= ADDR_MASK
        if nbytes <= 0:
            raise SimException(FaultKind.ACCESS_FAULT, addr,
                               detail=f"corrupt access size {nbytes}",
                               in_kernel=kernel_mode)
        if addr + nbytes - 1 > ADDR_MASK:
            # access wraps past the top of physical memory
            raise SimException(FaultKind.ACCESS_FAULT, addr,
                               detail="access wraps the address space",
                               in_kernel=kernel_mode)
        region = self._page_region.get(addr & ~_PAGE_MASK)
        if region is None:
            region = self.page_region(addr)
            if region is None:
                raise SimException(FaultKind.ACCESS_FAULT, addr,
                                   in_kernel=kernel_mode)
        # region.base <= addr holds, so this is region.contains(last)
        if addr + nbytes > region.end:
            raise SimException(FaultKind.ACCESS_FAULT, addr,
                               in_kernel=kernel_mode)
        if region.kernel_only and not kernel_mode:
            raise SimException(FaultKind.PRIVILEGE_FAULT, addr,
                               in_kernel=False)
        if write and not region.writable:
            raise SimException(FaultKind.ACCESS_FAULT, addr,
                               detail="write to read-only region",
                               in_kernel=kernel_mode)

    # ------------------------------------------------------------------
    # raw byte access (no privilege checks; checks happen at the CPU)
    # ------------------------------------------------------------------
    def _page_for(self, addr: int,
                  create: bool) -> "bytearray | bytes | None":
        base = addr & ~_PAGE_MASK
        page = self._pages.get(base)
        if page is None:
            backing = self._backing
            if backing is not None:
                frozen = backing.get(base)
                if frozen is not None:
                    if not create:
                        return frozen  # read-only view of the snapshot
                    page = bytearray(frozen)
                    self._pages[base] = page
                    return page
            if create:
                page = bytearray(_PAGE)
                self._pages[base] = page
        return page

    def read(self, addr: int, nbytes: int) -> bytes:
        """Read *nbytes* starting at *addr* (zero-fill untouched pages)."""
        addr &= ADDR_MASK
        out = bytearray()
        while nbytes:
            off = addr & _PAGE_MASK
            chunk = min(nbytes, _PAGE - off)
            page = self._page_for(addr, create=False)
            if page is None:
                out.extend(b"\x00" * chunk)
            else:
                out.extend(page[off:off + chunk])
            addr += chunk
            nbytes -= chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write *data* starting at *addr*."""
        addr &= ADDR_MASK
        pos = 0
        while pos < len(data):
            off = addr & _PAGE_MASK
            chunk = min(len(data) - pos, _PAGE - off)
            page = self._page_for(addr, create=True)
            assert page is not None
            page[off:off + chunk] = data[pos:pos + chunk]
            addr += chunk
            pos += chunk

    # Convenience scalar accessors -------------------------------------
    def read_int(self, addr: int, nbytes: int, signed: bool = False) -> int:
        value = int.from_bytes(self.read(addr, nbytes), "little")
        if signed:
            top = 1 << (8 * nbytes - 1)
            if value & top:
                value -= 1 << (8 * nbytes)
        return value

    def write_int(self, addr: int, value: int, nbytes: int) -> None:
        self.write(addr, (value & ((1 << (8 * nbytes)) - 1))
                   .to_bytes(nbytes, "little"))

    def load_image(self, sections) -> None:
        """Copy a program's sections into memory."""
        for sec in sections:
            self.write(sec.base, bytes(sec.data))

    # ------------------------------------------------------------------
    # checkpoint support (see repro.uarch.snapshot)
    # ------------------------------------------------------------------
    def snapshot_pages(self) -> dict[int, bytes]:
        """Immutable copy of every materialised page (for checkpoints)."""
        pages: dict[int, bytes] = dict(self._backing) \
            if self._backing else {}
        for base, page in self._pages.items():
            pages[base] = bytes(page)
        return pages

    def restore_pages(self, pages: dict[int, bytes]) -> None:
        """Adopt a checkpoint's pages as copy-on-write backing.

        *pages* is shared (many restores may alias one checkpoint) and
        is never mutated: reads serve straight from the frozen bytes,
        while the first write to a page copies it into the private
        overlay.
        """
        self._backing = pages
        self._pages = {}

    def iter_pages(self):
        """Yield ``(base, page_bytes)`` of the effective contents,
        sorted by base address (overlay pages shadow the backing)."""
        overlay = self._pages
        backing = self._backing
        if backing:
            for base in sorted(backing.keys() | overlay.keys()):
                page = overlay.get(base)
                yield base, (page if page is not None
                             else backing[base])
        else:
            for base in sorted(overlay):
                yield base, overlay[base]
