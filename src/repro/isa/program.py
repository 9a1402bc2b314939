"""Assembled program images.

The assembler produces a :class:`Program`: a set of byte sections at
fixed physical addresses plus a symbol table and entry point.  The
system loader (:mod:`repro.kernel.loader`) combines a user program and
the kernel into a single initial memory image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import layout
from .registers import RegisterSet


@dataclass
class Section:
    """A contiguous run of initialised bytes at a fixed address."""

    name: str
    base: int
    data: bytearray = field(default_factory=bytearray)

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


@dataclass
class Program:
    """An assembled mRISC program.

    Attributes
    ----------
    isa:
        ISA variant name the program was assembled for.
    sections:
        ``.text`` and ``.data`` sections (more are allowed).
    symbols:
        label -> absolute address.
    entry:
        Entry-point address (the start of ``.text`` unless a ``_start``
        label exists).
    source_name:
        Human-readable identifier (workload name) for reports.
    """

    isa: str
    regs: RegisterSet
    sections: list[Section]
    symbols: dict[str, int]
    entry: int
    source_name: str = "<anonymous>"

    def section(self, name: str) -> Section:
        for sec in self.sections:
            if sec.name == name:
                return sec
        raise KeyError(f"program has no section {name!r}")

    @property
    def text(self) -> Section:
        return self.section(".text")

    @property
    def data(self) -> Section:
        return self.section(".data")

    def word_at(self, addr: int) -> int:
        """Fetch the pristine 32-bit little-endian word at *addr*.

        Used by the fault machinery to compare corrupted fetched words
        against the original program image when classifying WI vs WOI.
        Raises ``KeyError`` if the address is not inside any section.
        """
        for sec in self.sections:
            if sec.contains(addr) and sec.contains(addr + 3):
                off = addr - sec.base
                return int.from_bytes(sec.data[off:off + 4], "little")
        raise KeyError(f"address {addr:#x} not inside program image")

    def instruction_count(self) -> int:
        """Number of static instructions in the text section."""
        return len(self.text.data) // 4


def default_user_bases() -> dict[str, int]:
    """Section base addresses for user programs."""
    return {".text": layout.USER_CODE_BASE, ".data": layout.USER_DATA_BASE}


def default_kernel_bases() -> dict[str, int]:
    """Section base addresses for the kernel image."""
    return {".text": layout.KERNEL_CODE_BASE,
            ".data": layout.KERNEL_DATA_BASE}
