"""Architectural register definitions for the two mRISC variants.

mRISC is a miniature RISC ISA with two variants that stand in for the
two Arm architectures studied in the paper:

* **mRISC-32** (stands in for Armv7): 16 architectural registers of 32
  bits each.  ``r14`` is the link register, ``r15`` the stack pointer.
* **mRISC-64** (stands in for Armv8): 32 architectural registers of 64
  bits each (31 writable + the hardwired zero register, matching
  Armv8's 31 general-purpose registers).  ``r30`` is the link register,
  ``r31`` the stack pointer.

``r0`` is hardwired to zero in both variants (reads return 0, writes
are discarded), which gives fault-injection campaigns a realistic
always-masked architectural location and simplifies codegen.

Register fields in the instruction encoding are always 5 bits wide; on
mRISC-32 an encoded register index of 16..31 is an *invalid* encoding
and decodes to an illegal instruction.  This matters for fault
injection: a bit flip in a register field can render the instruction
undecodable, exactly like a real encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ISA variant identifiers.  These strings are used as keys throughout
#: the package (configs, result stores, benches).
MR32 = "mrisc32"
MR64 = "mrisc64"

ISA_NAMES = (MR32, MR64)


@dataclass(frozen=True)
class RegisterSet:
    """Describes the architectural register file of one ISA variant."""

    isa: str
    count: int          # number of architectural registers, incl. r0
    xlen: int           # register width in bits
    link_reg: int       # index of the link register
    stack_reg: int      # index of the stack pointer
    #: First register reserved for the hardening transform's shadow
    #: values; ``None`` when the ISA has too few registers to support
    #: hardening (mRISC-32, mirroring LLFI's 64-bit-only limitation in
    #: the paper).
    shadow_base: int | None

    @property
    def word_bytes(self) -> int:
        """Natural word size in bytes (4 or 8)."""
        return self.xlen // 8

    def is_valid(self, index: int) -> bool:
        """Whether *index* is a legal architectural register number."""
        return 0 <= index < self.count

    def name(self, index: int) -> str:
        """Canonical assembly name of register *index*."""
        if index == 0:
            return "zero"
        if index == self.link_reg:
            return "lr"
        if index == self.stack_reg:
            return "sp"
        return f"r{index}"


REGISTER_SETS: dict[str, RegisterSet] = {
    MR32: RegisterSet(isa=MR32, count=16, xlen=32,
                      link_reg=14, stack_reg=15, shadow_base=None),
    MR64: RegisterSet(isa=MR64, count=32, xlen=64,
                      link_reg=30, stack_reg=31, shadow_base=16),
}


def register_set(isa: str) -> RegisterSet:
    """Return the :class:`RegisterSet` for an ISA name.

    Raises ``KeyError`` with a helpful message for unknown names.
    """
    try:
        return REGISTER_SETS[isa]
    except KeyError:
        raise KeyError(f"unknown ISA {isa!r}; expected one of {ISA_NAMES}") \
            from None


def parse_register(token: str, regs: RegisterSet) -> int:
    """Parse a register token (``r7``, ``sp``, ``lr``, ``zero``) to an index.

    Raises ``ValueError`` on malformed tokens or indices that are not
    architecturally valid for the given register set.
    """
    token = token.strip().lower()
    if token in ("zero", "rzero"):
        return 0
    if token == "sp":
        return regs.stack_reg
    if token == "lr":
        return regs.link_reg
    if token.startswith("r") and token[1:].isdigit():
        index = int(token[1:])
        if not regs.is_valid(index):
            raise ValueError(
                f"register {token!r} out of range for {regs.isa} "
                f"(has {regs.count} registers)")
        return index
    raise ValueError(f"malformed register token {token!r}")
