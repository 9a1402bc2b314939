"""The mRISC instruction set: opcode table and instruction metadata.

Every instruction is described by an :class:`InstrDef` carrying the
fields the rest of the system needs:

* the binary opcode and encoding format (for the assembler / decoder),
* the execution class (which functional unit executes it and with what
  latency — consumed by the timing model in :mod:`repro.uarch`),
* behavioural flags (load / store / branch / privileged / 64-bit-only).

The opcode space is deliberately *sparse* (the all-zero word and the
upper opcodes are illegal): random bit flips in fetched instruction
words should be able to produce illegal instructions, as they do on a
real machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Encoding formats
# ---------------------------------------------------------------------------
#: rd, rs1, rs2 live in bits [25:21], [20:16], [15:11]; func in [10:0].
FMT_R = "R"
#: rd, rs1 in [25:21], [20:16]; signed imm16 in [15:0].
FMT_I = "I"
#: rd in [25:21]; imm16 in [15:0]; the rs1 field must be zero (LUI).
FMT_U = "U"
#: stores: rs1 (base) [25:21], rs2 (source) [20:16], signed imm16 offset.
FMT_S = "S"
#: branches: rs1 [25:21], rs2 [20:16], signed imm16 word offset.
FMT_B = "B"
#: jumps: signed imm26 word offset in [25:0].
FMT_J = "J"
#: register-indirect jumps: JR uses rs1 only; JALR uses rd + rs1.
FMT_RJ = "RJ"
#: system instructions: all operand bits must be zero.
FMT_SYS = "SYS"

# ---------------------------------------------------------------------------
# Execution classes (functional-unit selection + latency lookup)
# ---------------------------------------------------------------------------
CLS_ALU = "alu"        # single-cycle integer ops
CLS_MUL = "mul"        # multiplier
CLS_DIV = "div"        # divider (long latency)
CLS_LOAD = "load"      # memory read through the D-cache
CLS_STORE = "store"    # memory write through the D-cache
CLS_BRANCH = "branch"  # conditional branches and jumps
CLS_SYS = "sys"        # syscall / eret / halt / detect


@dataclass(frozen=True)
class InstrDef:
    """Static description of one mRISC instruction."""

    mnemonic: str
    opcode: int
    fmt: str
    cls: str
    mr64_only: bool = False
    privileged: bool = False
    #: For loads/stores: access size in bytes and signedness of loads.
    mem_bytes: int = 0
    mem_signed: bool = True
    #: W-suffix ops compute in 32 bits and sign-extend (mRISC-64 only
    #: as an encoding; the assembler lowers them to the base op on
    #: mRISC-32 where every op is 32-bit anyway).
    word_op: bool = False
    #: Base mnemonic the assembler substitutes on mRISC-32.
    narrow_alias: str | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.opcode < 64:
            raise ValueError(f"opcode out of range for {self.mnemonic}")


def _defs() -> list[InstrDef]:
    d = InstrDef
    return [
        # --- R-type ALU -----------------------------------------------------
        d("add", 0x01, FMT_R, CLS_ALU),
        d("sub", 0x02, FMT_R, CLS_ALU),
        d("mul", 0x03, FMT_R, CLS_MUL),
        d("div", 0x04, FMT_R, CLS_DIV),
        d("rem", 0x05, FMT_R, CLS_DIV),
        d("and", 0x06, FMT_R, CLS_ALU),
        d("or", 0x07, FMT_R, CLS_ALU),
        d("xor", 0x08, FMT_R, CLS_ALU),
        d("sll", 0x09, FMT_R, CLS_ALU),
        d("srl", 0x0A, FMT_R, CLS_ALU),
        d("sra", 0x0B, FMT_R, CLS_ALU),
        d("slt", 0x0C, FMT_R, CLS_ALU),
        d("sltu", 0x0D, FMT_R, CLS_ALU),
        # --- 32-bit (W) variants, mRISC-64 encodings ------------------------
        d("addw", 0x0E, FMT_R, CLS_ALU, mr64_only=True, word_op=True,
          narrow_alias="add"),
        d("subw", 0x0F, FMT_R, CLS_ALU, mr64_only=True, word_op=True,
          narrow_alias="sub"),
        d("mulw", 0x10, FMT_R, CLS_MUL, mr64_only=True, word_op=True,
          narrow_alias="mul"),
        d("sllw", 0x11, FMT_R, CLS_ALU, mr64_only=True, word_op=True,
          narrow_alias="sll"),
        d("srlw", 0x12, FMT_R, CLS_ALU, mr64_only=True, word_op=True,
          narrow_alias="srl"),
        d("sraw", 0x13, FMT_R, CLS_ALU, mr64_only=True, word_op=True,
          narrow_alias="sra"),
        # --- I-type ---------------------------------------------------------
        d("addi", 0x14, FMT_I, CLS_ALU),
        d("andi", 0x15, FMT_I, CLS_ALU),
        d("ori", 0x16, FMT_I, CLS_ALU),
        d("xori", 0x17, FMT_I, CLS_ALU),
        d("slli", 0x18, FMT_I, CLS_ALU),
        d("srli", 0x19, FMT_I, CLS_ALU),
        d("srai", 0x1A, FMT_I, CLS_ALU),
        d("slti", 0x1B, FMT_I, CLS_ALU),
        d("lui", 0x1C, FMT_U, CLS_ALU),
        d("addiw", 0x1D, FMT_I, CLS_ALU, mr64_only=True, word_op=True,
          narrow_alias="addi"),
        # --- loads ----------------------------------------------------------
        d("lb", 0x1E, FMT_I, CLS_LOAD, mem_bytes=1, mem_signed=True),
        d("lbu", 0x1F, FMT_I, CLS_LOAD, mem_bytes=1, mem_signed=False),
        d("lh", 0x20, FMT_I, CLS_LOAD, mem_bytes=2, mem_signed=True),
        d("lhu", 0x21, FMT_I, CLS_LOAD, mem_bytes=2, mem_signed=False),
        d("lw", 0x22, FMT_I, CLS_LOAD, mem_bytes=4, mem_signed=True),
        d("lwu", 0x23, FMT_I, CLS_LOAD, mem_bytes=4, mem_signed=False,
          mr64_only=True, narrow_alias="lw"),
        d("ld", 0x24, FMT_I, CLS_LOAD, mem_bytes=8, mem_signed=True,
          mr64_only=True),
        # --- stores ---------------------------------------------------------
        d("sb", 0x25, FMT_S, CLS_STORE, mem_bytes=1),
        d("sh", 0x26, FMT_S, CLS_STORE, mem_bytes=2),
        d("sw", 0x27, FMT_S, CLS_STORE, mem_bytes=4),
        d("sd", 0x28, FMT_S, CLS_STORE, mem_bytes=8, mr64_only=True),
        # --- branches -------------------------------------------------------
        d("beq", 0x29, FMT_B, CLS_BRANCH),
        d("bne", 0x2A, FMT_B, CLS_BRANCH),
        d("blt", 0x2B, FMT_B, CLS_BRANCH),
        d("bge", 0x2C, FMT_B, CLS_BRANCH),
        d("bltu", 0x2D, FMT_B, CLS_BRANCH),
        d("bgeu", 0x2E, FMT_B, CLS_BRANCH),
        # --- jumps ----------------------------------------------------------
        d("j", 0x2F, FMT_J, CLS_BRANCH),
        d("jal", 0x30, FMT_J, CLS_BRANCH),
        d("jr", 0x31, FMT_RJ, CLS_BRANCH),
        d("jalr", 0x32, FMT_RJ, CLS_BRANCH),
        # --- system ---------------------------------------------------------
        d("syscall", 0x33, FMT_SYS, CLS_SYS),
        d("eret", 0x34, FMT_SYS, CLS_SYS, privileged=True),
        d("halt", 0x35, FMT_SYS, CLS_SYS, privileged=True),
        d("detect", 0x36, FMT_SYS, CLS_SYS),
    ]


#: mnemonic -> InstrDef
BY_MNEMONIC: dict[str, InstrDef] = {d.mnemonic: d for d in _defs()}

#: opcode -> InstrDef
BY_OPCODE: dict[int, InstrDef] = {d.opcode: d for d in BY_MNEMONIC.values()}

if len(BY_OPCODE) != len(BY_MNEMONIC):  # pragma: no cover - sanity check
    raise RuntimeError("duplicate opcode assignment in mRISC table")


def lookup(mnemonic: str) -> InstrDef:
    """Return the :class:`InstrDef` for a mnemonic (``KeyError`` if unknown)."""
    return BY_MNEMONIC[mnemonic]
