"""Architectural execution semantics of mRISC.

One implementation of the instruction semantics is shared by every
engine in the package — the functional simulators behind the PVF/SVF
injectors and the out-of-order pipeline behind the AVF/HVF injector —
so a fault can never be an artefact of semantic divergence between
layers (the paper runs all gem5-based estimations on one
infrastructure for the same reason).

The semantics functions talk to the engine through a tiny adapter
interface (:class:`CoreAccess`): register reads/writes and memory
loads/stores.  The adapter is where engines differ — the functional
engine backs it with an array and flat memory, the pipeline with a
renamed physical register file and the cache hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import layout
from ..isa.encoding import Decoded
from ..isa.instructions import BY_MNEMONIC, CLS_LOAD, CLS_STORE
from .exceptions import DetectTrap, FaultKind, SimException

USER_MODE = 0
KERNEL_MODE = 1


@dataclass
class MachineState:
    """Architectural control state shared by all engines."""

    xlen: int
    pc: int = 0
    mode: int = USER_MODE
    kepc: int = 0
    halted: bool = False
    exit_code: int = 0
    mask: int = field(init=False)

    def __post_init__(self) -> None:
        self.mask = (1 << self.xlen) - 1

    @property
    def in_kernel(self) -> bool:
        return self.mode == KERNEL_MODE


class CoreAccess:
    """Adapter interface the semantics functions call into.

    Engines subclass (or duck-type) this.  ``load``/``store`` may raise
    :class:`SimException` for bad addresses; privilege checks live in
    the engines because they know the current mode.
    """

    def read_reg(self, index: int) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def write_reg(self, index: int, value: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def load(self, addr: int, nbytes: int, signed: bool) -> int:
        raise NotImplementedError  # pragma: no cover

    def store(self, addr: int, nbytes: int, value: int) -> None:
        raise NotImplementedError  # pragma: no cover


def to_signed(value: int, xlen: int) -> int:
    """Reinterpret an unsigned *xlen*-bit value as signed."""
    if value & (1 << (xlen - 1)):
        return value - (1 << xlen)
    return value


def sext32(value: int, xlen: int) -> int:
    """Sign-extend a 32-bit value to *xlen* bits (W-op results, LUI)."""
    value &= 0xFFFF_FFFF
    if xlen == 32:
        return value
    if value & 0x8000_0000:
        return (value | 0xFFFF_FFFF_0000_0000)
    return value


def _sdiv(a: int, b: int) -> int:
    """Signed division truncating toward zero (C semantics)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _srem(a: int, b: int) -> int:
    """Signed remainder with the sign of the dividend (C semantics)."""
    r = abs(a) % abs(b)
    return -r if a < 0 else r


# ---------------------------------------------------------------------------
# per-mnemonic semantics
#
# One handler per mnemonic, ``handler(instr, ms, core) -> next pc``,
# chosen once per instruction word (engines keep it in their decode
# records) instead of by a chain of mnemonic compares per execution.
# A core adapter sees every register read and write, so the order of
# those calls is part of the semantics; tests/corpus/ledger/
# semantics.json pins it per mnemonic.
# ---------------------------------------------------------------------------
def _div_by_zero(ms: MachineState) -> SimException:
    return SimException(FaultKind.DIVISION_BY_ZERO, ms.pc,
                        in_kernel=ms.in_kernel)


# ALU register-register -----------------------------------------------------
def _add(instr, ms, core):
    read = core.read_reg
    core.write_reg(instr.rd, (read(instr.rs1) + read(instr.rs2)) & ms.mask)
    return ms.pc + 4


def _sub(instr, ms, core):
    read = core.read_reg
    core.write_reg(instr.rd, (read(instr.rs1) - read(instr.rs2)) & ms.mask)
    return ms.pc + 4


def _mul(instr, ms, core):
    read = core.read_reg
    core.write_reg(instr.rd, (read(instr.rs1) * read(instr.rs2)) & ms.mask)
    return ms.pc + 4


def _div(instr, ms, core):
    read = core.read_reg
    b = read(instr.rs2)
    if b == 0:
        raise _div_by_zero(ms)
    xlen = ms.xlen
    a = to_signed(read(instr.rs1), xlen)
    core.write_reg(instr.rd, _sdiv(a, to_signed(b, xlen)) & ms.mask)
    return ms.pc + 4


def _rem(instr, ms, core):
    read = core.read_reg
    b = read(instr.rs2)
    if b == 0:
        raise _div_by_zero(ms)
    xlen = ms.xlen
    a = to_signed(read(instr.rs1), xlen)
    core.write_reg(instr.rd, _srem(a, to_signed(b, xlen)) & ms.mask)
    return ms.pc + 4


def _and(instr, ms, core):
    read = core.read_reg
    core.write_reg(instr.rd, read(instr.rs1) & read(instr.rs2))
    return ms.pc + 4


def _or(instr, ms, core):
    read = core.read_reg
    core.write_reg(instr.rd, read(instr.rs1) | read(instr.rs2))
    return ms.pc + 4


def _xor(instr, ms, core):
    read = core.read_reg
    core.write_reg(instr.rd, read(instr.rs1) ^ read(instr.rs2))
    return ms.pc + 4


def _sll(instr, ms, core):
    read = core.read_reg
    core.write_reg(instr.rd, (read(instr.rs1)
                              << (read(instr.rs2) & (ms.xlen - 1)))
                   & ms.mask)
    return ms.pc + 4


def _srl(instr, ms, core):
    read = core.read_reg
    core.write_reg(instr.rd,
                   read(instr.rs1) >> (read(instr.rs2) & (ms.xlen - 1)))
    return ms.pc + 4


def _sra(instr, ms, core):
    read = core.read_reg
    xlen = ms.xlen
    shift = read(instr.rs2) & (xlen - 1)
    core.write_reg(instr.rd,
                   (to_signed(read(instr.rs1), xlen) >> shift) & ms.mask)
    return ms.pc + 4


def _slt(instr, ms, core):
    read = core.read_reg
    xlen = ms.xlen
    core.write_reg(instr.rd, int(to_signed(read(instr.rs1), xlen)
                                 < to_signed(read(instr.rs2), xlen)))
    return ms.pc + 4


def _sltu(instr, ms, core):
    read = core.read_reg
    core.write_reg(instr.rd, int(read(instr.rs1) < read(instr.rs2)))
    return ms.pc + 4


# 32-bit W-variants (mRISC-64) ----------------------------------------------
def _addw(instr, ms, core):
    read = core.read_reg
    core.write_reg(instr.rd,
                   sext32(read(instr.rs1) + read(instr.rs2), ms.xlen))
    return ms.pc + 4


def _subw(instr, ms, core):
    read = core.read_reg
    core.write_reg(instr.rd,
                   sext32(read(instr.rs1) - read(instr.rs2), ms.xlen))
    return ms.pc + 4


def _mulw(instr, ms, core):
    read = core.read_reg
    core.write_reg(instr.rd,
                   sext32(read(instr.rs1) * read(instr.rs2), ms.xlen))
    return ms.pc + 4


def _sllw(instr, ms, core):
    read = core.read_reg
    core.write_reg(instr.rd,
                   sext32(read(instr.rs1) << (read(instr.rs2) & 31),
                          ms.xlen))
    return ms.pc + 4


def _srlw(instr, ms, core):
    read = core.read_reg
    core.write_reg(instr.rd,
                   sext32((read(instr.rs1) & 0xFFFF_FFFF)
                          >> (read(instr.rs2) & 31), ms.xlen))
    return ms.pc + 4


def _sraw(instr, ms, core):
    read = core.read_reg
    value = to_signed(read(instr.rs1) & 0xFFFF_FFFF, 32)
    core.write_reg(instr.rd,
                   sext32(value >> (read(instr.rs2) & 31), ms.xlen))
    return ms.pc + 4


# ALU immediates ------------------------------------------------------------
def _addi(instr, ms, core):
    core.write_reg(instr.rd,
                   (core.read_reg(instr.rs1) + instr.imm) & ms.mask)
    return ms.pc + 4


def _addiw(instr, ms, core):
    core.write_reg(instr.rd,
                   sext32(core.read_reg(instr.rs1) + instr.imm, ms.xlen))
    return ms.pc + 4


def _andi(instr, ms, core):
    core.write_reg(instr.rd, core.read_reg(instr.rs1) & (instr.imm & 0xFFFF))
    return ms.pc + 4


def _ori(instr, ms, core):
    core.write_reg(instr.rd, core.read_reg(instr.rs1) | (instr.imm & 0xFFFF))
    return ms.pc + 4


def _xori(instr, ms, core):
    # xori with imm -1 is canonical NOT: sign-extend the immediate.
    mask = ms.mask
    core.write_reg(instr.rd,
                   (core.read_reg(instr.rs1) ^ (instr.imm & mask)) & mask)
    return ms.pc + 4


def _slli(instr, ms, core):
    core.write_reg(instr.rd, (core.read_reg(instr.rs1)
                              << (instr.imm & (ms.xlen - 1))) & ms.mask)
    return ms.pc + 4


def _srli(instr, ms, core):
    core.write_reg(instr.rd,
                   core.read_reg(instr.rs1) >> (instr.imm & (ms.xlen - 1)))
    return ms.pc + 4


def _srai(instr, ms, core):
    xlen = ms.xlen
    core.write_reg(instr.rd, (to_signed(core.read_reg(instr.rs1), xlen)
                              >> (instr.imm & (xlen - 1))) & ms.mask)
    return ms.pc + 4


def _slti(instr, ms, core):
    core.write_reg(instr.rd, int(to_signed(core.read_reg(instr.rs1),
                                           ms.xlen) < instr.imm))
    return ms.pc + 4


def _lui(instr, ms, core):
    core.write_reg(instr.rd, sext32((instr.imm & 0xFFFF) << 16, ms.xlen))
    return ms.pc + 4


# memory --------------------------------------------------------------------
def _load(instr, ms, core):
    mask = ms.mask
    d = instr.d
    addr = (core.read_reg(instr.rs1) + instr.imm) & mask
    value = core.load(addr & 0xFFFF_FFFF, d.mem_bytes, d.mem_signed)
    core.write_reg(instr.rd, value & mask)
    return ms.pc + 4


def _store(instr, ms, core):
    read = core.read_reg
    addr = (read(instr.rs1) + instr.imm) & ms.mask
    core.store(addr & 0xFFFF_FFFF, instr.d.mem_bytes, read(instr.rs2))
    return ms.pc + 4


# control flow --------------------------------------------------------------
def _beq(instr, ms, core):
    read = core.read_reg
    pc = ms.pc
    if read(instr.rs1) == read(instr.rs2):
        return pc + 4 + instr.imm
    return pc + 4


def _bne(instr, ms, core):
    read = core.read_reg
    pc = ms.pc
    if read(instr.rs1) != read(instr.rs2):
        return pc + 4 + instr.imm
    return pc + 4


def _blt(instr, ms, core):
    read = core.read_reg
    pc = ms.pc
    xlen = ms.xlen
    if to_signed(read(instr.rs1), xlen) < to_signed(read(instr.rs2), xlen):
        return pc + 4 + instr.imm
    return pc + 4


def _bge(instr, ms, core):
    read = core.read_reg
    pc = ms.pc
    xlen = ms.xlen
    if to_signed(read(instr.rs1), xlen) >= to_signed(read(instr.rs2), xlen):
        return pc + 4 + instr.imm
    return pc + 4


def _bltu(instr, ms, core):
    read = core.read_reg
    pc = ms.pc
    if read(instr.rs1) < read(instr.rs2):
        return pc + 4 + instr.imm
    return pc + 4


def _bgeu(instr, ms, core):
    read = core.read_reg
    pc = ms.pc
    if read(instr.rs1) >= read(instr.rs2):
        return pc + 4 + instr.imm
    return pc + 4


def _j(instr, ms, core):
    return ms.pc + 4 + instr.imm


def _jal(instr, ms, core):
    pc = ms.pc
    core.write_reg(_link_reg(ms.xlen), (pc + 4) & ms.mask)
    return pc + 4 + instr.imm


def _jr(instr, ms, core):
    return core.read_reg(instr.rs1) & ms.mask


def _jalr(instr, ms, core):
    mask = ms.mask
    target = core.read_reg(instr.rs1) & mask
    core.write_reg(instr.rd, (ms.pc + 4) & mask)
    return target


# system --------------------------------------------------------------------
def _syscall(instr, ms, core):
    ms.kepc = ms.pc + 4
    ms.mode = KERNEL_MODE
    return layout.KERNEL_CODE_BASE


def _eret(instr, ms, core):
    if not ms.in_kernel:
        raise SimException(FaultKind.ILLEGAL_INSTRUCTION, ms.pc,
                           detail="eret in user mode", in_kernel=False)
    ms.mode = USER_MODE
    return ms.kepc


def _halt(instr, ms, core):
    if not ms.in_kernel:
        raise SimException(FaultKind.ILLEGAL_INSTRUCTION, ms.pc,
                           detail="halt in user mode", in_kernel=False)
    ms.halted = True
    return ms.pc + 4


def _detect(instr, ms, core):
    raise DetectTrap


_NAMED = {
    "add": _add, "sub": _sub, "mul": _mul, "div": _div, "rem": _rem,
    "and": _and, "or": _or, "xor": _xor, "sll": _sll, "srl": _srl,
    "sra": _sra, "slt": _slt, "sltu": _sltu,
    "addw": _addw, "subw": _subw, "mulw": _mulw, "sllw": _sllw,
    "srlw": _srlw, "sraw": _sraw,
    "addi": _addi, "addiw": _addiw, "andi": _andi, "ori": _ori,
    "xori": _xori, "slli": _slli, "srli": _srli, "srai": _srai,
    "slti": _slti, "lui": _lui,
    "beq": _beq, "bne": _bne, "blt": _blt, "bge": _bge, "bltu": _bltu,
    "bgeu": _bgeu, "j": _j, "jal": _jal, "jr": _jr, "jalr": _jalr,
    "syscall": _syscall, "eret": _eret, "halt": _halt, "detect": _detect,
}
_BY_CLASS = {CLS_LOAD: _load, CLS_STORE: _store}


def _handler_table() -> dict:
    table = {}
    for op, d in BY_MNEMONIC.items():
        handler = _BY_CLASS.get(d.cls) if d.mem_bytes else None
        if handler is None:
            handler = _NAMED.get(op)
        if handler is None:  # pragma: no cover - import-time invariant
            raise RuntimeError(f"no semantics for {op}")
        table[op] = handler
    return table


#: mnemonic -> ``handler(instr, ms, core) -> next pc``, one entry per
#: ``BY_MNEMONIC`` op (checked when the module is imported)
HANDLERS: dict = _handler_table()


def execute(instr: Decoded, ms: MachineState, core: CoreAccess) -> int:
    """Execute one instruction; returns the next PC.

    Raises :class:`SimException` on architectural faults and
    :class:`DetectTrap` when a hardened binary signals detection.
    Hot loops keep ``HANDLERS[instr.op]`` in their decode records and
    call it directly; this is the same dispatch.
    """
    return HANDLERS[instr.op](instr, ms, core)


def _link_reg(xlen: int) -> int:
    return 14 if xlen == 32 else 30


def branch_outcome(instr: Decoded, next_pc: int, pc: int) -> tuple[bool, int]:
    """(taken?, target) for a control-flow instruction, given its result."""
    fallthrough = pc + 4
    return next_pc != fallthrough, next_pc
