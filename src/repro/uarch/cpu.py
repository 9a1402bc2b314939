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
from typing import Callable, NamedTuple, Optional

from ..isa import layout
from ..isa.encoding import Decoded
from ..isa.instructions import BY_MNEMONIC, CLS_BRANCH, CLS_LOAD, CLS_STORE
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
# value table
#
# One arithmetic definition per ALU op and conditional branch, over
# unsigned xlen-bit register values: ``fn(a, b) -> value`` for every
# R-type op but div/rem, every W-variant and lui, ``cond(a, b) ->
# taken`` for every conditional branch.  An I-type op runs its R-type
# op's function on rs1 and an operand masked out of the immediate.
# The handlers of these ops are generated from the table, and the
# pipeline's run loop calls the same functions in place of the
# handler, so the semantics ledger checks the arithmetic both run.
# The batched engine runs the table's lane forms, the same functions
# but for four with an array-safe variant, on uint64 lane vectors.
# ---------------------------------------------------------------------------
class ValueForm(NamedTuple):
    """How one mnemonic computes: ``fn(a, b)`` over its source values.

    ``imm_mask`` is None when ``a`` and ``b`` are rs1's and rs2's
    values (register-register ops and branches).  Otherwise ``b`` is
    ``imm & imm_mask``, the operand the immediate decodes to, and
    ``a`` is rs1's value (0 for lui, which reads no register).
    """

    fn: Callable[[int, int], int]
    imm_mask: Optional[int] = None


def _value_functions(xlen: int) -> tuple:
    """mnemonic -> ``fn(a, b)`` of the R-type and W-type ALU ops, lui
    and the conditional branches at *xlen*: one map over ints, and one
    whose functions also run on NumPy uint64 vectors."""
    mask = (1 << xlen) - 1
    # (a ^ sign) - sign is to_signed(a, xlen), and flipping the sign
    # bit maps signed order onto unsigned order; ((v & low) ^ w) - w,
    # masked, is sext32(v, xlen)
    sign = 1 << (xlen - 1)
    amount = xlen - 1
    w, low = 0x8000_0000, 0xFFFF_FFFF

    def add(a, b):
        return (a + b) & mask

    def sub(a, b):
        return (a - b) & mask

    def mul(a, b):
        return (a * b) & mask

    def and_(a, b):
        return a & b

    def or_(a, b):
        return a | b

    def xor(a, b):
        return a ^ b

    def sll(a, b):
        return (a << (b & amount)) & mask

    def srl(a, b):
        return a >> (b & amount)

    def sra(a, b):
        return (((a ^ sign) - sign) >> (b & amount)) & mask

    def sra_lanes(a, b):
        # uint64 wraps where an int goes negative, so shift first and
        # sign-extend from the shifted sign bit
        s = b & amount
        m = sign >> s
        return (((a >> s) ^ m) - m) & mask

    def slt(a, b):
        return 1 if (a ^ sign) < (b ^ sign) else 0

    def slt_lanes(a, b):
        return (a ^ sign) < (b ^ sign)

    def sltu(a, b):
        return 1 if a < b else 0

    def sltu_lanes(a, b):
        return a < b

    def addw(a, b):
        return ((((a + b) & low) ^ w) - w) & mask

    def subw(a, b):
        return ((((a - b) & low) ^ w) - w) & mask

    def mulw(a, b):
        return ((((a * b) & low) ^ w) - w) & mask

    def sllw(a, b):
        return ((((a << (b & 31)) & low) ^ w) - w) & mask

    def srlw(a, b):
        return ((((a & low) >> (b & 31)) ^ w) - w) & mask

    def sraw(a, b):
        return ((((a & low) ^ w) - w) >> (b & 31)) & mask

    def sraw_lanes(a, b):
        s = b & 31
        m = w >> s
        return ((((a & low) >> s) ^ m) - m) & mask

    def lui(a, b):
        return ((((b & 0xFFFF) << 16) ^ w) - w) & mask

    def beq(a, b):
        return a == b

    def bne(a, b):
        return a != b

    def blt(a, b):
        return (a ^ sign) < (b ^ sign)

    def bge(a, b):
        return (a ^ sign) >= (b ^ sign)

    def bltu(a, b):
        return a < b

    def bgeu(a, b):
        return a >= b

    fns = {
        "add": add, "sub": sub, "mul": mul, "and": and_, "or": or_,
        "xor": xor, "sll": sll, "srl": srl, "sra": sra, "slt": slt,
        "sltu": sltu, "addw": addw, "subw": subw, "mulw": mulw,
        "sllw": sllw, "srlw": srlw, "sraw": sraw, "lui": lui,
        "beq": beq, "bne": bne, "blt": blt, "bge": bge, "bltu": bltu,
        "bgeu": bgeu,
    }
    return fns, dict(fns, sra=sra_lanes, slt=slt_lanes, sltu=sltu_lanes,
                     sraw=sraw_lanes)


def _value_forms(fns: dict, xlen: int) -> dict:
    forms = {op: ValueForm(fn) for op, fn in fns.items()}
    # lui's operand is its raw immediate; xori with imm -1 is
    # canonical NOT, so its immediate sign-extends
    mask = (1 << xlen) - 1
    for op, base, imm_mask in (
            ("lui", "lui", -1), ("addi", "add", -1),
            ("addiw", "addw", -1), ("andi", "and", 0xFFFF),
            ("ori", "or", 0xFFFF), ("xori", "xor", mask),
            ("slti", "slt", mask), ("slli", "sll", xlen - 1),
            ("srli", "srl", xlen - 1), ("srai", "sra", xlen - 1)):
        forms[op] = ValueForm(fns[base], imm_mask)
    return forms


_FUNCTIONS = {xlen: _value_functions(xlen) for xlen in (32, 64)}

#: xlen -> mnemonic -> :class:`ValueForm`, for every ALU op but
#: div/rem and every conditional branch
VALUE_FORMS: dict = {xlen: _value_forms(fns, xlen)
                     for xlen, (fns, _) in _FUNCTIONS.items()}

#: ``VALUE_FORMS`` over NumPy uint64 lane vectors (one element per
#: lane; operands may mix vectors and uint64 scalars): the same
#: function objects and ``imm_mask`` but for sra, sraw, slt and sltu
#: (and their immediate forms), whose int forms shift a negative int or
#: take the truth value of a comparison.  A comparison returns a bool
#: vector, not 0/1 values.
LANE_FORMS: dict = {xlen: _value_forms(lanes, xlen)
                    for xlen, (_, lanes) in _FUNCTIONS.items()}


# ---------------------------------------------------------------------------
# per-mnemonic semantics
#
# One handler per mnemonic and xlen, ``handler(instr, ms, core) -> next
# pc``, chosen once per instruction word (engines keep it in their
# decode records) instead of by a chain of mnemonic compares per
# execution.
# A core adapter sees every register read and write, so the order of
# those calls is part of the semantics; tests/corpus/ledger/
# semantics.json pins it per mnemonic.
# ---------------------------------------------------------------------------
def _div_by_zero(ms: MachineState) -> SimException:
    return SimException(FaultKind.DIVISION_BY_ZERO, ms.pc,
                        in_kernel=ms.in_kernel)


# ALU ops and conditional branches, generated from the value table ----------
def _value_handler(op: str, xlen: int) -> Callable:
    """The handler of *op* at *xlen*, running ``VALUE_FORMS[xlen][op]``.

    It reads rs1 then rs2, as the hand-written handlers did, except
    ``sra``, which reads rs2 first; an immediate op reads rs1 alone and
    ``lui`` reads nothing.
    """
    fn, imm_mask = VALUE_FORMS[xlen][op]
    if BY_MNEMONIC[op].cls == CLS_BRANCH:
        def handler(instr, ms, core):
            if fn(core.read_reg(instr.rs1), core.read_reg(instr.rs2)):
                return ms.pc + 4 + instr.imm
            return ms.pc + 4
    elif op == "lui":
        def handler(instr, ms, core):
            core.write_reg(instr.rd, fn(0, instr.imm))
            return ms.pc + 4
    elif imm_mask is not None:
        def handler(instr, ms, core):
            core.write_reg(instr.rd, fn(core.read_reg(instr.rs1),
                                        instr.imm & imm_mask))
            return ms.pc + 4
    elif op == "sra":
        def handler(instr, ms, core):
            b = core.read_reg(instr.rs2)
            core.write_reg(instr.rd, fn(core.read_reg(instr.rs1), b))
            return ms.pc + 4
    else:
        def handler(instr, ms, core):
            core.write_reg(instr.rd, fn(core.read_reg(instr.rs1),
                                        core.read_reg(instr.rs2)))
            return ms.pc + 4
    handler.__name__ = handler.__qualname__ = f"_{op}"
    return handler


# div and rem: hand-written, they read rs2 and fault before reading rs1 ----
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
    "div": _div, "rem": _rem,
    "j": _j, "jal": _jal, "jr": _jr, "jalr": _jalr,
    "syscall": _syscall, "eret": _eret, "halt": _halt, "detect": _detect,
}
_BY_CLASS = {CLS_LOAD: _load, CLS_STORE: _store}


def _handler_table(xlen: int) -> dict:
    table = {}
    for op, d in BY_MNEMONIC.items():
        handler = _BY_CLASS.get(d.cls) if d.mem_bytes else None
        if handler is None and op in VALUE_FORMS[xlen]:
            handler = _value_handler(op, xlen)
        if handler is None:
            handler = _NAMED.get(op)
        if handler is None:  # pragma: no cover - import-time invariant
            raise RuntimeError(f"no semantics for {op}")
        table[op] = handler
    return table


#: xlen -> mnemonic -> ``handler(instr, ms, core) -> next pc``, one
#: entry per ``BY_MNEMONIC`` op (checked when the module is imported);
#: engines keep the entry for their xlen in their decode records
HANDLERS_BY_XLEN: dict = {xlen: _handler_table(xlen) for xlen in (32, 64)}


def execute(instr: Decoded, ms: MachineState, core: CoreAccess) -> int:
    """Execute one instruction; returns the next PC.

    Raises :class:`SimException` on architectural faults and
    :class:`DetectTrap` when a hardened binary signals detection.
    Hot loops keep ``HANDLERS_BY_XLEN[xlen][instr.op]`` in their decode
    records and call it directly; this is the same dispatch.
    """
    return HANDLERS_BY_XLEN[ms.xlen][instr.op](instr, ms, core)


def _link_reg(xlen: int) -> int:
    return 14 if xlen == 32 else 30

