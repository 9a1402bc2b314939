"""Shared infrastructure for the workload suite.

Workloads are written in mRISC assembly, generated from Python so that
lookup tables and input data (CRC tables, trigonometric tables,
S-boxes, images, texts) can be computed at build time and embedded as
``.word``/``.byte`` directives.  Every workload ships with a pure
Python *reference implementation* whose byte-exact output the
simulated golden run must reproduce — this is asserted in the test
suite and is what SDC detection diffs against.

Portability rules (so one source assembles for both ISAs and the
hardening transform can allocate shadow registers on mRISC-64):

* only ``r1``-``r12``, ``sp`` and ``lr`` are used;
* all arithmetic that must wrap at 32 bits uses the W-form mnemonics
  (``addw``, ``subw``, ``mulw``, ``sllw``, ``srlw``, ``sraw``), which
  the assembler lowers to the plain forms on mRISC-32.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

#: syscall numbers, duplicated here so workload sources do not import
#: kernel internals
SYS_EXIT = 0
SYS_WRITE = 1


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload: assembly source + byte-exact Python reference."""

    name: str
    description: str
    source: str
    reference: Callable[[], bytes]
    #: rough dynamic instruction count (documentation; tests sanity-
    #: check the real count is within 4x of this)
    approx_instructions: int = 0
    tags: tuple = field(default=())

    def reference_output(self) -> bytes:
        return self.reference()


# ---------------------------------------------------------------------------
# assembly emission helpers
# ---------------------------------------------------------------------------
def emit_write(buf_label: str, length: int | str,
               offset: int = 0) -> str:
    """Emit a ``sys_write(buf_label + offset, length)`` sequence."""
    lines = [f"    la   r2, {buf_label}"]
    if offset:
        lines.append(f"    addi r2, r2, {offset}")
    if isinstance(length, str):
        lines.append(f"    mv   r3, {length}")
    else:
        lines.append(f"    li   r3, {length}")
    lines += [f"    li   r1, {SYS_WRITE}", "    syscall"]
    return "\n".join(lines)


def emit_exit(code: int = 0) -> str:
    """Emit a ``sys_exit(code)`` sequence."""
    return "\n".join([f"    li   r2, {code}",
                      f"    li   r1, {SYS_EXIT}",
                      "    syscall"])


def data_words(label: str, values, per_line: int = 8) -> str:
    """Emit a labelled ``.word`` table."""
    out = [f"{label}:"]
    values = [v & 0xFFFF_FFFF for v in values]
    for i in range(0, len(values), per_line):
        chunk = ", ".join(f"{v:#x}" for v in values[i:i + per_line])
        out.append(f"    .word {chunk}")
    return "\n".join(out)


def data_bytes(label: str, blob: bytes, per_line: int = 16) -> str:
    """Emit a labelled ``.byte`` table."""
    out = [f"{label}:"]
    for i in range(0, len(blob), per_line):
        chunk = ", ".join(str(b) for b in blob[i:i + per_line])
        out.append(f"    .byte {chunk}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# deterministic pseudo-random input generation (xorshift32) — used by
# both the assembly .data generators and the Python references, so the
# two always agree.
# ---------------------------------------------------------------------------
def xorshift32_stream(seed: int, count: int) -> list[int]:
    """Deterministic 32-bit pseudo-random values (xorshift32)."""
    state = seed & 0xFFFF_FFFF or 1
    out = []
    for _ in range(count):
        state ^= (state << 13) & 0xFFFF_FFFF
        state ^= state >> 17
        state ^= (state << 5) & 0xFFFF_FFFF
        out.append(state)
    return out


def random_bytes(seed: int, count: int) -> bytes:
    return bytes(v & 0xFF for v in xorshift32_stream(seed, count))


# ---------------------------------------------------------------------------
# 32-bit arithmetic helpers for the Python references
# ---------------------------------------------------------------------------
def u32(value: int) -> int:
    return value & 0xFFFF_FFFF


def rotl32(value: int, n: int) -> int:
    value &= 0xFFFF_FFFF
    return ((value << n) | (value >> (32 - n))) & 0xFFFF_FFFF


def le32(value: int) -> bytes:
    return (value & 0xFFFF_FFFF).to_bytes(4, "little")
