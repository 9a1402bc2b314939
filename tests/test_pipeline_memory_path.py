"""Loads and stores the pipeline's run loop executes in place.

``PipelineEngine.run`` runs every load and store itself: the access
check, the L1D hit inside one line (served in line, as ``Cache.read``
and ``write`` would serve it), the ``read``/``write`` fallback for
misses and line-crossing accesses, the WD crossing on corrupted bytes,
sign extension and the LSQ entry.  The
ledger workloads need not reach every one of those paths, so a small
program here does: every load and store width, accesses that straddle
a 64-byte L1D line, cold misses, and stores followed by loads of the
same bytes.  It must run exactly as on the functional engine, and a
flipped L1D byte must cross at the load that reads it.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.faults.fault import FaultSpec
from repro.isa.assembler import assemble
from repro.isa.registers import MR32, MR64
from repro.kernel.loader import build_system_image
from repro.uarch.config import CORTEX_A9, CORTEX_A72
from repro.uarch.functional import FunctionalEngine, RunStatus
from repro.uarch.pipeline import PipelineEngine

CONFIG = {MR32: CORTEX_A9, MR64: CORTEX_A72}
LINE = 64
#: the data the loads read: signed and unsigned bytes in every lane
PATTERN = bytes((i * 37 + 0x80) & 0xFF for i in range(160))
#: bytes of the output buffer the program writes
OUT_LEN = 64


def _source(isa: str) -> str:
    wide = """
    lwu  r3, 4(r2)
    sd   r3, 40(r9)
    ld   r10, 60(r2)      # 8 bytes across the line at data + 64
    sd   r10, 48(r9)      # 8-byte store, then read back
    ld   r11, 48(r9)
    sd   r11, 56(r9)
""" if isa == MR64 else ""
    pattern = ", ".join(str(b) for b in PATTERN)
    return f"""
.text
_start:
    la   r2, data
    la   r9, out
    lb   r3, 0(r2)         # cold miss
    sw   r3, 0(r9)
    lbu  r3, 0(r2)
    sw   r3, 4(r9)
    lh   r3, 2(r2)
    sh   r3, 8(r9)
    lhu  r3, 2(r2)
    sh   r3, 10(r9)
hit:
    lbu  r4, 5(r2)
    sb   r4, 12(r9)
    lw   r5, 4(r2)
    sw   r5, 16(r9)
straddle:
    lw   r6, 62(r2)        # bytes 62..65: two lines, the second cold
    sw   r6, 20(r9)
    lh   r7, 127(r2)       # bytes 127..128
    sh   r7, 24(r9)
    li   r8, 0x1234abcd
    sw   r8, 126(r2)       # a store across the line at data + 128
    lw   r12, 126(r2)      # ...read back
    sw   r12, 28(r9)
    sh   r8, 8(r2)         # a store hit, then a load of it
    lhu  r13, 8(r2)
    sw   r13, 32(r9)
    sb   r8, 9(r2)
    lb   r13, 8(r2)
    sb   r13, 36(r9)
{wide}
    la   r2, out
    li   r3, {OUT_LEN}
    li   r1, 1
    syscall
    li   r1, 0
    li   r2, 7
    syscall
.data
data:
    .byte {pattern}
.align 64
out:
    .space {OUT_LEN}
"""


def _program(isa: str):
    program = assemble(_source(isa), isa, name="memory-path")
    # the straddling accesses above assume a line-aligned buffer
    assert program.symbols["data"] % LINE == 0
    return program


def _pipeline_regs(engine: PipelineEngine) -> list:
    rf = engine.rf
    return [rf.values[rf.rename_map[i]]
            for i in range(engine.regs_meta.count)]


@pytest.mark.parametrize("isa", [MR32, MR64])
def test_runs_as_on_the_functional_engine(isa):
    program = _program(isa)
    functional = FunctionalEngine(build_system_image(program))
    expect = functional.run()
    engine = PipelineEngine(build_system_image(program), CONFIG[isa])
    got = engine.run()
    assert expect.status is RunStatus.COMPLETED
    assert got.status is RunStatus.COMPLETED
    assert got.crossing is None
    assert (got.output, got.exit_code) == (expect.output, 7)
    assert _pipeline_regs(engine) == functional.regs
    assert len(got.output) == OUT_LEN
    # spot checks against the data: sign extension and the straddle
    out = got.output
    assert out[0:4] == (PATTERN[0] - 256).to_bytes(4, "little",
                                                   signed=True)
    assert out[4:8] == PATTERN[0].to_bytes(4, "little")
    assert out[20:24] == PATTERN[62:66]
    assert out[28:32] == (0x1234ABCD).to_bytes(4, "little")
    # the program went through both the hit paths and the fallbacks
    assert engine.l1d.misses >= 4 and engine.l1d.hits > engine.l1d.misses


def _site_before(program, config, label: str, addr: int) -> tuple:
    """``(cycle, set, way)`` of the L1D line holding *addr* after the
    instruction before *label* commits, in a fault-free run: a fault
    due at that cycle lands just before *label* executes."""
    target = program.symbols[label]
    site: list = []

    def step(engine):
        if engine.ms.pc == target and not site:
            l1d = engine.l1d
            index, tag = l1d._index_tag(addr)
            way = next(w for w, line in enumerate(l1d.sets[index])
                       if line.valid and line.tag == tag)
            site.extend((engine.fetch_time, index, way))
    engine = PipelineEngine(build_system_image(program), config)
    engine.observer = SimpleNamespace(step=step)
    engine.run()
    return tuple(site)


@pytest.mark.parametrize("isa", [MR32, MR64])
@pytest.mark.parametrize("label, offset, byte", [
    ("hit", 5, 5),            # an L1D hit, served in line
    ("straddle", 62, 63),     # line-crossing: the Cache.read fallback
])
def test_l1d_flip_in_a_loaded_byte_crosses_at_the_load(isa, label,
                                                       offset, byte):
    program = _program(isa)
    config = CONFIG[isa]
    data = program.symbols["data"]
    cycle, index, way = _site_before(program, config, label, data + byte)
    spec = FaultSpec("L1D", cycle, a=index, b=way,
                     c=(byte % LINE) * 8 + 2)
    engine = PipelineEngine(build_system_image(program), config,
                            faults=[spec])
    result = engine.run()
    assert result.fault_applied and result.fault_live
    crossing = result.crossing
    assert crossing is not None
    assert (crossing.fpm, crossing.mem_addr, crossing.arch_reg) \
        == ("WD", data + offset, None)
    assert crossing.cycle > cycle
