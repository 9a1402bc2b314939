"""``FunctionalEngine.run`` against a handler-stepping reference loop.

``run()`` executes value ops, branches, loads and stores itself from
the shared decode record, keeps the pc and the privilege mode in
locals and keeps the current code page between fetches.  The
reference below steps the engine the way the batch leader's clean
steps do: ``_fetch``, the commit trigger, then the instruction's
handler through the core adapter.  Both must leave the same registers,
machine state, instruction count, pages, output and fault.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.isa import layout
from repro.isa.assembler import assemble
from repro.isa.registers import ISA_NAMES, MR64
from repro.kernel.loader import build_system_image
from repro.uarch.exceptions import DetectTrap, FaultKind, SimException
from repro.uarch.functional import (FaultAction, FunctionalEngine,
                                    trigger_tables)
from repro.uarch.memory import Memory, Region, default_regions
from repro.uarch.snapshot import capture_functional, restore_functional
from repro.workloads.suite import WORKLOAD_NAMES, load_workload

PAGE = layout.PAGE_SIZE


def reference_run(engine: FunctionalEngine) -> tuple:
    """Step *engine* to its end with ``_fetch`` and the handlers;
    returns ``(status, fault_kind)`` as ``run()`` reports them."""
    ms = engine.ms
    commit_t, _ = trigger_tables(engine._actions)
    counters = engine._counters
    host = engine.kernel_mode_kind == "host"
    try:
        while not ms.halted:
            if engine.executed >= engine.max_instructions:
                return "timeout", None
            record = engine._fetch()
            instr, handler, is_syscall = record[0], record[1], record[12]
            if engine._actions:
                for action in commit_t.get(counters["commit"], ()):
                    action.apply(engine)
                counters["commit"] += 1
            if is_syscall and host:
                ms.pc += 4
                engine._host_syscall()
            else:
                ms.pc = handler(instr, ms, engine._core)
            engine.executed += 1
    except SimException as exc:
        return "sim-exception", exc.kind
    except DetectTrap:
        return "detected", None
    return "completed", None


def _end_state(engine: FunctionalEngine, status: str, fault_kind) -> dict:
    ms = engine.ms
    return {
        "status": status,
        "fault_kind": fault_kind,
        "regs": list(engine.regs),
        "ms": (ms.pc, ms.mode, ms.kepc, ms.halted, ms.exit_code),
        "executed": engine.executed,
        "pages": {base: bytes(page)
                  for base, page in engine.memory.iter_pages()},
        "output": engine._collect_output(),
    }


def _both(build) -> dict:
    """The end state of ``run()`` on one engine from *build()*, after
    checking it equals the reference's on another."""
    engine = build()
    result = engine.run()
    got = _end_state(engine, result.status.value, result.fault_kind)
    assert got["output"] == result.output
    reference = build()
    want = _end_state(reference, *reference_run(reference))
    assert got == want
    return got


def _image(src: str, regions=None):
    program = assemble(src, MR64)
    image = build_system_image(program)
    if regions is not None:
        memory = Memory(regions)
        memory.load_image(image.user.sections)
        memory.load_image(image.kernel.sections)
        image = dataclasses.replace(image, memory=memory)
    return program, image


EXIT = """
    li   r1, 0
    li   r2, 0
    syscall
"""


@pytest.mark.parametrize("kernel", ["sim", "host"])
@pytest.mark.parametrize("isa", ISA_NAMES)
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_runs_match_the_reference(workload, isa, kernel):
    program = load_workload(workload, isa)
    state = _both(lambda: FunctionalEngine(build_system_image(program),
                                           kernel=kernel))
    assert state["status"] == "completed"


#: three bytes before the end of .data's page, and a user-data page
#: nothing writes before the program does
EDGE = layout.USER_DATA_BASE + PAGE - 3
FAR = layout.USER_DATA_BASE + 5 * PAGE

STRADDLE = f"""
.text
_start:
    li   r2, {EDGE}
    li   r3, 0x7A6B5C4D
    slli r3, r3, 24
    ori  r3, r3, 0x5A81
    sd   r3, 0(r2)
    ld   r4, 0(r2)
    lw   r5, 1(r2)
    lh   r6, 2(r2)
    lbu  r7, 3(r2)
    sh   r3, 2(r2)
    lhu  r8, 2(r2)
    li   r10, {FAR}
    lw   r11, 0(r10)
    lb   r12, {PAGE - 1}(r10)
    ld   r13, {PAGE - 4}(r10)
    sd   r3, 8(r10)
    ld   r14, 8(r10)
{EXIT}
.data
buf: .space 16
"""


def test_page_straddling_and_untouched_page_accesses():
    state = _both(lambda: FunctionalEngine(_image(STRADDLE)[1]))
    assert state["status"] == "completed"
    regs = state["regs"]
    assert regs[4] == regs[3]
    assert regs[11] == regs[12] == regs[13] == 0
    assert regs[14] == regs[3]
    # the straddling sd created the page after .data's
    assert EDGE + 3 in state["pages"]


FROZEN = f"""
.text
_start:
    la   r2, word
    ld   r3, 0(r2)
    addi r3, r3, 7
    sd   r3, 0(r2)
    ld   r4, 0(r2)
    sw   r4, 8(r2)
    lw   r5, 8(r2)
{EXIT}
.data
word: .dword 0x1234
      .dword 0
"""


def test_store_into_a_frozen_checkpoint_page_then_load_back():
    program, image = _image(FROZEN)
    state = capture_functional(FunctionalEngine(image))
    frozen = dict(state["pages"])
    data_page = program.symbols["word"] & ~(PAGE - 1)
    assert data_page in frozen

    def build():
        engine = FunctionalEngine(_image(FROZEN)[1])
        restore_functional(engine, state)
        assert data_page not in engine.memory._pages
        return engine

    end = _both(build)
    assert end["regs"][4] == end["regs"][5] == 0x1234 + 7
    assert state["pages"] == frozen
    assert all(state["pages"][base] is frozen[base] for base in frozen)


def _word(line: str) -> int:
    return int.from_bytes(
        assemble(f".text\n_start:\n    {line}\n", MR64)
        .section(".text").data[:4], "little")


PATCH = f"""
.text
_start:
    la   r2, patch
    li   r3, {_word("addi r5, r0, 9")}
    sw   r3, 0(r2)
patch:
    addi r5, r0, 1
{EXIT}
"""


def test_store_into_the_frozen_code_page_runs_the_new_word():
    """The store and the patched word share a frozen code page, so
    only dropping the kept code page after the store lets the next
    fetch read the private copy the store made."""
    _, image = _image(PATCH)
    state = capture_functional(FunctionalEngine(image))

    def build():
        engine = FunctionalEngine(_image(PATCH)[1])
        restore_functional(engine, state)
        return engine

    assert _both(build)["regs"][5] == 9


COUNTING = f"""
.text
_start:
    li   r4, 5
    li   r5, 0
loop:
    addi r5, r5, 1
    addi r4, r4, -1
    bnez r4, loop
    la   r2, out
    sw   r5, 0(r2)
    li   r3, 4
    li   r1, 1
    syscall
{EXIT}
.data
out: .space 4
"""


def test_commit_code_flip_of_a_word_that_runs_again():
    """The loop's three words share a frozen code page with no store
    or handler between their fetches, so only dropping the kept code
    page after the action lets the next fetch see the flipped word."""
    program, image = _image(COUNTING)
    state = capture_functional(FunctionalEngine(image))
    loop = program.symbols["loop"]
    # instructions 2, 5, 8, ... are the loop head's visits
    third_visit = 2 + 3 * 2

    def flip(engine):
        # addi r5, r5, 1 -> addi r5, r5, 3 (immediate bit 1)
        addr = engine.ms.pc & 0xFFFF_FFFF
        assert addr == loop
        engine.memory.write_int(addr, engine.memory.read_int(addr, 4) ^ 2,
                                4)

    def build():
        engine = FunctionalEngine(_image(COUNTING)[1])
        restore_functional(engine, state)
        engine.schedule(FaultAction("commit", third_visit, flip))
        return engine

    end = _both(build)
    assert int.from_bytes(end["output"], "little") == 3 + 2 * 3


KERNEL_LOAD = f"""
.text
_start:
    la   r2, msg
    li   r3, 2
    li   r1, 1
    syscall
    li   r4, {layout.KERNEL_DATA_BASE}
bad:
    lw   r5, 0(r4)
{EXIT}
.data
msg: .ascii "ok"
"""

ROM = 0x0004_0000

READ_ONLY_STORE = f"""
.text
_start:
    li   r4, {ROM}
    lw   r5, 0(r4)
bad:
    sw   r5, 4(r4)
{EXIT}
"""

MISALIGNED = """
.text
_start:
    la   r4, target
    addi r4, r4, 2
    jr   r4
target:
    nop
"""

UNMAPPED = """
.text
_start:
    li   r4, 0x50000
    jr   r4
"""

UNTOUCHED_CODE = f"""
.text
_start:
    li   r4, {layout.USER_CODE_BASE + 8 * PAGE}
    jr   r4
"""


def _rom_regions():
    return default_regions() + [Region("rom", ROM, ROM + PAGE,
                                       writable=False)]


@pytest.mark.parametrize("src, regions, kind, pc", [
    (KERNEL_LOAD, None, FaultKind.PRIVILEGE_FAULT, "bad"),
    (READ_ONLY_STORE, _rom_regions, FaultKind.ACCESS_FAULT, "bad"),
    (MISALIGNED, None, FaultKind.MISALIGNED, "target+2"),
    (UNMAPPED, None, FaultKind.FETCH_FAULT, 0x50000),
    (UNTOUCHED_CODE, None, FaultKind.ILLEGAL_INSTRUCTION,
     layout.USER_CODE_BASE + 8 * PAGE),
], ids=["user-load-of-kernel-data", "store-to-read-only",
        "misaligned-pc", "fetch-from-unmapped", "fetch-from-untouched"])
def test_faults_leave_the_pc_at_the_faulting_instruction(src, regions,
                                                          kind, pc):
    program, _ = _image(src)
    if pc == "bad":
        pc = program.symbols["bad"]
    elif pc == "target+2":
        pc = program.symbols["target"] + 2
    state = _both(lambda: FunctionalEngine(_image(
        src, regions() if regions is not None else None)[1]))
    assert state["status"] == "sim-exception"
    assert state["fault_kind"] is kind
    assert state["ms"][0] == pc
