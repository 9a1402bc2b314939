"""The value table (``cpu.VALUE_FORMS``) against the semantics ledger.

Every ALU op but div/rem and every conditional branch has one
arithmetic definition, a value function in ``repro.uarch.cpu``; an
immediate op runs its register-register op's function on an operand
masked out of the immediate.  The pipeline's run loop calls those
functions directly, ``cpu.HANDLERS_BY_XLEN`` is generated from them,
and the batched engine runs their lane forms (``cpu.LANE_FORMS``) on
uint64 lane vectors.  ``corpus/ledger/semantics.json`` was recorded
from hand-written handlers, so checking the value forms against it
checks the arithmetic all three execute.
"""

from __future__ import annotations

import inspect
import json
import re

import numpy as np
import pytest

from repro.isa.instructions import BY_MNEMONIC
from repro.isa.registers import ISA_NAMES, register_set
from repro.kernel.loader import build_system_image
from repro.uarch import batch
from repro.uarch.config import CORTEX_A9, CORTEX_A72
from repro.uarch.cpu import HANDLERS_BY_XLEN, LANE_FORMS, VALUE_FORMS
from repro.uarch.functional import (_ALU, _BRANCH, FaultAction,
                                   FunctionalEngine, cached_decode,
                                   decode_record)
from repro.uarch.pipeline import PipelineEngine, run_record
from repro.workloads.suite import load_workload
from tests.ledgers import GRID_PC, RD, SEMANTICS_PATH, semantics_cases

LEDGER = json.loads(SEMANTICS_PATH.read_text())["isa"]
WRITE = re.compile(rf"\bw{RD}=(0x[0-9a-f]+)")
NEXT = re.compile(r"next=(-?0x[0-9a-f]+)")


def _value_cases(isa):
    """``(op, label, instr, form, a, b, recorded entry)`` for every
    grid point of an op with a value form."""
    xlen = register_set(isa).xlen
    seen: dict = {}
    for op, label, instr, _xlen, _mode, a, b in semantics_cases(isa):
        index = seen[op] = seen.get(op, -1) + 1
        form = VALUE_FORMS[xlen].get(op)
        if form is not None:
            yield op, label, instr, form, a, b, LEDGER[isa][op][index]


def test_value_forms_cover_the_alu_and_conditional_branches():
    expect = {op for op, d in BY_MNEMONIC.items()
              if d.cls in ("alu", "mul") or d.fmt == "B"}
    for xlen, forms in VALUE_FORMS.items():
        assert set(forms) == expect, xlen
    assert not expect & {"div", "rem", "j", "jal", "jr", "jalr"}


@pytest.mark.parametrize("isa", ISA_NAMES)
def test_value_forms_reproduce_the_ledger(isa):
    bad = []
    n = 0
    for op, label, instr, form, a, b, entry in _value_cases(isa):
        n += 1
        fn, imm_mask = form
        if imm_mask is not None:
            # lui reads no register: its a is 0
            a = 0 if op == "lui" else a
            b = instr.imm & imm_mask
        if BY_MNEMONIC[op].fmt == "B":
            got = GRID_PC + 4 + instr.imm if fn(a, b) else GRID_PC + 4
            want = int(NEXT.search(entry).group(1), 16)
        else:
            got = fn(a, b)
            want = int(WRITE.search(entry).group(1), 16)
            assert type(got) is int, (op, label)
        if got != want:
            bad.append(f"{op} {label}: want {want:#x} got {got:#x}")
    assert n > 1000
    assert not bad, f"{len(bad)} grid points differ:\n" + "\n".join(bad[:10])


@pytest.mark.parametrize("xlen", [32, 64])
@pytest.mark.parametrize("op", sorted(VALUE_FORMS[64]))
def test_handlers_are_built_from_the_value_table(op, xlen):
    handler = HANDLERS_BY_XLEN[xlen][op]
    refs = inspect.getclosurevars(handler)
    # the handler closes over the value table's own function and calls
    # no module-level helper (to_signed, sext32), so no second copy of
    # the arithmetic can hide behind it
    form = VALUE_FORMS[xlen][op]
    assert refs.nonlocals["fn"] is form.fn
    assert refs.nonlocals.get("imm_mask", form.imm_mask) == form.imm_mask
    assert not refs.globals, op


#: the ops whose lane form is an array-safe variant of the int form
LANE_VARIANTS = {"sra", "srai", "sraw", "slt", "slti", "sltu"}


def test_lane_forms_share_the_value_functions():
    for xlen, forms in VALUE_FORMS.items():
        lanes = LANE_FORMS[xlen]
        assert set(lanes) == set(forms)
        for op, form in forms.items():
            assert lanes[op].imm_mask == form.imm_mask, (xlen, op)
            assert (lanes[op].fn is form.fn) == (op not in LANE_VARIANTS), \
                (xlen, op)


@pytest.mark.parametrize("isa", ISA_NAMES)
def test_lane_forms_reproduce_the_ledger(isa):
    # one lane per grid point of an op, operands as the batched engine
    # passes them: uint64 vectors, an immediate masked to 64 bits
    xlen = register_set(isa).xlen
    grid: dict = {}
    for op, label, instr, form, a, b, entry in _value_cases(isa):
        grid.setdefault(op, []).append((label, instr, a, b, entry))
    bad = []
    for op, points in grid.items():
        fn, imm_mask = LANE_FORMS[xlen][op]
        a = np.array([0 if op == "lui" else p[2] for p in points],
                     dtype=np.uint64)
        if imm_mask is None:
            b = np.array([p[3] for p in points], dtype=np.uint64)
        else:
            b = np.array([p[1].imm & imm_mask & batch.FULL
                          for p in points], dtype=np.uint64)
        got = fn(a, b)
        assert got.shape == (len(points),), op
        for (label, instr, _, _, entry), value in zip(points, got):
            if BY_MNEMONIC[op].fmt == "B":
                value = GRID_PC + 4 + instr.imm if value else GRID_PC + 4
                want = int(NEXT.search(entry).group(1), 16)
            else:
                want = int(WRITE.search(entry).group(1), 16)
            if int(value) != want:
                bad.append(f"{op} {label}: want {want:#x} got "
                           f"{int(value):#x}")
    assert set(grid) == {op for op in VALUE_FORMS[xlen]
                         if xlen == 64 or not BY_MNEMONIC[op].mr64_only}
    assert not bad, f"{len(bad)} grid points differ:\n" + "\n".join(bad[:10])


@pytest.mark.parametrize("config", [CORTEX_A9, CORTEX_A72])
def test_pipeline_records_hold_the_value_table(config):
    program = load_workload("crc32", config.isa)
    engine = PipelineEngine(build_system_image(program), config)
    forms = VALUE_FORMS[engine.regs_meta.xlen]
    text = program.section(".text").data
    seen = set()
    for off in range(0, len(text), 4):
        word = int.from_bytes(text[off:off + 4], "little")
        (instr, _, kind, _, _, _, fn, operand, *_) = run_record(
            decode_record(word, engine.regs_meta), config)
        form = forms.get(instr.op)
        if form is None:
            assert kind not in (_ALU, _BRANCH) and fn is None
            continue
        seen.add(instr.op)
        assert fn is form.fn
        assert kind == (_BRANCH if instr.d.fmt == "B" else _ALU)
        assert operand == (0 if form.imm_mask is None
                           else instr.imm & form.imm_mask)
    assert {"addi", "lui", "add"} <= seen
    assert seen & {"beq", "bne", "blt", "bge", "bltu", "bgeu"}


@pytest.mark.parametrize("workload", ["crc32", "sha"])
@pytest.mark.parametrize("config", [CORTEX_A9, CORTEX_A72])
def test_batch_lane_records_hold_the_lane_forms(config, workload):
    program = load_workload(workload, config.isa)
    engine = FunctionalEngine(build_system_image(program))
    batched = batch.BatchedFunctionalEngine(
        engine, [FaultAction("commit", 0, lambda eng: None)])
    forms = LANE_FORMS[engine.ms.xlen]
    text = program.section(".text").data
    seen = set()
    for off in range(0, len(text), 4):
        word = int.from_bytes(text[off:off + 4], "little")
        instr = cached_decode(word, engine.regs_meta)
        kind, fn, operand = batched._lane_record(instr)
        form = forms.get(instr.op)
        if form is None:
            assert kind not in (batch._ALU, batch._BRANCH)
            continue
        seen.add(instr.op)
        assert fn is form.fn
        if instr.d.fmt == "B":
            assert kind == batch._BRANCH and operand is None
        elif instr.op == "lui":
            assert kind == batch._UNIFORM
        else:
            assert kind == batch._ALU
            assert operand == (None if form.imm_mask is None else np.uint64(
                instr.imm & form.imm_mask & batch.FULL))
    assert {"addi", "lui", "add"} <= seen
    assert seen & {"beq", "bne", "blt", "bge", "bltu", "bgeu"}
