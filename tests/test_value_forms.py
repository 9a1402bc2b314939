"""The value table (``cpu.VALUE_FORMS``) against the semantics ledger.

Every ALU op but div/rem and every conditional branch has one
arithmetic definition, a value function in ``repro.uarch.cpu``; an
immediate op runs its register-register op's function on an operand
masked out of the immediate.  The pipeline's run loop calls
those functions directly, and ``cpu.HANDLERS`` is generated from them.
``corpus/ledger/semantics.json`` was recorded from hand-written
handlers, so checking the value forms against it checks the arithmetic
the run loop executes.
"""

from __future__ import annotations

import inspect
import json
import re

import pytest

from repro.isa.instructions import BY_MNEMONIC
from repro.isa.registers import ISA_NAMES, register_set
from repro.kernel.loader import build_system_image
from repro.uarch.config import CORTEX_A9, CORTEX_A72
from repro.uarch.cpu import HANDLERS, HANDLERS_BY_XLEN, VALUE_FORMS
from repro.uarch.functional import cached_decode
from repro.uarch.pipeline import _ALU, _BRANCH, PipelineEngine
from repro.workloads.suite import load_workload
from tests.ledgers import (GRID_PC, RD, SEMANTICS_PATH, semantics_cases,
                           semantics_entry)

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


@pytest.mark.parametrize("isa", ISA_NAMES)
def test_handlers_run_what_the_per_xlen_table_runs(isa):
    # HANDLERS (what the semantics ledger runs) and the per-xlen table
    # the engines run agree at every grid point of a value-form op
    bad = []
    for op, label, instr, xlen, mode, a, b in semantics_cases(isa):
        if op not in VALUE_FORMS[xlen]:
            continue
        want = semantics_entry(HANDLERS_BY_XLEN[xlen][op], instr, xlen,
                               mode, a, b)
        got = semantics_entry(HANDLERS[op], instr, xlen, mode, a, b)
        if got != want:
            bad.append(f"{op} {label}: want {want} got {got}")
    assert not bad, bad[:10]


@pytest.mark.parametrize("config", [CORTEX_A9, CORTEX_A72])
def test_pipeline_records_hold_the_value_table(config):
    program = load_workload("crc32", config.isa)
    engine = PipelineEngine(build_system_image(program), config)
    forms = VALUE_FORMS[engine.regs_meta.xlen]
    text = program.section(".text").data
    seen = set()
    for off in range(0, len(text), 4):
        word = int.from_bytes(text[off:off + 4], "little")
        instr = cached_decode(word, engine.regs_meta)
        (_, _, _, _, _, kind, fn, operand,
         *_) = engine._decode_record(instr, {"div": 1.0})
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
