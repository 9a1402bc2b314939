"""The per-mnemonic handler table against the recorded semantics ledger.

``corpus/ledger/semantics.json`` holds, for every mnemonic valid on
each ISA and every point of an edge-operand grid (``tests/ledgers.py``),
the register reads and writes, memory calls, next pc, ``ms`` state and
fault of one execution, recorded before the semantics moved from one
``if op == ...`` chain into a table of handlers.
"""

from __future__ import annotations

import json

import pytest

from repro.isa.instructions import BY_MNEMONIC
from repro.isa.registers import ISA_NAMES
from repro.uarch.cpu import HANDLERS_BY_XLEN, execute
from tests.ledgers import SEMANTICS_PATH, semantics_cases, semantics_entry

LEDGER = json.loads(SEMANTICS_PATH.read_text())["isa"]


def _through_table(instr, ms, core):
    return HANDLERS_BY_XLEN[ms.xlen][instr.op](instr, ms, core)


def _mismatches(isa, run):
    seen: dict = {}
    bad = []
    for op, label, instr, xlen, mode, a, b in semantics_cases(isa):
        index = seen[op] = seen.get(op, -1) + 1
        got = semantics_entry(run, instr, xlen, mode, a, b)
        want = LEDGER[isa][op][index]
        if got != want:
            bad.append(f"{op} {label}:\n  want {want}\n  got  {got}")
    return seen, bad


class TestSemanticsLedger:
    @pytest.mark.parametrize("isa", ISA_NAMES)
    def test_handler_table_reproduces_ledger(self, isa):
        seen, bad = _mismatches(isa, _through_table)
        assert not bad, f"{len(bad)} grid points differ:\n" \
            + "\n".join(bad[:10])
        # the grid still covers exactly what was recorded
        assert {op: n + 1 for op, n in seen.items()} \
            == {op: len(rows) for op, rows in LEDGER[isa].items()}

    @pytest.mark.parametrize("isa", ISA_NAMES)
    def test_execute_dispatches_through_the_table(self, isa):
        _, bad = _mismatches(isa, execute)
        assert not bad, bad[:10]

    def test_table_covers_every_mnemonic(self):
        # one handler per opcode-table entry, so an op without
        # semantics cannot decode in the first place
        for handlers in HANDLERS_BY_XLEN.values():
            assert set(handlers) == set(BY_MNEMONIC)
            assert all(callable(handler) for handler in handlers.values())

    def test_loads_and_stores_share_a_handler_by_class(self):
        for handlers in HANDLERS_BY_XLEN.values():
            by_class: dict = {}
            for op, d in BY_MNEMONIC.items():
                if d.cls in ("load", "store"):
                    by_class.setdefault(d.cls, set()).add(handlers[op])
            assert {cls: len(h) for cls, h in by_class.items()} \
                == {"load": 1, "store": 1}
