"""The functional engine against its recorded run ledger, plus the
fetch cases the ledger's workloads never reach.

``corpus/ledger/functional-runs.json`` was recorded before the engine
gained per-word decode records, per-page fetch-region checks and
trigger tables (see ``tests/ledgers.py``): fault-free runs of every
workload on both ISAs under both kernels, and pvf WD/WOI/WI and svf
runs on the slow path and on a restored checkpoint.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.isa import layout
from repro.isa.assembler import assemble
from repro.isa.registers import MR64
from repro.kernel.loader import build_system_image
from repro.uarch.exceptions import FaultKind
from repro.uarch.functional import (FaultAction, FunctionalEngine,
                                    RunStatus)
from repro.uarch.memory import Memory, Region, default_regions
from repro.uarch.snapshot import capture_functional, restore_functional
from repro.uarch.trace import trace_program
from tests.ledgers import (FUNCTIONAL_RUNS_PATH, fault_free_run,
                           faulty_cases, faulty_run)

LEDGER = json.loads(FUNCTIONAL_RUNS_PATH.read_text())


def _diff(want: dict, got: dict) -> dict:
    return {key: (want.get(key), got.get(key))
            for key in sorted(want.keys() | got.keys())
            if want.get(key) != got.get(key)}


class TestFunctionalRunLedger:
    @pytest.mark.parametrize("key", sorted(LEDGER["fault_free"]))
    def test_fault_free_run(self, key):
        workload, isa, kernel = key.split("/")
        want = LEDGER["fault_free"][key]
        got = fault_free_run(workload, isa, kernel)
        if got["digests"] != want["digests"]:
            first = next(i for i, (w, g) in enumerate(
                zip(want["digests"], got["digests"])) if w != g) \
                if len(got["digests"]) == len(want["digests"]) else "len"
            pytest.fail(f"state digest {first} (every 997 instructions) "
                        f"differs")
        assert _diff(want, got) == {}

    def test_faulty_runs(self):
        want = LEDGER["faulty"]
        got = {key: faulty_run(action, build)
               for key, action, build in faulty_cases()}
        assert sorted(got) == sorted(want)
        bad = {key: _diff(want[key], got[key]) for key in want
               if want[key] != got[key]}
        assert bad == {}


COUNTING = """
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
    li   r1, 0
    li   r2, 0
    syscall
.data
out: .space 4
"""


class TestFetchEdgeCases:
    def test_code_flip_under_frozen_backing_shows_at_next_fetch(self):
        """A flip of the word about to execute at commit k lands after
        its fetch: instruction k runs unflipped, the next fetch of that
        pc decodes the flipped word, though the page was served from a
        checkpoint's frozen bytes until the flip copied it."""
        program = assemble(COUNTING, MR64)
        loop = program.symbols["loop"]
        visits = [e.index for e in trace_program(program).entries
                  if e.pc == loop]
        assert len(visits) == 5
        state = capture_functional(
            FunctionalEngine(build_system_image(program)))
        frozen = dict(state["pages"])
        page = loop & ~(layout.PAGE_SIZE - 1)

        engine = FunctionalEngine(build_system_image(program))
        restore_functional(engine, state)
        assert page not in engine.memory._pages
        seen = {}

        def flip(e):
            # addi r5, r5, 1 -> addi r5, r5, 3 (immediate bit 1)
            seen["private_before"] = page in e.memory._pages
            addr = e.ms.pc & 0xFFFF_FFFF
            e.memory.write_int(addr, e.memory.read_int(addr, 4) ^ 2, 4)

        engine.schedule(FaultAction("commit", visits[2], flip))
        result = engine.run()
        assert result.status is RunStatus.COMPLETED
        # iterations 0-2 add 1, iterations 3-4 run the flipped word
        assert int.from_bytes(result.output, "little") == 3 + 2 * 3
        assert seen == {"private_before": False}
        assert page in engine.memory._pages
        assert state["pages"] == frozen
        assert all(state["pages"][base] is frozen[base] for base in frozen)

    def test_fetch_past_a_region_ending_mid_page_faults(self):
        """A region that ends mid-page never lets its page skip the
        region lookup: the fetch just past its end is a fetch fault,
        though the word there decodes."""
        body = "\n".join("    nop" for _ in range(32))
        program = assemble(f".text\n_start:\n{body}\n", MR64)
        end = layout.USER_CODE_BASE + 16 * 4
        assert end % layout.PAGE_SIZE
        regions = [Region("user-code", layout.USER_CODE_BASE, end)
                   if region.name == "user-code" else region
                   for region in default_regions()]
        image = build_system_image(program)
        memory = Memory(regions)
        memory.load_image(image.user.sections)
        memory.load_image(image.kernel.sections)
        engine = FunctionalEngine(dataclasses.replace(image, memory=memory))
        result = engine.run()
        assert result.status is RunStatus.SIM_EXCEPTION
        assert result.fault_kind is FaultKind.FETCH_FAULT
        assert result.instructions == 16
        assert memory.read_int(end, 4) == memory.read_int(end - 4, 4)

    def test_kernel_page_fetched_in_kernel_mode_stays_privileged(self):
        """The write syscall runs kernel code from KERNEL_CODE_BASE, so
        that page's region is already known when user code jumps into
        it; the privilege check still runs on that fetch."""
        src = f"""
.text
_start:
    la r2, msg
    li r3, 2
    li r1, 1
    syscall
    li r4, {layout.KERNEL_CODE_BASE}
    jr r4
.data
msg: .ascii "ok"
"""
        engine = FunctionalEngine(build_system_image(assemble(src, MR64)))
        result = engine.run()
        assert engine.memory._page_region[
            layout.KERNEL_CODE_BASE].kernel_only is True
        assert result.fault_kind is FaultKind.PRIVILEGE_FAULT
        assert result.fault_in_kernel is False
        assert result.output == b"ok"
