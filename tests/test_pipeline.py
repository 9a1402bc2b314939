"""Pipeline engine: architectural equivalence, timing plausibility."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.faults.fault import FaultSpec
from repro.faults.outcomes import classify
from repro.injectors.golden import golden_run
from repro.isa import layout
from repro.isa.assembler import assemble
from repro.isa.registers import MR32, MR64
from repro.kernel.loader import build_system_image
from repro.uarch.config import ALL_CONFIGS, CORTEX_A9, CORTEX_A72
from repro.uarch.exceptions import FaultKind
from repro.uarch.functional import run_functional
from repro.uarch.pipeline import PipelineEngine, run_pipeline
from repro.uarch.snapshot import OccupancySampler
from repro.workloads.suite import load_workload

FAST_WORKLOADS = ("crc32", "sha", "qsort")

#: fault-free timing ledger of FAST_WORKLOADS x ALL_CONFIGS; golden and
#: checkpoint caches are keyed by schema and package version, not by the
#: engine code, so a timing-model change must show up here instead
LEDGER = json.loads((Path(__file__).parent / "corpus" / "ledger"
                     / "pipeline-fault-free.json").read_text())["runs"]


class TestArchitecturalEquivalence:
    """The pipeline must compute exactly what the functional core does."""

    @pytest.mark.parametrize("workload", FAST_WORKLOADS)
    @pytest.mark.parametrize("config", ALL_CONFIGS,
                             ids=lambda c: c.name)
    def test_outputs_match_functional(self, workload, config):
        program = load_workload(workload, config.isa)
        functional = run_functional(program, kernel="sim")
        engine = PipelineEngine(build_system_image(program), config)
        occupancy = engine.observer = OccupancySampler()
        pipeline = engine.run()
        assert pipeline.status.value == "completed"
        assert pipeline.output == functional.output
        assert pipeline.exit_code == functional.exit_code
        assert pipeline.instructions == functional.instructions
        pinned = LEDGER[f"{workload}/{config.name}"]
        assert repr(pipeline.cycles) == pinned["cycles"]
        assert pipeline.instructions == pinned["instructions"]
        assert pipeline.kernel_instructions \
            == pinned["kernel_instructions"]
        assert occupancy.averages() == pinned["occupancy"]

    def test_crash_matches_functional(self):
        src = ".text\n_start:\n    li r4, 0\n    lw r5, 0(r4)\n"
        program = assemble(src, MR64)
        functional = run_functional(program)
        pipeline = run_pipeline(program, CORTEX_A72)
        assert pipeline.status.value == functional.status.value \
            == "sim-exception"
        assert pipeline.fault_kind is functional.fault_kind


class TestTimingModel:
    def test_cycles_grow_with_work(self):
        program = load_workload("crc32", MR64)
        small = run_pipeline(program, CORTEX_A72)
        program_big = load_workload("sha", MR64)
        big = run_pipeline(program_big, CORTEX_A72)
        assert big.cycles > small.cycles

    def test_ipc_in_plausible_range(self):
        for config in ALL_CONFIGS:
            program = load_workload("sha", config.isa)
            result = run_pipeline(program, config)
            ipc = result.instructions / result.cycles
            assert 0.05 < ipc <= config.commit_width, \
                f"{config.name}: IPC {ipc}"

    def test_configs_yield_different_cycle_counts(self):
        cycles = set()
        for config in ALL_CONFIGS:
            program = load_workload("qsort", config.isa)
            cycles.add(round(run_pipeline(program, config).cycles))
        assert len(cycles) == len(ALL_CONFIGS)

    def test_watchdog_cycle_limit(self):
        program = assemble(".text\n_start:\nx: j x", MR64)
        result = run_pipeline(program, CORTEX_A72, max_cycles=5000)
        assert result.status.value == "timeout"

    def test_watchdog_instruction_limit(self):
        program = assemble(".text\n_start:\nx: j x", MR64)
        result = run_pipeline(program, CORTEX_A72,
                              max_instructions=1000)
        assert result.status.value == "timeout"

    def test_commit_monotonic_cycle_positive(self):
        program = load_workload("crc32", MR32)
        result = run_pipeline(program, CORTEX_A9)
        assert result.cycles > result.instructions * 0.3


class TestStatsCollection:
    def test_occupancy_sampled(self):
        program = load_workload("sha", MR64)
        engine = PipelineEngine(build_system_image(program), CORTEX_A72)
        sampler = engine.observer = OccupancySampler()
        engine.run()
        occ = sampler.averages()
        assert set(occ) == {"RF", "LSQ", "L1I", "L1D", "L2"}
        assert 0.0 < occ["RF"] <= 1.0
        # tiny workloads cannot fill a 2 MiB L2
        assert occ["L2"] < 0.05
        # the architectural registers alone keep RF occupancy above
        # n_arch / n_phys at all times
        assert occ["RF"] >= 32 / 192 - 0.01

    def test_no_sample_before_the_first_stride(self):
        program = assemble(".text\n_start:\n    li r1, 0\n"
                           "    syscall\n", MR64)
        engine = PipelineEngine(build_system_image(program), CORTEX_A72)
        sampler = engine.observer = OccupancySampler()
        result = engine.run()
        assert result.instructions < OccupancySampler.every
        assert sampler.averages() == {}

    def test_cache_stats_present(self):
        program = load_workload("crc32", MR64)
        engine = PipelineEngine(build_system_image(program), CORTEX_A72)
        engine.run()
        assert engine.l1i.hits > 0
        assert engine.l1d.misses > 0
        assert engine.predictor.lookups > 0

    def test_kernel_instruction_attribution(self):
        program = load_workload("sha", MR64)
        result = run_pipeline(program, CORTEX_A72)
        assert 0 < result.kernel_instructions < result.instructions

    def test_isa_config_mismatch_rejected(self):
        program = load_workload("sha", MR32)
        with pytest.raises(ValueError):
            run_pipeline(program, CORTEX_A72)


class TestDmaDrain:
    def test_coherent_read_sees_dirty_cache_data(self):
        """Output written through the cache is visible to the DMA drain
        even before any writeback — the coherence the ESC channel
        relies on."""
        src = """
.text
_start:
    la r2, msg
    li r3, 4
    li r1, 1
    syscall
    li r1, 0
    li r2, 0
    syscall
.data
msg: .ascii "data"
"""
        program = assemble(src, MR64)
        result = run_pipeline(program, CORTEX_A72)
        assert result.output == b"data"


class TestRunLoopCaches:
    """The run loop decodes each raw word once per run and checks the
    fetch region once per I-cache line; neither cache may change what
    a run does."""

    def test_flip_in_already_executed_word(self):
        golden = golden_run("crc32", "cortex-a72")
        # lands in crc32's inner-loop line, mid-run
        spec = FaultSpec("L1I", golden.cycles * 0.5, a=1, b=0, c=5)
        engine = PipelineEngine(
            build_system_image(load_workload("crc32", MR64)), CORTEX_A72,
            faults=[spec], max_instructions=golden.max_instructions,
            max_cycles=golden.max_cycles)
        fetched = Counter()

        def before_flip(eng):
            if not eng.fault_applied:
                fetched[eng.ms.pc] += 1

        engine.observer = SimpleNamespace(step=before_flip)
        result = engine.run()
        crossing = result.crossing
        # the corrupted word had run many times before the flip
        assert fetched[crossing.mem_addr] > 10
        verdict = classify(result.status.value, result.output,
                           result.exit_code, golden.output,
                           golden.exit_code,
                           fault_kind=result.fault_kind,
                           fault_in_kernel=result.fault_in_kernel)
        # pinned from an engine that decoded every fetch afresh
        assert crossing.fpm == "WOI"
        assert repr(crossing.cycle) == "3409.6666666666674"
        assert verdict.outcome.value == "sdc"
        assert repr(result.cycles) == "5198.999999999981"

    def test_kernel_code_line_is_privileged_in_user_mode(self):
        # the write syscall runs kernel code from KERNEL_CODE_BASE, so
        # that line's region is already checked when user code jumps
        # into it
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
        program = assemble(src, MR64)
        functional = run_functional(program)
        pipeline = run_pipeline(program, CORTEX_A72)
        assert functional.fault_kind is FaultKind.PRIVILEGE_FAULT
        assert pipeline.status.value == "sim-exception"
        assert pipeline.fault_kind is functional.fault_kind
        assert pipeline.fault_in_kernel is functional.fault_in_kernel \
            is False
        assert pipeline.output == functional.output == b"ok"


class TestFetchFastPathAfterAFlip:
    """Only a live L1I flip can touch the line the fetch fast path
    holds; L1D and L2 flips leave it in place, so the next fetch adds
    no L1I lookup and a run can still match the golden digests."""

    @staticmethod
    def _flipped(structure: str) -> PipelineEngine:
        program = load_workload("crc32", MR64)
        engine = PipelineEngine(build_system_image(program), CORTEX_A72,
                                max_instructions=300)
        assert engine.run().status.value == "timeout"
        assert engine._fetch_line_base != -1
        engine._apply_fault(FaultSpec(structure, engine.fetch_time,
                                      0, 0, 5, prefer_live=True))
        assert engine.fault_live
        return engine

    @pytest.mark.parametrize("structure", ("L1D", "L2"))
    def test_data_side_flip_keeps_the_fetch_line(self, structure):
        engine = self._flipped(structure)
        assert engine._fetch_line_base != -1

    def test_l1i_flip_resets_the_fetch_line(self):
        assert self._flipped("L1I")._fetch_line_base == -1
