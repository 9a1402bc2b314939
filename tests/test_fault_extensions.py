"""Extension fault models: tag-bit corruption and multi-bit upsets."""

from __future__ import annotations

import pytest

from repro.faults.fault import FaultSpec, fault_site_bit
from repro.faults.outcomes import Outcome
from repro.injectors.gefin import run_one_injection
from repro.injectors.golden import golden_run
from repro.obs.tracing import FaultTracer
from repro.uarch.cache import Cache, MemoryPort, TaintProbe
from repro.uarch.config import CORTEX_A72
from repro.uarch.memory import Memory, Region


def small_cache():
    memory = Memory(regions=[Region("all", 0, 1 << 20)])
    return memory, Cache("L1", 512, 2, 64, 2, MemoryPort(memory, 50))


class TestTagFaults:
    def test_tag_width(self):
        _, cache = small_cache()
        # 512B / (2*64) = 4 sets -> 32 - 2 - 6 = 24 tag bits
        assert cache.tag_bits == 24

    def test_tag_flip_on_invalid_line_dead(self):
        _, cache = small_cache()
        assert cache.flip_tag_bit(0, 0, 3) == {"live": False}
        assert cache.flip_tag_bit(0, 5, 3) == {"live": False}

    def test_tag_flip_loses_original_address(self):
        memory, cache = small_cache()
        memory.write(0x000, b"\xAA" * 64)
        cache.read(0x000, 4)
        index, _ = cache._index_tag(0x000)
        info = cache.flip_tag_bit(index, 0, 0)
        assert info["live"]
        # the original address now misses and refetches clean data;
        # a read of the *aliased* address returns the old (tainted)
        # line content
        aliased = cache.line_base(index, info["new_tag"])
        data, _, tainted = cache.read(aliased, 4, TaintProbe())
        assert tainted
        assert data == b"\xAA" * 4

    def test_dirty_tag_flip_writes_back_to_wrong_address(self):
        memory, cache = small_cache()
        probe = TaintProbe()
        cache.write(0x000, b"\x55" * 64, probe)       # dirty line
        index, _ = cache._index_tag(0x000)
        # a far-out tag bit so the alias is not among the probe reads
        info = cache.flip_tag_bit(index, 0, 10)
        wrong_base = cache.line_base(index, info["new_tag"])
        # force the eviction of the corrupted line (fill the set)
        cache.read(0x100, 4, probe)
        cache.read(0x200, 4, probe)
        cache.read(0x300, 4, probe)
        assert memory.read(wrong_base, 4) == b"\x55" * 4
        assert memory.read(0x000, 4) == b"\x00" * 4   # data lost

    def test_tag_fault_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("RF", 1.0, a=0, b=0, kind="tag")
        with pytest.raises(ValueError):
            FaultSpec("L1D", 1.0, a=0, b=0, kind="parity")
        FaultSpec("L1D", 1.0, a=0, b=0, kind="tag")  # fine

    def test_end_to_end_tag_injection(self):
        golden = golden_run("crc32", "cortex-a72")
        spec = FaultSpec("L1D", golden.cycles * 0.3, a=0, b=0,
                         kind="tag", prefer_live=True)
        result = run_one_injection("crc32", CORTEX_A72, spec, golden)
        assert result.fault_applied
        assert result.outcome in {o.value for o in Outcome}

    def test_landing_text_reports_folded_tag_bit(self):
        golden = golden_run("crc32", "cortex-a72")
        # c lies far beyond the tag width, so the flip folds it
        spec = FaultSpec("L1D", golden.cycles * 0.3, a=0, b=0, c=300,
                         kind="tag", prefer_live=True)
        tracer = FaultTracer()
        run_one_injection("crc32", CORTEX_A72, spec, golden,
                          tracer=tracer)
        landed = [e.detail for e in tracer.events if e.kind == "landed"]
        assert len(landed) == 1
        folded = fault_site_bit(CORTEX_A72, spec)
        assert folded < 300
        assert f"tag bit {folded} " in landed[0]


class TestMultiBitFaults:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("RF", 1.0, a=0, b=0, n_bits=0)
        FaultSpec("RF", 1.0, a=0, b=0, n_bits=2)

    def test_double_bit_flips_adjacent_register_bits(self):
        from repro.isa.registers import MR64
        from repro.kernel.loader import build_system_image
        from repro.uarch.pipeline import PipelineEngine
        from repro.workloads.suite import load_workload

        program = load_workload("crc32", MR64)
        image = build_system_image(program)
        engine = PipelineEngine(
            image, CORTEX_A72,
            faults=[FaultSpec("RF", 50.0, a=7, b=4, n_bits=2)],
            max_instructions=50_000, max_cycles=100_000.0)
        # apply the fault manually to observe the state change
        before = engine.rf.values[7]
        engine._apply_due_faults.__self__._apply_fault(engine.faults[0])
        after = engine.rf.values[7]
        assert before ^ after == 0b11 << 4

    def test_multibit_at_least_as_vulnerable_on_average(self):
        """Adjacent double-bit upsets cannot be less visible than the
        single-bit faults they contain (statistically, on live state)."""
        golden = golden_run("crc32", "cortex-a72")
        single = double = 0
        for index in range(12):
            base = dict(a=index % 8 + 1, b=(index * 7) % 60,
                        prefer_live=True)
            cycle = golden.cycles * (0.1 + 0.06 * index)
            r1 = run_one_injection(
                "crc32", CORTEX_A72,
                FaultSpec("RF", cycle, **base), golden)
            r2 = run_one_injection(
                "crc32", CORTEX_A72,
                FaultSpec("RF", cycle, n_bits=2, **base), golden)
            single += r1.vulnerable
            double += r2.vulnerable
        assert double >= single
