"""Functional engine details: fault actions, counters, profiles."""

from __future__ import annotations

import gc
from types import SimpleNamespace

import pytest

from repro.injectors.golden import GoldenProfile
from repro.isa.assembler import assemble
from repro.isa.errors import DecodeError
from repro.isa.registers import MR64, register_set
from repro.kernel.loader import build_system_image
from repro.uarch.functional import (
    FaultAction,
    FunctionalEngine,
    cached_decode,
)
from repro.workloads.common import (
    data_bytes,
    data_words,
    emit_exit,
    emit_write,
    random_bytes,
    rotl32,
    u32,
    xorshift32_stream,
)

COUNTING = """
.text
_start:
    li   r4, 5
    li   r5, 0
    la   r6, out
loop:
    addi r5, r5, 1          # dest instr
    sw   r5, 0(r6)          # no dest
    addi r4, r4, -1         # dest instr
    bnez r4, loop           # no dest
    la   r2, out
    li   r3, 4
    li   r1, 1
    syscall
    li   r1, 0
    li   r2, 0
    syscall
.data
out: .space 4
"""


def _profiled(source):
    """``(result, GoldenProfile)`` of a fault-free sim-kernel run."""
    engine = build_engine(source)
    profile = engine.observer = GoldenProfile()
    return engine.run(), profile


def build_engine(source, **kwargs):
    program = assemble(source, MR64, name="t")
    return FunctionalEngine(build_system_image(program), **kwargs)


class TestFaultActions:
    def test_commit_action_fires_before_instruction(self):
        """Flipping a register at commit index k affects instruction k."""
        source = """
.text
_start:
    li   r4, 1
    la   r2, out
    sw   r4, 0(r2)
    li   r3, 4
    li   r1, 1
    syscall
    li   r1, 0
    li   r2, 0
    syscall
.data
out: .space 4
"""
        # flip r4's bit 1 just before the store commits -> output = 3
        engine = build_engine(source)

        def apply(e):
            e.regs[4] ^= 2

        engine.schedule(FaultAction("commit", 3, apply))
        result = engine.run()
        assert int.from_bytes(result.output, "little") == 3

    def test_user_dest_counter_skips_kernel(self):
        """user_dest indexes only user-mode register writers, so a
        fault scheduled past the user count never fires even though
        kernel instructions keep executing."""
        # golden dest count
        _, golden = _profiled(COUNTING)
        fired = []
        engine = build_engine(COUNTING)
        engine.schedule(FaultAction(
            "user_dest", golden.dest_instructions + 10,
            lambda e: fired.append(True)))
        engine.run()
        assert not fired

    def test_last_dest_tracks_destination(self):
        source = """
.text
_start:
    li   r9, 3
    li   r1, 0
    li   r2, 0
    syscall
"""
        engine = build_engine(source)
        seen = []
        engine.schedule(FaultAction("user_dest", 0,
                                    lambda e: seen.append(e.last_dest)))
        engine.run()
        assert seen == [9]


class TestTriggerCounters:
    """An unknown trigger counter is rejected the same way on every
    entry point, before anything runs."""

    TYPO = "comit"

    def _action(self):
        return FaultAction(self.TYPO, 3, lambda engine: None)

    def test_schedule_rejects_unknown_counter(self):
        engine = build_engine(COUNTING)
        with pytest.raises(ValueError, match="unknown trigger 'comit'"):
            engine.schedule(self._action())
        assert engine._actions == []

    def test_fast_path_run_rejects_unknown_counter(self):
        from repro.injectors.archinj import run_one_arch
        from repro.injectors.golden import golden_run
        from repro.workloads.suite import load_workload

        golden = golden_run("crc32", "cortex-a72")
        engine = FunctionalEngine(
            build_system_image(load_workload("crc32", MR64)),
            max_instructions=golden.max_instructions)
        with pytest.raises(ValueError, match="unknown trigger 'comit'"):
            run_one_arch("pvf", engine, "crc32", MR64, self._action(),
                         golden, fastpath=True)

    def test_batch_rejects_unknown_counter(self):
        from repro.uarch.batch import BatchedFunctionalEngine, np

        if np is None:
            pytest.skip("numpy not installed")
        with pytest.raises(ValueError, match="unknown trigger 'comit'"):
            BatchedFunctionalEngine(build_engine(COUNTING),
                                    [self._action()])


class TestDecodeCache:
    ILLEGAL = 0  # opcode 0 is unassigned

    def test_illegal_word_raises_a_fresh_error_each_time(self):
        regs = register_set(MR64)

        def depth(exc):
            n, tb = 0, exc.__traceback__
            while tb is not None:
                n, tb = n + 1, tb.tb_next
            return n

        errors = []
        for _ in range(3):
            try:
                cached_decode(self.ILLEGAL, regs)
            except DecodeError as exc:
                errors.append(exc)
        assert len({id(exc) for exc in errors}) == 3
        assert len({depth(exc) for exc in errors}) == 1
        assert errors[0].word == self.ILLEGAL
        assert errors[0].reason == "unassigned opcode"

    def test_wi_campaign_leaves_no_engine_reachable(self):
        """Illegal words are WI's common end; a cached exception
        re-raised through each run's frames kept those engines (with
        their registers and page overlays) alive."""
        from repro.injectors.campaign import run_campaign

        def engines():
            gc.collect()
            return sum(isinstance(obj, FunctionalEngine)
                       for obj in gc.get_objects())

        before = engines()
        campaign = run_campaign("crc32", "cortex-a72", injector="pvf",
                                model="WI", n=24, seed=5,
                                use_cache=False, workers=1)
        assert any(r.crash_kind for r in campaign.results)
        assert engines() <= before


class TestProfiles:
    def test_profile_counts_consistent(self):
        result, profile = _profiled(COUNTING)
        assert profile.user_instructions + profile.kernel_instructions \
            == result.instructions
        assert 0 < profile.dest_instructions < profile.user_instructions
        assert 0 not in profile.regs_used
        assert {4, 5, 6} <= profile.regs_used

    def test_footprint_contains_touched_data(self):
        _, profile = _profiled(COUNTING)
        from repro.isa import layout

        assert any(layout.USER_DATA_BASE <= a < layout.USER_DATA_BASE
                   + 0x100 for a in profile.footprint)

    def test_observer_sees_each_executed_instruction(self):
        """``last_instr`` is the instruction the step follows: the
        loop's five stores show up as five user-mode ``sw`` steps."""
        from repro.uarch.cpu import KERNEL_MODE

        engine = build_engine(COUNTING)
        seen = []
        engine.observer = SimpleNamespace(step=lambda e: seen.append(
            (e.last_instr.op, e.ms.mode == KERNEL_MODE)))
        result = engine.run()
        assert len(seen) == result.instructions
        assert seen.count(("sw", False)) == 5

    def test_invalid_kernel_mode_rejected(self):
        with pytest.raises(ValueError):
            build_engine(COUNTING, kernel="weird")


class TestWorkloadHelpers:
    def test_xorshift_deterministic_and_nonzero(self):
        a = xorshift32_stream(42, 16)
        assert a == xorshift32_stream(42, 16)
        assert all(0 < v <= 0xFFFF_FFFF for v in a)
        assert len(set(a)) == 16

    def test_xorshift_zero_seed_survives(self):
        assert xorshift32_stream(0, 4) == xorshift32_stream(1, 4)

    def test_random_bytes(self):
        blob = random_bytes(7, 100)
        assert len(blob) == 100 and len(set(blob)) > 20

    def test_rotl32(self):
        assert rotl32(1, 1) == 2
        assert rotl32(0x8000_0000, 1) == 1
        assert rotl32(0x12345678, 32 - 4) == u32(0x12345678 >> 4
                                                 | 0x8 << 28)

    def test_data_words_masks_negatives(self):
        text = data_words("t", [-1, 5])
        assert "0xffffffff" in text and "0x5" in text

    def test_data_bytes_chunks(self):
        text = data_bytes("blob", bytes(range(40)), per_line=16)
        assert text.count(".byte") == 3

    def test_emit_write_register_length(self):
        text = emit_write("buf", "r9")
        assert "mv   r3, r9" in text

    def test_emit_exit_code(self):
        assert "li   r2, 3" in emit_exit(3)
