"""The pipeline structures' fast paths against their reference
algorithms, and the geometries the engines refuse to model.

* ``LoadStoreQueue.reclaim`` walks the in-flight entries in allocation
  order and stops at the first uncommitted one; it must free exactly
  what a scan of every entry frees.
* ``Memory.check_access`` memoises a page's region; every access must
  raise exactly what the full region lookup raises.
* ``BranchPredictor.update`` must count and train exactly as
  ``predict`` followed by training.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import layout
from repro.isa.registers import MR64
from repro.kernel.loader import build_system_image
from repro.uarch.branch import BranchPredictor
from repro.uarch.cache import Cache, MemoryPort
from repro.uarch.config import CORTEX_A72, CacheConfig
from repro.uarch.exceptions import SimException
from repro.uarch.lsq import LoadStoreQueue
from repro.uarch.memory import ADDR_MASK, Memory, Region, default_regions
from repro.uarch.pipeline import PipelineEngine
from repro.workloads.suite import load_workload


# ---------------------------------------------------------------------------
# geometry validation
# ---------------------------------------------------------------------------
def _port():
    return MemoryPort(Memory(regions=[Region("all", 0, 1 << 20)]), 10)


class TestGeometry:
    def test_zero_predictor_table_rejected(self):
        with pytest.raises(ValueError):
            BranchPredictor(0, 16)
        with pytest.raises(ValueError):
            BranchPredictor(64, 0)

    def test_zero_lsq_rejected(self):
        with pytest.raises(ValueError):
            LoadStoreQueue(0, 64)

    def test_zero_cache_size_rejected(self):
        with pytest.raises(ValueError):
            Cache("L1D", 0, 2, 64, 1, _port())

    def test_non_power_of_two_line_size_rejected(self):
        # 3072 = 16 sets x 4 ways x 48 bytes divides evenly, but the
        # fetch path's mask ~(48 - 1) would give wrong line bases
        with pytest.raises(ValueError, match="power of two"):
            Cache("L1I", 3072, 4, 48, 1, _port())

    def test_pipeline_refuses_such_a_config(self):
        config = dataclasses.replace(
            CORTEX_A72, l1i=CacheConfig(3072, 4, line_size=48))
        image = build_system_image(load_workload("crc32", MR64))
        with pytest.raises(ValueError):
            PipelineEngine(image, config)

    def test_valid_geometries_still_accepted(self):
        BranchPredictor(1, 1)
        LoadStoreQueue(1, 32)
        Cache("L2", 48 * 64 * 3, 3, 64, 1, _port())  # 48 sets: fine


# ---------------------------------------------------------------------------
# in-order LSQ reclaim
# ---------------------------------------------------------------------------
class _ScanLSQ:
    """The reference queue: reclaim scans every entry."""

    def __init__(self, size):
        self.size = size
        self.valid = [False] * size
        self.commit = [0.0] * size
        self.next = 0

    def reclaim(self, now):
        for i in range(self.size):
            if self.valid[i] and self.commit[i] <= now:
                self.valid[i] = False

    def allocate(self, now):
        self.reclaim(now)
        stall = now
        if all(self.valid):
            stall = max(stall, min(c for c, v in zip(self.commit,
                                                     self.valid) if v))
            self.reclaim(stall)
        index = self.next
        if self.valid[index]:
            index = self.valid.index(False)
        self.next = (self.next + 1) % self.size
        self.valid[index] = True
        return index, stall


@settings(max_examples=150, deadline=None)
@given(size=st.integers(1, 6),
       ops=st.lists(st.tuples(st.sampled_from(["alloc", "reclaim"]),
                              st.integers(0, 8), st.integers(1, 12)),
                    min_size=1, max_size=60))
def test_in_order_reclaim_frees_what_a_scan_frees(size, ops):
    lsq = LoadStoreQueue(size, 64)
    ref = _ScanLSQ(size)
    now = last_commit = 0.0
    for op, advance, latency in ops:
        now += advance / 2
        if op == "alloc":
            entry, stall = lsq.allocate(now)
            index, ref_stall = ref.allocate(now)
            assert lsq.entries.index(entry) == index
            assert stall == ref_stall
            # commits strictly increase in program order
            last_commit = max(last_commit + 0.25, stall + latency)
            entry.commit_cycle = ref.commit[index] = last_commit
        else:
            lsq.reclaim(now + latency)
            ref.reclaim(now + latency)
        assert [e.valid for e in lsq.entries] == ref.valid
        assert lsq.valid_count == sum(ref.valid)


def test_reindex_restores_the_commit_order():
    lsq = LoadStoreQueue(4, 64)
    for commit in (5.0, 6.0, 7.0):
        entry, _ = lsq.allocate(0.0)
        entry.commit_cycle = commit
    copy = LoadStoreQueue(4, 64)
    for src, dst in zip(lsq.entries, copy.entries):
        dst.valid, dst.commit_cycle = src.valid, src.commit_cycle
    copy._next, copy.valid_count = lsq._next, lsq.valid_count
    copy.reindex()
    copy.reclaim(6.0)
    assert [e.valid for e in copy.entries] == [False, False, True, False]
    _, stall = copy.allocate(6.5)
    assert stall == 6.5 and copy.valid_count == 2


# ---------------------------------------------------------------------------
# per-page permission memo
# ---------------------------------------------------------------------------
def _reference_check(memory, addr, nbytes, write, kernel_mode):
    """The full check, region looked up on every access."""
    addr &= ADDR_MASK
    if nbytes <= 0:
        return ("access-fault", addr, f"corrupt access size {nbytes}")
    if addr + nbytes - 1 > ADDR_MASK:
        return ("access-fault", addr, "access wraps the address space")
    region = memory.region_of(addr)
    if region is None or not region.contains(addr + nbytes - 1):
        return ("access-fault", addr, "")
    if region.kernel_only and not kernel_mode:
        return ("privilege-fault", addr, "")
    if write and not region.writable:
        return ("access-fault", addr, "write to read-only region")
    return None


def _outcome(memory, addr, nbytes, write, kernel_mode):
    try:
        memory.check_access(addr, nbytes, write=write,
                            kernel_mode=kernel_mode)
    except SimException as exc:
        return (exc.kind.value, exc.addr, exc.detail or "")
    return None


def _odd_regions():
    """The default map plus a read-only region ending mid-page and a
    region starting mid-page right after it."""
    base = layout.USER_STACK_END + 0x10_0000
    return default_regions() + [
        Region("rom", base, base + 0x1800, writable=False),
        Region("tail", base + 0x1800, base + 0x2000, kernel_only=True)]


@settings(max_examples=80, deadline=None)
@given(accesses=st.lists(
    st.tuples(st.integers(0, 24), st.integers(-0x40, 0x1040),
              st.sampled_from([0, 1, 2, 4, 8, -1]), st.booleans(),
              st.booleans()),
    min_size=1, max_size=40))
def test_page_memo_raises_what_the_full_lookup_raises(accesses):
    regions = _odd_regions()
    memory = Memory(regions)
    anchors = sorted({r.base for r in regions} | {r.end for r in regions}
                     | {0, ADDR_MASK - 3})
    for anchor, delta, nbytes, write, kernel_mode in accesses:
        addr = (anchors[anchor % len(anchors)] + delta) & ADDR_MASK
        assert _outcome(memory, addr, nbytes, write, kernel_mode) \
            == _reference_check(memory, addr, nbytes, write, kernel_mode)


def test_only_whole_pages_are_memoised():
    regions = _odd_regions()
    memory = Memory(regions)
    rom = regions[-2]
    memory.check_access(rom.base, 4, write=False, kernel_mode=False)
    memory.check_access(rom.base + 0x1000, 4, write=False,
                        kernel_mode=False)
    assert memory._page_region == {rom.base: rom}
    # the memoised page still checks size, writability and privilege
    with pytest.raises(SimException):
        memory.check_access(rom.base, 4, write=True, kernel_mode=False)
    with pytest.raises(SimException):
        memory.check_access(rom.base, 0, write=False, kernel_mode=False)
    with pytest.raises(SimException):
        memory.check_access(rom.base + 0x17FE, 4, write=False,
                            kernel_mode=True)


# ---------------------------------------------------------------------------
# flat predictor update
# ---------------------------------------------------------------------------
def _reference_update(bp, pc, taken, target):
    predicted_taken, predicted_target = bp.predict(pc)
    index = bp._index(pc)
    counter = bp.counters[index]
    if taken and counter < 3:
        bp.counters[index] = counter + 1
    elif not taken and counter > 0:
        bp.counters[index] = counter - 1
    if taken:
        bp.btb[bp._btb_index(pc)] = (pc, target)
    mispredicted = (predicted_taken != taken
                    or (taken and predicted_target != target))
    if mispredicted:
        bp.mispredicts += 1
    return mispredicted


@settings(max_examples=100, deadline=None)
@given(branches=st.lists(st.tuples(st.integers(0, 63), st.booleans(),
                                   st.integers(0, 3)),
                         min_size=1, max_size=80))
def test_flat_update_matches_predict_then_train(branches):
    fast, ref = BranchPredictor(8, 4), BranchPredictor(8, 4)
    for slot, taken, target in branches:
        pc = slot * 4
        assert fast.update(pc, taken, target * 4) \
            == _reference_update(ref, pc, taken, target * 4)
        assert (fast.counters, fast.btb, fast.stats()) \
            == (ref.counters, ref.btb, ref.stats())
