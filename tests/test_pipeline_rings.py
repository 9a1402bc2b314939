"""The pipeline's rings against the queues they replace.

* ``PhysRegFile`` keeps its free list and its pending frees in one
  ring of physical registers.  Seeded allocate/reclaim/stall sequences
  must give the ``(phys, stall)`` sequence, the free and pending lists
  and the live registers of the two deques the ring replaced, kept
  here as the reference.
* The run loop renames on the same ring in line; with a register file
  only a few registers larger than the architectural one, no renamed
  register may be reallocated before the commit that frees it.
* The ROB and IQ windows are fixed-size rings of cycles, the oldest at
  the head; their oldest-first view must equal a deque that appends
  each cycle and drops the oldest once full.
"""

from __future__ import annotations

import dataclasses
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.registers import register_set
from repro.kernel.loader import build_system_image
from repro.uarch.config import config_by_name
from repro.uarch.pipeline import (PipelineEngine, _window, _window_ring,
                                  run_pipeline)
from repro.uarch.regfile import FREE, LIVE, PhysRegFile
from repro.workloads.suite import load_workload


class _DequeRegFile:
    """The reference rename machinery: a free-list deque and a deque
    of ``(commit_cycle, phys)`` pending frees."""

    def __init__(self, n_phys: int, n_arch: int) -> None:
        self.rename_map = list(range(n_arch))
        self.free_list = deque(range(n_arch, n_phys))
        self.pending_free: deque = deque()

    def reclaim(self, now: float) -> None:
        while self.pending_free and self.pending_free[0][0] <= now:
            self.free_list.append(self.pending_free.popleft()[1])

    def allocate(self, arch: int, now: float,
                 writer_commit: float) -> tuple[int, float]:
        self.reclaim(now)
        stall = now
        while not self.free_list:
            stall = max(stall, self.pending_free[0][0])
            self.reclaim(stall)
        phys = self.free_list.popleft()
        self.pending_free.append((writer_commit, self.rename_map[arch]))
        self.rename_map[arch] = phys
        return phys, stall


def _same_state(rf: PhysRegFile, ref: _DequeRegFile) -> None:
    assert rf.free_list == list(ref.free_list)
    assert rf.pending_free == list(ref.pending_free)
    assert rf.rename_map == ref.rename_map
    live = set(ref.rename_map[1:]) | {p for _, p in ref.pending_free}
    assert rf.state == [LIVE if p in live else FREE
                        for p in range(rf.n_phys)]
    assert rf.live_count == len(live)


@settings(max_examples=200, deadline=None)
@given(n_arch=st.integers(2, 6), spare=st.integers(1, 6),
       ops=st.lists(st.tuples(st.sampled_from(["alloc", "reclaim"]),
                              st.integers(1, 5), st.integers(0, 8),
                              st.integers(1, 12)),
                    min_size=1, max_size=80))
def test_register_ring_matches_the_two_deques(n_arch, spare, ops):
    rf = PhysRegFile(n_arch + spare, n_arch, 32)
    ref = _DequeRegFile(n_arch + spare, n_arch)
    now = last_commit = 0.0
    for op, arch, advance, latency in ops:
        now += advance / 2
        if op == "alloc":
            arch %= n_arch
            arch = arch or 1
            # commits strictly increase in program order
            commit = max(last_commit + 0.25, now + latency)
            got = rf.allocate(arch, now, commit)
            assert got == ref.allocate(arch, now, commit)
            last_commit = commit
        else:
            assert rf.reclaimable(now + latency) == sum(
                1 for c, _ in ref.pending_free if c <= now + latency)
            rf._reclaim(now + latency)
            ref.reclaim(now + latency)
        _same_state(rf, ref)
        copy = PhysRegFile(n_arch + spare, n_arch, 32)
        copy.set_queues(rf.free_list, rf.pending_free)
        copy.live_count = rf.live_count
        assert (copy.free_list, copy.pending_free) \
            == (rf.free_list, rf.pending_free)


@settings(max_examples=150, deadline=None)
@given(size=st.integers(1, 6), restored=st.integers(0, 6),
       pushes=st.integers(0, 20))
def test_window_ring_matches_a_deque(size, restored, pushes):
    restored = min(restored, size)
    cycles = [float(k + 1) for k in range(restored)]
    ring = _window_ring(cycles, size)
    head = 0
    ref = deque(cycles)
    assert _window(ring, head) == list(ref)
    for k in range(pushes):
        # the oldest entry is an index read; a slot no instruction has
        # held yet reads 0.0 and holds nothing back
        assert ring[head] == (ref[0] if len(ref) == size else 0.0)
        cycle = float(restored + k + 1)
        ring[head] = cycle
        head = (head + 1) % size
        ref.append(cycle)
        if len(ref) > size:
            ref.popleft()
        assert _window(ring, head) == list(ref)


class _Lifetimes:
    """Lifetime hooks that count the reallocations of physical
    registers and those that complete before the commit that freed the
    register (a rename that did not wait for its reclamation)."""

    def __init__(self) -> None:
        self.released: dict = {}
        self.reallocations = 0
        self.early = 0

    def reg_read(self, phys, cycle):
        pass

    def reg_write(self, phys, complete):
        released = self.released.pop(phys, None)
        if released is not None:
            self.reallocations += 1
            self.early += complete <= released

    def reg_release(self, phys, commit):
        self.released[phys] = commit

    def lsq_op(self, alloc, commit):
        pass

    def mem_access(self, addr, nbytes, is_store, cycle):
        pass


@pytest.mark.parametrize("spare", (1, 2, 5))
def test_a_small_register_file_stalls_rename_in_the_loop(spare):
    """With a few registers beyond the architectural ones the free list
    runs dry all the time: every rename waits for a reclamation."""
    config = config_by_name("cortex-a72")
    n_arch = register_set(config.isa).count
    small = dataclasses.replace(config, n_phys_regs=n_arch + spare)
    program = load_workload("sha", config.isa)
    engine = PipelineEngine(build_system_image(program), small)
    lifetimes = engine.observer = _Lifetimes()
    result = engine.run()
    reference = run_pipeline(program, config)
    assert (result.status, result.output, result.instructions) \
        == (reference.status, reference.output, reference.instructions)
    assert result.cycles > reference.cycles
    assert lifetimes.reallocations > 1000
    assert lifetimes.early == 0
