"""The golden liveness oracle against the full slow-path run.

A gefin run whose fault is a cache data flip consults the checkpoint
store's liveness oracle once, when the flip lands, and ends there when
the golden run never reads a corrupted copy
(:mod:`repro.uarch.liveness`), or jumps to the last golden checkpoint
before the first read and re-plants the corrupted copies there.  A
flip into dead state ends its run as it lands.  Every run the oracle
ends or jumps, and every dead-state exit, must give the
:class:`InjectionResult` the slow path (``fastpath=False``) gives, tag
flips must never end or jump there, and the hazards of the taint walk
each get a program of their own: a writeback over a flipped L2 byte, a
stale L2 copy refetched into the L1I, a dirty eviction to memory, a
store over part of a burst, an L1I word fetched only after its line
left, and the end-of-run DMA drain.
"""

from __future__ import annotations

import dataclasses
import json
from array import array

import pytest

from repro.faults.fault import FaultSpec, sample_campaign
from repro.injectors.campaign import run_campaign
from repro.injectors.gefin import run_one_injection
from repro.injectors.golden import checkpoint_store, golden_run
from repro.isa import layout
from repro.isa.assembler import assemble
from repro.isa.registers import MR64
from repro.kernel.loader import build_system_image
from repro.kernel.syscalls import EXIT_CODE_OFFSET
from repro.obs.metrics import (FASTPATH_EARLY_EXITS,
                               FASTPATH_INSTRUCTIONS_JUMPED,
                               FASTPATH_INSTRUCTIONS_SAVED, FASTPATH_JUMPS,
                               FASTPATH_ORACLE_EXITS, FASTPATH_RESTORES,
                               MetricsRegistry, get_registry, set_registry)
from repro.obs.tracing import FaultTracer
from repro.uarch import liveness, snapshot
from repro.uarch.config import CORTEX_A72, CacheConfig, config_by_name
from repro.uarch.pipeline import PipelineEngine
from repro.workloads.suite import load_workload


def _counted(run):
    """``run()`` under a fresh enabled registry: (its result, the
    registry's counters)."""
    registry = MetricsRegistry(enabled=True)
    set_registry(registry)
    try:
        result = run()
    finally:
        set_registry(None)
    return result, registry.snapshot()["counters"]


# ---------------------------------------------------------------------------
# the seeded grid: both ISAs, baseline and hardened, all three caches
# ---------------------------------------------------------------------------
#: (workload, config, hardened); hardening needs a 64-bit core
GRID = (("crc32", "cortex-a9", False), ("crc32", "cortex-a72", False),
        ("crc32", "cortex-a72", True), ("crc32", "cortex-a57", False))


@pytest.mark.parametrize("structure", ("L1I", "L1D", "L2"))
@pytest.mark.parametrize("workload, config_name, hardened", GRID)
def test_every_oracle_exit_matches_the_slow_path(workload, config_name,
                                                 hardened, structure):
    """Every oracle exit, jump and dead-state exit of the seeded grid,
    over both ``prefer_live`` settings and bursts of 1-3 bits."""
    config = config_by_name(config_name)
    golden = golden_run(workload, config_name, hardened=hardened)
    ended = 0
    for prefer_live in (True, False):
        specs = sample_campaign(config, structure, golden.cycles, n=6,
                                seed=13, prefer_live=prefer_live)
        for i, sampled in enumerate(specs):
            for kind in ("data", "tag"):
                spec = dataclasses.replace(sampled, kind=kind,
                                           n_bits=1 + i % 3)
                fast, counters = _counted(lambda: run_one_injection(
                    workload, config, spec, golden, hardened=hardened,
                    fastpath=True))
                assert counters[FASTPATH_RESTORES] == 1
                oracle = counters.get(FASTPATH_ORACLE_EXITS) \
                    or counters.get(FASTPATH_JUMPS)
                if not (oracle or counters.get(FASTPATH_EARLY_EXITS)):
                    continue
                assert kind == "data" or not oracle, \
                    f"tag flip oracle-ended or jumped: {spec}"
                ended += bool(counters.get(FASTPATH_ORACLE_EXITS))
                slow = run_one_injection(workload, config, spec, golden,
                                         hardened=hardened,
                                         fastpath=False)
                assert fast == slow, spec
    assert ended, "the oracle never engaged"


# ---------------------------------------------------------------------------
# targeted hazards, on programs written for them
# ---------------------------------------------------------------------------
#: direct-mapped L1D and L2 (way 0 holds whatever maps to a set), small
#: enough that a program evicts a line by touching its alias
TINY = dataclasses.replace(
    CORTEX_A72, name="tiny-direct-mapped",
    l1i=CacheConfig(4096, 4, latency=1),
    l1d=CacheConfig(1024, 1, latency=2),
    l2=CacheConfig(4096, 1, latency=10))
L1D_ALIAS, L2_ALIAS = TINY.l1d.size, TINY.l2.size

_TAIL = """
    la   r2, out
    li   r3, 8
    li   r1, 1
    syscall
    li   r1, 0
    li   r2, 3
    syscall
.data
pad:
    .space 2560          # keeps `a` clear of code and kernel sets
a:
    .dword 0x1122334455667788
out:
    .space 64
"""


class _Trace:
    """Observer: ``(fetch_time, next pc)`` after every instruction."""

    def __init__(self) -> None:
        self.rows: list = []

    def step(self, engine) -> None:
        self.rows.append((engine.fetch_time, engine.ms.pc))


class _Case:
    """One program on one core: its golden run and checkpoint store."""

    def __init__(self, body: str, config=TINY) -> None:
        self.config = config
        self.program = assemble(".text\n_start:\n" + body + _TAIL, MR64,
                                name="oracle-hazard")
        self.golden = PipelineEngine(self._image(), config)
        self.golden.observer = trace = _Trace()
        self.result = result = self.golden.run()
        assert result.status.value == "completed"
        self.rows = trace.rows
        self.limits = dict(max_instructions=4 * result.instructions,
                           max_cycles=5 * result.cycles)
        self.store = snapshot.build_pipeline_store(
            self._image, config, interval=64,
            max_instructions=self.limits["max_instructions"])

    def _image(self):
        return build_system_image(self.program)

    def before(self, label: str) -> float:
        """A fault cycle that fires just before *label* executes."""
        pc = self.program.symbols[label]
        return next(cycle for cycle, next_pc in self.rows
                    if next_pc == pc)

    def spec(self, structure: str, cycle: float, addr: int,
             way: int = 0, bit: int = 1, n_bits: int = 1) -> FaultSpec:
        """A flip of *n_bits* bits from *bit* of the byte at *addr*,
        held by way *way* of *structure*, at *cycle*."""
        cache = {"L1I": self.config.l1i, "L1D": self.config.l1d,
                 "L2": self.config.l2}[structure]
        size = cache.line_size
        return FaultSpec(structure, cycle,
                         addr // size % (cache.size // (cache.assoc * size)),
                         way, addr % size * 8 + bit, n_bits=n_bits,
                         prefer_live=False)

    def compare(self, spec: FaultSpec, addr: int) -> tuple:
        """Run *spec* on the slow path and on the gefin fast path: both
        must land the flip on the byte at *addr* and agree.  Returns
        the result and the fast run's counters."""
        slow = PipelineEngine(self._image(), self.config, faults=[spec],
                              **self.limits)
        want = slow.run()
        fast = PipelineEngine(self._image(), self.config, faults=[spec],
                              **self.limits)
        snapshot.prepare_pipeline_fastpath(fast, self.store)
        got, counters = _counted(fast.run)
        assert slow.landed_addr == fast.landed_addr == addr
        assert got == want
        return got, counters

    def inject(self, structure: str, cycle: float, addr: int,
               way: int = 0, bit: int = 1) -> bool:
        """Flip *bit* of the byte at *addr*, held by way *way* of
        *structure*, at *cycle*, on the slow path and on the gefin fast
        path: the flip must land there and both runs must agree.
        Returns whether the oracle ended the fast run."""
        spec = self.spec(structure, cycle, addr, way, bit)
        return bool(self.compare(spec, addr)[1].get(FASTPATH_ORACLE_EXITS))


def test_l2_flip_under_a_dirty_l1d_copy_dies_at_its_writeback():
    case = _Case(f"""
    la   r2, a
    li   r3, 77
    sd   r3, 0(r2)       # a: dirty in the L1D
here:
    ld   r4, {L1D_ALIAS}(r2)   # L1D alias: a written back over the L2
    ld   r5, 0(r2)       # refilled from the clean L2 copy
""")
    a = case.program.symbols["a"]
    assert case.inject("L2", case.before("here"), a)


def test_l1d_flip_overwritten_by_a_store_dies():
    case = _Case("""
    la   r2, a
    ld   r4, 0(r2)       # a: clean in the L1D
here:
    sd   r4, 0(r2)       # overwrites the flipped byte
    ld   r5, 0(r2)
""")
    a = case.program.symbols["a"]
    assert case.inject("L1D", case.before("here"), a)


def test_clean_l1d_copy_evicted_before_its_next_load_dies():
    case = _Case(f"""
    la   r2, a
    ld   r4, 0(r2)       # a: clean in the L1D
here:
    ld   r4, {L1D_ALIAS}(r2)   # the flipped copy is dropped
    ld   r5, 0(r2)       # refilled from the L2
""")
    a = case.program.symbols["a"]
    assert case.inject("L1D", case.before("here"), a)


def test_stale_l2_copy_refetched_into_the_l1i_is_live():
    case = _Case("""
    la   r2, target
    lw   r3, 0(r2)       # target's line into the L2 and the L1D
here:
    sw   r3, 0(r2)       # clears the L1D copy's taint, not the L2's
    j    target          # the L1I fills from the stale L2 copy
.align 64
target:
    addi r6, r6, 1
""")
    target = case.program.symbols["target"]
    cycle = case.before("here")
    for byte, bit in ((0, 0), (1, 4), (3, 7)):
        assert not case.inject("L2", cycle, target + byte, bit=bit)


def test_dirty_eviction_to_memory_then_refill_and_load_is_live():
    case = _Case(f"""
    la   r2, a
    li   r3, 77
    sd   r3, 0(r2)
    ld   r4, {L1D_ALIAS}(r2)   # a written back: dirty in the L2
here:
    ld   r4, {L2_ALIAS}(r2)    # L2 alias: a written back to memory
    ld   r5, 0(r2)       # refilled from memory and loaded
""")
    a = case.program.symbols["a"]
    assert not case.inject("L2", case.before("here"), a)


#: a flipped L2 byte reaches memory, a store overwrites it and the clean
#: line is written back over the L2 copy; memory keeps the corrupted copy
_STALE_MEMORY_COPY = f"""
    la   r2, a
    li   r3, 77
    sd   r3, 0(r2)
    ld   r4, {L1D_ALIAS}(r2)   # a written back: dirty in the L2
here:
    ld   r4, {L2_ALIAS}(r2)    # a written back to memory
    sd   r3, 0(r2)       # refilled from memory; the flipped byte stored
    ld   r4, {L1D_ALIAS}(r2)   # the clean line written back over the L2
    ld   r5, 0(r2)       # refilled from the L2 copy, loaded
"""


def test_clean_writeback_over_the_l2_copy_masks_memorys_stale_taint():
    """An L1 fill takes the clean L2 copy's taint, not the stale
    memory copy's under it (``Cache.taint_of``), so the load after it
    reads correct data and the flip is dead.  The walk must follow the
    same rule."""
    case = _Case(_STALE_MEMORY_COPY)
    a = case.program.symbols["a"]
    assert case.inject("L2", case.before("here"), a)


def test_fill_from_a_clean_l2_copy_over_stale_memory_is_masked():
    """The slow path alone: the run ends as golden did, with no
    architectural crossing."""
    case = _Case(_STALE_MEMORY_COPY)
    a = case.program.symbols["a"]
    run = PipelineEngine(case._image(), case.config,
                         faults=[case.spec("L2", case.before("here"), a)],
                         **case.limits).run()
    assert run.fault_applied and run.fault_live
    assert run.crossing is None
    assert (run.status, run.output, run.exit_code) \
        == (case.result.status, case.result.output, case.result.exit_code)


def test_drain_reads_below_an_evicted_l1d_copy():
    """Once the L1D copy is evicted, the drain reads the L2 copy."""
    engine = PipelineEngine(build_system_image(
        assemble(".text\n_start:\n" + _TAIL, MR64)), TINY)
    base = layout.OUTPUT_BASE
    engine.l1d.read(base, 8, engine.probe)      # into the L1D and L2
    index, tag = engine.l2._index_tag(base)
    way = engine.l2.sets[index].index(engine.l2._find(index, tag))
    engine.l2.flip_bit(index, way, 3 * 8)       # byte 3 of the L2 copy
    step = engine.instructions

    def oracle(*kinds):
        return liveness.LivenessOracle(
            line_size=64, lines=array("q", [base] * len(kinds)),
            steps=array("I", [step] * len(kinds)), kinds=bytes(kinds),
            los=array("H", [0] * len(kinds)),
            his=array("H", [8] * len(kinds)), pcs=b"")

    assert oracle(liveness.DRAIN).first_read(engine, "L2", base + 3) \
        is None
    assert oracle(liveness.DROP_L1D, liveness.DRAIN).first_read(
        engine, "L2", base + 3) == step


@pytest.mark.parametrize("addr", [
    layout.OUTPUT_BASE, layout.OUTPUT_LEN_ADDR,
    layout.KERNEL_DATA_BASE + EXIT_CODE_OFFSET],
    ids=["output", "output-len", "exit-code"])
def test_drained_bytes_are_live_in_the_copy_the_drain_reads(addr):
    """Flipped just before ``halt``: the drain reads the L1D copy when
    there is one, so that flip is live and an L2 flip under it dead."""
    case = _Case("    nop\n", CORTEX_A72)
    cycle = case.rows[-2][0]
    found = []
    for name in ("L1D", "L2"):
        cache = getattr(case.golden, name.lower())
        index, tag = cache._index_tag(addr)
        line = cache._find(index, tag)
        if line is not None:
            found.append(name)
            ended = case.inject(name, cycle, addr,
                                way=cache.sets[index].index(line))
            assert ended == (name == "L2" and "L1D" in found), name
    assert found


# ---------------------------------------------------------------------------
# what the capture's recorder records for a load or store
# ---------------------------------------------------------------------------
#: two cold, adjacent L1D lines; ``-4(r2)`` with ``r2 = line1`` spans both
_TWO_LINES = """
.data
.align 64
line0:
    .space 64
line1:
    .space 64
.text
"""


def _recorded(body: str, **limits) -> tuple:
    """Run *body* on TINY with a liveness recorder attached, as the
    capture run attaches it: ``(program, recorder, engine)``."""
    program = assemble(".text\n_start:\n" + body + _TAIL, MR64,
                       name="oracle-recorder")
    engine = PipelineEngine(build_system_image(program), TINY, **limits)
    engine.observer = recorder = liveness.record_liveness(engine)
    engine.run()
    return program, recorder, engine


def _step_events(recorder, label_pc: int, base: int) -> tuple:
    """The step of the first instruction at *label_pc*, and the kinds
    and byte ranges of the events that step recorded for the line at
    *base*, in the order they happened."""
    step = recorder.pcs.index(label_pc)
    return step, [(kind, lo, hi) for line, at, kind, lo, hi
                  in recorder.events if at == step and line == base]


def _line_of(addr: int) -> tuple:
    size = TINY.l1d.line_size
    return addr - addr % size, addr % size


def test_a_store_that_misses_records_one_store_and_no_load():
    """The miss path reads the old bytes before it writes: that read
    is the store's, not a load."""
    program, recorder, _ = _recorded("""
    la   r2, a
here:
    sd   r2, 0(r2)       # a: cold
""")
    base, off = _line_of(program.symbols["a"])
    _, events = _step_events(recorder, program.symbols["here"], base)
    assert events == [(liveness.FILL_L2, 0, 0), (liveness.FILL_L1D, 0, 0),
                      (liveness.STORE, off, off + 8)]


def test_a_load_miss_records_its_fills_then_the_load():
    program, recorder, _ = _recorded("""
    la   r2, a
here:
    ld   r4, 0(r2)       # a: cold
""")
    base, off = _line_of(program.symbols["a"])
    _, events = _step_events(recorder, program.symbols["here"], base)
    assert events == [(liveness.FILL_L2, 0, 0), (liveness.FILL_L1D, 0, 0),
                      (liveness.LOAD, off, off + 8)]


def test_a_load_hit_records_one_load():
    program, recorder, _ = _recorded("""
    la   r2, a
    ld   r4, 0(r2)
here:
    lw   r5, 4(r2)       # a: in the L1D
""")
    base, off = _line_of(program.symbols["a"] + 4)
    _, events = _step_events(recorder, program.symbols["here"], base)
    assert events == [(liveness.LOAD, off, off + 4)]


@pytest.mark.parametrize("op", ["ld", "sd"])
def test_a_line_crossing_access_is_opaque_in_both_lines(op):
    """Cold, each line records its fills, then one ``OPAQUE``."""
    program, recorder, _ = _recorded(f"""
    la   r2, line1
here:
    {op}   r4, -4(r2)
{_TWO_LINES}""")
    for label in ("line0", "line1"):
        _, events = _step_events(recorder, program.symbols["here"],
                                 program.symbols[label])
        assert events == [(liveness.FILL_L2, 0, 0),
                          (liveness.FILL_L1D, 0, 0),
                          (liveness.OPAQUE, 0, 0)], label


@pytest.mark.parametrize("op", ["ld", "sd"])
def test_a_line_crossing_access_reads_a_flip_in_either_line(op):
    """Whatever byte of either line a flip hits, the walk stops at the
    line-crossing access: it does not model which bytes it touched."""
    body = f"""
    la   r2, line1
    ld   r5, 0(r2)       # line1 into the L1D
    ld   r5, -8(r2)      # line0 into the L1D
here:
    {op}   r4, -4(r2)
{_TWO_LINES}"""
    program, recorder, engine = _recorded(body)
    assert engine.ms.halted
    oracle = recorder.finish()
    step = recorder.pcs.index(program.symbols["here"])
    for addr in (program.symbols["line0"] + 1, program.symbols["line1"]
                 + 40):
        _, _, stopped = _recorded(body, max_instructions=step)
        assert stopped.instructions == step
        l1d = stopped.l1d
        index, tag = l1d._index_tag(addr)
        way = l1d.sets[index].index(l1d._find(index, tag))
        assert l1d.flip_bit(index, way, addr % 64 * 8)["live"]
        assert oracle.first_read(stopped, "L1D", addr) == step


# ---------------------------------------------------------------------------
# jumps to the first read
# ---------------------------------------------------------------------------
#: a stretch of ~80 instructions that touches no data line, so a golden
#: checkpoint (every 64 instructions) lies between a flip and a read
#: after it
_DELAY = """
    li   r7, 40
delay:
    addi r7, r7, -1
    bnez r7, delay
"""

#: the loaded value into the output, so a wrong re-plant shows there
_OUTPUT_R5 = """
    la   r8, out
    sd   r5, 0(r8)
"""

#: TINY with a direct-mapped 1 KiB L1I: code one L1I size apart evicts
TINY_I = dataclasses.replace(TINY, name="tiny-direct-mapped-l1i",
                             l1i=CacheConfig(1024, 1, latency=1))


def _spy_jumps(monkeypatch) -> list:
    """Each jump's re-planted copies, ``{copy: sorted byte offsets}``."""
    seen: list = []
    jump = snapshot._PipelineFastPath._jump

    def spy(self, cp, base, copies, *args):
        seen.append({name: sorted(taint) for name, taint in copies.items()})
        return jump(self, cp, base, copies, *args)

    monkeypatch.setattr(snapshot._PipelineFastPath, "_jump", spy)
    return seen


def _jumped(compared: tuple) -> bool:
    counters = compared[1]
    assert not counters.get(FASTPATH_ORACLE_EXITS)
    # a jump is no early exit
    assert counters.get(FASTPATH_EARLY_EXITS, 0) == 0
    return counters.get(FASTPATH_JUMPS) == 1 \
        and counters[FASTPATH_INSTRUCTIONS_JUMPED] > 0


def test_jump_across_a_dirty_eviction_replants_memory(monkeypatch):
    case = _Case(f"""
    la   r2, a
    li   r3, 77
    sd   r3, 0(r2)       # a: dirty in the L1D
here:
    ld   r4, {L1D_ALIAS}(r2)   # a written back: dirty in the L2
    ld   r4, {L2_ALIAS}(r2)    # a written back to memory
{_DELAY}
    ld   r5, 0(r2)       # refilled from memory and loaded
{_OUTPUT_R5}""")
    a = case.program.symbols["a"]
    jumps = _spy_jumps(monkeypatch)
    compared = case.compare(case.spec("L1D", case.before("here"), a), a)
    assert _jumped(compared)
    assert jumps == [{"memory": [0]}]
    assert compared[0].output != case.result.output


def test_jump_with_only_the_l2_copy_tainted(monkeypatch):
    case = _Case(f"""
    la   r2, a
    ld   r4, 0(r2)       # a: clean in the L1D and the L2
here:
    ld   r4, {L1D_ALIAS}(r2)   # the clean L1D copy is dropped
{_DELAY}
    ld   r5, 0(r2)       # refilled from the flipped L2 copy
{_OUTPUT_R5}""")
    a = case.program.symbols["a"]
    jumps = _spy_jumps(monkeypatch)
    compared = case.compare(case.spec("L2", case.before("here"), a), a)
    assert _jumped(compared)
    assert jumps == [{"L2": [0]}]
    assert compared[0].output != case.result.output


def test_jump_replants_the_burst_bytes_a_store_left(monkeypatch):
    """Bits 6 and 7 of byte 0 and bit 0 of byte 1 flip; a store
    rewrites byte 0, so only byte 1 is re-planted."""
    case = _Case(f"""
    la   r2, a
    ld   r4, 0(r2)       # a: clean in the L1D
here:
    sb   r0, 0(r2)       # clears byte 0 of the burst
{_DELAY}
    ld   r5, 0(r2)       # reads byte 1
{_OUTPUT_R5}""")
    a = case.program.symbols["a"]
    jumps = _spy_jumps(monkeypatch)
    spec = case.spec("L1D", case.before("here"), a, bit=6, n_bits=3)
    compared = case.compare(spec, a + 1)
    assert _jumped(compared)
    assert jumps == [{"L1D": [1]}]
    assert compared[0].output != case.result.output


def test_l1i_word_fetched_only_after_its_line_left_is_masked():
    """The flipped word's line is evicted (direct-mapped L1I) before the
    word is fetched again, from a clean refill: Masked at injection."""
    case = _Case("""
    li   r9, 2
again:
    j    f
back:
    addi r9, r9, -1
    beqz r9, finish
here:
    j    alias           # evicts f's line
.align 64
f:
    addi r6, r6, 1       # the flipped word
    j    back
    .space 1016          # alias sits one L1I size after f
alias:
    j    again
finish:
""", TINY_I)
    f = case.program.symbols["f"]
    assert case.program.symbols["alias"] - f == TINY_I.l1i.size
    assert case.inject("L1I", case.before("here"), f)


def test_l1i_word_fetched_after_a_later_checkpoint_jumps(monkeypatch):
    case = _Case(f"""
    li   r9, 2
again:
    j    f
back:
    addi r9, r9, -1
    beqz r9, finish
here:
{_DELAY}
    j    again
.align 64
f:
    addi r6, r6, 1       # the flipped word, fetched again after the delay
    j    back
finish:
""", TINY_I)
    f = case.program.symbols["f"]
    jumps = _spy_jumps(monkeypatch)
    assert _jumped(case.compare(case.spec("L1I", case.before("here"), f),
                                f))
    assert jumps == [{"L1I": [0]}]


def test_jump_to_the_end_of_run_drain(monkeypatch):
    """The flipped output byte is first read by the drain."""
    case = _Case(f"""
    la   r2, a
    li   r3, 8
    li   r1, 1
    syscall              # a's bytes into the output buffer
here:
{_DELAY}
""", CORTEX_A72)
    base = layout.OUTPUT_BASE
    cycle = case.before("here")
    for way in range(CORTEX_A72.l1d.assoc):
        spec = case.spec("L1D", cycle, base, way=way)
        probe = PipelineEngine(case._image(), case.config, faults=[spec],
                               **case.limits)
        probe.run()
        if probe.landed_addr == base:
            break
    else:
        pytest.fail("the output line is not in the L1D")
    jumps = _spy_jumps(monkeypatch)
    compared = case.compare(spec, base)
    assert _jumped(compared)
    assert "L1D" in jumps[0]
    run = compared[0]
    assert run.crossing is None and run.output != case.result.output


def test_a_traced_run_neither_jumps_nor_ends_early():
    """With an observer attached the run is seen to its end."""
    config = config_by_name("cortex-a72")
    golden = golden_run("crc32", "cortex-a72")
    for spec in sample_campaign(config, "L1D", golden.cycles, n=30,
                                seed=13):
        plain, counters = _counted(lambda: run_one_injection(
            "crc32", config, spec, golden, fastpath=True))
        if counters.get(FASTPATH_JUMPS):
            break
    else:
        pytest.fail("no jump sampled")
    traced, counters = _counted(lambda: run_one_injection(
        "crc32", config, spec, golden, tracer=FaultTracer(),
        fastpath=True))
    assert traced == plain
    assert counters[FASTPATH_RESTORES] == 1
    assert not counters.get(FASTPATH_JUMPS)
    assert not counters.get(FASTPATH_EARLY_EXITS)


# ---------------------------------------------------------------------------
# dead-state exits
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("structure", ["LSQ", "RF"])
def test_a_flip_into_dead_state_ends_where_it_lands(structure):
    """An LSQ slot that is invalid or committed, or a free physical
    register (``prefer_live=False``), absorbs the flip: the fast run
    ends as it lands, with the slow path's result."""
    config = config_by_name("cortex-a72")
    golden = golden_run("crc32", "cortex-a72")
    store = checkpoint_store("crc32", "cortex-a72")
    program = load_workload("crc32", config.isa)
    limits = dict(max_instructions=golden.max_instructions,
                  max_cycles=golden.max_cycles)
    for spec in sample_campaign(config, structure, golden.cycles, n=40,
                                seed=5, prefer_live=False):
        slow = PipelineEngine(build_system_image(program), config,
                              faults=[spec], **limits)
        slow.observer = tracer = FaultTracer()
        want = slow.run()
        if not want.fault_applied or want.fault_live:
            continue
        fast = PipelineEngine(build_system_image(program), config,
                              faults=[spec], **limits)
        snapshot.prepare_pipeline_fastpath(fast, store)
        got, counters = _counted(fast.run)
        assert got == want
        assert counters[FASTPATH_EARLY_EXITS] == 1
        assert not counters.get(FASTPATH_ORACLE_EXITS)
        [landed] = [e.cycle for e in tracer.events if e.kind == "landed"]
        assert fast.fetch_time == landed
        return
    pytest.fail(f"no dead {structure} flip sampled")


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------
def test_oracle_exits_are_counted_with_the_early_exits(tmp_path,
                                                       monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    kwargs = dict(injector="gefin", structure="L2", n=12, seed=3,
                  use_cache=False, workers=1)
    campaign, counters = _counted(lambda: run_campaign(
        "crc32", "cortex-a72", fastpath=True, **kwargs))
    assert counters[FASTPATH_RESTORES] == 12
    oracle = counters[FASTPATH_ORACLE_EXITS]
    assert 0 < oracle <= counters[FASTPATH_EARLY_EXITS] <= 12
    assert counters[FASTPATH_INSTRUCTIONS_SAVED] > 0
    slow = run_campaign("crc32", "cortex-a72", fastpath=False, **kwargs)
    assert json.dumps(campaign.to_json()) == json.dumps(slow.to_json())
    # a disabled registry records nothing (installed here, since the
    # process default follows REPRO_METRICS)
    disabled = MetricsRegistry(enabled=False)
    set_registry(disabled)
    try:
        assert not get_registry().enabled
        run_campaign("crc32", "cortex-a72", fastpath=True, **kwargs)
    finally:
        set_registry(None)
    assert not disabled.snapshot()["counters"]
