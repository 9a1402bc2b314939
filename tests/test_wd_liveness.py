"""The architectural liveness oracle against the full slow-path run.

An untraced pvf run whose one action names its flip's target (a WD
flip of a register or a memory byte) asks the golden functional-sim
run's record, as the flip fires, when the golden run next touches the
flipped location (:class:`repro.uarch.liveness.RegisterLiveness`, the
record gefin register flips use).  A flip
the golden run overwrites first, or never reads again, ends its run
there with the golden result; a flip whose first read lies after a
later golden checkpoint jumps there and flips the location again.
Every run the oracle ends or jumps must give the
:class:`InjectionResult` the slow path (``fastpath=False``) gives, and
the kinds of read each get a program of their own: a register read
and written by one step, a store that covers the flipped byte, the end
of the run's reads of the output, its length word and the exit code,
and an instruction fetch.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.injectors.archinj import build_pvf_action, run_one_pvf
from repro.injectors.campaign import run_campaign
from repro.injectors.golden import arch_liveness, golden_run
from repro.isa import layout
from repro.isa.assembler import assemble
from repro.isa.registers import MR64, register_set
from repro.kernel.loader import build_system_image
from repro.kernel.syscalls import EXIT_CODE_OFFSET
from repro.obs.metrics import (FASTPATH_EARLY_EXITS,
                               FASTPATH_INSTRUCTIONS_JUMPED,
                               FASTPATH_INSTRUCTIONS_SAVED, FASTPATH_JUMPS,
                               FASTPATH_ORACLE_EXITS, FASTPATH_RESTORES,
                               MetricsRegistry, set_registry)
from repro.obs.tracing import FaultTracer
from repro.uarch import liveness as lv
from repro.uarch import snapshot
from repro.uarch.config import config_by_name
from repro.uarch.functional import (FaultAction, FunctionalEngine,
                                    collected_ranges, decode_record)
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
# the seeded grid: every WD run of sha, crc32 and hardened sha
# ---------------------------------------------------------------------------
GRID = (("sha", False), ("crc32", False), ("sha", True))


@pytest.mark.parametrize("workload, hardened", GRID)
def test_every_wd_exit_and_jump_matches_the_slow_path(workload, hardened):
    """Two seeds; register and memory targets both end as they land
    and jump."""
    golden = golden_run(workload, "cortex-a72", hardened=hardened)
    xlen = register_set(MR64).xlen
    decided = {"reg": [0, 0], "mem": [0, 0]}     # [exits, jumps]
    for seed in (1, 2):
        rng = random.Random(seed)
        for _ in range(40):
            action = build_pvf_action("WD", rng, golden, xlen)
            fast, counters = _counted(lambda: run_one_pvf(
                workload, MR64, action, golden, hardened=hardened,
                fastpath=True))
            slow = run_one_pvf(workload, MR64, action, golden,
                               hardened=hardened, fastpath=False)
            assert fast == slow, action.origin
            tally = decided[action.target[0]]
            tally[0] += counters.get(FASTPATH_ORACLE_EXITS, 0)
            tally[1] += counters.get(FASTPATH_JUMPS, 0)
    assert all(exits and jumps for exits, jumps in decided.values()), \
        decided


class _Uses:
    """Observer of a functional-sim run: per step, the registers its
    instruction reads and writes (from its own word's decode record),
    its memory access, and its pc."""

    def __init__(self, engine) -> None:
        self.pcs = [engine.ms.pc]
        self.reads: list = []
        self.writes: list = []
        self.mems: list = []

    def step(self, engine) -> None:
        record = decode_record(engine.last_instr.raw, engine.regs_meta)
        self.reads.append({record[3], record[4]} - {0})
        self.writes.append(record[5])
        self.mems.append(engine.last_mem)
        self.pcs.append(engine.ms.pc)


def _timelines(uses: _Uses, output_len: int) -> tuple:
    """``({reg: [(step, is read)]}, {byte: [(step, is fetch, is
    store)]})`` in the order the run touches them: a step reads its
    registers before it writes one, and fetches before its access; the
    end of the run reads its collected ranges at the step after the
    last."""
    regs: dict = {}
    for step, (reads, write) in enumerate(zip(uses.reads, uses.writes)):
        for reg in reads:
            regs.setdefault(reg, []).append((step, True))
        if write:
            regs.setdefault(write, []).append((step, False))
    memory: dict = {}
    n = len(uses.mems)
    for step in range(n):
        pc = uses.pcs[step]
        for addr in range(pc, pc + 4):
            memory.setdefault(addr, []).append((step, True, False))
        mem = uses.mems[step]
        if mem is not None:
            kind, addr, nbytes = mem
            for byte in range(addr, addr + nbytes):
                memory.setdefault(byte, []).append(
                    (step, False, kind == "store"))
    for addr, nbytes in collected_ranges(output_len):
        for byte in range(addr, addr + nbytes):
            memory.setdefault(byte, []).append((n, False, False))
    return regs, memory


def _reference_reg(timeline: list, step: int) -> "int | None":
    for at, read in timeline:
        if at >= step:
            return at if read else None
    return None


def _reference_byte(timeline: list, step: int) -> "int | None":
    """The flip lands after step *step*'s fetch."""
    for at, fetch, store in timeline:
        if at > step or at == step and not fetch:
            return None if store else at
    return None


@pytest.mark.parametrize("workload, hardened", GRID)
def test_first_reads_match_a_scan_of_the_golden_run(workload, hardened):
    """A seeded sample of registers and bytes, each flipped at a step
    around one of its uses: the record's first read is the first use
    from there on in the replay's own steps, None when it is a write
    (a store covering the byte) or there is none."""
    record = arch_liveness(workload, "cortex-a72", hardened=hardened)
    engine = FunctionalEngine(build_system_image(load_workload(
        workload, MR64, hardened=hardened)))
    engine.observer = uses = _Uses(engine)
    result = engine.run()
    assert result.status.value == "completed"
    regs, memory = _timelines(uses, len(result.output))
    n = len(uses.mems)
    rng = random.Random(7)
    seen = {"reg": set(), "mem": set()}
    for kind, timelines, first, reference in (
            ("reg", regs, record.first_read, _reference_reg),
            ("mem", memory, record.first_byte_read, _reference_byte)):
        locations = sorted(timelines)
        for _ in range(300):
            where = rng.choice(locations)
            if rng.random() < 0.2:
                step = rng.randrange(n + 1)
            else:
                step = rng.choice(timelines[where])[0] + rng.randint(-1, 1)
                step = min(max(step, 0), n)
            want = reference(timelines[where], step)
            assert first(where, step) == want, (kind, where, step)
            seen[kind].add(want is None)
    assert seen == {"reg": {True, False}, "mem": {True, False}}


# ---------------------------------------------------------------------------
# targeted reads, on programs written for them
# ---------------------------------------------------------------------------
_TAIL = """
    la   r2, out
    li   r3, 8
    li   r1, 1
    syscall
after_write:
    addi r6, r6, 1
    addi r6, r6, 1
    addi r6, r6, 1
    li   r1, 0
    li   r2, 3
    syscall
.data
a:
    .dword 0x1122334455667788
out:
    .space 64
"""

#: instructions between two checkpoints of a case's store
INTERVAL = 8


class _Pcs:
    """Observer: the pc after every instruction, which the next one
    fetches."""

    def __init__(self) -> None:
        self.pcs: list = []

    def step(self, engine) -> None:
        self.pcs.append(engine.ms.pc)


class _Case:
    """One program on the sim kernel: its golden run, liveness record
    and a checkpoint store every :data:`INTERVAL` instructions."""

    def __init__(self, body: str) -> None:
        self.program = assemble(".text\n_start:\n" + body + _TAIL, MR64,
                                name="wd-liveness")
        golden = FunctionalEngine(self._image())
        self.result = result = golden.run()
        assert result.status.value == "completed"
        pcs = _Pcs()
        traced = FunctionalEngine(self._image())
        traced.observer = pcs
        traced.run()
        self.pcs = pcs.pcs
        self.max_instructions = 4 * result.instructions
        self.store = snapshot.build_functional_store(
            self._image, "sim", self.max_instructions, INTERVAL)
        self.liveness = snapshot.functional_liveness(
            self.store, config_by_name("cortex-a72"), self._replay)
        assert self.liveness is not None

    def _replay(self, observer):
        engine = FunctionalEngine(self._image())
        engine.observer = observer
        return engine.run()

    def _image(self):
        return build_system_image(self.program)

    def at(self, label: str) -> int:
        """The step that first executes the instruction at *label*."""
        return self.pcs.index(self.program.symbols[label]) + 1

    def _engine(self, *actions) -> FunctionalEngine:
        engine = FunctionalEngine(self._image(),
                                  max_instructions=self.max_instructions)
        for action in actions:
            engine.schedule(action)
        return engine

    def compare(self, *actions) -> tuple:
        """Run *actions* on the slow path and on the fast path with the
        oracle: both must agree.  Returns the result and the fast
        run's counters."""
        want = self._engine(*actions).run()
        fast = self._engine(*actions)
        snapshot.prepare_functional_fastpath(fast, self.store,
                                             self.liveness)
        got, counters = _counted(fast.run)
        assert got == want
        return got, counters

    def inject(self, kind: str, where: int, when: int,
               bit: int = 1) -> tuple:
        """:meth:`compare` one flip of *bit* of register or byte
        *where*, at the top of step *when*."""
        return self.compare(_flip((kind, where, 1 << bit), when))


def _flip(target: tuple, when: int) -> FaultAction:
    """A WD action: XOR *target*'s mask into its location at commit
    *when*."""
    kind, where, mask = target

    def apply(engine) -> None:
        if kind == "reg":
            engine.regs[where] ^= mask
        else:
            byte = engine.memory.read(where, 1)[0]
            engine.memory.write(where, bytes((byte ^ mask,)))

    return FaultAction("commit", when, apply, origin=f"{kind} {where:#x}",
                       target=target)


def _exited(counters) -> bool:
    return bool(counters.get(FASTPATH_ORACLE_EXITS))


def _jumped(counters) -> bool:
    return bool(counters.get(FASTPATH_JUMPS))


_PAD = "    addi r6, r6, 1\n" * 2 * INTERVAL


def test_a_register_read_and_written_by_one_step_is_live():
    case = _Case(f"""
    li   r5, 7
flip:
{_PAD}both:
    addi r5, r5, 1       # reads r5, then writes it
    la   r2, out
    sd   r5, 0(r2)
""")
    flip, both = case.at("flip"), case.at("both")
    assert case.liveness.first_read(5, flip) == both
    # flipped right at the step that reads and writes it: no later
    # checkpoint before the read, so the run goes on
    run, counters = case.inject("reg", 5, both)
    assert not _exited(counters) and not _jumped(counters)
    assert run.output != case.result.output
    # flipped earlier: the run jumps to the read
    run, counters = case.inject("reg", 5, flip)
    assert _jumped(counters) and not _exited(counters)
    assert run.output != case.result.output


def test_a_register_overwritten_before_its_next_read_is_dead():
    case = _Case(f"""
    li   r5, 7
flip:
{_PAD}    li   r5, 9           # writes r5 without reading it
    la   r2, out
    sd   r5, 0(r2)
""")
    run, counters = case.inject("reg", 5, case.at("flip"))
    assert _exited(counters)
    assert counters[FASTPATH_EARLY_EXITS] == 1
    assert run.output == case.result.output
    # r0 reads 0 whatever it holds
    assert case.liveness.first_read(0, 0) is None


@pytest.mark.parametrize("store, dead", (("sd   r7, 0(r4)", True),
                                         ("sw   r7, 0(r4)", True),
                                         ("sb   r7, 0(r4)", False)))
def test_a_byte_overwritten_by_a_wider_store_is_dead(store, dead):
    """A store that covers the flipped byte (a+3) kills the flip; one
    that writes only a+0 leaves it to the load after it."""
    case = _Case(f"""
    la   r4, a
    li   r7, 5
flip:
    {store}
{_PAD}    ld   r5, 0(r4)
    la   r2, out
    sd   r5, 0(r2)
""")
    a = case.program.symbols["a"]
    run, counters = case.inject("mem", a + 3, case.at("flip"), bit=6)
    assert _exited(counters) is dead
    assert _jumped(counters) is not dead
    assert (run.output == case.result.output) is dead


def test_an_output_byte_never_reloaded_is_read_at_the_end():
    case = _Case("")
    when = case.at("after_write")
    n = case.result.instructions
    out = layout.OUTPUT_BASE
    assert case.liveness.first_byte_read(out + 2, when) == n
    run, counters = case.inject("mem", out + 2, when)
    assert _jumped(counters)
    assert run.output != case.result.output
    # past the output's length the end reads nothing
    run, counters = case.inject("mem", out + len(case.result.output), when)
    assert _exited(counters)


def test_a_flip_into_the_output_length_word_is_read_at_the_end():
    case = _Case("")
    run, counters = case.inject("mem", layout.OUTPUT_LEN_ADDR,
                                case.at("after_write"), bit=4)
    assert _jumped(counters)
    assert len(run.output) != len(case.result.output)


def test_a_flip_into_the_exit_code_word_is_read_at_the_end():
    case = _Case("")
    word = layout.KERNEL_DATA_BASE + EXIT_CODE_OFFSET
    oracle = case.liveness.oracle
    # flipped after the exit syscall stores the code
    when = 1 + max(step for step, line, kind in zip(
        oracle.steps, oracle.lines, oracle.kinds)
        if line == word & ~7 and kind == lv.STORE)
    assert case.liveness.first_byte_read(word, when) \
        == case.result.instructions
    run, counters = case.inject("mem", word, when)
    assert not _exited(counters)
    assert run.exit_code != case.result.exit_code


def test_a_flipped_byte_of_a_fetched_code_word_is_live_at_the_fetch():
    case = _Case(f"""
    li   r5, 7
flip:
{_PAD}word:
    addi r5, r5, 3
    la   r2, out
    sd   r5, 0(r2)
""")
    word = case.program.symbols["word"]
    flip = case.at("flip")
    assert case.liveness.first_byte_read(word, flip) == case.at("word")
    run, counters = case.inject("mem", word, flip, bit=0)
    assert _jumped(counters)
    assert run.output != case.result.output
    # flipped one step before its fetch
    before = case.at("word") - 1
    assert case.liveness.first_byte_read(word, before) == before + 1
    run, counters = case.inject("mem", word, before, bit=0)
    assert not _exited(counters)
    assert run.output != case.result.output
    # the word of the step the flip fires at was fetched before it,
    # and no step fetches it again
    run, counters = case.inject("mem", word, case.at("word"), bit=0)
    assert _exited(counters)
    assert run.output == case.result.output


def test_a_multi_action_engine_never_decides():
    case = _Case(f"""
    li   r5, 7
flip:
{_PAD}    li   r5, 9
""")
    flip = case.at("flip")
    single = _flip(("reg", 5, 2), flip)
    assert _exited(case.compare(single)[1])
    _run, counters = case.compare(single, _flip(("reg", 5, 4), flip + 1))
    assert not _exited(counters) and not _jumped(counters)
    # nor does an action that names no target
    untargeted = FaultAction("commit", flip, single.apply)
    _run, counters = case.compare(untargeted)
    assert not _exited(counters) and not _jumped(counters)


def test_a_traced_run_neither_jumps_nor_ends_early():
    """With an observer attached the run is seen to its end."""
    golden = golden_run("crc32", "cortex-a72")
    rng = random.Random(3)
    for _ in range(40):
        action = build_pvf_action("WD", rng, golden, 64)
        plain, counters = _counted(lambda: run_one_pvf(
            "crc32", MR64, action, golden, fastpath=True))
        if _jumped(counters):
            break
    else:
        pytest.fail("no jump sampled")
    traced, counters = _counted(lambda: run_one_pvf(
        "crc32", MR64, action, golden, tracer=FaultTracer(),
        fastpath=True))
    assert traced == plain
    assert counters[FASTPATH_RESTORES] == 1
    assert not _jumped(counters)
    assert not counters.get(FASTPATH_EARLY_EXITS)


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------
def test_wd_exits_and_jumps_are_counted(tmp_path, monkeypatch):
    """The counts of one small campaign, pinned; its results are the
    slow path's."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    kwargs = dict(injector="pvf", model="WD", n=16, seed=3,
                  use_cache=False, workers=1, batch_lanes=0)
    campaign, counters = _counted(lambda: run_campaign(
        "crc32", "cortex-a72", fastpath=True, **kwargs))
    assert {name: counters.get(name, 0) for name in (
        FASTPATH_RESTORES, FASTPATH_ORACLE_EXITS, FASTPATH_EARLY_EXITS,
        FASTPATH_JUMPS, FASTPATH_INSTRUCTIONS_JUMPED)} == PINNED
    assert counters[FASTPATH_INSTRUCTIONS_SAVED] > 0
    slow = run_campaign("crc32", "cortex-a72", fastpath=False, **kwargs)
    assert json.dumps(campaign.to_json()) == json.dumps(slow.to_json())


PINNED = {FASTPATH_RESTORES: 16, FASTPATH_ORACLE_EXITS: 4,
          FASTPATH_EARLY_EXITS: 4, FASTPATH_JUMPS: 10,
          FASTPATH_INSTRUCTIONS_JUMPED: 10884}
