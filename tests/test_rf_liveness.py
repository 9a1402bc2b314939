"""Register flips against the full slow-path run.

A gefin run whose one fault flips a physical register's value (an RF
flip into a live register, or an LSQ flip of an in-flight load's data,
which flips the load's destination) asks the golden pipeline run's
register record, as the flip lands, when the golden run next reads
the architectural register that holds it
(:class:`repro.uarch.liveness.RegisterLiveness`).  A flip no register
holds, or that the golden run overwrites first or never reads again,
ends its run there with the golden result; a flip whose every golden
use is a copy that dies unread ends right after its first read; a
flip first read after a later golden checkpoint jumps there and flips
the register again.  Every run decided must give the result the slow
path (``fastpath=False``) gives, and each decision gets a program of
its own: a register renamed away, one overwritten before its read,
one read and written by one step, one never read, one read after a
later checkpoint, one saved and restored by the kernel, a saved copy
later fed to an ALU op, a copy into the output buffer, a copy into a
fetched code word, and a multi-bit flip.
"""

from __future__ import annotations

import dataclasses
import json
from array import array

import pytest

from repro.faults.fault import FaultSpec, sample_campaign
from repro.injectors.campaign import run_campaign
from repro.injectors.gefin import run_one_injection
from repro.injectors.golden import arch_liveness, checkpoint_store, golden_run
from repro.isa.assembler import assemble
from repro.isa.registers import MR64
from repro.kernel.loader import build_system_image
from repro.obs.metrics import (FASTPATH_EARLY_EXITS,
                               FASTPATH_INSTRUCTIONS_JUMPED, FASTPATH_JUMPS,
                               FASTPATH_ORACLE_EXITS, FASTPATH_RESTORES,
                               MetricsRegistry, set_registry)
from repro.obs.tracing import FaultTracer
from repro.uarch import liveness, snapshot
from repro.uarch.config import CORTEX_A72, config_by_name
from repro.uarch.pipeline import PipelineEngine, PipelineResult
from repro.uarch.regfile import PhysRegFile
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


def _decided(counters) -> bool:
    return bool(counters.get(FASTPATH_ORACLE_EXITS)
                or counters.get(FASTPATH_JUMPS))


# ---------------------------------------------------------------------------
# the seeded grid: three programs on four cores, and hardened sha
# ---------------------------------------------------------------------------
CORES = ("cortex-a9", "cortex-a15", "cortex-a57", "cortex-a72")
TARGETS = tuple(
    (workload, core, False) for workload in ("crc32", "sha", "qsort")
    for core in CORES) + (("sha", "cortex-a72", True),)


@pytest.mark.parametrize("workload, config_name, hardened", TARGETS)
def test_every_register_decision_matches_the_slow_path(workload,
                                                       config_name,
                                                       hardened):
    """RF and LSQ flips over both ``prefer_live`` settings and bursts
    of 1-2 bits: every run is the slow path's, and the record decides
    some of them (the targeted programs below make each decision)."""
    config = config_by_name(config_name)
    golden = golden_run(workload, config_name, hardened=hardened)
    decided = 0
    for structure in ("RF", "LSQ"):
        for prefer_live in (False, True):
            specs = sample_campaign(config, structure, golden.cycles, n=8,
                                    seed=7, prefer_live=prefer_live)
            for i, spec in enumerate(specs):
                spec = dataclasses.replace(spec, n_bits=1 + i % 2)
                fast, counters = _counted(lambda: run_one_injection(
                    workload, config, spec, golden, hardened=hardened,
                    fastpath=True))
                slow = run_one_injection(workload, config, spec, golden,
                                         hardened=hardened, fastpath=False)
                assert fast == slow, spec
                decided += _decided(counters)
    assert decided


# ---------------------------------------------------------------------------
# targeted decisions, on programs written for them
# ---------------------------------------------------------------------------
#: a stretch of ~80 instructions that uses only r7, so a golden
#: checkpoint (every 64 instructions) lies between a flip and a read
#: after it
_DELAY = """
    li   r7, 40
delay:
    addi r7, r7, -1
    bnez r7, delay
"""

#: writes 8 bytes of ``out`` (the kernel saves r2 up and restores
#: them), then exits
_TAIL = """
    la   r2, out
    li   r3, 8
    li   r1, 1
    syscall
exiting:
    li   r1, 0
    li   r2, 3
    syscall
.data
a:
    .dword 0x1122334455667788
out:
    .space 64
"""

#: the kernel's write syscall for ``out``, as in the tail
_WRITE = """
    la   r2, out
    li   r3, 8
    li   r1, 1
    syscall
"""


class _Trace:
    """Observer: ``(fetch_time, next pc)`` after every instruction."""

    def __init__(self) -> None:
        self.rows: list = []

    def step(self, engine) -> None:
        self.rows.append((engine.fetch_time, engine.ms.pc))


class _Probe:
    """A fast-path hook that stops a run as its fault lands and keeps
    the register file and LSQ as they are then."""

    next_check = float("inf")

    def __init__(self) -> None:
        self.seen: dict = {}

    def injected(self, engine):
        rf = engine.rf
        self.seen = dict(step=engine.instructions,
                         rename_map=list(rf.rename_map),
                         state=list(rf.state),
                         lsq=[(i, e.addr) for i, e in
                              enumerate(engine.lsq.entries)
                              if e.valid and not e.is_store
                              and e.commit_cycle > engine.fetch_time])
        return PipelineResult(status=None, output=b"", exit_code=0,
                              cycles=0.0, instructions=0)


class _Case:
    """One program on the a72: its golden run and checkpoint store,
    with its golden code records."""

    def __init__(self, body: str) -> None:
        self.config = CORTEX_A72
        self.program = assemble(".text\n_start:\n" + body + _TAIL, MR64,
                                name="rf-liveness")
        golden = PipelineEngine(self._image(), self.config)
        golden.observer = trace = _Trace()
        self.result = result = golden.run()
        assert result.status.value == "completed"
        self.rows = trace.rows
        self.limits = dict(max_instructions=4 * result.instructions,
                           max_cycles=5 * result.cycles)
        self.store = snapshot.build_pipeline_store(
            self._image, self.config, interval=64,
            max_instructions=self.limits["max_instructions"])
        snapshot.decode_code(self.store, self.config)

    def _image(self):
        return build_system_image(self.program)

    def step(self, label: str) -> int:
        """The step that first executes the instruction at *label*."""
        pc = self.program.symbols[label]
        return next(k for k, (_, next_pc) in enumerate(self.rows)
                    if next_pc == pc) + 1

    def cycle(self, step: int) -> float:
        """A fault cycle that fires at the top of step *step*."""
        return self.rows[step - 1][0]

    def state(self, step: int) -> dict:
        """The register file and in-flight loads at the top of *step*."""
        probe = _Probe()
        engine = PipelineEngine(
            self._image(), self.config, **self.limits,
            faults=[FaultSpec("RF", self.cycle(step), 0, 0)])
        engine.fastpath = probe
        engine.run()
        assert probe.seen["step"] == step
        return probe.seen

    def reg_spec(self, step: int, reg: int, bit: int = 3,
                 n_bits: int = 1) -> FaultSpec:
        """A flip of the physical register holding *reg* at *step*."""
        phys = self.state(step)["rename_map"][reg]
        return FaultSpec("RF", self.cycle(step), phys, bit, n_bits=n_bits)

    def compare(self, spec: FaultSpec) -> tuple:
        """Run *spec* on the slow path and on the gefin fast path: both
        must agree.  Returns the result, the fast run's counters and
        the fast engine."""
        want = PipelineEngine(self._image(), self.config, faults=[spec],
                              **self.limits).run()
        fast = PipelineEngine(self._image(), self.config, faults=[spec],
                              **self.limits)
        snapshot.prepare_pipeline_fastpath(fast, self.store)
        got, counters = _counted(fast.run)
        assert got == want
        assert got.fault_applied and got.fault_live
        return got, counters, fast


def _exited(counters) -> bool:
    exited = bool(counters.get(FASTPATH_ORACLE_EXITS))
    if exited:
        assert counters[FASTPATH_EARLY_EXITS] == 1
    return exited


def _jumped(counters) -> bool:
    jumped = bool(counters.get(FASTPATH_JUMPS))
    if jumped:
        assert counters[FASTPATH_INSTRUCTIONS_JUMPED] > 0
    return jumped


def test_a_register_renamed_away_is_dead():
    """A live physical register the rename map no longer holds (its
    writer's successor has not committed) is never read again."""
    case = _Case("""
    li   r5, 7
    li   r5, 9           # r5's first register is pending until this commits
here:
    la   r2, out
    sd   r5, 0(r2)
""")
    step = case.step("here")
    state = case.state(step)
    pending = [p for p, live in enumerate(state["state"])
               if live and p not in state["rename_map"]]
    assert pending
    run, counters, _ = case.compare(
        FaultSpec("RF", case.cycle(step), pending[0], 5))
    assert _exited(counters) and not _jumped(counters)
    assert run.crossing is None and run.output == case.result.output


def test_a_register_overwritten_before_its_read_is_dead():
    case = _Case(f"""
    li   r5, 7
here:
{_DELAY}
    li   r5, 9           # writes r5 without reading it
    la   r2, out
    sd   r5, 0(r2)
""")
    run, counters, _ = case.compare(case.reg_spec(case.step("here"), 5))
    assert _exited(counters) and not _jumped(counters)
    assert run.crossing is None and run.output == case.result.output


def test_a_register_read_and_written_by_one_step_is_read():
    case = _Case(f"""
    li   r5, 7
here:
{_DELAY}
both:
    addi r5, r5, 1       # reads r5, then writes it
    la   r2, out
    sd   r5, 0(r2)
""")
    record = case.store.register_liveness()
    here, both = case.step("here"), case.step("both")
    assert record.first_read(5, here) == both
    # flipped earlier: the run jumps to the read
    run, counters, _ = case.compare(case.reg_spec(here, 5))
    assert _jumped(counters) and not _exited(counters)
    assert run.crossing.arch_reg == 5
    assert run.output != case.result.output
    # flipped at the step that reads and writes it: no checkpoint
    # lies before the read, so the run goes on
    run, counters, _ = case.compare(case.reg_spec(both, 5))
    assert not _decided(counters)
    assert run.output != case.result.output


def test_a_register_never_read_again_is_dead():
    case = _Case("""
    li   r5, 7
""")
    step = case.step("exiting")
    assert case.store.register_liveness().first_read(5, step) is None
    run, counters, _ = case.compare(case.reg_spec(step, 5))
    assert _exited(counters)
    assert run.crossing is None and run.output == case.result.output


@pytest.mark.parametrize("n_bits", [1, 3])
def test_a_register_read_after_a_later_checkpoint_jumps(n_bits):
    """A multi-bit flip re-plants every bit of its burst."""
    case = _Case(f"""
    li   r5, 7
here:
{_DELAY}
    add  r6, r5, r5
    la   r2, out
    sd   r6, 0(r2)
""")
    spec = case.reg_spec(case.step("here"), 5, bit=6, n_bits=n_bits)
    run, counters, _ = case.compare(spec)
    assert _jumped(counters) and not _exited(counters)
    assert run.output != case.result.output


def test_a_register_the_kernel_saves_and_restores_ends_after_the_save():
    """r9 is first read by the write syscall's trap-frame save, and its
    restored copy is never read: the run ends right after the save,
    which records the crossing, with or without a jump to it."""
    case = _Case(f"""
    li   r9, 7
here:
{_DELAY}""")
    here = case.step("here")
    record = case.store.register_liveness()
    save = record.first_read(9, here)
    assert record.only_copied(9, 1, here)
    for step, jumps in ((here, True), (save, False)):
        assert (case.store.last_between(step, save) is not None) is jumps
        run, counters, engine = case.compare(case.reg_spec(step, 9))
        assert _exited(counters) and _jumped(counters) is jumps
        # the exit step lies off the checkpoint grid
        assert engine.instructions == save + 1
        assert run.crossing.arch_reg == 9 and run.crossing.in_kernel
        assert run.output == case.result.output


def test_a_saved_copy_fed_to_an_alu_op_is_live():
    case = _Case(f"""
    li   r9, 7
here:
{_DELAY}{_WRITE}
    add  r10, r9, r9     # the restored copy feeds an add
    la   r2, out
    sd   r10, 0(r2)
""")
    here = case.step("here")
    assert not case.store.register_liveness().only_copied(9, 1, here)
    run, counters, _ = case.compare(case.reg_spec(here, 9))
    assert _jumped(counters) and not _exited(counters)
    assert run.output != case.result.output


def test_a_copy_into_the_output_buffer_is_live():
    """The copy is loaded and stored again by the write syscall, into
    the output region the end-of-run drain reads."""
    case = _Case("""
    li   r9, 7
    la   r2, out
here:
    sd   r9, 0(r2)       # the first read: a copy into the buffer
    li   r9, 0
""")
    here = case.step("here")
    assert not case.store.register_liveness().only_copied(9, 1, here)
    run, counters, _ = case.compare(case.reg_spec(here, 9))
    assert not _decided(counters)
    assert run.crossing is not None
    assert run.output != case.result.output


def test_a_copy_into_a_fetched_code_word_decides_nothing():
    """The golden run stores into a code line, so its code records may
    not be the words it ran: no register record, and the run goes on
    as the slow path's."""
    case = _Case("""
    la   r2, word
    lw   r9, 0(r2)
here:
    sw   r9, 0(r2)       # a copy of the word over itself
word:
    addi r6, r6, 1
""")
    assert case.store.register_liveness() is None
    _run, counters, _ = case.compare(case.reg_spec(case.step("here"), 9))
    assert not _decided(counters)


# ---------------------------------------------------------------------------
# LSQ flips of a load's data
# ---------------------------------------------------------------------------
def _load_spec(case, label: str, bit: int = 3) -> FaultSpec:
    """A flip of the data field of the in-flight load of ``a``, at the
    top of the step at *label*."""
    step = case.step(label)
    [index] = [i for i, addr in case.state(step)["lsq"]
               if addr == case.program.symbols["a"]]
    return FaultSpec("LSQ", case.cycle(step), index, 32 + bit)


@pytest.mark.parametrize("body, decided", [
    ("""    li   r5, 9           # overwrites the loaded register
    la   r2, out
    sd   r5, 0(r2)
""", "exit"),
    ("""    addi r6, r6, 1
    la   r2, out
    sd   r5, 0(r2)       # reads it, with no checkpoint before
""", None),
], ids=["overwritten", "read"])
def test_a_flipped_load_destination_is_decided_as_a_register(body,
                                                             decided):
    case = _Case(f"""
    la   r2, a
    ld   r5, 0(r2)
here:
{body}""")
    run, counters, _ = case.compare(_load_spec(case, "here"))
    assert _exited(counters) is (decided == "exit")
    assert not _jumped(counters)
    assert (run.output == case.result.output) is (decided == "exit")


def test_a_flipped_load_whose_destination_was_renamed_is_dead():
    case = _Case("""
    la   r2, a
    ld   r5, 0(r2)
    li   r5, 9           # renames r5 while the load is in flight
here:
    la   r2, out
    sd   r5, 0(r2)
""")
    run, counters, _ = case.compare(_load_spec(case, "here"))
    assert _exited(counters)
    assert run.crossing is None and run.output == case.result.output


# ---------------------------------------------------------------------------
# the copy walk's rules, on records written for them
# ---------------------------------------------------------------------------
_L, _M = 0x1000, 0x2000


def _record(events=(), rs1=(), rs2=(), dests=(), pcs=(),
            n: int = 8) -> liveness.RegisterLiveness:
    """A record of *n* steps: r5 is stored to ``_L`` at step 0, loaded
    into r6 at step 2 and r6 stored to ``_M`` at step 4, plus *events*
    ``(line, step, kind, lo, hi)`` and ``{step: register}`` reads
    *rs1*/*rs2* and writes *dests*; *pcs* ``{step: pc}``."""
    base = [(_L, 0, liveness.STORE, 0, 8), (_L, 2, liveness.LOAD, 0, 8),
            (_M, 4, liveness.STORE, 8, 16)]
    rows = sorted(sorted(base + list(events), key=lambda e: e[1]),
                  key=lambda e: e[0])
    lines, steps, kinds, los, his = zip(*rows)
    oracle = liveness.LivenessOracle(
        line_size=64, lines=array("q", lines), steps=array("I", steps),
        kinds=bytes(kinds), los=array("H", los), his=array("H", his),
        pcs=array("I", [dict(pcs).get(k, 0x100 + 4 * k)
                        for k in range(n)]).tobytes())

    def column(reads):
        out = bytearray(n)
        for step, reg in dict(reads).items():
            out[step] = reg
        return bytes(out)

    return liveness.RegisterLiveness(
        oracle=oracle, rs1s=column(rs1),
        rs2s=column({0: 5, 4: 6, **dict(rs2)}),
        dests=column({2: 6, **dict(dests)}),
        steps=oracle.steps.tobytes())


@pytest.mark.parametrize("changes, copied", [
    ({}, True),
    # r6 feeds an ALU op, or a branch, or an address
    ({"rs1": {5: 6}}, False),
    ({"rs2": {5: 6}}, False),
    # ...after it is overwritten: a fresh value
    ({"rs1": {6: 6}, "dests": {5: 6}}, True),
    # the stored copy is drained, fetched or in an opaque access's line
    ({"events": [(_M, 6, liveness.DRAIN, 8, 16)]}, False),
    ({"events": [(_M, 6, liveness.DRAIN, 0, 8)]}, True),
    ({"pcs": {6: _M + 8}}, False),
    ({"pcs": {6: _M + 16}}, True),
    ({"events": [(_L, 1, liveness.OPAQUE, 0, 0)]}, False),
    # a store overwrites the first copy before the load reads it
    ({"events": [(_L, 1, liveness.STORE, 0, 8)]}, True),
    # ...or only part of it
    ({"events": [(_L, 1, liveness.STORE, 0, 4)], "rs1": {7: 6}}, False),
    # the loaded copy lands in r0
    ({"dests": {2: 0}, "rs1": {7: 6}}, True),
], ids=["stored-loaded-stored", "alu", "branch-or-handler", "rewritten",
        "drained", "drain-elsewhere", "fetched", "fetch-elsewhere",
        "opaque", "overwritten", "partly-overwritten", "into-r0"])
def test_the_copy_walk(changes, copied):
    record = _record(**changes)
    assert record.only_copied(5, 0xFF, 0) is copied


def test_a_narrow_store_copies_only_its_bytes():
    """r5's flipped byte 5 is past a 4-byte store: nothing corrupted
    is stored, so the drain of the stored bytes reads none."""
    record = _record(events=[(_L, 1, liveness.DRAIN, 0, 8)])
    assert not record.only_copied(5, 1 << 5, 0)
    record.oracle.his[record.oracle.lines.index(_L)] = 4
    assert record.only_copied(5, 1 << 5, 0)


@pytest.mark.parametrize("nbytes, copied", [(8, True), (1, False)])
def test_a_load_of_a_flipped_sign_byte_may_change_every_upper_byte(
        nbytes, copied):
    """r5's byte 0 is flipped, stored and loaded back into r6: by a
    1-byte load, whose sign byte it is, r6's upper bytes may differ
    too, and the drain of bytes 4-7 of r6's copy reads them."""
    record = _record(events=[(_M, 6, liveness.DRAIN, 12, 16)])
    oracle = record.oracle
    load = oracle.kinds.index(liveness.LOAD)
    oracle.his[load] = oracle.los[load] + nbytes
    assert record.only_copied(5, 1, 0) is copied


@pytest.mark.parametrize("n, copied", [
    (20, True), (2 * liveness.COPY_WALK_LIMIT + 4, False)])
def test_the_copy_walk_is_bounded(n, copied):
    """A value stored to and loaded from one line, again and again:
    the walk follows a short chain to its end and gives up on a long
    one."""
    events = [(_L, k, liveness.LOAD if k % 2 else liveness.STORE, 0, 8)
              for k in range(6, n)]
    rs2 = {k: 6 for k in range(6, n, 2)}
    dests = {k: 6 for k in range(7, n, 2)}
    record = _record(events, rs2=rs2, dests=dests, n=n)
    assert record.only_copied(5, 0xFF, 0) is copied


# ---------------------------------------------------------------------------
# a traced run, and the counters
# ---------------------------------------------------------------------------
def test_a_traced_run_neither_jumps_nor_ends_early():
    """With an observer attached the run is seen to its end."""
    config = config_by_name("cortex-a72")
    golden = golden_run("sha", "cortex-a72")
    for spec in sample_campaign(config, "RF", golden.cycles, n=40,
                                seed=3, prefer_live=True):
        plain, counters = _counted(lambda: run_one_injection(
            "sha", config, spec, golden, fastpath=True))
        if _decided(counters):
            break
    else:
        pytest.fail("no register decision sampled")
    traced, counters = _counted(lambda: run_one_injection(
        "sha", config, spec, golden, tracer=FaultTracer(), fastpath=True))
    assert traced == plain
    assert counters[FASTPATH_RESTORES] == 1
    assert not _decided(counters)
    assert not counters.get(FASTPATH_EARLY_EXITS)


def test_register_exits_and_jumps_are_counted(tmp_path, monkeypatch):
    """The counts of one small RF campaign, pinned; its results are
    the slow path's."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    kwargs = dict(injector="gefin", structure="RF", n=16, seed=3,
                  use_cache=False, workers=1)
    campaign, counters = _counted(lambda: run_campaign(
        "sha", "cortex-a72", fastpath=True, **kwargs))
    assert {name: counters.get(name, 0) for name in (
        FASTPATH_RESTORES, FASTPATH_ORACLE_EXITS, FASTPATH_EARLY_EXITS,
        FASTPATH_JUMPS, FASTPATH_INSTRUCTIONS_JUMPED)} == PINNED
    slow = run_campaign("sha", "cortex-a72", fastpath=False, **kwargs)
    assert json.dumps(campaign.to_json()) == json.dumps(slow.to_json())


PINNED = {FASTPATH_RESTORES: 16, FASTPATH_ORACLE_EXITS: 12,
          FASTPATH_EARLY_EXITS: 12, FASTPATH_JUMPS: 4,
          FASTPATH_INSTRUCTIONS_JUMPED: 7456}


# ---------------------------------------------------------------------------
# soundness of the derived operands
# ---------------------------------------------------------------------------
GOLDEN_TARGETS = tuple((workload, core) for workload in
                       ("crc32", "sha", "qsort") for core in CORES)


def test_golden_runs_read_registers_only_as_sources(monkeypatch):
    """A handler reads its sources from the loop's ``src_vals``; the
    register file's own read (``_PipelineCore.read_reg``'s fallback) is
    reached only for r0.  So a register is read only as its step's rs1
    or rs2, which the record holds."""
    read = PhysRegFile.read
    reads: set = set()

    def spy(self, arch):
        reads.add(arch)
        return read(self, arch)

    monkeypatch.setattr(PhysRegFile, "read", spy)
    for workload, core, hardened in TARGETS:
        config = config_by_name(core)
        engine = PipelineEngine(build_system_image(load_workload(
            workload, config.isa, hardened=hardened)), config)
        assert engine.run().status.value == "completed"
    assert reads <= {0}


@pytest.mark.parametrize("workload, config_name", GOLDEN_TARGETS)
def test_derived_operands_are_the_functional_runs(workload, config_name):
    """The pipeline's pc record and golden code give each step the
    sources and destination the golden functional-sim run records."""
    record = checkpoint_store(workload, config_name).register_liveness()
    arch = arch_liveness(workload, config_name)
    assert (record.rs1s, record.rs2s, record.dests) \
        == (arch.rs1s, arch.rs2s, arch.dests)
