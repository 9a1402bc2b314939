"""Checkpoint/restore fast path for injection campaigns.

Every injection run is, by construction, identical to the golden run
up to the injection point; re-simulating that prefix is the dominant
campaign cost (the redundancy fork-at-injection tools like ZOFI
eliminate).  This module implements the golden-fork equivalent for
deterministic simulators:

* **capture/restore** — complete simulator state of either engine
  (pipeline structures, renamed register file, LSQ, caches, branch
  predictor, timing state, and memory via copy-on-write pages) can be
  captured at an instruction boundary and restored into a fresh
  engine, after which execution is bit-identical to an uninterrupted
  run;

* **checkpoint stores** — a fault-free *capture run* records a
  checkpoint every ``interval`` instructions (plus the final result,
  and for the functional engine a canonical state digest per
  boundary).  Injectors restore the nearest checkpoint at-or-before
  the injection point instead of simulating from reset
  (:func:`prepare_pipeline_fastpath` /
  :func:`prepare_functional_fastpath`);

* **early Masked termination** (functional engine) — after every
  scheduled action has fired, the engine compares its canonical digest
  against the golden digest at each boundary.  The digest covers *all*
  state that can influence future behaviour or the final result
  (registers, memory, machine state and host output), so an early
  exit is only declared once the run has provably reconverged onto the
  golden trajectory — the remainder of the run is then synthesised
  from the capture run's own final result, byte-identical to running
  it out.  This guard is what keeps WOI/ESC semantics unchanged: a
  fault whose corruption still lingers in a register or in memory can
  never exit early.  Pipeline runs end early only through the
  decisions below, made once as their flip lands;

* **liveness oracle** — the capture run also records its cache events
  and the pc of every instruction (:mod:`repro.uarch.liveness`).  A
  gefin injection whose fault is a cache data flip consults it once,
  right after the flip lands: a data flip changes nothing but values,
  so the faulty run follows the golden run until a copy is read.  When
  the golden events show no load, fetch or drain ever reading a
  corrupted copy, the run ends there, with the same synthesised result
  as an early exit;

* **jump to the first read** — when they show the first read after a
  later checkpoint, the run jumps along the golden run instead: it
  restores the last checkpoint before the read and re-plants there the
  copies the walk still finds corrupted, so the read, and everything
  after it, happens as in the run it skipped;

* **dead-state exit** — a flip that lands on dead state (a free
  physical register, an invalid or committed LSQ slot, an invalid
  line) changes nothing at all, and its run ends as it lands;

* **register flips** — a flip of a live physical register's value (an
  RF flip, or an LSQ flip of an in-flight load's data) is decided the
  same way from the store's :class:`~repro.uarch.liveness.RegisterLiveness`:
  the run ends as it lands when no architectural register holds the
  flipped one or the golden run overwrites it first or never reads
  it again, ends right after its first read when every golden use of
  the value is a copy that dies unread, and jumps to the last
  checkpoint before that read otherwise;

* **architectural flips** — the functional counterpart: a pvf WD flip
  of one register or memory byte persists until it is overwritten.
  The same record type, of the golden functional-sim run and built on
  first demand, ends its run as the flip fires when the golden run
  overwrites the location first or never reads it again, or jumps it
  to the last checkpoint before the first read, where the flip is
  applied again.  Cache, register and WD flips all go through one
  decision, ``_FastPath._decide``.

Correctness invariants the fast path relies on:

* pipeline faults fire at the first top-of-loop where
  ``spec.cycle <= fetch_time`` and ``fetch_time`` is strictly
  increasing, so restoring any boundary with ``cycle <= spec.cycle``
  preserves the firing point exactly;
* the dead-state exit trusts, and :func:`pipeline_digest` excludes,
  exactly the dead state the engines never read back: FREE physical
  registers (always rewritten before becoming readable), invalid
  cache lines/LSQ slots (fills and allocations overwrite them),
  replacement metadata of invalid lines;
* the fetch fast-path line reference is captured (and restored) as
  its *effective* key — ``(-1, -1)`` whenever the cached line no
  longer satisfies the fetch's coherence check, which is exactly the
  condition under which the reference is unreachable.

The fast path is controlled by ``REPRO_FASTPATH`` (truthy default)
and the ``--no-fastpath`` CLI escape hatch; checkpoint density is
fixed by :func:`checkpoint_interval` (about ``TARGET_CHECKPOINTS`` per
capture run).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from array import array
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from ..isa.layout import PAGE_SIZE
from ..obs.metrics import (FASTPATH_CYCLES_SKIPPED, FASTPATH_DIGEST_EXITS,
                           FASTPATH_EARLY_EXITS,
                           FASTPATH_INSTRUCTIONS_JUMPED,
                           FASTPATH_INSTRUCTIONS_SAVED,
                           FASTPATH_INSTRUCTIONS_SKIPPED, FASTPATH_JUMPS,
                           FASTPATH_ORACLE_EXITS,
                           FASTPATH_RESTORES, env_flag, get_registry)
from .cache import Cache, Line
from .functional import (FaultAction, FuncResult, FunctionalEngine,
                         RunStatus, collected_ranges)
from .liveness import (GRANULE, LivenessOracle, LivenessRecorder,
                       RegisterLiveness, record_liveness, register_liveness)
from .pipeline import (PipelineEngine, PipelineResult, code_records,
                       fold_coordinates)

#: bump on any change to the capture format or digest definition;
#: invalidates every on-disk checkpoint store (3: the liveness oracle;
#: 4: the capture run's occupancy in ``final``; 5: the pc record,
#: events keyed by step, and the golden code lines; 6: no pipeline
#: digests, no per-checkpoint digest)
SNAPSHOT_SCHEMA_VERSION = 6

#: cache structures whose data flips the liveness oracle decides
_ORACLE_STRUCTURES = ("L1I", "L1D", "L2")

#: default number of checkpoints per capture run
TARGET_CHECKPOINTS = 16

def fastpath_enabled(explicit: "bool | None" = None) -> bool:
    """Resolve the fast-path switch: explicit flag > ``REPRO_FASTPATH``
    environment variable > on by default."""
    if explicit is not None:
        return bool(explicit)
    return env_flag("REPRO_FASTPATH", True)


def checkpoint_interval(total_instructions: int) -> int:
    """Checkpoint spacing in instructions for a run of the given size."""
    return max(64, total_instructions // TARGET_CHECKPOINTS)


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------
@dataclass
class Checkpoint:
    """One captured boundary of a fault-free run."""

    instructions: int            # boundary position (retired instructions)
    cycle: float                 # pipeline fetch_time (0.0 for functional)
    counters: dict               # functional trigger counters at capture
    state: dict                  # engine-specific captured state


@dataclass
class CheckpointStore:
    """All checkpoints of one (workload, config, engine-kind) capture."""

    schema: int
    engine: str                  # "pipeline"|"functional-sim"|"functional-host"
    key: str                     # cache key the store was built under
    interval: int
    checkpoints: list = field(default_factory=list)
    #: boundary instruction count -> golden digest (functional stores'
    #: early-exit oracle; empty in pipeline stores)
    digests: dict = field(default_factory=dict)
    #: final-result fields of the capture run (synthesised on early
    #: exit); a pipeline store's also hold its structure occupancies
    final: dict = field(default_factory=dict)
    #: the capture run's cache events (pipeline stores; None when not
    #: recorded)
    liveness: "LivenessOracle | None" = None
    #: the bytes of every I-cache line the capture run fetched from,
    #: by line base, as it started (pipeline stores)
    code: dict = field(default_factory=dict)
    #: :func:`repro.uarch.pipeline.code_records` of ``code``, set up by
    #: :func:`decode_code` and never saved (records hold functions)
    code_records: dict = field(default_factory=dict, compare=False,
                               repr=False)
    #: the golden run's :class:`RegisterLiveness`, built on first
    #: demand (pipeline stores: :meth:`register_liveness`;
    #: functional-sim stores: :func:`functional_liveness`) and never
    #: saved; False when none can be built
    reg_liveness: "RegisterLiveness | bool | None" = field(
        default=None, compare=False, repr=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["code_records"] = {}
        state.pop("reg_liveness", None)
        return state

    def register_liveness(self) -> "RegisterLiveness | None":
        """The golden run's register record, from the oracle's pc record
        and ``code_records``, built on first demand; None when the store
        has no oracle or the record cannot be built (see
        :func:`repro.uarch.liveness.register_liveness`)."""
        if self.reg_liveness is None:
            self.reg_liveness = self.liveness is not None and (
                register_liveness(self.liveness, self.code_records)
                or False)
        return self.reg_liveness or None

    def nearest(self, *, cycle: float = float("inf"),
                instructions: float = float("inf"),
                actions=()) -> Checkpoint:
        """Latest checkpoint captured at-or-before fault *cycle* and
        instruction boundary *instructions*, whose trigger counters had
        not yet passed any of *actions* (so each still fires); always
        at least the initial-state checkpoint."""
        best = self.checkpoints[0]
        for cp in self.checkpoints:
            if cp.cycle > cycle or cp.instructions > instructions:
                break
            counters = cp.counters
            for action in actions:
                if counters.get(action.counter, 0) > action.when:
                    return best
            best = cp
        return best

    def last_between(self, after: int, until: int) -> "Checkpoint | None":
        """The latest checkpoint at an instruction count above *after*
        and at most *until*, if any."""
        for cp in reversed(self.checkpoints):
            if cp.instructions <= until:
                return cp if cp.instructions > after else None
        return None


# ---------------------------------------------------------------------------
# canonical digests
# ---------------------------------------------------------------------------
def _fetch_key(engine: PipelineEngine) -> tuple:
    """Effective fetch fast-path key: the cached line reference only
    matters while it satisfies the fetch coherence check."""
    line = engine._fetch_line
    if line is not None and line.valid \
            and line.tag == engine._fetch_line_tag:
        return engine._fetch_line_base, engine._fetch_line_tag
    return -1, -1


def _digest_memory(memory, update) -> None:
    for base, page in memory.iter_pages():
        if not any(page):
            continue  # all-zero pages equal never-touched pages
        update(repr(("page", base)).encode())
        update(bytes(page))


def _put(update, label: bytes, typecode: str, items) -> None:
    """Hash *items* as a labelled, length-prefixed ``array`` of
    *typecode*; every field is self-delimiting, so no two states share
    a byte stream."""
    data = array(typecode, items)
    update(label)
    update(len(data).to_bytes(8, "little"))
    update(data)


def _cache_tainted(cache: Cache) -> bool:
    for ways in cache.sets:
        for line in ways:
            if line.valid and line.taint:
                return True
    return False


def _digest_cache(cache: Cache, update) -> None:
    """Digest one cache level: per touched set its index and way count,
    per way ``(tag, dirty, lru)`` or ``(-1, -1, -1)`` when invalid (the
    slot position matters, its content is dead), then the valid lines'
    bytes in the same order, then the tick."""
    meta = array("q")
    lines = []
    for index, ways in enumerate(cache.sets):
        if not ways:
            continue
        meta.append(index)
        meta.append(len(ways))
        for line in ways:
            if line.valid:
                meta.extend((line.tag, line.dirty, line.lru))
                lines.append(line.data)
            else:
                meta.extend((-1, -1, -1))
    meta.append(cache._tick)
    _put(update, cache.name.encode(), "q", meta)
    for data in lines:
        update(data)


def pipeline_digest(engine: PipelineEngine) -> "str | None":
    """Canonical digest of everything that determines the run's future
    (and its result counters); None while corrupted state survives.

    The taint checks (register file, main memory, all three caches)
    come before any hashing.  Register, cache-metadata, timing and
    predictor-counter state is hashed as raw ``array``/``bytes``
    buffers; the small rest (control state, LSQ, occupied BTB slots,
    counters) as ``repr``.

    No run calls it: pipeline runs end early only through the
    decisions made as their flip lands.  It stays as the canonical
    state of a pipeline for inspection, and as the lookup site
    ``perfbench/spans.py`` traces."""
    rf = engine.rf
    if rf.tainted or engine.probe.mem_taint:
        return None
    caches = (engine.l2, engine.l1i, engine.l1d)
    for cache in caches:
        if _cache_tainted(cache):
            return None
    h = hashlib.sha256()
    u = h.update
    ms = engine.ms
    u(repr(("ms", ms.pc, ms.mode, ms.kepc, ms.halted,
            ms.exit_code)).encode())
    state = rf.state
    ready = engine.reg_ready
    # FREE slots are dead state: unreadable until re-allocated, and
    # every allocation's value/readiness is written before any read;
    # the state bytes say which slots are live, dead ones hash as 0
    u(b"rf-state")
    u(bytes(state))
    try:
        _put(u, b"rf-values", "Q", [v if live else 0
                                    for v, live in zip(rf.values, state)])
    except OverflowError:
        return None  # no golden register holds such a value
    _put(u, b"rf-ready", "d", [r if live else 0.0
                               for r, live in zip(ready, state)])
    _put(u, b"rename", "q", rf.rename_map)
    _put(u, b"free", "q", rf.free_list)
    pending = rf.pending_free
    _put(u, b"pending-commit", "d", [c for c, _ in pending])
    _put(u, b"pending-phys", "q", [p for _, p in pending])
    u(repr(("live", rf.live_count)).encode())
    lsq = engine.lsq
    entries = []
    for e in lsq.entries:
        if e.valid:
            entries.append((e.is_store, e.addr, e.data, e.nbytes,
                            bytes(e.old_data), e.dest_phys,
                            e.alloc_cycle, e.commit_cycle, e.in_kernel))
        else:
            entries.append(None)
    u(repr(("lsq", entries, lsq._next, lsq.valid_count)).encode())
    for cache in caches:
        _digest_cache(cache, u)
    pred = engine.predictor
    u(b"pred")
    u(bytes(pred.counters))
    u(repr(("btb", [(slot, entry) for slot, entry in enumerate(pred.btb)
                    if entry is not None])).encode())
    _put(u, b"timing", "d", (engine.fetch_time, engine.last_commit))
    _put(u, b"rob", "d", engine.rob_commits)
    _put(u, b"iq", "d", engine.iq_issues)
    for name in sorted(engine.fu):
        _put(u, name.encode(), "d", engine.fu[name])
    u(repr(("counts", engine.instructions,
            engine.kernel_instructions)).encode())
    u(repr(("fetch", _fetch_key(engine))).encode())
    _digest_memory(engine.memory, u)
    return h.hexdigest()


def functional_digest(engine: FunctionalEngine) -> str:
    """Canonical digest of a functional engine's complete state."""
    h = hashlib.sha256()
    u = h.update
    ms = engine.ms
    u(repr(("ms", ms.pc, ms.mode, ms.kepc, ms.halted,
            ms.exit_code)).encode())
    u(repr(("regs", engine.regs)).encode())
    u(b"host-output")
    u(bytes(engine._host_output))
    _digest_memory(engine.memory, u)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# capture / restore: pipeline
# ---------------------------------------------------------------------------
def _intern_bytes(value: bytes, intern: "dict | None") -> bytes:
    if intern is None:
        return value
    return intern.setdefault(value, value)


def capture_pipeline(engine: PipelineEngine,
                     intern: "dict | None" = None) -> dict:
    """Capture complete pipeline state at a top-of-loop boundary.

    *intern* (optional) dedups identical byte blobs (pages, cache
    lines, LSQ old bytes) across the checkpoints of one store.
    """
    ms = engine.ms
    rf = engine.rf
    lsq = engine.lsq
    pages = {base: _intern_bytes(data, intern)
             for base, data in engine.memory.snapshot_pages().items()}
    caches = {}
    for name in ("l2", "l1i", "l1d"):
        cache: Cache = getattr(engine, name)
        sets = {}
        for index, ways in enumerate(cache.sets):
            if not ways:
                continue
            sets[index] = [
                (line.tag, line.dirty,
                 _intern_bytes(bytes(line.data), intern), line.lru,
                 tuple(sorted(line.taint)) if line.taint else None)
                if line.valid else None
                for line in ways]
        caches[name] = (sets, cache._tick, cache.hits, cache.misses,
                        cache.writebacks, cache.valid_lines)
    pred = engine.predictor
    return {
        "ms": (ms.pc, ms.mode, ms.kepc, ms.halted, ms.exit_code),
        "pages": pages,
        "rf": (list(rf.values), list(rf.state), list(rf.rename_map),
               rf.free_list, rf.pending_free, sorted(rf.tainted),
               rf.live_count),
        "lsq": ([(e.valid, e.is_store, e.addr, e.data, e.nbytes,
                  _intern_bytes(bytes(e.old_data), intern), e.dest_phys,
                  e.alloc_cycle, e.commit_cycle, e.in_kernel)
                 for e in lsq.entries],
                lsq._next, lsq.valid_count),
        "caches": caches,
        "pred": (list(pred.counters), list(pred.btb), pred.lookups,
                 pred.mispredicts),
        "timing": (engine.fetch_time, engine.last_commit,
                   list(engine.reg_ready), engine.rob_commits,
                   engine.iq_issues,
                   {k: list(v) for k, v in engine.fu.items()}),
        "counts": (engine.instructions, engine.kernel_instructions),
        "fetch": _fetch_key(engine),
        "probe": sorted(engine.probe.mem_taint),
    }


def _restore_cache(cache: Cache, state: tuple) -> None:
    sets, tick, hits, misses, writebacks, valid_lines = state
    cache.sets = [[] for _ in range(cache.n_sets)]
    for index, ways in sets.items():
        dst = cache.sets[index]
        for entry in ways:
            line = Line(cache.line_size)
            if entry is not None:
                tag, dirty, data, lru, taint = entry
                line.tag = tag
                line.valid = True
                line.dirty = dirty
                line.data[:] = data
                line.lru = lru
                line.taint = set(taint) if taint else None
            dst.append(line)
    cache._tick = tick
    cache.hits = hits
    cache.misses = misses
    cache.writebacks = writebacks
    cache.valid_lines = valid_lines


def restore_pipeline(engine: PipelineEngine, state: dict) -> None:
    """Restore a :func:`capture_pipeline` state into a fresh engine.

    Fault machinery (scheduled faults, crossing state) and observer
    hooks are deliberately untouched: the restored engine continues
    exactly as the capture engine would, with whatever faults the
    caller scheduled still pending.
    """
    ms = engine.ms
    (ms.pc, ms.mode, ms.kepc, ms.halted, ms.exit_code) = state["ms"]
    engine.memory.restore_pages(state["pages"])
    rf = engine.rf
    (values, rstate, rename, free, pending, tainted,
     live_count) = state["rf"]
    rf.values = list(values)
    rf.state = list(rstate)
    rf.rename_map = list(rename)
    rf.set_queues(free, pending)
    rf.tainted = set(tainted)
    rf.live_count = live_count
    entries, nxt, valid_count = state["lsq"]
    lsq = engine.lsq
    for entry, fields in zip(lsq.entries, entries):
        (entry.valid, entry.is_store, entry.addr, entry.data,
         entry.nbytes, entry.old_data, entry.dest_phys,
         entry.alloc_cycle, entry.commit_cycle,
         entry.in_kernel) = fields
    lsq._next = nxt
    lsq.valid_count = valid_count
    lsq.reindex()
    for name in ("l2", "l1i", "l1d"):
        _restore_cache(getattr(engine, name), state["caches"][name])
    pred = engine.predictor
    counters, btb, lookups, mispredicts = state["pred"]
    pred.counters = list(counters)
    pred.btb = list(btb)
    pred.lookups = lookups
    pred.mispredicts = mispredicts
    (engine.fetch_time, engine.last_commit, reg_ready, rob, iq,
     fu) = state["timing"]
    engine.reg_ready = list(reg_ready)
    engine.set_windows(rob, iq)
    engine.fu = {k: list(v) for k, v in fu.items()}
    engine.instructions, engine.kernel_instructions = state["counts"]
    base, tag = state["fetch"]
    engine._fetch_line_base = base
    engine._fetch_line_tag = tag
    engine._fetch_line = None
    if base != -1:
        index, _ = engine.l1i._index_tag(base)
        engine._fetch_line = engine.l1i._find(index, tag)
    engine.probe.mem_taint = set(state["probe"])
    engine.probe.any_taint = bool(engine.probe.mem_taint)
    # per-instruction transients are dead at a boundary
    engine._core.dest_phys = -1
    engine.src_vals.clear()   # in place: the core adapter holds it
    engine.pending_mem = None


# ---------------------------------------------------------------------------
# capture / restore: functional
# ---------------------------------------------------------------------------
def capture_functional(engine: FunctionalEngine,
                       intern: "dict | None" = None) -> dict:
    ms = engine.ms
    pages = {base: _intern_bytes(data, intern)
             for base, data in engine.memory.snapshot_pages().items()}
    return {
        "ms": (ms.pc, ms.mode, ms.kepc, ms.halted, ms.exit_code),
        "regs": list(engine.regs),
        "pages": pages,
        "executed": engine.executed,
        "counters": dict(engine._counters),
        "last_dest": engine.last_dest,
        "host_output": bytes(engine._host_output),
    }


def restore_functional(engine: FunctionalEngine, state: dict) -> None:
    ms = engine.ms
    (ms.pc, ms.mode, ms.kepc, ms.halted, ms.exit_code) = state["ms"]
    engine.regs = list(state["regs"])
    engine.memory.restore_pages(state["pages"])
    engine.executed = state["executed"]
    engine._counters = dict(state["counters"])
    engine.last_dest = state["last_dest"]
    engine._host_output = bytearray(state["host_output"])


# ---------------------------------------------------------------------------
# capture hooks (installed as engine.fastpath during capture runs)
# ---------------------------------------------------------------------------
class _PipelineCapture:
    """Capture a checkpoint at every boundary; never exits early."""

    def __init__(self, interval: int) -> None:
        self.interval = interval
        self.next_check = 0
        self.checkpoints: list = []
        self._intern: dict = {}

    def poll(self, engine: PipelineEngine):
        self.checkpoints.append(Checkpoint(
            instructions=engine.instructions,
            cycle=engine.fetch_time,
            counters={},
            state=capture_pipeline(engine, self._intern)))
        self.next_check = engine.instructions + self.interval
        return None


class _FunctionalCapture:
    def __init__(self, interval: int) -> None:
        self.interval = interval
        self.next_check = 0
        self.checkpoints: list = []
        self.digests: dict = {}
        self._intern: dict = {}

    def poll(self, engine: FunctionalEngine):
        digest = functional_digest(engine)
        self.checkpoints.append(Checkpoint(
            instructions=engine.executed,
            cycle=0.0,
            counters=dict(engine._counters),
            state=capture_functional(engine, self._intern)))
        self.digests[engine.executed] = digest
        self.next_check = engine.executed + self.interval
        return None


class OccupancySampler:
    """Observer of the pipeline capture run: the mean occupancy of each
    injection target, sampled every 64 instructions (the AVF/HVF
    occupancy weights)."""

    every = 64

    def __init__(self) -> None:
        self.samples = 0
        self.sums = {"RF": 0.0, "LSQ": 0.0, "L1I": 0.0, "L1D": 0.0,
                     "L2": 0.0}

    def step(self, engine: PipelineEngine) -> None:
        # count what has logically committed by now as free, else the
        # samples overstate occupancy by the reclamation laziness; the
        # run frees it when it reclaims, so sampling changes no state
        rf, lsq, now = engine.rf, engine.lsq, engine.fetch_time
        sums = self.sums
        self.samples += 1
        sums["RF"] += (rf.live_count - rf.reclaimable(now)) / rf.n_phys
        sums["LSQ"] += ((lsq.valid_count - lsq.reclaimable(now))
                        / lsq.size)
        sums["L1I"] += engine.l1i.occupancy()
        sums["L1D"] += engine.l1d.occupancy()
        sums["L2"] += engine.l2.occupancy()

    def averages(self) -> dict:
        """``{structure: mean occupancy}``; empty before any sample."""
        if not self.samples:
            return {}
        return {k: v / self.samples for k, v in self.sums.items()}


class _CaptureObserver:
    """The pipeline capture run's one observer: the liveness recorder
    after every instruction, the occupancy sampler after every
    ``OccupancySampler.every``-th, as it would sample on its own."""

    def __init__(self, recorder, occupancy: OccupancySampler) -> None:
        self.record = recorder.step
        self.sample = occupancy.step
        self.sample_every = occupancy.every

    def step(self, engine: PipelineEngine) -> None:
        self.record(engine)
        if not engine.instructions % self.sample_every:
            self.sample(engine)


# ---------------------------------------------------------------------------
# early-exit hooks (installed as engine.fastpath during injection runs)
# ---------------------------------------------------------------------------
def _flip_mask(engine: PipelineEngine, spec) -> dict:
    """``{byte offset: XOR mask}`` of a cache data flip's bits, laid out
    as :meth:`PipelineEngine._apply_fault` flips them."""
    cache = {"L1I": engine.l1i, "L1D": engine.l1d,
             "L2": engine.l2}[spec.structure]
    width = cache.line_size * 8
    c = fold_coordinates(engine, spec)[2]
    mask: dict = {}
    for k in range(getattr(spec, "n_bits", 1)):
        byte, bit = divmod((c + k) % width, 8)
        mask[byte] = mask.get(byte, 0) ^ (1 << bit)
    return mask


def _flipped_bytes(mask: int) -> int:
    """A bit per byte of the register value that XOR *mask* changes."""
    return sum(1 << k for k in range(8) if mask >> (8 * k) & 0xFF)


class _FastPath:
    """What the early-exit hooks of both engines share: the one
    decision of a flip from the step of its golden first read, the
    jump counters and the exit counters.  ``next_check`` is the
    instruction count of the engine's next ``poll``."""

    __slots__ = ("store", "next_check")

    def __init__(self, store: CheckpointStore,
                 next_check: "int | float") -> None:
        self.store = store
        self.next_check = next_check

    def _decide(self, engine, step: int, read: "int | None", jump):
        """Decide a flip that landed at the top of step *step* and that
        the golden run first reads at step *read*: with no read, the
        golden result, counted as an oracle exit; with a golden
        checkpoint after *step* and at or before *read*, ``jump(cp)``
        for the last one, the engine's move there, which the engine
        applies next; else None, and the run goes on."""
        if read is None:
            return self._exit(engine, FASTPATH_ORACLE_EXITS)
        cp = self.store.last_between(step, read)
        if cp is None:
            return None
        registry = get_registry()
        if registry.enabled:
            registry.counter(FASTPATH_JUMPS).inc()
            registry.counter(FASTPATH_INSTRUCTIONS_JUMPED).inc(
                cp.instructions - step)
        return jump(cp)

    def _exit(self, engine, counter: str):
        """The golden result, counted in *counter* too."""
        registry = get_registry()
        if registry.enabled:
            registry.counter(counter).inc()
        return self._golden_result(engine)

    def _exited(self, at: int) -> None:
        """An early exit's counters, for a run ended at instruction
        count *at*."""
        registry = get_registry()
        if registry.enabled:
            registry.counter(FASTPATH_EARLY_EXITS).inc()
            registry.counter(FASTPATH_INSTRUCTIONS_SAVED).inc(
                self.store.final["instructions"] - at)


class _PipelineFastPath(_FastPath):
    """The pipeline's early exits and jumps, all decided once, when the
    one fault has landed: the dead-state exit and, when ``oracle`` is
    set, the liveness oracle's and the register record's.  The engine
    polls only where a copy exit ends the run (see
    :meth:`_register_flip`); else never."""

    __slots__ = ("oracle",)

    def __init__(self, store: CheckpointStore) -> None:
        super().__init__(store, float("inf"))
        self.oracle: "LivenessOracle | None" = store.liveness

    def poll(self, engine: PipelineEngine) -> PipelineResult:
        """The copy exit, at the one step :meth:`_register_flip` set."""
        return self._exit(engine, FASTPATH_ORACLE_EXITS)

    def injected(self, engine: PipelineEngine):
        """Called once, right after the engine applied its faults.
        With one fault, the golden result when the flip hit only dead
        state; a cache data flip is decided (see :meth:`_decide`) from
        the oracle's first read, and a register flip from the register
        record (see :meth:`_register_flip`); else None.  Without an
        oracle (a store that has none, or a caller that pins the
        restore alone) it decides nothing."""
        oracle = self.oracle
        faults = engine.faults
        if oracle is None or len(faults) != 1:
            return None
        if not engine.fault_live:
            return self._golden_result(engine)   # nothing changed
        if engine.landed_reg is not None:
            return self._register_flip(engine)
        spec = faults[0]
        if spec.structure not in _ORACLE_STRUCTURES \
                or getattr(spec, "kind", "data") != "data":
            return None
        addr = engine.landed_addr

        def jump(cp: Checkpoint):
            copies = oracle.walk(engine, spec.structure, addr,
                                 stop=cp.instructions)[1]
            return partial(self._jump, cp, addr - addr % oracle.line_size,
                           copies, _flip_mask(engine, spec),
                           spec.structure == "L1I")

        return self._decide(engine, engine.instructions,
                            oracle.first_read(engine, spec.structure, addr),
                            jump)

    def _register_flip(self, engine: PipelineEngine):
        """Decide a flip whose one effect is on a physical register's
        value (``engine.landed_reg``) from the golden run's
        :class:`RegisterLiveness`.  The faulty run follows the golden
        run until it reads the architectural register that holds the
        flipped one (none: never read).  When every golden use of the
        value is a copy that dies unread (a trap frame's save and
        restore), the run ends with the golden result right after the
        first read, which records the crossing: its one poll."""
        record = self.store.register_liveness()
        if record is None:
            return None
        phys, mask = engine.landed_reg
        rename_map = engine.rf.rename_map
        # a register left out of the map is never read again
        reg = rename_map.index(phys) if phys in rename_map else 0
        step = engine.instructions
        read = record.first_read(reg, step)
        if read is not None \
                and record.only_copied(reg, _flipped_bytes(mask), step):
            self.next_check = read + 1
        return self._decide(engine, step, read, lambda cp: partial(
            self._jump_register, cp, reg, mask))

    def _jump_register(self, cp: Checkpoint, reg: int, mask: int,
                       engine: PipelineEngine) -> None:
        """Move *engine* from its register flip to checkpoint *cp*,
        which the golden run reaches before it reads register *reg*:
        restore *cp* and XOR *mask* into the physical register that
        holds *reg* there, tainted.  Up to the read the faulty run
        differs from the golden run only there."""
        restore_pipeline(engine, cp.state)
        rf = engine.rf
        phys = rf.rename_map[reg]
        rf.values[phys] ^= mask
        rf.tainted.add(phys)

    def _jump(self, cp: Checkpoint, base: int, copies: dict, mask: dict,
              l1i_flip: bool, engine: PipelineEngine) -> None:
        """Move *engine* from its flip to checkpoint *cp*, which the
        golden run reaches before it reads a corrupted copy: restore
        *cp* and XOR the flip's *mask* into each copy of the line at
        *base* that *copies* names tainted, with that taint.  Up to
        the read the faulty run differs from the golden run only in
        those copies, so the engine is then where the run it skips
        would be.  The fault flags, ``landed_addr`` and the applied
        fault stay as the flip set them."""
        restore_pipeline(engine, cp.state)
        for name, taint in copies.items():
            if name == "memory":
                memory = engine.memory
                for off in taint:
                    addr = base + off
                    memory.write(addr, bytes(
                        (memory.read(addr, 1)[0] ^ mask[off],)))
                engine.probe.note_mem_taint(base + off for off in taint)
                continue
            cache = {"L1D": engine.l1d, "L1I": engine.l1i,
                     "L2": engine.l2}[name]
            line = cache._find(*cache._index_tag(base))
            data = line.data
            for off in taint:
                data[off] ^= mask[off]
            line.taint = set(taint)
        if l1i_flip:
            # as after a live L1I flip: the next fetch goes through
            # the I-cache
            engine._fetch_line_base = -1

    def _golden_result(self, engine: PipelineEngine) -> PipelineResult:
        """The capture run's final result, with the engine's own fault
        flags and crossing."""
        self._exited(engine.instructions)
        final = self.store.final
        return PipelineResult(
            status=RunStatus.COMPLETED,
            output=final["output"],
            exit_code=final["exit_code"],
            cycles=final["cycles"],
            instructions=final["instructions"],
            kernel_instructions=final["kernel_instructions"],
            fault_applied=engine.fault_applied,
            fault_live=engine.fault_live,
            crossing=engine.crossing,
        )


class _FunctionalFastPath(_FastPath):
    """Early Masked termination against the golden digest trace, polled
    on the checkpoint grid; when ``record`` is set, its decision of the
    one action that names its flip's ``target``."""

    __slots__ = ("record",)

    def __init__(self, store: CheckpointStore, start: int,
                 record: "RegisterLiveness | None" = None) -> None:
        super().__init__(store, start)
        self.record = record

    def poll(self, engine: FunctionalEngine):
        store = self.store
        self.next_check = engine.executed + store.interval
        counters = engine._counters
        for action in engine._actions:
            if counters[action.counter] <= action.when:
                return None  # convergence guard: action still pending
        expect = store.digests.get(engine.executed)
        if expect is None or functional_digest(engine) != expect:
            return None
        return self._exit(engine, FASTPATH_DIGEST_EXITS)

    def injected(self, engine: FunctionalEngine):
        """Called right after a ``commit`` action fired.  With one
        action, which names its ``target``, the flip is decided (see
        :meth:`_decide`) from the golden run's first read of the
        flipped register or memory byte; else None.  Without a record
        it decides nothing."""
        record = self.record
        actions = engine._actions
        if record is None or len(actions) != 1 \
                or actions[0].target is None:
            return None
        kind, where, _mask = actions[0].target
        step = engine.executed
        read = (record.first_read(where, step) if kind == "reg"
                else record.first_byte_read(where, step))
        return self._decide(engine, step, read, lambda cp: partial(
            self._jump, cp, actions[0]))

    def _jump(self, cp: Checkpoint, action: FaultAction,
              engine: FunctionalEngine) -> None:
        """Move *engine* from *action*'s flip to checkpoint *cp*, which
        the golden run reaches before it reads the flipped location:
        restore *cp* and apply *action* again, which XORs its target's
        mask in.  Up to the read the faulty run differs from the golden
        run only there.  The next poll is on the grid after *cp*."""
        restore_functional(engine, cp.state)
        action.apply(engine)
        self.next_check = cp.instructions + self.store.interval

    def _golden_result(self, engine: FunctionalEngine) -> FuncResult:
        """The capture run's final result."""
        self._exited(engine.executed)
        final = self.store.final
        return FuncResult(
            status=RunStatus.COMPLETED,
            output=final["output"],
            exit_code=final["exit_code"],
            instructions=final["instructions"],
        )


# ---------------------------------------------------------------------------
# capture drivers
# ---------------------------------------------------------------------------
def build_pipeline_store(image_factory, config, max_instructions: int,
                         interval: int, key: str = "") -> CheckpointStore:
    """Run the fault-free capture run and collect every checkpoint.

    *image_factory* builds a fresh :class:`SystemImage`;
    *max_instructions* must equal injection runs' limit, so the captured
    trajectory is every injection run's pre-fault prefix.  The capture
    is the target's golden pipeline run: it has no cycle limit (theirs
    derives from its cycles), and an :class:`OccupancySampler` and the
    liveness recorder observe it, which changes no state.
    """
    engine = PipelineEngine(image_factory(), config,
                            max_instructions=max_instructions)
    hook = _PipelineCapture(interval)
    engine.fastpath = hook
    occupancy = engine.observer = OccupancySampler()
    recorder = record_liveness(engine)
    if recorder is not None:
        engine.observer = _CaptureObserver(recorder, occupancy)
    result = engine.run()
    if result.status is not RunStatus.COMPLETED:
        raise RuntimeError(
            f"pipeline capture run did not complete: {result.status}")
    liveness, code = None, {}
    if recorder is not None:
        liveness = recorder.finish()
        code = _code_lines(hook.checkpoints[0].state["pages"],
                           recorder.pcs[:-1], config.l1i.line_size)
    return CheckpointStore(
        schema=SNAPSHOT_SCHEMA_VERSION, engine="pipeline", key=key,
        interval=interval, checkpoints=hook.checkpoints,
        final={"output": result.output, "exit_code": result.exit_code,
               "cycles": result.cycles,
               "instructions": result.instructions,
               "kernel_instructions": result.kernel_instructions,
               "occupancy": occupancy.averages()},
        liveness=liveness, code=code)


def _code_lines(pages: dict, pcs, line_size: int) -> dict:
    """``{line base: bytes}`` of every line holding one of *pcs*, as
    the memory *pages* hold it."""
    out = {}
    for base in sorted({pc & -line_size for pc in set(pcs)}):
        page = pages.get(base & -PAGE_SIZE)
        if page is not None:
            off = base & (PAGE_SIZE - 1)
            out[base] = bytes(page[off:off + line_size])
    return out


def decode_code(store: CheckpointStore, config) -> None:
    """Set up *store*'s shared run records of its golden code lines for
    *config*, the capture's core (see :attr:`PipelineEngine.code_records`)."""
    store.code_records = code_records(store.code, config)
    store.reg_liveness = None     # built from the records on demand


def functional_liveness(store: CheckpointStore, config,
                        replay) -> "RegisterLiveness | None":
    """The :class:`RegisterLiveness` of the golden functional-sim run
    whose capture is *store*, on *config*'s ISA: ``replay(observer)``
    runs that run once more with the recorder attached and returns its
    result.  Its lines are :data:`~repro.uarch.liveness.GRANULE` bytes,
    and its register bytes come from its pc record and the words at
    those pcs as the run started, as a pipeline store's do; None when
    they cannot (see :func:`repro.uarch.liveness.register_liveness`)."""
    start = store.checkpoints[0].state
    recorder = LivenessRecorder(GRANULE, start["ms"][0])
    result = replay(recorder)
    recorder.drain(collected_ranges(len(result.output)))
    oracle = recorder.finish()
    code = _code_lines(start["pages"], recorder.pcs[:-1], GRANULE)
    return register_liveness(oracle, code_records(code, config))


def build_functional_store(image_factory, kernel: str,
                           max_instructions: int, interval: int,
                           key: str = "") -> CheckpointStore:
    """Capture run for the functional engine (``sim`` or ``host``).

    A never-firing dummy action is scheduled so the trigger counters
    advance exactly as they do in injection runs (the engine only
    counts trigger streams while actions are scheduled).
    """
    engine = FunctionalEngine(image_factory(), kernel=kernel,
                              max_instructions=max_instructions)
    engine.schedule(FaultAction("commit", -1, lambda _engine: None))
    hook = _FunctionalCapture(interval)
    engine.fastpath = hook
    result = engine.run()
    if result.status is not RunStatus.COMPLETED:
        raise RuntimeError(
            f"functional capture run ({kernel}) did not complete: "
            f"{result.status}")
    return CheckpointStore(
        schema=SNAPSHOT_SCHEMA_VERSION, engine=f"functional-{kernel}",
        key=key, interval=interval, checkpoints=hook.checkpoints,
        digests=hook.digests,
        final={"output": result.output, "exit_code": result.exit_code,
               "instructions": result.instructions})


# ---------------------------------------------------------------------------
# injector entry points
# ---------------------------------------------------------------------------
def prepare_pipeline_fastpath(engine: PipelineEngine,
                              store: CheckpointStore) -> Checkpoint:
    """Restore the nearest checkpoint before the engine's earliest
    scheduled fault and install the early-exit hook, which also
    decides once, when the fault lands, whether the run ends there or
    jumps; the run shares the store's golden code records."""
    cycle = min(f.cycle for f in engine.faults) if engine.faults \
        else float("inf")
    cp = store.nearest(cycle=cycle)
    restore_pipeline(engine, cp.state)
    engine.fastpath = _PipelineFastPath(store)
    engine.code_records = store.code_records
    registry = get_registry()
    if registry.enabled:
        registry.counter(FASTPATH_RESTORES).inc()
        registry.counter(FASTPATH_CYCLES_SKIPPED).inc(int(cp.cycle))
        registry.counter(FASTPATH_INSTRUCTIONS_SKIPPED).inc(
            cp.instructions)
    return cp


def prepare_functional_fastpath(engine: FunctionalEngine,
                                store: CheckpointStore,
                                record: "RegisterLiveness | None" = None
                                ) -> Checkpoint:
    """Restore the nearest checkpoint before every scheduled action's
    trigger and install the early-exit hook, which, given the golden
    run's *record*, also decides once, when an action's flip fires,
    whether the run ends there or jumps."""
    cp = (store.nearest(actions=engine._actions) if engine._actions
          else store.checkpoints[0])
    restore_functional(engine, cp.state)
    engine.fastpath = _FunctionalFastPath(store, cp.instructions, record)
    registry = get_registry()
    if registry.enabled:
        registry.counter(FASTPATH_RESTORES).inc()
        registry.counter(FASTPATH_INSTRUCTIONS_SKIPPED).inc(
            cp.instructions)
    return cp


# ---------------------------------------------------------------------------
# on-disk persistence (pickle; validated by schema + key on load)
# ---------------------------------------------------------------------------
def save_store(path: "Path | str", store: CheckpointStore) -> None:
    """Atomically persist a store; best-effort (an unwritable cache
    directory degrades to rebuilding per process, never to failure)."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=path.name + ".")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(store, fh,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        pass


def load_store(path: "Path | str",
               key: str) -> "CheckpointStore | None":
    """Load a persisted store; None (and unlink) on any mismatch."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            store = pickle.load(fh)
    except OSError:
        return None
    except Exception:
        path.unlink(missing_ok=True)
        return None
    if not isinstance(store, CheckpointStore) \
            or store.schema != SNAPSHOT_SCHEMA_VERSION \
            or store.key != key or not store.checkpoints:
        path.unlink(missing_ok=True)
        return None
    return store
