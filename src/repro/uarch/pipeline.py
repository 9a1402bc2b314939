"""The out-of-order pipeline engine (the GeFIN/gem5 stand-in).

This is the microarchitectural heart of the reproduction: an
instruction-granular out-of-order timing model wrapped around
*bit-accurate* state for the paper's five injection targets —
physical register file, load/store queue, L1 instruction cache,
L1 data cache and unified L2.

Timing model (O(1) per instruction)::

    fetch_i    = max(fetch_{i-1} + 1/W_fetch, redirect, ROB head, IQ head)
    dispatch_i = fetch_i + frontend_depth (+ rename/LSQ stalls)
    ready_i    = max(dispatch_i, ready(sources))
    start_i    = max(ready_i, FU available)
    complete_i = start_i + latency (+ D-cache latency for loads)
    commit_i   = max(complete_i + 1, commit_{i-1} + 1/W_commit)

Branch mispredictions redirect fetch to ``complete + penalty``;
syscall/eret serialise the frontend.  Functional execution is eager
and in program order, but *values live in the renamed physical
register file and in data-carrying caches*, so injected faults behave
structurally: dead state masks, live state propagates, corrupt lines
write back, escape to DMA, or re-enter the pipeline as wrong
data/instructions.

HVF instrumentation: the engine records the first *architectural
crossing* — the first committed instruction affected by the injected
corruption — and classifies it into an FPM (WD / WI / WOI).  Runs that
corrupt the output with no crossing are ESC by definition.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Callable

from ..isa import layout
from ..isa.errors import DecodeError
from ..isa.registers import register_set
from ..kernel.loader import SystemImage
from ..kernel.syscalls import EXIT_CODE_OFFSET
from .branch import BranchPredictor
from .cache import Cache, MemoryPort, TaintProbe
from .config import MicroarchConfig
from .cpu import KERNEL_MODE, CoreAccess, MachineState
from .exceptions import (ContainmentError, DetectTrap, FaultKind,
                         SimException)
from .functional import (_BRANCH, _JUMP, _LOAD, _STORE, _SYS, RunStatus,
                         _read_word, decode_record)
from .lsq import LoadStoreQueue
from .regfile import FREE, LIVE, NEVER, PhysRegFile, oldest_first


def _window(ring: list, head: int) -> list:
    """A window ring's cycles, oldest first: the slots no instruction
    has held yet (0.0) come first from *head* on and are left out."""
    unused = ring.count(0.0)
    return oldest_first(ring, (head + unused) % len(ring),
                        len(ring) - unused)


def _window_ring(cycles, size: int) -> list:
    """The ring, its head at slot 0, that :func:`_window` reads as
    *cycles* (oldest first, at most *size* of them)."""
    cycles = list(cycles)
    if len(cycles) > size:
        raise ValueError(f"{len(cycles)} cycles overflow a window of "
                         f"{size}")
    return [0.0] * (size - len(cycles)) + cycles


#: the functional-unit pools, in the order of a run record's pool index
FU_POOLS = ("alu", "mul", "div", "mem")


def run_record(shared: tuple, config: MicroarchConfig) -> tuple:
    """The run loop's record of one instruction word: the first fields
    of its shared decode record (see
    :func:`repro.uarch.functional.decode_record`), ``(instr, handler,
    kind, rs1, rs2, dest, fn, operand, imm, nbytes, signed)``, and the
    timing fields ``(pool, units, fu_busy, latency)``.  The handler
    kinds differ in what the frontend does after them: the predictor
    learns each ``_JUMP``, and a ``_SYS`` op serialises.

    ``pool`` indexes :data:`FU_POOLS`, the functional units that
    execute the instruction, ``units`` is how many there are,
    ``fu_busy`` how long the instruction occupies its unit and
    ``latency`` its base execution latency (loads add the D-cache
    latency at run time).  No field belongs to one engine, so every
    run of a target can share the records of its golden code
    (:attr:`PipelineEngine.code_records`).
    """
    kind = shared[2]
    cls = shared[0].d.cls
    pool = (3 if kind >= _LOAD
            else FU_POOLS.index(cls) if cls in FU_POOLS else 0)
    units = (config.n_alu, config.n_mul, config.n_div,
             config.n_mem_ports)[pool]
    latency = {"alu": config.alu_latency, "mul": config.mul_latency,
               "div": config.div_latency}.get(cls, 1)
    busy = config.div_latency if cls == "div" else 1
    return shared[:11] + (pool, units, float(busy), float(latency))


def code_records(lines: dict, config: MicroarchConfig) -> dict:
    """``{line base: (line bytes, run records by offset)}`` for the
    code lines *lines* (``{line base: bytes}``): every word decoded
    (None where it is illegal), so a run that takes an entry never
    adds to it."""
    regs = register_set(config.isa)
    table = {}
    for base, data in lines.items():
        records = [None] * len(data)
        for off in range(0, len(data) - 3, 4):
            try:
                shared = decode_record(_read_word(data, off)[0], regs)
            except DecodeError:
                continue
            records[off] = run_record(shared, config)
        table[base] = (bytes(data), records)
    return table


def fold_coordinates(engine: "PipelineEngine", spec) -> tuple[int, int, int]:
    """Fold a fault spec's raw ``(a, b, c)`` onto the target geometry.

    The containment contract promises a :class:`Verdict` for *any*
    coordinate triple, not just ones that happen to lie inside the
    structure the spec names on this core: a spec sampled for a large
    core (or fuzzed from arbitrary integers) must land somewhere, the
    way an address decoder ignores bits beyond the array's width.
    Folding is modulo each dimension, so in-range coordinates are
    untouched and campaigns keep their exact historical sampling.
    """
    structure = spec.structure
    a, b, c = spec.a, spec.b, getattr(spec, "c", 0)
    if structure == "RF":
        return a % engine.rf.n_phys, b % engine.rf.xlen, c
    if structure == "LSQ":
        return a % engine.lsq.size, b % engine.lsq.entry_bits, c
    cache = {"L1I": engine.l1i, "L1D": engine.l1d,
             "L2": engine.l2}[structure]
    # c (the bit within line data / tag) is folded at the flip site,
    # where data vs. tag width is known
    return a % cache.n_sets, b % cache.assoc, c


@dataclass
class Crossing:
    """The moment an injected fault became architecturally visible."""

    fpm: str           # FPM value ("WD" / "WI" / "WOI")
    cycle: float
    in_kernel: bool
    #: first corrupted architectural register (rename-map index), if
    #: the crossing happened through a register read
    arch_reg: int | None = None
    #: first corrupted memory/fetch address, if it happened through
    #: a tainted line or a corrupted instruction word
    mem_addr: int | None = None


@dataclass
class PipelineResult:
    """Raw result of one pipeline execution."""

    status: RunStatus
    output: bytes
    exit_code: int
    cycles: float
    instructions: int
    kernel_instructions: int = 0
    fault_applied: bool = False
    fault_live: bool = False
    crossing: Crossing | None = None
    fault_kind: FaultKind | None = None
    fault_in_kernel: bool = False


class _PipelineCore(CoreAccess):
    """CoreAccess adapter over the renamed register file, for the
    handler-kind instructions (the run loop executes the rest)."""

    __slots__ = ("e", "src_vals", "rf", "dest_phys")

    def __init__(self, engine: "PipelineEngine") -> None:
        # every object held here is mutated in place, never rebound
        # (restore_pipeline included); a proxy, not a reference, so
        # the engine holding this adapter is freed by refcount alone
        self.e = weakref.proxy(engine)
        self.src_vals = engine.src_vals
        self.rf = engine.rf
        #: the renamed destination, set by the run loop before each
        #: handler call
        self.dest_phys = -1

    def read_reg(self, index: int) -> int:
        # Sources were resolved through the rename map *before* the
        # destination was renamed (else ``jalr r3, r3`` would read its
        # own unwritten destination register).
        cached = self.src_vals.get(index)
        if cached is not None:
            return cached
        value, phys = self.rf.read(index)
        if phys in self.rf.tainted and self.e.crossing is None:
            self.e.record_crossing("WD", arch_reg=index)
        return value

    def write_reg(self, index: int, value: int) -> None:
        if index == 0:
            return
        # the destination was pre-allocated during rename; a newly
        # produced value replaces any corruption in the slot
        rf = self.rf
        phys = self.dest_phys
        rf.values[phys] = value & rf.mask
        tainted = rf.tainted
        if tainted:
            tainted.discard(phys)


class PipelineEngine:
    """One end-to-end out-of-order execution, optionally with faults."""

    def __init__(self, image: SystemImage, config: MicroarchConfig,
                 faults=(), max_instructions: int = 2_000_000,
                 max_cycles: float = float("inf")) -> None:
        if register_set(config.isa).xlen != register_set(image.isa).xlen:
            raise ValueError(
                f"config {config.name} is {config.isa} but program "
                f"is {image.isa}")
        self.image = image
        self.config = config
        self.memory = image.memory
        self.regs_meta = register_set(image.isa)
        xlen = self.regs_meta.xlen

        # --- microarchitectural state --------------------------------
        self.probe = TaintProbe()
        self.memport = MemoryPort(self.memory, config.dram_latency)
        self.l2 = Cache("L2", config.l2.size, config.l2.assoc,
                        config.l2.line_size, config.l2.latency,
                        self.memport)
        self.l1i = Cache("L1I", config.l1i.size, config.l1i.assoc,
                         config.l1i.line_size, config.l1i.latency,
                         self.l2)
        self.l1d = Cache("L1D", config.l1d.size, config.l1d.assoc,
                         config.l1d.line_size, config.l1d.latency,
                         self.l2)
        self.rf = PhysRegFile(config.n_phys_regs, self.regs_meta.count,
                              xlen)
        self.lsq = LoadStoreQueue(config.lsq_size, xlen)
        self.predictor = BranchPredictor(config.predictor_entries,
                                         config.btb_entries)

        # boot state
        self.ms = MachineState(xlen=xlen, pc=image.entry)
        sp_phys = self.rf.rename_map[self.regs_meta.stack_reg]
        self.rf.values[sp_phys] = image.initial_sp

        # --- timing state --------------------------------------------
        self.fetch_time = 0.0
        self.last_commit = 0.0
        self.reg_ready = [0.0] * config.n_phys_regs
        # The ROB and IQ windows: rings of the commit and issue cycles
        # of the last rob_size / iq_size instructions, the oldest at
        # rob_head / iq_head (the slot the next instruction takes).  A
        # slot no instruction has held yet reads 0.0, a cycle before
        # any fetch, so it never holds fetch back.
        self.rob_ring = [0.0] * config.rob_size
        self.rob_head = 0
        self.iq_ring = [0.0] * config.iq_size
        self.iq_head = 0
        self.fu = {
            "alu": [0.0] * config.n_alu,
            "mul": [0.0] * config.n_mul,
            "div": [0.0] * config.n_div,
            "mem": [0.0] * config.n_mem_ports,
        }

        # --- fault machinery -----------------------------------------
        self.faults = sorted(faults, key=lambda f: f.cycle)
        self._next_fault = 0
        self.fault_applied = False
        self.fault_live = False
        self.crossing: Crossing | None = None
        #: absolute address of the cache byte the last data flip landed
        #: on (None when it hit dead state); read by the liveness oracle
        self.landed_addr: int | None = None
        #: ``(physical register, XOR mask)`` of the last flip whose one
        #: effect is on a register's value: an RF flip into a live
        #: register, or an LSQ flip of an in-flight load's data, which
        #: flips the load's destination (-1 and 0 when that is no
        #: longer live, so the flip changed nothing); else None.  Read
        #: by the fast path's register decisions
        self.landed_reg: tuple | None = None

        # --- control -------------------------------------------------
        self.max_instructions = max_instructions
        self.max_cycles = max_cycles
        self.instructions = 0
        self.kernel_instructions = 0

        self.src_vals: dict[int, int] = {}
        self._core = _PipelineCore(self)
        #: the last instruction's memory access, ``("load", addr,
        #: nbytes)`` or ``("store", addr, nbytes, value, old bytes)``,
        #: else None; set just before each ``observer.step`` (the
        #: trace-diff recorders and the capture's liveness recorder
        #: read it)
        self.pending_mem: tuple | None = None
        #: optional passive observer: the fault tracer and trace-diff
        #: recorders (repro.obs), the residency profiler, the ACE
        #: lifetime tracker (repro.core.ace), the capture's occupancy
        #: sampler (repro.uarch.snapshot) or a cosim probe.  Duck-
        #: typed, every method optional: ``step(engine)`` after each
        #: committed instruction, or every ``observer.every`` when set
        #: (the functional engine calls it too); ``landed`` and
        #: ``crossed(cycle, detail)`` when the flip lands and first
        #: turns architectural (the injectors add ``injected`` and
        #: ``outcome``); the lifetime events, all five or none:
        #: ``reg_read``/``reg_write``/``reg_release(phys, cycle)``,
        #: ``lsq_op(alloc, commit)``, ``mem_access(addr, nbytes,
        #: is_store, cycle)``.  run() looks each up once, so a missing
        #: one costs a local test.  An observer only reads state and
        #: never raises, so it never changes the result.
        self.observer = None
        self._fetch_line = None
        self._fetch_line_base = -1
        self._fetch_line_tag = -1
        #: optional checkpoint hook (see repro.uarch.snapshot): an
        #: object with ``next_check`` (instruction count) and
        #: ``poll(engine)``; polled at the top of the run loop, and a
        #: non-None poll() return ends the run with that result.  An
        #: optional ``injected(engine)`` is called once after the
        #: faults are applied and may end the run the same way, or
        #: return a jump: a callable that run() applies to the engine
        #: once the loop's state is written back, before the loop goes
        #: on from the engine's new state.
        self.fastpath = None
        #: the golden code lines' run records (see :func:`code_records`),
        #: shared read-only by every run of one target; a line whose
        #: bytes differ, or that the table lacks, gets the run's own
        self.code_records: dict = {}

    # ------------------------------------------------------------------
    # the ROB and IQ windows, oldest first
    # ------------------------------------------------------------------
    @property
    def rob_commits(self) -> list[float]:
        """Commit cycles of the instructions in the ROB window."""
        return _window(self.rob_ring, self.rob_head)

    @property
    def iq_issues(self) -> list[float]:
        """Issue cycles of the instructions in the IQ window."""
        return _window(self.iq_ring, self.iq_head)

    def set_windows(self, rob_commits, iq_issues) -> None:
        """Lay the ROB and IQ rings out from oldest-first cycles, as
        :attr:`rob_commits` and :attr:`iq_issues` read them."""
        self.rob_ring = _window_ring(rob_commits, self.config.rob_size)
        self.rob_head = 0
        self.iq_ring = _window_ring(iq_issues, self.config.iq_size)
        self.iq_head = 0

    # ------------------------------------------------------------------
    # crossing / fault bookkeeping
    # ------------------------------------------------------------------
    def record_crossing(self, fpm: str, arch_reg: int | None = None,
                        mem_addr: int | None = None) -> None:
        if self.crossing is None:
            self.crossing = Crossing(fpm, self.fetch_time,
                                     self.ms.in_kernel,
                                     arch_reg=arch_reg,
                                     mem_addr=mem_addr)
            crossed = getattr(self.observer, "crossed", None)
            if crossed is not None:
                crossed(self.fetch_time,
                        self._crossing_detail(self.crossing))

    def _crossing_detail(self, crossing: Crossing) -> str:
        mode = "kernel" if crossing.in_kernel else "user"
        site = ""
        if crossing.arch_reg is not None:
            site = f" via {self.regs_meta.name(crossing.arch_reg)}"
        elif crossing.mem_addr is not None:
            site = f" via {crossing.mem_addr:#010x}"
        return f"{crossing.fpm} in {mode} mode{site}"

    def _apply_due_faults(self) -> None:
        while (self._next_fault < len(self.faults)
               and self.faults[self._next_fault].cycle <= self.fetch_time):
            spec = self.faults[self._next_fault]
            self._next_fault += 1
            self._apply_fault(spec)

    def _trace_landing(self, detail: str) -> None:
        landed = getattr(self.observer, "landed", None)
        if landed is not None:
            state = "live" if self.fault_live else "dead"
            landed(self.fetch_time, f"{detail} ({state} state)")

    def _apply_fault(self, spec) -> None:
        self.fault_applied = True
        structure = spec.structure
        n_bits = getattr(spec, "n_bits", 1)
        a, b, c = fold_coordinates(self, spec)
        if structure == "RF":
            phys = a
            if spec.prefer_live:
                live = [i for i in range(self.rf.n_phys)
                        if self.rf.state[i]]
                if not live:
                    self._trace_landing("RF: no live register")
                    return
                phys = live[a % len(live)]
            mask = 0
            for k in range(n_bits):
                bit = (b + k) % self.rf.xlen
                info = self.rf.flip_bit(phys, bit)
                self.fault_live = self.fault_live or info["live"]
                mask ^= 1 << bit
            if info["live"]:
                self.landed_reg = (phys, mask)
            self._trace_landing(f"RF: physical register {phys}, "
                                f"bit {b % self.rf.xlen}")
            return
        if structure == "LSQ":
            self._apply_lsq_fault(spec, a, b)
            return
        cache = {"L1I": self.l1i, "L1D": self.l1d, "L2": self.l2}[structure]
        set_index, way = a, b
        if spec.prefer_live:
            live = [(s, w) for s, ways in enumerate(cache.sets)
                    for w, line in enumerate(ways) if line.valid]
            if not live:
                self._trace_landing(f"{structure}: no valid line")
                return
            set_index, way = live[(a * cache.assoc + b) % len(live)]
        is_tag = getattr(spec, "kind", "data") == "tag"
        # the field's width folds c, as faults.fault_site_bit does
        width = cache.tag_bits if is_tag else cache.line_size * 8
        flip = cache.flip_tag_bit if is_tag else cache.flip_bit
        for k in range(n_bits):
            info = flip(set_index, way, (c + k) % width)
            self.fault_live = self.fault_live or info["live"]
        self.landed_addr = info.get("addr")
        self._trace_landing(
            f"{structure}: set {set_index}, way {way}, "
            f"{'tag' if is_tag else 'line'} bit {c % width}")
        if self.fault_live and cache is self.l1i:
            # the fetch fast path may hold the flipped line
            self._fetch_line_base = -1

    def _apply_lsq_fault(self, spec, index: int, bit: int) -> None:
        if spec.prefer_live:
            live = [i for i, e in enumerate(self.lsq.entries) if e.valid]
            if not live:
                return
            index = live[index % len(live)]
        entry, fld, bit = self.lsq.flip_target(index, bit)
        if not entry.valid or entry.commit_cycle <= self.fetch_time:
            self._trace_landing(f"LSQ: entry {index} ({fld} field)")
            return  # dead slot: hardware-masked
        self.fault_live = True
        self._trace_landing(
            f"LSQ: entry {index}, {fld} field, bit {bit} "
            f"({'store' if entry.is_store else 'load'} "
            f"@ {entry.addr:#010x})")
        n_bits = getattr(spec, "n_bits", 1)
        if fld == "data":
            if not entry.is_store:
                self.landed_reg = (-1, 0)
            for k in range(n_bits):
                self._flip_lsq_data_bit(entry, bit + k)
        else:  # address field
            mask = 0
            for k in range(n_bits):
                mask |= 1 << ((bit + k) % 32)
            flipped = (entry.addr ^ mask) & 0xFFFF_FFFF
            self._replay_with_address(entry, flipped)

    def _flip_lsq_data_bit(self, entry, bit: int) -> None:
        if entry.is_store:
            # corrupt the stored bytes in place (they were written
            # eagerly); the corruption is architecturally visible
            # when the store commits.
            byte_index, bit_in_byte = divmod(bit, 8)
            if byte_index < entry.nbytes:
                addr = entry.addr + byte_index
                current, _, _ = self.l1d.read(addr, 1, self.probe)
                self.l1d.write(addr, bytes([current[0]
                                            ^ (1 << bit_in_byte)]),
                               self.probe)
                self._taint_line(addr)
                self.record_crossing("WD", mem_addr=addr)
        else:
            # corrupt the load's destination register if still live
            phys, mask = self.landed_reg
            if entry.dest_phys >= 0 \
                    and self.rf.state[entry.dest_phys]:
                phys = entry.dest_phys
                flip = 1 << (bit % self.rf.xlen)
                self.rf.values[phys] ^= flip
                self.rf.tainted.add(phys)
                mask ^= flip
            self.landed_reg = (phys, mask)

    def _taint_line(self, addr: int) -> None:
        index, tag = self.l1d._index_tag(addr)
        line = self.l1d._find(index, tag)
        if line is not None:
            if line.taint is None:
                line.taint = set()
            line.taint.add(addr - self.l1d.line_base(index, tag))

    def _replay_with_address(self, entry, flipped: int) -> None:
        """Retroactively move an in-flight memory op to a flipped address."""
        region = self.memory.region_of(flipped)
        self.record_crossing("WD", mem_addr=flipped)
        if entry.is_store:
            # undo the original store, redo at the corrupted address
            self.l1d.write(entry.addr, entry.old_data, self.probe)
            self._taint_line(entry.addr)
            if region is None or (region.kernel_only
                                  and not entry.in_kernel):
                raise SimException(FaultKind.ACCESS_FAULT, flipped,
                                   detail="lsq address corruption",
                                   in_kernel=entry.in_kernel)
            data = (entry.data
                    & ((1 << (8 * entry.nbytes)) - 1)).to_bytes(
                        entry.nbytes, "little")
            self.l1d.write(flipped, data, self.probe)
            self._taint_line(flipped)
            entry.addr = flipped
        else:
            if region is None or (region.kernel_only
                                  and not entry.in_kernel):
                raise SimException(FaultKind.ACCESS_FAULT, flipped,
                                   detail="lsq address corruption",
                                   in_kernel=entry.in_kernel)
            if entry.dest_phys >= 0 and self.rf.state[entry.dest_phys]:
                data, _, _ = self.l1d.read(flipped, entry.nbytes,
                                           self.probe)
                value = int.from_bytes(data, "little")
                self.rf.values[entry.dest_phys] = value & self.rf.mask
                self.rf.tainted.add(entry.dest_phys)

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------
    def _classify_fetch_corruption(self, addr: int, word: int) -> None:
        if self.crossing is not None:
            return
        pristine = self.image.pristine_word(addr)
        if pristine is None or pristine == word:
            # corrupted line holds data being executed, or the flip
            # cancelled out — treat as wrong instruction stream
            if pristine != word:
                self.record_crossing("WI", mem_addr=addr)
            return
        from ..faults.fpm import classify_instruction_corruption
        self.record_crossing(
            classify_instruction_corruption(pristine, word).value,
            mem_addr=addr)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> PipelineResult:
        """Execute to completion (or until a hook ends the run).

        A fast-path jump (see :attr:`fastpath`) ends a pass of the loop
        without ending the run: run() applies it and loops on from the
        state it leaves.
        """
        from ..obs.metrics import get_registry

        registry = get_registry()
        wall_started = (time.perf_counter() if registry.enabled
                        else 0.0)
        result = self._loop()
        while not isinstance(result, PipelineResult):
            result(self)
            result = self._loop()
        if registry.enabled:
            self._record_metrics(registry,
                                 time.perf_counter() - wall_started)
        return result

    def _loop(self) -> "PipelineResult | Callable":
        """Run the loop from the engine's state to the run's end, or to
        a jump, which it returns.

        Past an op's own value function, a common instruction makes no
        Python-level call and no container-method call: renaming on the
        register ring, the ROB/IQ/LSQ rings, the page-memo permission
        test, L1 hits and the predictor update run in line, and each
        I-cache line's checks and decode records are looked up once
        per line switch.  The methods they mirror
        (``PhysRegFile.allocate``, ``LoadStoreQueue.allocate``,
        ``Memory.check_access``, ``Cache.read``/``write``,
        ``BranchPredictor.update``) stay the reference the tests hold
        the loop to; ``check_access`` and the cache methods also serve
        what the loop does not prove simple: L1 misses and
        line-crossing accesses.  Every run, the golden capture
        included, takes this one L1 path.
        """
        config = self.config
        ms = self.ms
        inv_fetch = 1.0 / config.fetch_width
        inv_commit = 1.0 / config.commit_width
        depth = float(config.frontend_depth)
        penalty = float(config.penalty)
        max_instructions = self.max_instructions
        max_cycles = self.max_cycles
        status = RunStatus.COMPLETED
        # a fast-path hook's synthesised result, when one ends the run,
        # or its jump
        result: "PipelineResult | Callable | None" = None
        fault_kind: FaultKind | None = None
        fault_in_kernel = False
        never = NEVER
        faults = self.faults

        # Hooks and per-run state, hoisted to locals.  Hooks are
        # attached and checkpoints restored before the loop (a jump
        # restores one between two passes of it); nothing rebinds
        # these objects while the loop runs (they are only mutated in
        # place).
        fastpath = self.fastpath
        injected = getattr(fastpath, "injected", None)
        observer = self.observer
        step = getattr(observer, "step", None)
        every = (getattr(observer, "every", None) or 1) if step else 0
        reg_read = getattr(observer, "reg_read", None)
        reg_write = getattr(observer, "reg_write", None)
        reg_release = getattr(observer, "reg_release", None)
        lsq_op = getattr(observer, "lsq_op", None)
        mem_access = getattr(observer, "mem_access", None)
        core = self._core
        src_vals = self.src_vals
        rf = self.rf
        values = rf.values
        mask = rf.mask
        rf_state = rf.state
        rename_map = rf.rename_map
        tainted = rf.tainted
        ring = rf.ring
        ring_commits = rf.ring_commits
        ring_size = len(ring)
        reg_ready = self.reg_ready
        fu_pools = tuple(self.fu[name] for name in FU_POOLS)
        rob = self.rob_ring
        rob_size = len(rob)
        iq = self.iq_ring
        iq_size = len(iq)
        lsq = self.lsq
        lsq_entries = lsq.entries
        lsq_size = lsq.size
        predictor = self.predictor
        counters = predictor.counters
        counter_mask = predictor.entries - 1
        btb = predictor.btb
        btb_mask = predictor.btb_entries - 1
        memory = self.memory
        region_of = memory.region_of
        page_region = memory.page_region
        page_regions = memory._page_region
        page_mask = ~(layout.PAGE_SIZE - 1)
        check_access = memory.check_access
        l1i = self.l1i
        l1d = self.l1d
        l1i_read = l1i.read
        l1i_sets = l1i.sets
        l1i_n_sets = l1i.n_sets
        l1d_read = l1d.read
        l1d_write = l1d.write
        l1d_hit_latency = l1d.hit_latency
        l1d_sets = l1d.sets
        l1d_n_sets = l1d.n_sets
        d_line = l1d.line_size
        d_off = d_line - 1
        probe = self.probe
        line_size = l1i.line_size
        off_mask = line_size - 1
        fetch_mask = 0xFFFF_FFFF & ~off_mask
        hit_latency = l1i.hit_latency
        regs_meta = self.regs_meta

        # raw instruction word -> run record (see run_record); a
        # corrupted word is simply another key
        records: dict[int, tuple] = {}
        # I-cache line base -> (the line's bytes, its run records by
        # offset in the line): the shared golden entry while the bytes
        # match it, else the run's own; a line whose bytes changed (a
        # flip, a refill from corrupted memory) gets fresh records
        line_records: dict[int, tuple] = {}
        golden_lines = self.code_records
        # The fetch line: its base (-1: none), Line and records, and
        # whether it is kernel-only, partly outside its region or holds
        # corrupted words (the offsets of those words).  A fetch from
        # it tests only base != fetch_base; fetch_slow sends it through
        # the per-fetch checks.  Only a line switch (the one way the
        # loop fills the L1I) and a live L1I flip (which resets
        # _fetch_line_base) change the line under it.
        fetch_base = -1
        fetch_line = None
        fetch_records: list = []
        fetch_kernel_only = False
        fetch_partial = False
        fetch_taint: "set | None" = None
        fetch_slow = False
        icache_extra = 0
        # the restored fetch line, entered without an I-cache access
        # while it is still valid
        resume_line = self._fetch_line
        resume_base = (self._fetch_line_base
                       if resume_line is not None and resume_line.valid
                       and resume_line.tag == self._fetch_line_tag
                       else -1)
        # the page of the last load or store, and its region when the
        # page memo holds it (see Memory.check_access)
        data_page = -1
        data_region = None
        # Counters, times, the pc, the ring heads and the live count
        # live in locals and are written back (_write_back) before
        # anything outside the loop reads them: fault application, a
        # crossing, a fast-path poll, an observer step and every exit
        # (the finally); the pc also before a handler.  The privilege
        # mode and the halt flag only change in handlers, so both are
        # read back after one.
        instructions = self.instructions
        kernel_instructions = self.kernel_instructions
        fetch_time = self.fetch_time
        last_commit = self.last_commit
        pc = ms.pc
        in_kernel = ms.mode == KERNEL_MODE
        halted = ms.halted
        live_count = rf.live_count
        free_head = rf.free_head
        pending_head = rf.pending_head
        rob_head = self.rob_head
        iq_head = self.iq_head
        lsq_next = lsq._next
        lsq_count = lsq.valid_count
        # the cycle at which the next fault is due
        next_fault = (faults[self._next_fault].cycle
                      if self._next_fault < len(faults) else never)
        # one threshold for the watchdog and the next fast-path poll
        limit = (max_instructions if fastpath is None
                 else min(fastpath.next_check, max_instructions))

        try:
            while not halted:
                if instructions >= limit or fetch_time > max_cycles:
                    if fastpath is not None \
                            and instructions >= fastpath.next_check:
                        self._write_back(
                            instructions, kernel_instructions, fetch_time,
                            last_commit, pc, live_count, free_head,
                            pending_head, rob_head, iq_head, lsq_next,
                            lsq_count)
                        result = fastpath.poll(self)
                        if result is not None:
                            break
                        limit = min(fastpath.next_check, max_instructions)
                    if instructions >= max_instructions \
                            or fetch_time > max_cycles:
                        status = RunStatus.TIMEOUT
                        break
                if fetch_time >= next_fault:
                    self._write_back(
                        instructions, kernel_instructions, fetch_time,
                        last_commit, pc, live_count, free_head,
                        pending_head, rob_head, iq_head, lsq_next,
                        lsq_count)
                    self._apply_due_faults()
                    next_fault = (faults[self._next_fault].cycle
                                  if self._next_fault < len(faults)
                                  else never)
                    if self._fetch_line_base < 0:
                        # a live L1I flip: the next fetch goes through
                        # the I-cache
                        fetch_base = resume_base = -1
                    if injected is not None:
                        result = injected(self)
                        if result is not None:
                            break
                        # the hook may have brought its next poll
                        # forward
                        limit = min(fastpath.next_check, max_instructions)

                # ---- fetch ------------------------------------------
                fetch = fetch_time + inv_fetch
                oldest = rob[rob_head]
                if oldest > fetch:
                    fetch = oldest
                oldest = iq[iq_head]
                if oldest > fetch:
                    fetch = oldest
                fetch_time = fetch
                if pc & 3:
                    raise SimException(FaultKind.MISALIGNED, pc,
                                       detail="pc", in_kernel=in_kernel)
                base = pc & fetch_mask
                if base != fetch_base:
                    # a line switch: region and privilege, the I-cache
                    # access and the line's state
                    addr = pc & 0xFFFF_FFFF
                    region = page_regions.get(addr & page_mask)
                    if region is None:
                        region = page_region(addr)
                        if region is None:
                            raise SimException(FaultKind.FETCH_FAULT,
                                               addr, in_kernel=in_kernel)
                    fetch_kernel_only = region.kernel_only
                    if fetch_kernel_only and not in_kernel:
                        raise SimException(FaultKind.PRIVILEGE_FAULT,
                                           addr, detail="fetch",
                                           in_kernel=False)
                    fetch_partial = not (region.base <= base and
                                         base + line_size <= region.end)
                    if base == resume_base:
                        line = resume_line
                    else:
                        line_addr = addr // line_size
                        index = line_addr % l1i_n_sets
                        tag = line_addr // l1i_n_sets
                        for line in l1i_sets[index]:
                            if line.tag == tag and line.valid:
                                break
                        else:
                            line = None
                        if line is None:
                            icache_latency = l1i_read(addr, 4, probe)[1]
                            if icache_latency > hit_latency:
                                icache_extra = icache_latency - hit_latency
                            line = l1i._find(index, tag)
                        else:
                            # Cache.read's hit, in line
                            l1i.hits += 1
                            tick = l1i._tick + 1
                            l1i._tick = tick
                            line.lru = tick
                        self._fetch_line = line
                        self._fetch_line_base = base
                        self._fetch_line_tag = tag
                    resume_base = -1
                    fetch_base = base
                    fetch_line = line
                    entry = line_records.get(base)
                    if entry is None or entry[0] != line.data:
                        entry = golden_lines.get(base)
                        if entry is None or entry[0] != line.data:
                            entry = (bytes(line.data), [None] * line_size)
                        line_records[base] = entry
                    fetch_records = entry[1]
                    fetch_taint = line.taint
                    if fetch_taint:
                        fetch_taint = {t & ~3 for t in fetch_taint}
                    fetch_slow = (fetch_kernel_only or fetch_partial
                                  or bool(fetch_taint))
                if fetch_slow:
                    # a kernel-only line, one partly outside its region
                    # or one holding corrupted words: what every fetch
                    # from it checks
                    addr = pc & 0xFFFF_FFFF
                    kernel_only = fetch_kernel_only
                    if fetch_partial:
                        region = region_of(addr)
                        if region is None:
                            raise SimException(FaultKind.FETCH_FAULT,
                                               addr, in_kernel=in_kernel)
                        kernel_only = region.kernel_only
                    if kernel_only and not in_kernel:
                        raise SimException(FaultKind.PRIVILEGE_FAULT,
                                           addr, detail="fetch",
                                           in_kernel=False)
                    if fetch_taint and (pc & off_mask) in fetch_taint:
                        self._write_back(
                            instructions, kernel_instructions, fetch_time,
                            last_commit, pc, live_count, free_head,
                            pending_head, rob_head, iq_head, lsq_next,
                            lsq_count)
                        self._classify_fetch_corruption(
                            addr, _read_word(fetch_line.data,
                                             pc & off_mask)[0])
                record = fetch_records[pc & off_mask]
                if record is None:
                    # first fetch of this word of the line in this run
                    # (a golden entry lacks only illegal words, which
                    # raise here, so no run adds to it)
                    off = pc & off_mask
                    word = _read_word(fetch_line.data, off)[0]
                    record = records.get(word)
                    if record is None:
                        try:
                            shared = decode_record(word, regs_meta)
                        except DecodeError:
                            raise SimException(
                                FaultKind.ILLEGAL_INSTRUCTION, pc,
                                in_kernel=in_kernel) from None
                        record = records[word] = run_record(shared,
                                                            config)
                    fetch_records[off] = record
                (instr, handler, kind, rs1, rs2, dest, fn, operand, imm,
                 nbytes, signed, pool, units, fu_busy,
                 latency) = record
                if icache_extra:
                    fetch += icache_extra
                    fetch_time = fetch
                    icache_extra = 0

                # ---- rename / dispatch ------------------------------
                dispatch = fetch + depth
                ready = dispatch
                tainted_src = 0
                a = 0
                b = operand
                if rs1:
                    phys = rename_map[rs1]
                    a = values[phys]
                    if reg_ready[phys] > ready:
                        ready = reg_ready[phys]
                    if phys in tainted:
                        tainted_src = rs1
                    if reg_read is not None:
                        reg_read(phys, ready)
                if rs2:
                    phys = rename_map[rs2]
                    b = values[phys]
                    if reg_ready[phys] > ready:
                        ready = reg_ready[phys]
                    if not tainted_src and phys in tainted:
                        tainted_src = rs2
                    if reg_read is not None:
                        reg_read(phys, ready)
                if tainted_src and self.crossing is None:
                    self._write_back(
                        instructions, kernel_instructions, fetch_time,
                        last_commit, pc, live_count, free_head,
                        pending_head, rob_head, iq_head, lsq_next,
                        lsq_count)
                    self.record_crossing("WD", arch_reg=tainted_src)
                if dest:
                    # rename on the register ring, as
                    # PhysRegFile.allocate does it: with no register
                    # free (the free head's slot is pending) and none
                    # committed by dispatch, stall for the oldest...
                    oldest = ring_commits[free_head]
                    if dispatch < oldest < never:
                        dispatch = oldest
                        if dispatch > ready:
                            ready = dispatch
                    # ...reclaim the old mappings whose writers
                    # committed by dispatch (a free slot ends the
                    # walk)...
                    while ring_commits[pending_head] <= dispatch:
                        phys = ring[pending_head]
                        ring_commits[pending_head] = never
                        rf_state[phys] = FREE
                        if tainted:
                            tainted.discard(phys)
                        live_count -= 1
                        pending_head += 1
                        if pending_head == ring_size:
                            pending_head = 0
                    # ...then take the oldest free register; its slot
                    # keeps the old mapping, pending until this
                    # instruction's commit is known (patched below)
                    dest_phys = ring[free_head]
                    ring[free_head] = rename_map[dest]
                    free_head += 1
                    if free_head == ring_size:
                        free_head = 0
                    rename_map[dest] = dest_phys
                    rf_state[dest_phys] = LIVE
                    if tainted:
                        tainted.discard(dest_phys)
                    live_count += 1
                else:
                    dest_phys = -1

                if kind >= _LOAD:
                    # LoadStoreQueue.allocate on the LSQ ring: the
                    # in-flight entries are the lsq_count slots before
                    # lsq_next; stall for the oldest while the queue is
                    # full, reclaim the committed ones from the oldest,
                    # then take the slot at lsq_next
                    if lsq_count:
                        lsq_entry = lsq_entries[lsq_next - lsq_count]
                        oldest = lsq_entry.commit_cycle
                        if lsq_count == lsq_size and oldest > dispatch:
                            dispatch = oldest
                            if dispatch > ready:
                                ready = dispatch
                        while oldest <= dispatch:
                            lsq_entry.valid = False
                            lsq_count -= 1
                            if not lsq_count:
                                break
                            lsq_entry = lsq_entries[lsq_next - lsq_count]
                            oldest = lsq_entry.commit_cycle
                    lsq_entry = lsq_entries[lsq_next]
                    lsq_entry.valid = True
                    lsq_count += 1
                    lsq_next += 1
                    if lsq_next == lsq_size:
                        lsq_next = 0

                # ---- execute (functional, eager) ---------------------
                if not kind:
                    # a value ALU op writes its destination as
                    # _PipelineCore.write_reg does
                    if dest_phys >= 0:
                        values[dest_phys] = fn(a, b) & mask
                        if tainted:
                            tainted.discard(dest_phys)
                    next_pc = pc + 4
                elif kind == _BRANCH:
                    next_pc = pc + 4 + imm if fn(a, b) else pc + 4
                elif kind >= _LOAD:
                    addr = (a + imm) & 0xFFFF_FFFF
                    page = addr & page_mask
                    if page != data_page:
                        data_page = page
                        data_region = page_regions.get(page)
                    off = addr & d_off
                    end = off + nbytes
                    is_store = kind == _STORE
                    # the page memo proves an access inside one line;
                    # check_access raises on anything else that is bad
                    if (data_region is None or end > d_line
                            or data_region.kernel_only and not in_kernel
                            or is_store and not data_region.writable):
                        check_access(addr, nbytes, write=is_store,
                                     kernel_mode=in_kernel)
                        data_region = page_regions.get(page)
                    line = None
                    if end <= d_line:
                        line_addr = addr // d_line
                        tag = line_addr // l1d_n_sets
                        for line in l1d_sets[line_addr % l1d_n_sets]:
                            if line.tag == tag and line.valid:
                                break
                        else:
                            line = None
                    if not is_store:
                        if line is not None:
                            # Cache.read's hit, in line
                            l1d.hits += 1
                            tick = l1d._tick + 1
                            l1d._tick = tick
                            line.lru = tick
                            value = int.from_bytes(line.data[off:end],
                                                   "little")
                            data_tainted = line.taint and \
                                not line.taint.isdisjoint(range(off, end))
                            mem_latency = l1d_hit_latency
                        else:
                            data, mem_latency, data_tainted = \
                                l1d_read(addr, nbytes, probe)
                            value = int.from_bytes(data, "little")
                        if data_tainted and self.crossing is None:
                            self._write_back(
                                instructions, kernel_instructions,
                                fetch_time, last_commit, pc, live_count,
                                free_head, pending_head, rob_head,
                                iq_head, lsq_next, lsq_count)
                            self.record_crossing("WD", mem_addr=addr)
                        if signed and value & (1 << (8 * nbytes - 1)):
                            value -= 1 << (8 * nbytes)
                        if dest_phys >= 0:
                            values[dest_phys] = value & mask
                            if tainted:
                                tainted.discard(dest_phys)
                        latency = 1.0 + mem_latency
                    else:
                        data = (b & ((1 << (8 * nbytes)) - 1)).to_bytes(
                            nbytes, "little")
                        if line is not None:
                            # Cache.read of the old bytes then
                            # Cache.write, both hits, in line
                            l1d.hits += 2
                            tick = l1d._tick + 2
                            l1d._tick = tick
                            line.lru = tick
                            line_data = line.data
                            old = line_data[off:end]
                            line_data[off:end] = data
                            if line.taint:
                                line.taint -= set(range(off, end))
                                if not line.taint:
                                    line.taint = None
                            line.dirty = True
                        else:
                            old, _, _ = l1d_read(addr, nbytes, probe)
                            l1d_write(addr, data, probe)
                    next_pc = pc + 4
                else:
                    # a handler kind reads its sources from src_vals
                    src_vals.clear()
                    if rs1:
                        src_vals[rs1] = a
                    if rs2:
                        src_vals[rs2] = b
                    core.dest_phys = dest_phys
                    ms.pc = pc
                    next_pc = handler(instr, ms, core)
                    in_kernel = ms.mode == KERNEL_MODE
                    halted = ms.halted

                # ---- issue / complete timing -------------------------
                # the first unit that frees up earliest
                fu_pool = fu_pools[pool]
                start = fu_pool[0]
                unit = 0
                if units == 2:
                    other = fu_pool[1]
                    if other < start:
                        unit = 1
                        start = other
                elif units > 2:
                    for k in range(1, units):
                        if fu_pool[k] < start:
                            unit = k
                            start = fu_pool[k]
                if ready >= start:
                    start = ready
                fu_pool[unit] = start + fu_busy
                complete = start + latency

                # ---- commit -----------------------------------------
                commit = complete + 1.0
                in_order = last_commit + inv_commit
                if in_order > commit:
                    commit = in_order
                last_commit = commit
                # the windows' oldest slots take the newest cycles
                rob[rob_head] = commit
                rob_head += 1
                if rob_head == rob_size:
                    rob_head = 0
                iq[iq_head] = start
                iq_head += 1
                if iq_head == iq_size:
                    iq_head = 0

                if dest_phys >= 0:
                    reg_ready[dest_phys] = complete
                    # the old mapping's slot (the newest pending one)
                    # is reclaimed once this instruction commits
                    ring_commits[free_head - 1] = commit
                    if reg_write is not None:
                        reg_write(dest_phys, complete)
                        reg_release(ring[free_head - 1], commit)
                if kind >= _LOAD:
                    if mem_access is not None:
                        mem_access(addr, nbytes, is_store, start)
                        lsq_op(dispatch, commit)
                    lsq_entry.is_store = is_store
                    lsq_entry.addr = addr
                    lsq_entry.nbytes = nbytes
                    if is_store:
                        lsq_entry.data = b
                        lsq_entry.old_data = old
                        lsq_entry.dest_phys = -1
                    else:
                        lsq_entry.data = 0
                        lsq_entry.dest_phys = dest_phys
                    lsq_entry.alloc_cycle = dispatch
                    lsq_entry.commit_cycle = commit
                    lsq_entry.in_kernel = in_kernel

                # ---- control flow ------------------------------------
                if kind:
                    if kind <= _JUMP:
                        # BranchPredictor.update, in line
                        predictor.lookups += 1
                        index = (pc >> 2) & counter_mask
                        counter = counters[index]
                        if next_pc != pc + 4:
                            if counter < 3:
                                counters[index] = counter + 1
                            slot = (pc >> 2) & btb_mask
                            target = btb[slot]
                            # a taken branch mispredicts unless
                            # predicted taken with its BTB entry holding
                            # this very target
                            mispredicted = (counter < 2 or target is None
                                            or target[0] != pc
                                            or target[1] != next_pc)
                            if mispredicted:
                                btb[slot] = (pc, next_pc)
                        else:
                            mispredicted = counter >= 2
                            if counter:
                                counters[index] = counter - 1
                        if mispredicted:
                            predictor.mispredicts += 1
                            redirect = complete + penalty
                            if redirect > fetch:
                                fetch_time = redirect
                    elif kind == _SYS:
                        # syscall / eret serialise the frontend
                        redirect = commit + penalty
                        if redirect > fetch:
                            fetch_time = redirect
                pc = next_pc

                # ---- bookkeeping -------------------------------------
                instructions += 1
                if in_kernel:
                    kernel_instructions += 1
                if every and not instructions % every:
                    self._write_back(
                        instructions, kernel_instructions, fetch_time,
                        last_commit, pc, live_count, free_head,
                        pending_head, rob_head, iq_head, lsq_next,
                        lsq_count)
                    if kind < _LOAD:
                        self.pending_mem = None
                    elif kind == _LOAD:
                        self.pending_mem = ("load", addr, nbytes)
                    else:
                        self.pending_mem = ("store", addr, nbytes, b, old)
                    step(self)
        except SimException as exc:
            status = RunStatus.SIM_EXCEPTION
            fault_kind = exc.kind
            fault_in_kernel = exc.in_kernel or ms.in_kernel
        except DetectTrap:
            status = RunStatus.DETECTED
        except ContainmentError:
            raise
        except Exception as exc:
            # Containment contract: a fault must never surface as a
            # host-level Python error.  Anything that does is a
            # simulator bug; wrap it with the coordinates needed to
            # replay it deterministically.
            raise ContainmentError(
                f"fault escaped the timing model as "
                f"{type(exc).__name__}: {exc}",
                context={
                    "engine": "pipeline",
                    "error": f"{type(exc).__name__}: {exc}",
                    "pc": pc,
                    "instructions": instructions,
                    "cycle": round(fetch_time, 3),
                }) from exc
        finally:
            self._write_back(
                instructions, kernel_instructions, fetch_time,
                last_commit, pc, live_count, free_head, pending_head,
                rob_head, iq_head, lsq_next, lsq_count)

        if result is None:
            output, exit_code = self._drain_output()
            result = PipelineResult(
                status=status,
                output=output,
                exit_code=exit_code,
                cycles=self.last_commit,
                instructions=self.instructions,
                kernel_instructions=self.kernel_instructions,
                fault_applied=self.fault_applied,
                fault_live=self.fault_live,
                crossing=self.crossing,
                fault_kind=fault_kind,
                fault_in_kernel=fault_in_kernel,
            )
        return result

    def _write_back(self, instructions: int, kernel_instructions: int,
                    fetch_time: float, last_commit: float, pc: int,
                    live_count: int, free_head: int, pending_head: int,
                    rob_head: int, iq_head: int, lsq_next: int,
                    lsq_count: int) -> None:
        """Store the run loop's locals on the engine and its
        structures."""
        self.instructions = instructions
        self.kernel_instructions = kernel_instructions
        self.fetch_time = fetch_time
        self.last_commit = last_commit
        self.ms.pc = pc
        rf = self.rf
        rf.live_count = live_count
        rf.free_head = free_head
        rf.pending_head = pending_head
        self.rob_head = rob_head
        self.iq_head = iq_head
        lsq = self.lsq
        lsq._next = lsq_next
        lsq.valid_count = lsq_count

    # ------------------------------------------------------------------
    # DMA drain: coherent, pipeline-bypassing output collection
    # ------------------------------------------------------------------
    def coherent_read(self, addr: int, nbytes: int) -> bytes:
        """Read memory the way a snooping DMA engine would.

        Checks the L1D, then the L2, then main memory — per line
        segment — without going through the pipeline.  Corrupt cached
        output data therefore reaches the program output without any
        architectural crossing: the ESC channel.
        """
        out = bytearray()
        line = self.l1d.line_size
        while nbytes:
            seg = min(nbytes, line - (addr % line))
            data = self.l1d.snoop(addr, seg)
            if data is None:
                data = self.l2.snoop(addr, seg)
            if data is None:
                data = self.memory.read(addr, seg)
            out.extend(data)
            addr += seg
            nbytes -= seg
        return bytes(out)

    def _drain_output(self) -> tuple[bytes, int]:
        out_len = int.from_bytes(
            self.coherent_read(layout.OUTPUT_LEN_ADDR, 4), "little")
        out_len = min(out_len, layout.OUTPUT_LIMIT - layout.OUTPUT_BASE)
        output = self.coherent_read(layout.OUTPUT_BASE, out_len)
        exit_code = int.from_bytes(
            self.coherent_read(layout.KERNEL_DATA_BASE
                               + EXIT_CODE_OFFSET, 4), "little")
        return output, exit_code

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def _record_metrics(self, registry, wall: float) -> None:
        """Fold this execution into the process-wide metrics registry.

        Runs once per execution (never in the instruction loop), so
        the pipeline's hot path carries no metric calls at all.
        """
        registry.counter("pipeline.runs").inc()
        registry.counter("pipeline.instructions").inc(self.instructions)
        registry.timer("pipeline.wall_seconds").add(wall)
        if wall > 0:
            registry.gauge("pipeline.sim_cycles_per_sec").set(
                self.last_commit / wall)
        branch = self.predictor.stats()
        registry.counter("pipeline.squashes").inc(branch["mispredicts"])
        for name, cache in (("l1i", self.l1i), ("l1d", self.l1d),
                            ("l2", self.l2)):
            stats = cache.stats()
            registry.counter(f"pipeline.{name}.hits").inc(stats["hits"])
            registry.counter(f"pipeline.{name}.misses").inc(
                stats["misses"])
            lookups = stats["hits"] + stats["misses"]
            if lookups:
                registry.gauge(f"pipeline.{name}.hit_rate").set(
                    stats["hits"] / lookups)


def run_pipeline(user_program, config: MicroarchConfig,
                 max_instructions: int = 2_000_000,
                 max_cycles: float = float("inf")) -> PipelineResult:
    """Build a fresh system image and run it through the pipeline."""
    from ..kernel.loader import build_system_image

    return PipelineEngine(build_system_image(user_program), config,
                          max_instructions=max_instructions,
                          max_cycles=max_cycles).run()
