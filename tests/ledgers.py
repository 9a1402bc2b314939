"""Recorders for the engine ledgers under ``corpus/ledger``.

Three ledgers pin the instruction semantics, the functional engine and
the pipeline's injection targets:

* ``semantics.json`` — every mnemonic valid on each ISA executed over
  an edge-operand grid against a recording core: the register reads
  and writes, memory calls, next pc, ``ms`` mode/kepc/halted and the
  fault kind and detail of each grid point.
* ``functional-runs.json`` — fault-free runs of every workload on both
  ISAs under both kernels, every ``FuncResult`` field, the golden
  profile (:class:`repro.injectors.golden.GoldenProfile`) plus the
  user store count, and ``functional_digest`` every 997 instructions;
  and a fixed set of pvf WD/WOI/WI and svf runs on the slow path and
  on a restored checkpoint.
* ``pipeline-runs.json`` — fault-free pipeline runs of crc32, sha and
  qsort on every config: every ``PipelineResult`` field, the mean
  occupancy (:class:`repro.uarch.snapshot.OccupancySampler`) and the
  cache and predictor statistics, plus the sha256 of the RF, LSQ,
  cache and predictor state every 997 instructions; and fixed
  RF/LSQ/L1I/L1D/L2 faults (live-steered, multi-bit and tag flips among
  them) on a 32-bit and a 64-bit core, on the slow path; the same runs
  from a restored checkpoint must equal them.

A fault-free run carries one observer, :class:`_Strides`, which steps
the production observers and the state hash each at its own stride.

The tests regenerate each entry and compare it with the file.  The
files were written by the code the ledgers guard against, before it
changed::

    PYTHONPATH=src python -m tests.ledgers semantics
    PYTHONPATH=src python -m tests.ledgers functional-runs
    PYTHONPATH=src python -m tests.ledgers pipeline-runs

Only interfaces that stay put across engine rewrites are used
(``cpu.execute``, ``FunctionalEngine``, ``PipelineEngine`` and the
state layout of its injection targets, the observer slot and its two
statistics observers, the injectors' fault-action constructors and
the snapshot fast path), so the same module records with one revision
and checks another.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

LEDGER_DIR = Path(__file__).parent / "corpus" / "ledger"
SEMANTICS_PATH = LEDGER_DIR / "semantics.json"
FUNCTIONAL_RUNS_PATH = LEDGER_DIR / "functional-runs.json"
PIPELINE_RUNS_PATH = LEDGER_DIR / "pipeline-runs.json"

#: pc and kepc every semantics grid point starts from
GRID_PC = 0x0001_0040
GRID_KEPC = 0x0002_0000
#: architectural registers of the grid's operands (valid on both ISAs)
RD, RS1, RS2 = 3, 4, 5
#: functional_digest stride of the fault-free runs (prime, so it never
#: lines up with a checkpoint interval)
DIGEST_EVERY = 997


# ---------------------------------------------------------------------------
# semantics grid
# ---------------------------------------------------------------------------
def operand_values(xlen: int) -> list:
    """Register operands: 0, 1, -1, signed min/max, the 32-bit
    boundary, shift amounts at and past xlen, and one busy pattern."""
    mask = (1 << xlen) - 1
    raw = [0, 1, mask, 1 << (xlen - 1), (1 << (xlen - 1)) - 1,
           0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF, 0x1_0000_0000,
           31, xlen - 1, xlen, xlen + 1, 0x1234_5678_9ABC_DEF0]
    out = []
    for value in raw:
        value &= mask
        if value not in out:
            out.append(value)
    return out


#: immediates of I/U-format ops (already sign-extended, as decoded)
IMM16 = (0, 1, -1, 4, 31, 32, 63, 64, 0x7FFF, -0x8000)
#: byte offsets of branches (16-bit word field) and jumps (26-bit)
BRANCH_IMM = (-8, 0, 4, 0x1_FFFC, -0x2_0000)
JUMP_IMM = (-4, 0, 8, 0x7FF_FFFC, -0x800_0000)


class _RecordingCore:
    """CoreAccess that logs every call; loads return a value derived
    from the address, sign-extended like ``Memory.read_int``."""

    def __init__(self, regs: dict) -> None:
        self.regs = dict(regs)
        self.log: list = []

    def read_reg(self, index):
        self.log.append(f"r{index}")
        return self.regs.get(index, 0)

    def write_reg(self, index, value):
        self.log.append(f"w{index}={value:#x}")
        if index:
            self.regs[index] = value

    def load(self, addr, nbytes, signed):
        self.log.append(f"ld{nbytes}{'s' if signed else 'u'}@{addr:#x}")
        value = (addr * 0x9E37_79B9_7F4A_7C15 + 0x5A) \
            & ((1 << (8 * nbytes)) - 1)
        if signed and value & (1 << (8 * nbytes - 1)):
            value -= 1 << (8 * nbytes)
        return value

    def store(self, addr, nbytes, value):
        self.log.append(f"st{nbytes}@{addr:#x}={value:#x}")


def _grid_points(d, xlen: int):
    """``(rs1 value, rs2 value, imm)`` triples for one definition."""
    vals = operand_values(xlen)
    fmt = d.fmt
    if d.cls == "store":
        return [(a, b, imm) for a in vals for b in vals[:4]
                for imm in (0, -8, 0x7FFF)]
    if d.cls == "load":
        return [(a, 0, imm) for a in vals for imm in (0, 1, -8, 0x7FFF)]
    if fmt in ("R",):
        return [(a, b, 0) for a in vals for b in vals]
    if fmt == "I":
        return [(a, 0, imm) for a in vals for imm in IMM16]
    if fmt == "U":
        return [(0, 0, imm) for imm in IMM16]
    if fmt == "B":
        return [(a, b, BRANCH_IMM[0]) for a in vals for b in vals] \
            + [(1, 1, imm) for imm in BRANCH_IMM[1:]]
    if fmt == "J":
        return [(0, 0, imm) for imm in JUMP_IMM]
    if fmt == "RJ":
        return [(a, 0, 0) for a in vals]
    return [(0, 0, 0)]   # SYS


def _fault_text(exc) -> str:
    from repro.uarch.exceptions import SimException

    if isinstance(exc, SimException):
        addr = "none" if exc.addr is None else f"{exc.addr:#x}"
        return (f"fault={exc.kind.value} addr={addr} "
                f"detail={exc.detail!r} in_kernel={int(exc.in_kernel)}")
    return f"raise={type(exc).__name__}"


def semantics_entry(run, instr, xlen: int, mode: int, a: int,
                    b: int) -> str:
    """One grid point through *run* (``execute``'s signature); the
    ``ms`` state is appended only when the instruction changed it."""
    from repro.uarch.cpu import MachineState
    from repro.uarch.exceptions import DetectTrap, SimException

    ms = MachineState(xlen=xlen, pc=GRID_PC, mode=mode, kepc=GRID_KEPC)
    core = _RecordingCore({RS1: a, RS2: b})
    try:
        next_pc = run(instr, ms, core)
        end = f"next={next_pc:#x}"
    except (SimException, DetectTrap) as exc:
        end = _fault_text(exc)
    entry = f"{' '.join(core.log)} | {end}"
    if (ms.mode, ms.kepc, ms.halted) != (mode, GRID_KEPC, False):
        entry += (f" | mode={ms.mode} kepc={ms.kepc:#x} "
                  f"halted={int(ms.halted)}")
    return entry


def semantics_cases(isa: str):
    """Yield ``(op, label, instr, xlen, mode, a, b)`` over the grid."""
    from repro.isa.encoding import Decoded
    from repro.isa.instructions import BY_MNEMONIC
    from repro.isa.registers import register_set

    xlen = register_set(isa).xlen
    for op, d in BY_MNEMONIC.items():
        if d.mr64_only and xlen == 32:
            continue
        modes = (0, 1) if d.cls in ("sys", "div") else (0,)
        for mode in modes:
            for a, b, imm in _grid_points(d, xlen):
                instr = Decoded(op, d, RD, RS1, RS2, imm, 0)
                label = f"mode={mode} rs1={a:#x} rs2={b:#x} imm={imm}"
                yield op, label, instr, xlen, mode, a, b


def semantics_ledger(run) -> dict:
    from repro.isa.registers import ISA_NAMES

    table: dict = {}
    for isa in ISA_NAMES:
        ops: dict = {}
        for op, _label, instr, xlen, mode, a, b in semantics_cases(isa):
            ops.setdefault(op, []).append(
                semantics_entry(run, instr, xlen, mode, a, b))
        table[isa] = ops
    return table


# ---------------------------------------------------------------------------
# functional runs
# ---------------------------------------------------------------------------
def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Strides:
    """The observer of a fault-free ledger run: calls ``step`` of each
    of *observers* after every ``every``-th instruction (default 1),
    counting instructions from reset."""

    def __init__(self, *observers) -> None:
        self.steps = [(getattr(observer, "every", None) or 1,
                       observer.step) for observer in observers]
        self.count = 0

    def step(self, engine) -> None:
        self.count += 1
        for every, step in self.steps:
            if not self.count % every:
                step(engine)


def _every(stride: int, step):
    return SimpleNamespace(every=stride, step=step)


def _result_fields(result, profile=None, stores: int = 0) -> dict:
    out = {
        "status": result.status.value,
        "output_len": len(result.output),
        "output_sha256": _sha(result.output),
        "exit_code": result.exit_code,
        "instructions": result.instructions,
        "fault_kind": (result.fault_kind.value
                       if result.fault_kind is not None else None),
        "fault_in_kernel": result.fault_in_kernel,
    }
    if profile is not None:
        footprint = sorted(profile.footprint)
        out["profile"] = {
            "regs_used": sorted(profile.regs_used),
            "mem_footprint_len": len(footprint),
            "mem_footprint_sha256": _sha(repr(footprint).encode()),
            "user_instructions": profile.user_instructions,
            "kernel_instructions": profile.kernel_instructions,
            "dest_instructions": profile.dest_instructions,
            "store_instructions": stores,
        }
    return out


def fault_free_run(workload: str, isa: str, kernel: str) -> dict:
    from repro.injectors.golden import GoldenProfile
    from repro.kernel.loader import build_system_image
    from repro.uarch.cpu import KERNEL_MODE
    from repro.uarch.functional import FunctionalEngine
    from repro.uarch.snapshot import functional_digest
    from repro.workloads.suite import load_workload

    engine = FunctionalEngine(build_system_image(load_workload(workload,
                                                               isa)),
                              kernel=kernel)
    profile = GoldenProfile()
    digests = []
    stores = 0

    def count_store(e):
        nonlocal stores
        if e.ms.mode != KERNEL_MODE and e.last_instr.d.cls == "store":
            stores += 1

    engine.observer = _Strides(
        profile, _every(1, count_store),
        _every(DIGEST_EVERY, lambda e: digests.append(
            functional_digest(e))))
    out = _result_fields(engine.run(), profile, stores)
    out["digests"] = digests
    return out


#: (workload, config, injector, model, count) of the faulty runs
FAULTY_SET = (
    ("crc32", "cortex-a72", "pvf", "WD", 3),
    ("crc32", "cortex-a72", "pvf", "WOI", 3),
    ("crc32", "cortex-a72", "pvf", "WI", 4),
    ("crc32", "cortex-a72", "svf", "-", 3),
    ("crc32", "cortex-a9", "pvf", "WD", 2),
    ("crc32", "cortex-a9", "pvf", "WOI", 2),
    ("crc32", "cortex-a9", "pvf", "WI", 2),
    ("sha", "cortex-a72", "pvf", "WD", 2),
    ("sha", "cortex-a72", "pvf", "WOI", 2),
    ("sha", "cortex-a72", "pvf", "WI", 2),
    ("sha", "cortex-a72", "svf", "-", 2),
)


def faulty_cases():
    """Yield ``(key, build_engine)`` for every faulty run and path;
    ``build_engine()`` returns a scheduled engine ready to ``run()``."""
    from repro.injectors.archinj import build_pvf_action
    from repro.injectors.golden import (STORE_ENGINES, checkpoint_store,
                                        golden_run)
    from repro.injectors.llfi import _dest_flip_action
    from repro.kernel.loader import build_system_image
    from repro.uarch.config import config_by_name
    from repro.uarch.functional import FunctionalEngine
    from repro.uarch.snapshot import prepare_functional_fastpath
    from repro.workloads.suite import load_workload

    for workload, config_name, injector, model, count in FAULTY_SET:
        config = config_by_name(config_name)
        isa = config.isa
        golden = golden_run(workload, config_name)
        xlen = 64 if isa.endswith("64") else 32
        rng = random.Random(repr(("ledger", workload, isa, injector,
                                  model)))
        for index in range(count):
            action = (build_pvf_action(model, rng, golden, xlen)
                      if injector == "pvf"
                      else _dest_flip_action(rng, golden, xlen))
            for path in ("slow", "checkpoint"):
                def build(action=action, path=path, workload=workload,
                          config_name=config_name, isa=isa,
                          injector=injector, golden=golden):
                    engine = FunctionalEngine(
                        build_system_image(load_workload(workload, isa)),
                        kernel="sim" if injector == "pvf" else "host",
                        max_instructions=golden.max_instructions)
                    engine.schedule(action)
                    if path == "checkpoint":
                        store = checkpoint_store(
                            workload, config_name,
                            engine=STORE_ENGINES[injector])
                        prepare_functional_fastpath(engine, store)
                    return engine
                key = (f"{workload}/{isa}/{injector}/{model}/{index}/"
                       f"{path}")
                yield key, action, build


def faulty_run(action, build) -> dict:
    from repro.uarch.snapshot import functional_digest

    engine = build()
    out = _result_fields(engine.run())
    out.update(origin=getattr(action, "origin", ""),
               executed=engine.executed,
               counters=dict(sorted(engine._counters.items())),
               last_dest=engine.last_dest,
               end_digest=functional_digest(engine))
    return out


def functional_runs_ledger() -> dict:
    from repro.isa.registers import ISA_NAMES
    from repro.workloads.suite import WORKLOAD_NAMES

    fault_free = {}
    for workload in WORKLOAD_NAMES:
        for isa in ISA_NAMES:
            for kernel in ("sim", "host"):
                fault_free[f"{workload}/{isa}/{kernel}"] = \
                    fault_free_run(workload, isa, kernel)
    faulty = {key: faulty_run(action, build)
              for key, action, build in faulty_cases()}
    return {"fault_free": fault_free, "faulty": faulty}


# ---------------------------------------------------------------------------
# pipeline runs
# ---------------------------------------------------------------------------
#: workloads of the fault-free pipeline runs (every config)
PIPELINE_WORKLOADS = ("crc32", "sha", "qsort")


def pipeline_structures(engine) -> dict:
    """Every injection target's state, normalised to lists (floats as
    ``repr``): the RF lists, every LSQ entry's fields, each cache's
    ways per touched set as ``(valid, tag, dirty, lru, data)`` plus its
    tick, and the predictor tables."""
    rf = engine.rf
    lsq = engine.lsq
    pred = engine.predictor
    caches = {}
    for name in ("l1i", "l1d", "l2"):
        cache = getattr(engine, name)
        caches[name] = {
            "tick": cache._tick,
            "sets": {str(index): [[line.valid, line.tag, line.dirty,
                                   line.lru, bytes(line.data).hex()]
                                  for line in ways]
                     for index, ways in enumerate(cache.sets) if ways}}
    return {
        "rf": {"values": list(rf.values), "state": list(rf.state),
               "rename_map": list(rf.rename_map),
               "free_list": list(rf.free_list),
               "pending_free": [[repr(c), p] for c, p in rf.pending_free],
               "tainted": sorted(rf.tainted),
               "live_count": rf.live_count,
               "reg_ready": [repr(c) for c in engine.reg_ready]},
        "lsq": {"entries": [[e.valid, e.is_store, e.addr, e.data,
                             e.nbytes, bytes(e.old_data).hex(),
                             e.dest_phys, repr(e.alloc_cycle),
                             repr(e.commit_cycle), e.in_kernel]
                            for e in lsq.entries],
                "next": lsq._next, "valid_count": lsq.valid_count},
        "caches": caches,
        "predictor": {"counters": list(pred.counters),
                      "btb": [list(slot) if slot is not None else None
                              for slot in pred.btb],
                      "lookups": pred.lookups,
                      "mispredicts": pred.mispredicts},
    }


def _structures_sha(engine) -> str:
    return _sha(json.dumps(pipeline_structures(engine),
                           sort_keys=True).encode())


def _counter_stats(engine) -> dict:
    """Cache and predictor counters, read off the structures (so
    early exits report them too)."""
    out = {name: {"hits": cache.hits, "misses": cache.misses,
                  "writebacks": cache.writebacks,
                  "valid_lines": cache.valid_lines}
           for name, cache in (("l1i", engine.l1i), ("l1d", engine.l1d),
                               ("l2", engine.l2))}
    out["branch"] = {"lookups": engine.predictor.lookups,
                     "mispredicts": engine.predictor.mispredicts}
    return out


def _floats(value):
    """*value* with every float replaced by its ``repr``."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_floats(v) for v in value]
    return value


def pipeline_result_fields(result, occupancy: "dict | None" = None,
                           stats: "dict | None" = None) -> dict:
    """Every :class:`PipelineResult` field plus *occupancy* and *stats*
    (empty when not given; floats as ``repr``)."""
    crossing = result.crossing
    return {
        "status": result.status.value,
        "output_len": len(result.output),
        "output_sha256": _sha(result.output),
        "exit_code": result.exit_code,
        "cycles": repr(result.cycles),
        "instructions": result.instructions,
        "kernel_instructions": result.kernel_instructions,
        "fault_applied": result.fault_applied,
        "fault_live": result.fault_live,
        "crossing": None if crossing is None else {
            "fpm": crossing.fpm, "cycle": repr(crossing.cycle),
            "in_kernel": crossing.in_kernel,
            "arch_reg": crossing.arch_reg,
            "mem_addr": crossing.mem_addr},
        "fault_kind": (result.fault_kind.value
                       if result.fault_kind is not None else None),
        "fault_in_kernel": result.fault_in_kernel,
        "occupancy": _floats(occupancy or {}),
        "stats": _floats(stats or {}),
    }


def pipeline_fault_free_run(workload: str, config_name: str) -> dict:
    from repro.kernel.loader import build_system_image
    from repro.uarch.config import config_by_name
    from repro.uarch.pipeline import PipelineEngine
    from repro.uarch.snapshot import OccupancySampler
    from repro.workloads.suite import load_workload

    config = config_by_name(config_name)
    engine = PipelineEngine(
        build_system_image(load_workload(workload, config.isa)), config)
    occupancy = OccupancySampler()
    states = []
    engine.observer = _Strides(
        occupancy, _every(DIGEST_EVERY, lambda e: states.append(
            _structures_sha(e))))
    result = engine.run()
    stats = {name: getattr(engine, name).stats()
             for name in ("l1i", "l1d", "l2")}
    stats["branch"] = engine.predictor.stats()
    out = pipeline_result_fields(result, occupancy.averages(), stats)
    out["states"] = states
    return out


#: (structure, cycle fraction of the golden run, a, b, c, prefer_live,
#: kind, n_bits) of the faulty pipeline runs; c is the bit within a
#: cache line (or tag)
PIPELINE_FAULTS = (
    ("RF", 0.21, 37, 5, 0, False, "data", 1),
    ("RF", 0.37, 11, 3, 0, True, "data", 1),
    ("RF", 0.52, 29, 62, 0, True, "data", 3),
    ("RF", 0.83, 3, 0, 0, True, "data", 1),
    ("LSQ", 0.27, 2, 7, 0, True, "data", 1),
    ("LSQ", 0.44, 5, 40, 0, True, "data", 1),
    ("LSQ", 0.61, 9, 33, 0, True, "data", 2),
    ("LSQ", 0.73, 1, 4, 0, False, "data", 1),
    ("L1I", 0.33, 3, 0, 77, True, "data", 1),
    ("L1I", 0.58, 7, 1, 5, True, "tag", 1),
    ("L1I", 0.49, 1, 0, 130, False, "data", 2),
    ("L1D", 0.18, 4, 1, 200, True, "data", 1),
    ("L1D", 0.42, 0, 0, 3, True, "data", 4),
    ("L1D", 0.66, 9, 2, 2, True, "tag", 1),
    ("L1D", 0.91, 2, 0, 300, True, "data", 1),
    ("L2", 0.25, 6, 0, 411, True, "data", 1),
    ("L2", 0.55, 2, 1, 1, True, "tag", 2),
    ("L2", 0.77, 0, 0, 17, False, "data", 1),
)
#: (workload, config) of the faulty pipeline runs: a 32-bit and a
#: 64-bit core
PIPELINE_FAULTY_TARGETS = (("crc32", "cortex-a9"), ("sha", "cortex-a9"),
                           ("crc32", "cortex-a72"),
                           ("sha", "cortex-a72"))


def pipeline_faulty_cases():
    """Yield ``(key, build_engine)`` for every faulty pipeline run and
    path; ``build_engine()`` returns an engine ready to ``run()``.  A
    ``.../fast`` run is checked against its ``.../slow`` twin's entry
    (see :func:`slow_twin`); only slow runs are recorded."""
    from repro.faults.fault import FaultSpec
    from repro.injectors.golden import checkpoint_store, golden_run
    from repro.kernel.loader import build_system_image
    from repro.uarch.config import config_by_name
    from repro.uarch.pipeline import PipelineEngine
    from repro.uarch.snapshot import prepare_pipeline_fastpath
    from repro.workloads.suite import load_workload

    for workload, config_name in PIPELINE_FAULTY_TARGETS:
        config = config_by_name(config_name)
        golden = golden_run(workload, config_name)
        for number, (structure, frac, a, b, c, live, kind,
                     n_bits) in enumerate(PIPELINE_FAULTS):
            spec = FaultSpec(structure, golden.cycles * frac, a, b, c,
                             prefer_live=live, kind=kind, n_bits=n_bits)
            for path in ("slow", "fast"):
                def build(spec=spec, path=path, workload=workload,
                          config=config, golden=golden):
                    engine = PipelineEngine(
                        build_system_image(load_workload(workload,
                                                         config.isa)),
                        config, faults=[spec],
                        max_instructions=golden.max_instructions,
                        max_cycles=golden.max_cycles)
                    if path == "fast":
                        prepare_pipeline_fastpath(
                            engine, checkpoint_store(workload,
                                                     config.name))
                        # the ledger pins the restore alone
                        engine.fastpath.oracle = None
                    return engine
                key = (f"{workload}/{config_name}/{number:02d}-"
                       f"{structure}-{kind}/{path}")
                yield key, build


def slow_twin(key: str) -> str:
    """The ledger key of faulty pipeline run *key* on the slow path."""
    return key.rsplit("/", 1)[0] + "/slow"


def pipeline_faulty_run(build) -> dict:
    engine = build()
    out = pipeline_result_fields(engine.run())
    out["counters"] = _counter_stats(engine)
    out["end_state"] = _structures_sha(engine)
    return out


def pipeline_runs_ledger() -> dict:
    from repro.uarch.config import ALL_CONFIGS

    fault_free = {f"{workload}/{config.name}":
                  pipeline_fault_free_run(workload, config.name)
                  for workload in PIPELINE_WORKLOADS
                  for config in ALL_CONFIGS}
    faulty = {key: pipeline_faulty_run(build)
              for key, build in pipeline_faulty_cases()
              if key == slow_twin(key)}
    return {"fault_free": fault_free, "faulty": faulty}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------
def _write(path: Path, about: str, body: dict) -> None:
    path.write_text(json.dumps({"about": about, **body}, indent=1,
                               sort_keys=True) + "\n")
    print(f"wrote {path}")


def main(argv) -> int:
    which = argv[0] if argv else ""
    if which == "semantics":
        from repro.uarch.cpu import execute

        _write(SEMANTICS_PATH,
               "cpu.execute over every mnemonic valid on each ISA x an "
               "edge-operand grid (tests/ledgers.py: semantics_cases); "
               "each entry: core calls | next pc or fault [| ms state, when "
               "changed]",
               {"isa": semantics_ledger(execute)})
        return 0
    if which == "functional-runs":
        # goldens and checkpoint stores from a private, empty cache
        os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(
            prefix="ledger-cache-")
        _write(FUNCTIONAL_RUNS_PATH,
               "FunctionalEngine runs (tests/ledgers.py): fault-free "
               "workload x ISA x kernel with the golden profile and "
               f"functional_digest every {DIGEST_EVERY} instructions; "
               "faulty pvf/svf runs on the slow path and on a restored "
               "checkpoint",
               functional_runs_ledger())
        return 0
    if which == "pipeline-runs":
        os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(
            prefix="ledger-cache-")
        _write(PIPELINE_RUNS_PATH,
               "PipelineEngine runs (tests/ledgers.py): fault-free "
               "workload x config with the mean occupancy, the cache and "
               "predictor statistics and the sha256 "
               "of every injection target's state (pipeline_structures) "
               f"every {DIGEST_EVERY} instructions; faulty RF/LSQ/L1I/L1D/"
               "L2 runs on the slow path with every PipelineResult field, "
               "the structures' counters and the end state (the same "
               "runs from a restored checkpoint must equal them)",
               pipeline_runs_ledger())
        return 0
    print("usage: python -m tests.ledgers "
          "semantics|functional-runs|pipeline-runs", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
