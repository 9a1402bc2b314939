"""Golden (fault-free) reference runs.

Every campaign needs the fault-free baseline: the program output and
exit code (SDC detection), the cycle count (fault-time sampling and
watchdog), the dynamic instruction counts (functional fault-time
sampling), the set of architecturally used registers and the memory
footprint (PVF fault populations), and the average structure
occupancies (variance-reduced AVF estimation).

:func:`golden_run` starts no engine: it reads the functional-sim and
pipeline checkpoint captures, a target's one fault-free run of each
engine (pvf/svf campaigns never need the pipeline).  Every other
fault-free run (the profile and WD record of :func:`arch_liveness`,
the residency profiler, the ACE lifetime analysis, the golden side of
a trace diff) is a fork of the golden run through :func:`replay_golden`.

Golden data is deterministic per (workload, ISA/config, hardened), so
it is cached in-process and on disk, as the checkpoint stores.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from ..kernel.loader import build_system_image
from ..uarch.config import MicroarchConfig, config_by_name
from ..uarch.cpu import KERNEL_MODE
from ..uarch.functional import FunctionalEngine, writes_reg
from ..workloads.suite import load_workload

#: watchdog multipliers relative to the golden run
WATCHDOG_INSTR_FACTOR = 4
WATCHDOG_CYCLE_FACTOR = 5

#: schema version salting every on-disk cache key (campaign results,
#: checkpoint stores).  Bump whenever the result
#: format or engine semantics change in a way that could silently mix
#: stale entries with fresh ones (e.g. the fast-path introduction);
#: old entries then simply miss and are recomputed.  Schema 4: the
#: campaign sidecar gained the two-level planner's ``plan`` record.
CACHE_SCHEMA_VERSION = 4


def cache_dir() -> Path:
    """Directory for on-disk campaign and checkpoint-store caches."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        path = Path(env)
    else:
        path = Path.home() / ".cache" / "repro-vulnstack"
    path.mkdir(parents=True, exist_ok=True)
    return path


@dataclass
class GoldenRun:
    """Fault-free reference data for one (workload, config, hardened)."""

    workload: str
    config_name: str
    hardened: bool

    # functional (architectural) reference: the functional-sim final result
    output: bytes = b""
    exit_code: int = 0
    instructions: int = 0
    dest_instructions: int = 0

    @property
    def max_instructions(self) -> int:
        return max(1000, WATCHDOG_INSTR_FACTOR * self.instructions)

    # the golden profile (GoldenProfile; footprint: 8-byte granules),
    # recorded with the WD first-read record by one replay on demand
    regs_used = property(lambda self: self._profile("regs_used"))
    footprint = property(lambda self: self._profile("footprint"))
    kernel_instructions = property(
        lambda self: self._profile("kernel_instructions"))
    user_instructions = property(
        lambda self: self._profile("user_instructions"))

    def _profile(self, name: str):
        return _replayed(self.workload, self.config_name,
                         self.hardened).profile[name]

    # pipeline (microarchitectural) reference: the final result of the
    # pipeline checkpoint store's capture run
    cycles = property(lambda self: self._pipeline("cycles"))
    occupancy = property(lambda self: self._pipeline("occupancy"))

    def _pipeline(self, name: str):
        return checkpoint_store(self.workload, self.config_name,
                                engine="pipeline",
                                hardened=self.hardened).final[name]

    @property
    def max_cycles(self) -> float:
        return max(10_000.0, WATCHDOG_CYCLE_FACTOR * self.cycles)


class GoldenProfile:
    """Observer of a fault-free functional run that collects a
    :class:`GoldenRun`'s profile: the registers used, the 8-byte
    memory granules touched, and the user, kernel and register-writing
    user instruction counts.  It steps after every instruction."""

    def __init__(self) -> None:
        self.regs_used: set = set()
        self.footprint: set = set()
        self.user_instructions = 0
        self.kernel_instructions = 0
        self.dest_instructions = 0
        #: instruction word -> whether it writes a register; the
        #: registers a word names join regs_used at its first step
        self._writes: dict = {}

    def step(self, engine) -> None:
        instr = engine.last_instr
        writes = self._writes.get(instr.raw)
        if writes is None:
            writes = self._writes[instr.raw] = writes_reg(instr)
            self.regs_used.update(
                reg for reg in (instr.rs1, instr.rs2,
                                instr.rd if writes else 0) if reg)
        if engine.ms.mode == KERNEL_MODE:
            self.kernel_instructions += 1
        else:
            self.user_instructions += 1
            if writes:
                self.dest_instructions += 1
        mem = engine.last_mem
        if mem is not None:
            self.footprint.add(mem[1] & ~7)


def workload_digest(workload: str, isa: str, hardened: bool) -> str:
    """Content digest of the assembled workload (cache invalidation)."""
    program = load_workload(workload, isa, hardened=hardened)
    h = hashlib.sha256()
    for section in program.sections:
        h.update(section.name.encode())
        h.update(section.base.to_bytes(8, "little"))
        h.update(bytes(section.data))
    return h.hexdigest()[:16]


def config_digest(config: MicroarchConfig) -> str:
    """Digest of every parameter of a core configuration.

    Keys store/campaign caches so that editing a preset (or defining
    a custom core under an existing name) can never resurrect stale
    results.
    """
    return hashlib.sha256(repr(config).encode()).hexdigest()[:16]


def _memo_of(cached):
    """Decorate the public face of lru-cached *cached*: a function with
    the same parameters that passes them all on positionally, so a
    default left out, passed positionally or by keyword makes one
    memo entry.  It keeps the cache's ``cache_clear`` and
    ``cache_info``."""
    def expose(public):
        public.cache_clear = cached.cache_clear
        public.cache_info = cached.cache_info
        return public
    return expose


@lru_cache(maxsize=None)
def _golden_run(workload: str, config_name: str,
                hardened: bool) -> GoldenRun:
    final = checkpoint_store(workload, config_name,
                             engine="functional-sim",
                             hardened=hardened).final
    return GoldenRun(
        workload=workload,
        config_name=config_by_name(config_name).name,
        hardened=hardened,
        output=final["output"],
        exit_code=final["exit_code"],
        instructions=final["instructions"],
        dest_instructions=final["dest_instructions"],
    )


@_memo_of(_golden_run)
def golden_run(workload: str, config_name: str,
               hardened: bool = False) -> GoldenRun:
    """The golden reference for one configuration: the final result
    of its functional-sim checkpoint store, built or loaded on demand."""
    return _golden_run(workload, config_name, hardened)


# ---------------------------------------------------------------------------
# checkpoint stores (the injection fast path; see repro.uarch.snapshot)
# ---------------------------------------------------------------------------
#: injector -> checkpoint-store engine (the capture run its runs
#: restore from; a functional store names its kernel after the dash)
STORE_ENGINES = {"gefin": "pipeline", "pvf": "functional-sim",
                 "svf": "functional-host"}


@lru_cache(maxsize=None)
def _checkpoint_store(workload: str, config_name: str, engine: str,
                      hardened: bool):
    from .. import __version__
    from ..uarch import snapshot

    if engine not in STORE_ENGINES.values():
        raise ValueError(f"unknown checkpoint engine {engine!r}")
    config = config_by_name(config_name)
    pipeline = engine == "pipeline"
    golden = (None if engine == "functional-sim"     # it is the golden run
              else golden_run(workload, config_name, hardened))
    # the grid's constants: a functional capture picks its interval
    blob = json.dumps([CACHE_SCHEMA_VERSION,
                       snapshot.SNAPSHOT_SCHEMA_VERSION, __version__,
                       workload, config.name, engine, hardened,
                       workload_digest(workload, config.isa, hardened),
                       config_digest(config), snapshot.MIN_INTERVAL,
                       snapshot.TARGET_CHECKPOINTS]).encode()
    key = hashlib.sha256(blob).hexdigest()[:24]
    # one file per target: a fresh store replaces those saved under
    # older keys; the hardened tag keeps plain and hardened stores
    # out of each other's glob
    stem = (f"checkpoints-{workload}-{config.name}-{engine}"
            + ("-ft" if hardened else ""))
    path = cache_dir() / f"{stem}-{key}.pkl"
    store = snapshot.load_store(path, key)
    if store is None:
        def factory():
            return build_system_image(
                load_workload(workload, config.isa, hardened=hardened))

        if pipeline:
            store = snapshot.build_pipeline_store(
                factory, config, golden.max_instructions,
                snapshot.checkpoint_interval(golden.instructions), key=key)
        else:
            store = snapshot.build_functional_store(
                factory, engine.split("-", 1)[1], key=key)
        if golden is not None and (
                store.final["output"] != golden.output
                or pipeline
                and store.final["instructions"] != golden.instructions):
            raise RuntimeError(
                f"checkpoint capture run of {workload} on {config.name} "
                f"({engine}) diverged from the functional reference")
        snapshot.save_store(path, store)
        for stale in path.parent.glob(
                f"{stem}-{'[0-9a-f]' * len(key)}.pkl"):
            if stale != path:
                stale.unlink(missing_ok=True)
    if pipeline:
        snapshot.decode_code(store, config)
    return store


@_memo_of(_checkpoint_store)
def checkpoint_store(workload: str, config_name: str,
                     engine: str = "pipeline", hardened: bool = False):
    """Build (or load) the golden checkpoint store for one capture run.

    *engine* selects the capture target: ``"pipeline"`` (AVF/HVF
    runs), ``"functional-sim"`` (PVF) or ``"functional-host"`` (SVF).
    Stores are cached in-process and on disk next to the campaign
    results; the key is salted with the workload/config digests plus
    both schema versions, so any engine or format change invalidates
    every stale store.  The functional-sim capture is the golden run;
    the pipeline capture must retire its instructions and output, and
    the functional-host capture must print its output.
    """
    return _checkpoint_store(workload, config_name, engine, hardened)


class _Both:
    """Two observers of one run, stepped in turn."""

    def __init__(self, first, second) -> None:
        self.first, self.second = first.step, second.step

    def step(self, engine) -> None:
        self.first(engine)
        self.second(engine)


def _replayed(workload: str, config_name: str, hardened: bool):
    """The target's functional-sim store, holding its golden run's
    :class:`~repro.uarch.liveness.RegisterLiveness` and
    :class:`GoldenProfile` result, recorded by one :func:`replay_golden`
    on first demand and never saved."""
    from ..uarch import snapshot

    store = checkpoint_store(workload, config_name, engine="functional-sim",
                             hardened=hardened)
    if store.profile is None:
        profile = GoldenProfile()
        store.reg_liveness = snapshot.functional_liveness(
            store, config_by_name(config_name),
            lambda recorder: replay_golden(
                workload, config_name, engine="functional-sim",
                hardened=hardened,
                observer=_Both(recorder, profile))) or False
        store.profile = {
            "regs_used": sorted(profile.regs_used),
            "footprint": sorted(profile.footprint),
            "kernel_instructions": profile.kernel_instructions,
            "user_instructions": profile.user_instructions}
    return store


def arch_liveness(workload: str, config_name: str,
                  hardened: bool = False):
    """The golden functional-sim run's ``RegisterLiveness`` (see
    :func:`_replayed`); None when none can be built."""
    return _replayed(workload, config_name, hardened).reg_liveness or None


def replay_golden(workload: str, config_name: str, *,
                  engine: str = "pipeline", hardened: bool = False,
                  observer=None, start: int = 0,
                  stop: "int | None" = None):
    """Re-run one target's fault-free *engine* with *observer* attached.

    The one fork of the golden run for everything that is not an
    injection.  *engine* names a checkpoint-store engine (see
    :data:`STORE_ENGINES`); the run has the injection runs' watchdog.
    Instructions are numbered from 0: for ``start > 0`` the run
    resumes from the store's latest checkpoint at or before
    instruction *start* (from reset when no store can be had), and a
    *stop* ends it once instruction *stop* has retired.  A full run
    (no *stop*) must end exactly as the golden run of its engine did,
    or this raises: the observer must only read state.  Returns the
    engine's result.
    """
    from ..uarch import snapshot
    from ..uarch.functional import RunStatus
    from ..uarch.pipeline import PipelineEngine

    if engine not in STORE_ENGINES.values():
        raise ValueError(f"unknown checkpoint engine {engine!r}")
    config = config_by_name(config_name)
    golden = golden_run(workload, config_name, hardened)
    image = build_system_image(
        load_workload(workload, config.isa, hardened=hardened))
    pipeline = engine == "pipeline"
    if pipeline:
        run = PipelineEngine(image, config,
                             max_instructions=golden.max_instructions,
                             max_cycles=golden.max_cycles)
    else:
        run = FunctionalEngine(image, kernel=engine.split("-", 1)[1],
                               max_instructions=golden.max_instructions)
    if start > 0:
        try:
            store = checkpoint_store(workload, config_name,
                                     engine=engine, hardened=hardened)
            cp = store.nearest(instructions=start)
            if cp.instructions > 0:
                (snapshot.restore_pipeline if pipeline
                 else snapshot.restore_functional)(run, cp.state)
        except Exception:
            pass  # cold cache / foreign store: correct, just slower
    run.observer = observer
    if stop is not None:
        # the watchdog ends the run before instruction stop + 1
        run.max_instructions = min(run.max_instructions, stop + 1)
    result = run.run()
    if stop is None:
        final = checkpoint_store(workload, config_name, engine=engine,
                                 hardened=hardened).final
        if result.status is not RunStatus.COMPLETED \
                or result.output != final["output"] \
                or result.instructions != final["instructions"]:
            raise RuntimeError(
                f"golden replay of {workload} on {config_name} "
                f"({engine}) diverged from the golden run: its "
                f"observer must only read state")
    return result
