"""Sharded fuzz-sweep execution, shrinking and replay.

The sweep runs every :class:`~repro.fuzz.cases.FuzzCase` to a verdict
through the same engines the campaigns use.  The containment contract
says that is *always* possible — so a worker that sees a
:class:`~repro.uarch.exceptions.ContainmentError` does not treat it as
a worker failure (the engine layer's fail-fast path) but as a fuzzing
*find*: the escape is recorded, shrunk to a minimal case, and written
as a JSON reproducer that ``repro fuzz --replay`` re-executes bit for
bit.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..injectors.archinj import run_one_pvf
from ..injectors.batch import run_batched_pvf
from ..injectors.engine import (atomic_write_text, clear_checkpoints,
                                run_sharded)
from ..injectors.gefin import run_one_injection
from ..injectors.golden import cache_dir, golden_run
from ..obs import EventLog, ProgressReporter, progress_enabled, sidecars
from ..obs.metrics import get_registry
from ..uarch.batch import resolve_batch_lanes
from ..uarch.config import config_by_name
from ..uarch.exceptions import ContainmentError
from ..uarch.functional import FaultAction
from ..workloads.suite import WORKLOAD_NAMES
from .cases import FuzzCase, sample_cases
from .oracle import cosim
from .shrink import shrink_case


def fuzz_repro_dir() -> Path:
    """Where fuzz reproducers land by default."""
    return cache_dir() / "fuzz-repros"


# ---------------------------------------------------------------------------
# single-case execution
# ---------------------------------------------------------------------------
def _functional_action(case: FuzzCase, golden) -> FaultAction:
    """Build the architectural flip a functional case encodes."""
    target, a, b = case.target, case.a, case.b

    if target == "AREG":
        def apply(engine) -> None:
            reg = a % len(engine.regs)
            if reg:
                engine.regs[reg] ^= 1 << (b % engine.regs_meta.xlen)
        origin = f"architectural register {a}, bit {b}"
    elif target == "PC":
        def apply(engine) -> None:
            engine.ms.pc ^= 1 << (b % engine.regs_meta.xlen)
        origin = f"PC bit {b}"
    elif target == "CODE":
        def apply(engine) -> None:
            addr = engine.ms.pc & 0xFFFF_FFFF
            word = engine.memory.read_int(addr, 4)
            engine.memory.write_int(addr, word ^ (1 << (b % 32)), 4)
        origin = f"instruction word bit {b}"
    elif target == "MEM":
        granule = golden.footprint[a % max(1, len(golden.footprint))]
        addr = granule + (b // 8) % 8
        mask = 1 << (b % 8)

        def apply(engine) -> None:
            byte = engine.memory.read(addr, 1)[0]
            engine.memory.write(addr, bytes([byte ^ mask]))
        origin = f"footprint memory {addr:#010x}, bit {b % 8}"
    else:
        raise ValueError(f"unknown functional target {target!r}")

    return FaultAction("commit", int(case.cycle), apply, origin=origin)


def _batch_differential(case: FuzzCase, config, action: FaultAction,
                        golden, scalar, hardened: bool) -> None:
    """Cross-check the batched engine against the scalar verdict.

    With ``REPRO_BATCH`` on, every functional fuzz case is also run as
    a full-width batch of identical lanes — the flip lands in lane 0,
    lane 63 and every retire boundary in between.  A lane that
    disagrees with the scalar :class:`InjectionResult` is a containment
    find like any other, signed ``batch/...`` so reproducers name the
    diverging engine.
    """
    lanes = resolve_batch_lanes()
    if lanes < 2:
        return
    results = run_batched_pvf(case.workload, config.isa,
                              [action] * lanes, golden,
                              hardened=hardened)
    for lane, result in enumerate(results):
        if result != scalar:
            raise ContainmentError(
                "batched execution diverged from the scalar engine",
                context={"engine": "batch", "lane": lane,
                         "lanes": lanes,
                         "scalar": scalar.outcome,
                         "batched": result.outcome,
                         "origin": action.origin})


def execute_case(case: FuzzCase, hardened: bool = False):
    """Run one fuzz case to its verdict.

    Returns the :class:`~repro.injectors.gefin.InjectionResult`;
    raises :class:`ContainmentError` (with full flip coordinates) when
    the case escapes classification — the fuzzer's find.
    """
    config = config_by_name(case.config_name)
    golden = golden_run(case.workload, case.config_name,
                        hardened=hardened)
    try:
        if case.engine == "pipeline":
            return run_one_injection(case.workload, config,
                                     case.fault_spec(), golden,
                                     hardened=hardened)
        action = _functional_action(case, golden)
        result = run_one_pvf(case.workload, config.isa, action, golden,
                             hardened=hardened)
        _batch_differential(case, config, action, golden, result,
                            hardened)
        return result
    except ContainmentError as exc:
        raise exc.with_context(fuzz_case=case.index,
                               fuzz_seed=case.seed,
                               fuzz_target=f"{case.engine}/{case.target}")


def case_signature(exc: ContainmentError) -> str:
    """Stable failure identity used by the shrinker and for dedup."""
    error = str(exc.context.get("error", exc.args[0] if exc.args else ""))
    error_type = error.split(":", 1)[0].strip()
    return f"{exc.context.get('engine', '?')}/{error_type}"


def case_failure(case: FuzzCase, hardened: bool = False) -> str | None:
    """Signature oracle for :func:`shrink_case` (None = contained)."""
    try:
        execute_case(case, hardened=hardened)
    except ContainmentError as exc:
        return case_signature(exc)
    return None


def _fuzz_worker(task: dict) -> dict:
    """One sweep case, run in a (possibly pooled) worker process."""
    case = FuzzCase.from_json(task["case"])
    try:
        result = execute_case(case, hardened=task["hardened"])
    except ContainmentError as exc:
        return {"outcome": "escape", "case": task["case"],
                "signature": case_signature(exc),
                "error": exc.args[0] if exc.args else str(exc),
                "context": {k: repr(v) if not isinstance(
                    v, (str, int, float, bool, type(None))) else v
                    for k, v in exc.context.items()}}
    return {"outcome": result.outcome, "case_index": case.index}


# ---------------------------------------------------------------------------
# reproducers
# ---------------------------------------------------------------------------
def write_repro(repro_dir: "Path | str", case: FuzzCase,
                escape: dict) -> Path:
    """Persist a shrunk escape as a replayable JSON reproducer."""
    repro_dir = Path(repro_dir)
    repro_dir.mkdir(parents=True, exist_ok=True)
    name = (f"escape-{escape['signature'].replace('/', '-')}"
            f"-{case.workload}-{case.index}.json")
    path = repro_dir / name
    atomic_write_text(path, json.dumps({
        "kind": "fuzz-escape",
        "signature": escape["signature"],
        "error": escape["error"],
        "context": escape.get("context", {}),
        "case": case.to_json(),
    }, indent=2, sort_keys=True))
    return path


@dataclass
class ReplayResult:
    """Outcome of re-executing a reproducer."""

    path: str
    contained: bool
    outcome: str | None = None          # verdict when contained
    error: str | None = None            # ContainmentError when not
    context: dict = field(default_factory=dict)
    expected_signature: str = ""

    def describe(self) -> str:
        if self.contained:
            return (f"{self.path}: contained — verdict "
                    f"{self.outcome!r} (was {self.expected_signature})")
        return (f"{self.path}: still escapes — {self.error} "
                f"[{self.context}]")


def replay(path: "Path | str", hardened: bool = False) -> ReplayResult:
    """Re-execute a reproducer file deterministically."""
    data = json.loads(Path(path).read_text())
    case = FuzzCase.from_json(data["case"])
    try:
        result = execute_case(case, hardened=hardened)
    except ContainmentError as exc:
        return ReplayResult(path=str(path), contained=False,
                            error=str(exc), context=dict(exc.context),
                            expected_signature=data.get("signature", ""))
    return ReplayResult(path=str(path), contained=True,
                        outcome=result.outcome,
                        expected_signature=data.get("signature", ""))


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------
@dataclass
class FuzzReport:
    """Everything one ``repro fuzz`` sweep established."""

    n: int
    seed: int
    config_name: str
    workloads: list
    outcomes: dict = field(default_factory=dict)
    escapes: list = field(default_factory=list)   # dicts w/ shrunk case
    cosim_reports: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def divergences(self) -> list:
        return [d for r in self.cosim_reports for d in r.divergences]

    @property
    def clean(self) -> bool:
        return not self.escapes and not self.divergences

    def render(self) -> str:
        lines = [f"fuzz sweep: {self.n} cases, seed {self.seed}, "
                 f"{len(self.workloads)} workloads on "
                 f"{self.config_name} ({self.elapsed:.1f}s)"]
        total = max(1, sum(self.outcomes.values()))
        for outcome in sorted(self.outcomes):
            count = self.outcomes[outcome]
            lines.append(f"  {outcome:12s} {count:6d} "
                         f"({100 * count / total:.1f}%)")
        if self.cosim_reports:
            snaps = sum(r.snapshots for r in self.cosim_reports)
            lines.append(f"cosim: {len(self.cosim_reports)} workloads, "
                         f"{snaps} lockstep snapshots, "
                         f"{len(self.divergences)} divergences")
            for div in self.divergences:
                lines.append(f"  DIVERGENCE {div.describe()}")
        if self.escapes:
            lines.append(f"containment escapes: {len(self.escapes)}")
            for escape in self.escapes:
                lines.append(f"  ESCAPE {escape['signature']}: "
                             f"{escape['error']}")
                lines.append(f"    repro: {escape['repro']}")
        else:
            lines.append("containment escapes: 0")
        lines.append("verdict: " + ("CLEAN" if self.clean else "DIRTY"))
        return "\n".join(lines)


def _resolve_workloads(workloads) -> list:
    if workloads in (None, "all", ""):
        return list(WORKLOAD_NAMES)
    if isinstance(workloads, str):
        workloads = workloads.split(",")
    names = [w.strip() for w in workloads if w.strip()]
    unknown = sorted(set(names) - set(WORKLOAD_NAMES))
    if unknown:
        raise ValueError(f"unknown workloads: {', '.join(unknown)}")
    return names


def run_fuzz(n: int, seed: int = 1, workloads=None,
             config_name: str = "cortex-a72", cosim_every: int = 64,
             workers: int = 1, repro_dir: "Path | str | None" = None,
             progress: "bool | None" = None, shrink: bool = True,
             hardened: bool = False) -> FuzzReport:
    """Run one deterministic differential-fuzzing sweep.

    ``cosim_every=0`` disables the lockstep oracle.  Escapes never
    abort the sweep: each is shrunk (when *shrink*) and written as a
    reproducer under *repro_dir*.
    """
    names = _resolve_workloads(workloads)
    repro_dir = Path(repro_dir) if repro_dir else fuzz_repro_dir()
    goldens = {w: golden_run(w, config_name, hardened=hardened)
               for w in names}
    cases = sample_cases(n, seed, names, config_name, goldens)
    tasks = [{"case": case.to_json(), "hardened": hardened}
             for case in cases]

    label = f"fuzz-{config_name}-s{seed}"
    events = EventLog.resolve(default=sidecars.events_path())
    registry = get_registry()
    reporter = (ProgressReporter(n, label=label)
                if progress_enabled(progress) else None)
    # sweeps checkpoint like campaigns: a killed sweep resumes and,
    # being deterministic in (seed, index), aggregates identically
    sweep_key = hashlib.sha256(json.dumps(
        [n, seed, config_name, names, hardened]).encode()
    ).hexdigest()[:16]
    checkpoint_dir = cache_dir() / "shards" / f"{label}-{sweep_key}"
    started = time.monotonic()
    results = run_sharded(
        _fuzz_worker, tasks, workers=workers,
        checkpoint_dir=checkpoint_dir,
        events=events, progress=reporter,
        outcome_key=lambda r: r["outcome"], label=label,
        metrics=registry if registry.enabled else None)

    report = FuzzReport(n=n, seed=seed, config_name=config_name,
                        workloads=names)
    for result in results:
        outcome = result["outcome"]
        report.outcomes[outcome] = report.outcomes.get(outcome, 0) + 1

    # --- shrink + persist every escape ---------------------------------
    for result in results:
        if result["outcome"] != "escape":
            continue
        case = FuzzCase.from_json(result["case"])
        shrunk = case
        if shrink:
            try:
                shrunk = shrink_case(
                    case, lambda c: case_failure(c, hardened=hardened))
            except ValueError:
                # flaky under shrink (should not happen: cases are
                # deterministic) — keep the original coordinates
                shrunk = case
        path = write_repro(repro_dir, shrunk, result)
        escape = dict(result)
        escape["shrunk_case"] = shrunk.to_json()
        escape["repro"] = str(path)
        report.escapes.append(escape)
        events.emit("fuzz_escape", campaign=label,
                    signature=result["signature"],
                    error=result["error"], repro=str(path))
        if registry.enabled:
            registry.counter("fuzz.escapes").inc()

    # --- lockstep oracle ------------------------------------------------
    if cosim_every > 0:
        for workload in names:
            cosim_report = cosim(workload, config_name,
                                 every=cosim_every, hardened=hardened)
            report.cosim_reports.append(cosim_report)
            for div in cosim_report.divergences:
                events.emit("fuzz_divergence", campaign=label,
                            detail=div.describe())
                if registry.enabled:
                    registry.counter("fuzz.divergences").inc()

    report.elapsed = time.monotonic() - started
    events.emit("fuzz_finished", campaign=label, n=n,
                escapes=len(report.escapes),
                divergences=len(report.divergences),
                elapsed=round(report.elapsed, 3))
    clear_checkpoints(checkpoint_dir)
    return report
