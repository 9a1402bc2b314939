"""GeFIN-like microarchitecture-level fault injector (AVF + HVF).

One injection run = one end-to-end pipeline execution with a single
bit flip scheduled into one of the five target structures at a
uniformly random cycle.  The run yields simultaneously:

* the **AVF observation** — the program-level fault effect (Masked /
  SDC / Crash / Detected), and
* the **HVF observation** — whether the fault ever became
  architecturally visible, and through which Fault Propagation Model
  (WD / WI / WOI), with ESC inferred for output-corrupting runs that
  never crossed into software.

This mirrors the paper's single-infrastructure methodology (GeFIN on
gem5 computes AVF, HVF and PVF from the same simulator).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..faults.fault import FaultSpec, fault_site_bit
from ..faults.outcomes import Outcome, Verdict, classify
from ..kernel.loader import build_system_image
from ..uarch.config import MicroarchConfig
from ..uarch.exceptions import ContainmentError
from ..uarch.pipeline import PipelineEngine
from ..workloads.suite import load_workload
from .golden import GoldenRun, golden_run  # noqa: F401 (perfbench site)


@dataclass(frozen=True)
class InjectionResult:
    """One fault injection experiment, fully classified."""

    outcome: str                  # Outcome value
    crash_kind: str | None = None
    fpm: str | None = None        # WD/WI/WOI/ESC, None if never visible
    fault_applied: bool = False   # False: program ended before the cycle
    fault_live: bool = False      # hit live (non-dead) state
    crossed: bool = False         # became architecturally visible
    in_kernel_crossing: bool = False
    cycles: float = 0.0
    #: cycle the flip was injected (0.0 for architectural injectors,
    #: whose faults have no latent hardware phase)
    inject_cycle: float = 0.0
    #: cycle of the first architectural crossing; None if never crossed
    crossing_cycle: float | None = None
    #: bit position within one entry of the injected structure (folded
    #: onto the entry width); None when the injector predates profiling
    site_bit: int | None = None

    @property
    def vulnerable(self) -> bool:
        return self.outcome in (Outcome.SDC.value, Outcome.CRASH.value)

    @property
    def hvf_visible(self) -> bool:
        """Counts toward HVF: activated in hardware or exposed above."""
        return self.crossed or self.outcome != Outcome.MASKED.value

    @property
    def visibility_latency(self) -> float | None:
        """Cycles between injection and the architectural crossing."""
        if self.crossing_cycle is None:
            return None
        return max(0.0, self.crossing_cycle - self.inject_cycle)


def run_injection(injector: str, engine, to_result, *, workload: str,
                  config_name: str, hardened: bool, tracer=None,
                  fastpath: "bool | None" = None,
                  **context) -> InjectionResult:
    """Run one fault-scheduled *engine* and classify it (*to_result*).

    The one run path of all three injectors, as the paper's single
    injection infrastructure.  *fastpath* (``None`` defers to
    ``REPRO_FASTPATH``, on by default) alone decides whether the run
    restores the nearest golden checkpoint before the fault fires.  A
    restored run also stops early once state provably reconverges,
    unless *tracer*, the run's observer (see ``PipelineEngine.observer``),
    is attached: it must see the run to its end.  An untraced pvf run
    also gets the golden run's :func:`~repro.injectors.golden.arch_liveness`,
    so a flip its action names ends as it lands when dead, or jumps to
    its first read.  Results are byte-identical either way.  An
    escaping :class:`ContainmentError` carries the caller's *context*,
    the fault's coordinates.
    """
    from ..uarch import snapshot
    from .golden import STORE_ENGINES, arch_liveness, checkpoint_store

    kind = STORE_ENGINES[injector]
    engine.observer = tracer
    use_fastpath = snapshot.fastpath_enabled(fastpath)
    try:
        if use_fastpath:
            store = checkpoint_store(workload, config_name, engine=kind,
                                     hardened=hardened)
            if kind == "pipeline":
                snapshot.prepare_pipeline_fastpath(engine, store)
            elif injector == "pvf" and tracer is None:
                snapshot.prepare_functional_fastpath(
                    engine, store,
                    arch_liveness(workload, config_name, hardened))
            else:
                snapshot.prepare_functional_fastpath(engine, store)
            if tracer is not None:
                engine.fastpath = None    # no digest or oracle exit
        run = engine.run()
    except ContainmentError as exc:
        raise exc.with_context(injector=injector, workload=workload,
                               **context, hardened=hardened,
                               fastpath=use_fastpath)
    result = to_result(run)
    if tracer is not None:
        crash = f" ({result.crash_kind})" if result.crash_kind else ""
        tracer.outcome(run.cycles if kind == "pipeline"
                       else float(run.instructions), result.outcome + crash)
    return result


def _describe_spec(spec: FaultSpec) -> str:
    """Where a microarchitectural flip lands, in words."""
    if spec.structure == "RF":
        where = f"phys-reg slot {spec.a}, bit {spec.b}"
    elif spec.structure == "LSQ":
        where = f"entry slot {spec.a}, bit {spec.b}"
    else:
        where = (f"set {spec.a}, way {spec.b}, "
                 f"{'tag' if spec.kind == 'tag' else 'line'} bit "
                 f"{spec.c}")
    burst = f" x{spec.n_bits} bits" if spec.n_bits > 1 else ""
    live = " (steered live)" if spec.prefer_live else ""
    return f"{spec.structure}: {where}{burst}{live}"


def run_one_injection(workload: str, config: MicroarchConfig,
                      spec: FaultSpec, golden: GoldenRun,
                      hardened: bool = False, tracer=None,
                      fastpath: "bool | None" = None) -> InjectionResult:
    """Execute one microarchitectural fault injection.

    *tracer* (a :class:`repro.obs.tracing.FaultTracer`, or any
    observer extending it) records the fault's propagation timeline;
    *tracer* and *fastpath* are as in :func:`run_injection`.
    """
    if tracer is not None:
        tracer.injected(spec.cycle, _describe_spec(spec))
    program = load_workload(workload, config.isa, hardened=hardened)
    engine = PipelineEngine(
        build_system_image(program), config, faults=[spec],
        max_instructions=golden.max_instructions,
        max_cycles=golden.max_cycles)
    return run_injection(
        "gefin", engine,
        lambda result: _gefin_result(result, golden, config, spec),
        workload=workload, config_name=config.name, hardened=hardened,
        tracer=tracer, fastpath=fastpath, config=config.name,
        structure=spec.structure, a=spec.a, b=spec.b, c=spec.c,
        kind=spec.kind, n_bits=spec.n_bits, prefer_live=spec.prefer_live,
        inject_cycle=round(spec.cycle, 3))


def _gefin_result(result, golden: GoldenRun, config: MicroarchConfig,
                  spec: FaultSpec) -> InjectionResult:
    """Classify a finished pipeline run (AVF and HVF observations)."""
    verdict: Verdict = classify(
        result.status.value, result.output, result.exit_code,
        golden.output, golden.exit_code,
        fault_kind=result.fault_kind,
        fault_in_kernel=result.fault_in_kernel,
    )

    fpm = None
    crossed = result.crossing is not None
    if crossed:
        fpm = result.crossing.fpm
    elif verdict.outcome is Outcome.SDC:
        # output corrupted without ever re-entering the pipeline
        fpm = "ESC"

    return InjectionResult(
        outcome=verdict.outcome.value,
        crash_kind=(verdict.crash_kind.value
                    if verdict.crash_kind else None),
        fpm=fpm,
        fault_applied=result.fault_applied,
        fault_live=result.fault_live,
        crossed=crossed,
        in_kernel_crossing=(result.crossing.in_kernel
                            if result.crossing else False),
        cycles=result.cycles,
        inject_cycle=spec.cycle,
        crossing_cycle=(result.crossing.cycle
                        if result.crossing else None),
        site_bit=fault_site_bit(config, spec),
    )
