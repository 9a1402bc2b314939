"""Fault-propagation tracing: the life story of one injected flip.

The injectors classify a run into a final
:class:`~repro.injectors.gefin.InjectionResult`, but the *path* the
flip took — where it landed, how long it stayed latent in hardware,
where it first crossed into architectural state, whether that
crossing happened in kernel or user mode — is exactly the
Fault Propagation Model narrative of the paper, and it is invisible
in the aggregate.  This module records that path.

A :class:`FaultTracer` is the run's engine observer (protocol on
``PipelineEngine.observer``): the injectors call ``injected`` and
``outcome``, the pipeline ``landed`` and ``crossed``; the trace-diff
recorders extend it.  Nothing attached costs one ``None`` test.  The
collected :class:`TraceEvent` timeline plus the run's classification
make a :class:`FaultTrace`, renderable as text and replayable on
demand: :func:`trace_run` re-derives the exact fault a campaign run
``(seed, index)`` injected, so the trace agrees field by field with
the campaign's own ``InjectionResult``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = [
    "FaultTrace",
    "FaultTracer",
    "TraceEvent",
    "trace_fault",
    "trace_run",
]


def _format_cycle(cycle: float) -> str:
    """Integral cycle counts render without a spurious ``.1``."""
    return f"{cycle:.0f}" if float(cycle).is_integer() else f"{cycle:.1f}"


@dataclass(frozen=True)
class TraceEvent:
    """One step of a fault's propagation, stamped in cycles."""

    cycle: float
    kind: str      # "injected" / "landed" / "crossed" / "outcome"
    detail: str

    def render(self, width: int = 0) -> str:
        # width comes from the enclosing timeline so columns align
        # without a fixed field that long campaigns overflow
        return (f"  @{_format_cycle(self.cycle):>{width}}  "
                f"{self.kind:<9}  {self.detail}")


class FaultTracer:
    """Collects :class:`TraceEvent` records during one injected run."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def record(self, cycle: float, kind: str, detail: str) -> None:
        self.events.append(TraceEvent(cycle, kind, detail))

    # convenience wrappers used by the pipeline / injectors ------------
    def injected(self, cycle: float, detail: str) -> None:
        self.record(cycle, "injected", detail)

    def landed(self, cycle: float, detail: str) -> None:
        self.record(cycle, "landed", detail)

    def crossed(self, cycle: float, detail: str) -> None:
        self.record(cycle, "crossed", detail)

    def outcome(self, cycle: float, detail: str) -> None:
        self.record(cycle, "outcome", detail)


@dataclass
class FaultTrace:
    """A fully-classified injection run plus its propagation timeline."""

    workload: str
    config_name: str
    injector: str                 # gefin / pvf / svf
    structure: str | None         # gefin target structure
    model: str | None             # pvf FPM model
    seed: int
    index: int

    # where the flip landed
    inject_cycle: float = 0.0
    landing: str = ""             # human-readable landing site

    # propagation
    fault_applied: bool = False
    fault_live: bool = False
    crossed: bool = False
    crossing_cycle: float | None = None
    crossing_site: str = ""       # first corrupted arch reg / address
    in_kernel_crossing: bool = False
    fpm: str | None = None

    # classification
    outcome: str = ""
    crash_kind: str | None = None
    cycles: float = 0.0

    events: list = field(default_factory=list)

    @property
    def latency_cycles(self) -> float | None:
        """Cycles the fault stayed latent before turning architectural."""
        if self.crossing_cycle is None:
            return None
        return max(0.0, self.crossing_cycle - self.inject_cycle)

    def to_json(self) -> dict:
        """JSON-serialisable dump (the observatory's trace endpoint).

        ``events`` become ``{cycle, kind, detail}`` objects and the
        derived ``latency_cycles`` is included for consumers that do
        not want to recompute it.
        """
        data = asdict(self)
        data["latency_cycles"] = self.latency_cycles
        return data

    def render(self) -> str:
        target = self.structure or self.model or "-"
        head = (f"fault trace: {self.injector}:{self.workload}"
                f"@{self.config_name}/{target} "
                f"seed={self.seed} index={self.index}")
        lines = [head, "=" * len(head)]
        # gefin injects at a pipeline cycle; the functional injectors
        # (pvf/svf) index dynamic instructions instead
        unit = "cycle" if self.injector == "gefin" else "instruction"
        lines.append(f"injected   : {unit} {self.inject_cycle:.1f} "
                     f"into {self.landing}")
        if not self.fault_applied:
            lines.append("applied    : no (program ended first)")
        elif not self.fault_live:
            lines.append("applied    : yes, into dead state "
                         "(hardware-masked)")
        else:
            lines.append("applied    : yes, into live state")
        if self.crossed:
            latency = self.latency_cycles
            mode = "kernel" if self.in_kernel_crossing else "user"
            lines.append(f"crossing   : {self.fpm} at {unit} "
                         f"{self.crossing_cycle:.1f} "
                         f"({latency:.1f} {unit}s latent, {mode} mode)"
                         + (f" via {self.crossing_site}"
                            if self.crossing_site else ""))
        elif self.fpm == "ESC":
            lines.append("crossing   : none — corrupted output "
                         "escaped below the architecture (ESC)")
        else:
            lines.append("crossing   : never became architecturally "
                         "visible")
        out = f"outcome    : {self.outcome}"
        if self.crash_kind:
            out += f" ({self.crash_kind})"
        lines.append(out)
        if self.cycles:
            lines.append(f"run length : {self.cycles:.1f} cycles")
        if self.events:
            lines.append("timeline   :")
            width = max(len(_format_cycle(e.cycle))
                        for e in self.events)
            lines.extend(e.render(width) for e in self.events)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# replay entry points (mirror the campaign workers' RNG derivations)
# ---------------------------------------------------------------------------
def trace_fault(workload: str, config_name: str, structure: str,
                seed: int, index: int = 0, hardened: bool = False,
                prefer_live: bool = True, tracer=None):
    """Replay gefin campaign run ``(seed, index)`` with tracing enabled
    (see :func:`trace_run`)."""
    return _replay("gefin", workload, config_name, seed, index,
                   hardened, tracer, structure=structure,
                   prefer_live=prefer_live)


def trace_run(injector: str, workload: str, config_name: str,
              seed: int, index: int = 0, structure: str | None = None,
              model: str | None = None, hardened: bool = False,
              tracer=None):
    """Replay campaign run ``(seed, index)`` of *injector*, traced.

    The one trace front door (CLI, trace explorer, observatory): gefin
    needs *structure*, pvf *model*, svf a 64-bit core.  Returns
    ``(FaultTrace, InjectionResult)``; the result is the campaign
    worker's for the same run.  *tracer* (default a fresh
    :class:`FaultTracer`) is the run's observer.  The run takes the
    scalar slow path from reset, so the trajectory is the from-reset
    one under any ``REPRO_FASTPATH`` or ``REPRO_BATCH``.
    """
    return _replay(injector, workload, config_name, seed, index,
                   hardened, tracer, structure=structure, model=model)


def _replay(injector: str, workload: str, config_name: str, seed: int,
            index: int, hardened: bool, tracer, *,
            fastpath: "bool | None" = False,
            structure: "str | None" = None, model: "str | None" = None,
            prefer_live: bool = True):
    """Run ``(seed, index)`` traced and tell its story (the injector
    records the injection, and any crossing, on the tracer).
    *fastpath* is :func:`repro.injectors.gefin.run_injection`'s: the
    diff capture passes ``None`` to fork the run from the golden
    checkpoint before its fault."""
    from ..injectors.campaign import replay_index

    if injector == "gefin":
        if not structure:
            raise ValueError("gefin traces need a structure")
        target = {"structure": structure, "prefer_live": prefer_live}
    elif injector == "pvf":
        if not model:
            raise ValueError("pvf traces need a model")
        target = {"model": model}
    elif injector == "svf":
        from ..injectors.llfi import require_svf_isa
        from ..uarch.config import config_by_name

        require_svf_isa(config_by_name(config_name).isa)
        target = {}
    else:
        raise ValueError(f"unknown injector {injector!r}")
    if tracer is None:
        tracer = FaultTracer()
    result = replay_index(injector, workload, config_name, seed, index,
                          hardened=hardened, fastpath=fastpath,
                          tracer=tracer, **target)
    injected = tracer.events[0]
    model = target.get("model")
    trace = FaultTrace(
        workload=workload, config_name=config_name, injector=injector,
        structure=target.get("structure"), model=model, seed=seed,
        index=index, inject_cycle=injected.cycle,
        landing=injected.detail, fault_applied=result.fault_applied,
        fault_live=result.fault_live, crossed=result.crossed,
        crossing_cycle=result.crossing_cycle,
        crossing_site=_first_crossing_site(tracer),
        in_kernel_crossing=result.in_kernel_crossing,
        # a functional fault is born as its model's FPM (svf: WD only)
        fpm=(result.fpm if injector == "gefin" else model or "WD"),
        outcome=result.outcome, crash_kind=result.crash_kind,
        cycles=result.cycles, events=tracer.events)
    return trace, result


def _first_crossing_site(tracer: FaultTracer) -> str:
    for event in tracer.events:
        if event.kind == "crossed":
            return event.detail.partition(" via ")[2]
    return ""
