"""Lockstep fault-free cosimulation oracle.

The timing and functional models implement the same architecture, so
on a fault-free run their *architectural* state must agree after every
instruction: same PC trajectory, same register file contents, same
final output and exit code.  The oracle checks exactly that, through
the ``observer`` slot both engines expose: the functional engine
(``kernel="sim"``, the architectural reference) records a snapshot
every *N* instructions, then the pipeline engine replays the program
and each of its snapshots is compared on the fly.

Any mismatch is a :class:`CosimDivergence` — either a genuine timing-
model bug (architectural state computed differently out of order) or a
functional-model bug; both are exactly the silent-corruption class a
differential fuzzer exists to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

from ..kernel.loader import build_system_image
from ..uarch.config import config_by_name
from ..uarch.functional import FunctionalEngine
from ..uarch.pipeline import PipelineEngine
from ..workloads.suite import load_workload

#: stop recording after this many divergences: one desync usually
#: cascades, and the first few snapshots carry all the signal
MAX_DIVERGENCES = 8


@dataclass(frozen=True)
class CosimDivergence:
    """One architectural-state mismatch between the two engines."""

    workload: str
    config_name: str
    instruction: int      # dynamic instruction count at the snapshot
    field: str            # "pc" | "reg[i]" | "output" | "exit_code" | ...
    functional: object    # value in the architectural reference
    pipeline: object      # value in the timing model

    def describe(self) -> str:
        return (f"{self.workload}@{self.config_name} diverged at "
                f"instruction {self.instruction}: {self.field} is "
                f"{self.functional!r} functionally but "
                f"{self.pipeline!r} in the pipeline")


@dataclass
class CosimReport:
    """Outcome of one fault-free lockstep comparison."""

    workload: str
    config_name: str
    every: int
    snapshots: int = 0
    instructions: int = 0
    divergences: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.divergences


def _arch_regs_functional(engine: FunctionalEngine) -> tuple:
    return tuple(engine.regs)


def _arch_regs_pipeline(engine: PipelineEngine) -> tuple:
    rf = engine.rf
    return tuple(rf.values[rf.rename_map[arch]]
                 for arch in range(engine.regs_meta.count))


def cosim(workload: str, config_name: str, every: int = 64,
          hardened: bool = False, perturb=None) -> CosimReport:
    """Cross-check the two engines on a fault-free run of *workload*.

    *perturb*, when given, receives the functional engine before it
    runs — tests use it to schedule a deliberate flip and prove the
    oracle actually fires.
    """
    if every < 1:
        raise ValueError("cosim interval must be >= 1")
    config = config_by_name(config_name)
    program = load_workload(workload, config.isa, hardened=hardened)
    report = CosimReport(workload=workload, config_name=config_name,
                         every=every)

    # --- pass 1: architectural reference, snapshot every N ------------
    reference: dict[int, tuple] = {}
    func = FunctionalEngine(build_system_image(program), kernel="sim")

    def func_probe(engine: FunctionalEngine) -> None:
        reference[engine.executed] = (engine.ms.pc,
                                      _arch_regs_functional(engine))

    func.observer = SimpleNamespace(step=func_probe, every=every)
    if perturb is not None:
        perturb(func)
    func_result = func.run()

    # --- pass 2: timing model, compared on the fly ---------------------
    pipe = PipelineEngine(build_system_image(program), config)

    def pipe_probe(engine: PipelineEngine) -> None:
        if len(report.divergences) >= MAX_DIVERGENCES:
            return
        report.snapshots += 1
        expected = reference.get(engine.instructions)
        if expected is None:
            report.divergences.append(CosimDivergence(
                workload, config_name, engine.instructions,
                "instruction-stream",
                functional="(ended)", pipeline=hex(engine.ms.pc)))
            return
        exp_pc, exp_regs = expected
        if engine.ms.pc != exp_pc:
            report.divergences.append(CosimDivergence(
                workload, config_name, engine.instructions, "pc",
                functional=hex(exp_pc), pipeline=hex(engine.ms.pc)))
        got_regs = _arch_regs_pipeline(engine)
        for i, (want, got) in enumerate(zip(exp_regs, got_regs)):
            if want != got:
                report.divergences.append(CosimDivergence(
                    workload, config_name, engine.instructions,
                    f"reg[{i}]", functional=hex(want),
                    pipeline=hex(got)))
                if len(report.divergences) >= MAX_DIVERGENCES:
                    break

    pipe.observer = SimpleNamespace(step=pipe_probe, every=every)
    pipe_result = pipe.run()
    report.instructions = pipe.instructions

    # --- terminal state -------------------------------------------------
    for name, want, got in (
            ("status", func_result.status.value,
             pipe_result.status.value),
            ("output", func_result.output, pipe_result.output),
            ("exit_code", func_result.exit_code, pipe_result.exit_code),
            ("instructions", func_result.instructions,
             pipe_result.instructions)):
        if want != got and len(report.divergences) < MAX_DIVERGENCES:
            report.divergences.append(CosimDivergence(
                workload, config_name, pipe.instructions, name,
                functional=want, pipeline=got))
    return report
