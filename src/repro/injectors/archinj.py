"""Architecture-level (PVF) fault injector.

Faults originate in *architecturally visible* state along the
program-flow definition of §II.B of the paper: used registers and the
program's memory footprint (including everything the kernel touches),
persisting until overwritten.  Kernel instructions ARE part of the
program flow — the run executes on the full architectural machine with
the simulated kernel.

Three fault models match the paper's FPMs (Fig. 7):

* ``WD``  — flip one bit of a used architectural register or of a
  program-flow memory word, at a uniformly random dynamic instruction.
  This is the model "typical PVF" studies use exclusively.
* ``WOI`` — flip one *operand-field* bit (bits 0..25) of the static
  instruction word about to be executed.
* ``WI``  — flip one *opcode-field* bit (bits 26..31) of the static
  instruction word, or a PC bit (incorrect instruction fetch).

The injections run on the functional engine — PVF is by definition
microarchitecture-independent, so no timing model is involved.
"""

from __future__ import annotations

import random

from ..faults.outcomes import Verdict, classify
from ..kernel.loader import build_system_image
from ..uarch.functional import FaultAction, FunctionalEngine
from ..workloads.suite import load_workload
from .gefin import InjectionResult, run_injection
from .golden import GoldenRun, golden_run  # noqa: F401 (perfbench site)

PVF_MODELS = ("WD", "WOI", "WI")


#: Program-flow WD faults are sampled over *dynamic operand usage*:
#: a dynamic instruction touches ~2 register operands and well under
#: one memory word on average, so register origins dominate — this is
#: also what typical PVF studies inject into (architectural registers
#: plus loaded/stored data; see §IV.B of the paper).
_WD_REGISTER_SHARE = 0.7


def _wd_action(rng: random.Random, golden: GoldenRun,
               xlen: int) -> FaultAction:
    """Persistent flip in a used register or a footprint memory word."""
    when = rng.randrange(max(1, golden.instructions))
    if rng.random() < _WD_REGISTER_SHARE and golden.regs_used:
        reg = rng.choice(golden.regs_used)
        bit = rng.randrange(xlen)

        def apply(engine: FunctionalEngine) -> None:
            if reg:
                engine.regs[reg] ^= 1 << bit

        return FaultAction(
            "commit", when, apply,
            origin=(f"architectural register {reg}, bit {bit} "
                    f"at instruction {when}"),
            site_bit=bit, target=("reg", reg, 1 << bit))
    granule = rng.choice(golden.footprint)
    bit = rng.randrange(64)
    addr = granule + bit // 8
    mask = 1 << (bit % 8)

    def apply(engine: FunctionalEngine) -> None:
        byte = engine.memory.read(addr, 1)[0]
        engine.memory.write(addr, bytes([byte ^ mask]))

    return FaultAction(
        "commit", when, apply,
        origin=(f"program-flow memory {addr:#010x}, "
                f"bit {bit % 8} at instruction {when}"),
        site_bit=bit, target=("mem", addr, mask))


def _code_flip_action(rng: random.Random, golden: GoldenRun,
                      opcode_field: bool) -> FaultAction:
    """Flip a bit of the instruction word about to execute.

    The flip is persistent (instruction memory is architectural state
    and is never overwritten), matching the PVF persistence rule.
    """
    when = rng.randrange(max(1, golden.instructions))
    bit = (rng.randrange(26, 32) if opcode_field
           else rng.randrange(0, 26))
    mask = 1 << bit

    def apply(engine: FunctionalEngine) -> None:
        addr = engine.ms.pc & 0xFFFF_FFFF
        word = engine.memory.read_int(addr, 4)
        engine.memory.write_int(addr, word ^ mask, 4)

    return FaultAction(
        "commit", when, apply,
        origin=(f"instruction word "
                f"{'opcode' if opcode_field else 'operand'} "
                f"bit {bit} at instruction {when}"),
        site_bit=bit)


def _pc_flip_action(rng: random.Random, golden: GoldenRun) -> FaultAction:
    """Corrupt the PC (the paper's 'incorrect instruction fetching')."""
    when = rng.randrange(max(1, golden.instructions))
    bit = rng.randrange(32)

    def apply(engine: FunctionalEngine) -> None:
        engine.ms.pc ^= 1 << bit

    return FaultAction("commit", when, apply,
                       origin=f"PC bit {bit} at instruction {when}",
                       site_bit=bit)


def build_pvf_action(model: str, rng: random.Random, golden: GoldenRun,
                     xlen: int) -> FaultAction:
    if model == "WD":
        return _wd_action(rng, golden, xlen)
    if model == "WOI":
        return _code_flip_action(rng, golden, opcode_field=False)
    if model == "WI":
        if rng.random() < 0.5:
            return _code_flip_action(rng, golden, opcode_field=True)
        return _pc_flip_action(rng, golden)
    raise ValueError(f"unknown PVF model {model!r}; have {PVF_MODELS}")


def run_one_pvf(workload: str, isa: str, action: FaultAction,
                golden: GoldenRun,
                hardened: bool = False, tracer=None,
                fastpath: "bool | None" = None) -> InjectionResult:
    """Execute one architecture-level injection on the full machine
    (the simulated kernel is part of the program flow)."""
    program = load_workload(workload, isa, hardened=hardened)
    engine = FunctionalEngine(build_system_image(program), kernel="sim",
                              max_instructions=golden.max_instructions)
    return run_one_arch("pvf", engine, workload, isa, action, golden,
                        hardened=hardened, tracer=tracer, fastpath=fastpath)


def run_one_arch(injector: str, engine: FunctionalEngine, workload: str,
                 isa: str, action: FaultAction, golden: GoldenRun,
                 hardened: bool = False, tracer=None,
                 fastpath: "bool | None" = None) -> InjectionResult:
    """The scalar pvf/svf run on *engine* (shared with
    :func:`repro.injectors.llfi.run_one_svf`)."""
    engine.schedule(action)
    origin = action.origin or ("destination register" if injector == "svf"
                               else "architectural state")
    if tracer is not None:
        tracer.injected(float(action.when), origin)
        # architecture-level faults are visible from birth: landing
        # and crossing coincide, with zero latent hardware phase
        tracer.crossed(float(action.when),
                       f"visible at birth via {origin}")
    return run_injection(
        injector, engine,
        lambda result: arch_result(injector, result, golden, action),
        workload=workload, config_name=golden.config_name,
        hardened=hardened, tracer=tracer, fastpath=fastpath,
        isa=isa, origin=origin, inject_cycle=float(action.when))


def arch_result(injector: str, result, golden: GoldenRun,
                action: FaultAction) -> InjectionResult:
    """Classify a finished pvf/svf run (scalar and batched paths)."""
    verdict: Verdict = classify(
        result.status.value, result.output, result.exit_code,
        golden.output, golden.exit_code,
        fault_kind=result.fault_kind,
        # the SVF view has no kernel
        fault_in_kernel=injector == "pvf" and result.fault_in_kernel,
    )
    return InjectionResult(
        outcome=verdict.outcome.value,
        crash_kind=(verdict.crash_kind.value
                    if verdict.crash_kind else None),
        fault_applied=True,
        fault_live=True,
        crossed=True,   # architecture-level faults start visible
        inject_cycle=float(action.when),
        crossing_cycle=float(action.when),
        site_bit=action.site_bit,
    )
