"""LLFI-like software-level (SVF) fault injector.

Reproduces the LLFI model exactly as the paper characterises it
(§II.B, §VI): the fault is *instantaneous* — one bit of the
destination value of one dynamic **user-level** instruction is
flipped immediately after that instruction executes — and the kernel
is completely invisible (syscalls are emulated natively by the host,
the way LLFI runs on real hardware).

Only Wrong Data is representable; WI/WOI/ESC cannot be modelled at
this layer, which is one of the paper's central points.
"""

from __future__ import annotations

import random

from ..faults.outcomes import Verdict, classify
from ..isa.registers import register_set
from ..kernel.loader import build_system_image
from ..uarch.exceptions import ContainmentError
from ..uarch.functional import FaultAction, FunctionalEngine
from ..workloads.suite import load_workload
from .gefin import InjectionResult
from .golden import GoldenRun, golden_run


def require_svf_isa(isa: str) -> None:
    """Reject a 32-bit *isa*: LLFI, and so the SVF injector, is
    64-bit only (the limitation the paper reports)."""
    if register_set(isa).xlen != 64:
        raise ValueError(
            "the SVF injector supports 64-bit ISAs only, mirroring "
            "LLFI's limitation reported in the paper")


def _dest_flip_action(rng: random.Random, golden: GoldenRun,
                      xlen: int) -> FaultAction:
    """Flip one bit of the k-th user instruction's just-written result."""
    when = rng.randrange(max(1, golden.dest_instructions))
    bit = rng.randrange(xlen)

    def apply(engine: FunctionalEngine) -> None:
        # The engine fires user_dest actions right after the write;
        # the destination register of the last instruction is the one
        # whose value changed.  We flip it via the last-written dest.
        dest = engine.last_dest
        if dest:
            engine.regs[dest] ^= 1 << bit

    action = FaultAction("user_dest", when, apply)
    action.origin = (f"destination register of user instruction "
                     f"{when}, bit {bit}")
    action.site_bit = bit
    return action


def run_one_svf(workload: str, isa: str, action: FaultAction,
                golden: GoldenRun,
                hardened: bool = False, tracer=None,
                fastpath: "bool | None" = None,
                arch_probe=None) -> InjectionResult:
    from ..uarch import snapshot
    from .golden import checkpoint_store

    program = load_workload(workload, isa, hardened=hardened)
    image = build_system_image(program)
    engine = FunctionalEngine(image, kernel="host",
                              max_instructions=golden.max_instructions)
    engine.arch_probe = arch_probe
    engine.schedule(action)
    if tracer is not None:
        origin = getattr(action, "origin", "destination register")
        tracer.injected(float(action.when), origin)
        # the LLFI model is instantaneous: the flip lands directly in
        # committed architectural state
        tracer.crossed(float(action.when),
                       f"visible at birth via {origin}")
    use_fastpath = (tracer is None and arch_probe is None
                    and snapshot.fastpath_enabled(fastpath))
    try:
        if use_fastpath:
            store = checkpoint_store(workload, golden.config_name,
                                     engine="functional-host",
                                     hardened=hardened)
            snapshot.prepare_functional_fastpath(engine, store)
        result = engine.run()
    except ContainmentError as exc:
        raise exc.with_context(
            injector="svf", workload=workload, isa=isa,
            origin=getattr(action, "origin", "destination register"),
            inject_cycle=float(action.when), hardened=hardened,
            fastpath=use_fastpath)
    return svf_result(result, golden, action)


def svf_result(result, golden: GoldenRun, action: FaultAction) \
        -> InjectionResult:
    """Classify a finished SVF run (shared by scalar and batched paths)."""
    verdict: Verdict = classify(
        result.status.value, result.output, result.exit_code,
        golden.output, golden.exit_code,
        fault_kind=result.fault_kind,
        fault_in_kernel=False,      # the SVF view has no kernel
    )
    return InjectionResult(
        outcome=verdict.outcome.value,
        crash_kind=(verdict.crash_kind.value
                    if verdict.crash_kind else None),
        fault_applied=True,
        fault_live=True,
        crossed=True,
        inject_cycle=float(action.when),
        crossing_cycle=float(action.when),
        site_bit=getattr(action, "site_bit", None),
    )


def run_svf_campaign(workload: str, isa: str, config_name: str,
                     n: int, seed: int,
                     hardened: bool = False) -> list[InjectionResult]:
    """Run *n* LLFI-style injections (destination-register bit flips)."""
    require_svf_isa(isa)
    golden = golden_run(workload, config_name, hardened=hardened)
    xlen = register_set(isa).xlen
    rng = random.Random(repr((seed, "svf", workload, isa)))
    out = []
    for _ in range(n):
        action = _dest_flip_action(rng, golden, xlen)
        out.append(run_one_svf(workload, isa, action, golden,
                               hardened=hardened))
    return out
