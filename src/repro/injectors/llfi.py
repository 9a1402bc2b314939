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

from ..isa.registers import register_set
from ..kernel.loader import build_system_image
from ..uarch.functional import FaultAction, FunctionalEngine
from ..workloads.suite import load_workload
from .archinj import run_one_arch
from .gefin import InjectionResult
from .golden import GoldenRun, golden_run  # noqa: F401 (perfbench site)


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

    return FaultAction("user_dest", when, apply,
                       origin=(f"destination register of user "
                               f"instruction {when}, bit {bit}"),
                       site_bit=bit)


def run_one_svf(workload: str, isa: str, action: FaultAction,
                golden: GoldenRun,
                hardened: bool = False, tracer=None,
                fastpath: "bool | None" = None) -> InjectionResult:
    """Execute one LLFI-style injection; the host emulates syscalls,
    so the kernel stays invisible."""
    program = load_workload(workload, isa, hardened=hardened)
    engine = FunctionalEngine(build_system_image(program), kernel="host",
                              max_instructions=golden.max_instructions)
    return run_one_arch("svf", engine, workload, isa, action, golden,
                        hardened=hardened, tracer=tracer, fastpath=fastpath)
