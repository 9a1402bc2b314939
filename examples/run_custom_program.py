#!/usr/bin/env python3
"""Bring your own program: assemble, run, inject.

Shows the lower-level API: write an mRISC assembly program, assemble
it for both ISAs, execute it functionally and on the out-of-order
pipeline, then inject a handful of targeted faults into the physical
register file and watch the outcomes.

Run:  python examples/run_custom_program.py
"""

from __future__ import annotations

from repro.faults.fault import FaultSpec
from repro.faults.outcomes import classify
from repro.isa import MR32, MR64, assemble, disassemble_range
from repro.kernel.loader import build_system_image
from repro.uarch.config import CORTEX_A72
from repro.uarch.functional import run_functional
from repro.uarch.pipeline import PipelineEngine

SOURCE = """
# dot product of two 8-element vectors, written out as one word
.text
_start:
    la   r4, vec_a
    la   r5, vec_b
    li   r6, 8
    li   r7, 0
loop:
    lw   r8, 0(r4)
    lw   r9, 0(r5)
    mul  r8, r8, r9
    add  r7, r7, r8
    addi r4, r4, 4
    addi r5, r5, 4
    addi r6, r6, -1
    bnez r6, loop
    la   r2, out
    sw   r7, 0(r2)
    li   r3, 4
    li   r1, 1           # SYS_WRITE
    syscall
    li   r1, 0           # SYS_EXIT
    li   r2, 0
    syscall
.data
vec_a: .word 1, 2, 3, 4, 5, 6, 7, 8
vec_b: .word 8, 7, 6, 5, 4, 3, 2, 1
out:   .space 4
"""


def main() -> None:
    # ---- assemble for both ISA variants -------------------------------
    for isa in (MR32, MR64):
        program = assemble(SOURCE, isa, name="dotprod")
        result = run_functional(program, kernel="sim")
        value = int.from_bytes(result.output, "little")
        print(f"{isa}: dot product = {value} "
              f"({result.instructions} instructions)")

    # ---- disassemble the first few words -------------------------------
    program = assemble(SOURCE, MR64, name="dotprod")
    print("\nfirst instructions:")
    print(disassemble_range(bytes(program.text.data[:32]),
                            program.text.base, program.regs))

    # ---- pipeline timing (the counters live on the engine's caches) ----
    engine = PipelineEngine(build_system_image(program), CORTEX_A72)
    pipe = engine.run()
    print(f"\n{CORTEX_A72.name}: {pipe.cycles:.0f} cycles, "
          f"IPC {pipe.instructions / pipe.cycles:.2f}, "
          f"L1D misses {engine.l1d.misses}")

    # ---- a few targeted register-file faults ----------------------------
    golden_output = pipe.output
    print("\ninjecting single-bit faults into the physical register "
          "file:")
    for phys, bit, cycle in ((42, 0, 150.0),   # consumed -> SDC
                             (30, 2, 400.0),   # consumed, sw-masked
                             (2, 3, 40.0),     # live but never read
                             (150, 5, 60.0),   # dead state
                             (7, 62, 90.0)):   # high bit, masked
        image = build_system_image(program)
        engine = PipelineEngine(
            image, CORTEX_A72,
            faults=[FaultSpec("RF", cycle, a=phys, b=bit)],
            max_instructions=50_000, max_cycles=50_000.0)
        result = engine.run()
        verdict = classify(result.status.value, result.output,
                           result.exit_code, golden_output, 0,
                           fault_kind=result.fault_kind,
                           fault_in_kernel=result.fault_in_kernel)
        hit = "live" if result.fault_live else "dead"
        crossing = (result.crossing.fpm if result.crossing
                    else "never visible")
        print(f"  p{phys:3d} bit {bit:2d} @cycle {cycle:5.0f}: "
              f"{hit} state, {crossing:14s} -> "
              f"{verdict.outcome.value}")


if __name__ == "__main__":
    main()
