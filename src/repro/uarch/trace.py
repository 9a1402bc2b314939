"""Execution tracing: disassembled instruction traces with effects.

A debugging aid for workload and injector development: wraps the
functional engine and records, per executed instruction, the PC, the
disassembly, the destination register value it produced and the
privilege mode.  Traces can be windowed (start/count) so multi-
thousand-instruction workloads stay inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.disassembler import format_instr
from ..kernel.loader import build_system_image
from ..uarch.exceptions import DetectTrap, SimException
from ..uarch.functional import FunctionalEngine


@dataclass
class TraceEntry:
    index: int
    pc: int
    text: str
    in_kernel: bool
    dest: int | None = None
    dest_value: int | None = None

    def render(self, regs) -> str:
        mode = "K" if self.in_kernel else "U"
        effect = ""
        if self.dest is not None:
            effect = f"  ; {regs.name(self.dest)} <- {self.dest_value:#x}"
        return f"{self.index:6d} {mode} {self.pc:#010x}  " \
               f"{self.text}{effect}"


@dataclass
class Trace:
    entries: list = field(default_factory=list)
    status: str = "completed"
    truncated: bool = False

    def render(self, regs) -> str:
        lines = [entry.render(regs) for entry in self.entries]
        if self.truncated:
            lines.append("... (trace window ended before the program)")
        lines.append(f"status: {self.status}")
        return "\n".join(lines)


def trace_program(program, start: int = 0, count: int = 200,
                  max_instructions: int = 500_000) -> Trace:
    """Execute *program* and capture a window of its dynamic trace."""
    engine = FunctionalEngine(build_system_image(program),
                              kernel="sim",
                              max_instructions=max_instructions)
    ms = engine.ms
    trace = Trace()
    status = "completed"
    try:
        while not ms.halted:
            if engine.executed >= max_instructions:
                status = "timeout"
                break
            (instr, handler, _, _, _, dest, _, _, _, _, _, writes,
             _) = engine._fetch()
            pc = ms.pc
            ms.pc = handler(instr, ms, engine._core)
            index = engine.executed
            engine.executed += 1
            if index < start:
                continue
            if index >= start + count:
                trace.truncated = True
                status = "window-closed"
                break
            entry = TraceEntry(
                index=index, pc=pc,
                text=format_instr(instr, engine.regs_meta, pc=pc),
                in_kernel=ms.in_kernel)
            if writes:
                entry.dest = dest
                entry.dest_value = engine.regs[dest]
            trace.entries.append(entry)
    except SimException as exc:
        status = f"sim-exception: {exc}"
    except DetectTrap:
        status = "detected"
    trace.status = status
    return trace
