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
from ..uarch.functional import FunctionalEngine, RunStatus, decode_record


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


class _Window:
    """Observer of a functional run: a :class:`TraceEntry` for every
    instruction from index *start* on, with the mode it left."""

    def __init__(self, engine: FunctionalEngine, start: int) -> None:
        self.start = start
        self.entries: list = []
        #: the pc of the instruction the next step follows
        self.pc = engine.ms.pc

    def step(self, engine: FunctionalEngine) -> None:
        pc, self.pc = self.pc, engine.ms.pc
        index = engine.executed - 1
        if index < self.start:
            return
        instr = engine.last_instr
        regs = engine.regs_meta
        entry = TraceEntry(index=index, pc=pc,
                           text=format_instr(instr, regs, pc=pc),
                           in_kernel=engine.ms.in_kernel)
        dest = decode_record(instr.raw, regs)[5]
        if dest:
            entry.dest = dest
            entry.dest_value = engine.regs[dest]
        self.entries.append(entry)


def trace_program(program, start: int = 0, count: int = 200,
                  max_instructions: int = 500_000) -> Trace:
    """Execute *program* and capture a window of its dynamic trace.

    The window observes :meth:`FunctionalEngine.run`, whose instruction
    limit is lowered so that the run ends once the instruction after
    the window has run."""
    end = start + count
    engine = FunctionalEngine(build_system_image(program), kernel="sim",
                              max_instructions=min(max_instructions, end + 1))
    window = engine.observer = _Window(engine, start)
    result = engine.run()
    closed = result.instructions > end
    trace = Trace(entries=window.entries[:count], truncated=closed)
    if closed:
        trace.status = "window-closed"
    elif result.status is RunStatus.SIM_EXCEPTION:
        trace.status = f"sim-exception: {result.fault_kind.value}"
    else:
        trace.status = result.status.value
    return trace
