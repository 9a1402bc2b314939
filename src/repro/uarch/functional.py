"""Functional (timing-free) execution engines.

Two flavours exist, matching the paper's two higher-layer measurement
methods:

* ``kernel="sim"`` — the full architectural machine: syscalls trap into
  the assembly mini-kernel, which executes instruction-by-instruction
  through the same semantics.  This is the engine behind the
  architecture-level (PVF) injector and behind golden-reference runs.

* ``kernel="host"`` — the LLFI model: only *user* instructions execute;
  syscalls are emulated natively by the host (Python), so the kernel
  is invisible to the software layer, exactly as in SVF studies.

The engine supports *fault actions* scheduled on dynamic-instruction
counters, which is how the PVF and SVF injectors implement their fault
models (persistent architectural flips vs. instantaneous destination
flips).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..isa import layout
from ..isa.encoding import Decoded, decode
from ..isa.errors import DecodeError
from ..isa.registers import register_set
from ..kernel.loader import SystemImage, build_system_image
from ..kernel.syscalls import EXIT_CODE_OFFSET, SYS_EXIT, SYS_WRITE
from .cpu import (
    KERNEL_MODE,
    CoreAccess,
    MachineState,
    execute,
)
from .exceptions import (ContainmentError, DetectTrap, FaultKind,
                         SimException)

#: Shared decode cache: (xlen, word) -> Decoded | DecodeError.  Distinct
#: words are few (static instructions + a handful of corrupted
#: variants), and campaigns run thousands of executions of the same
#: binaries, so a process-global cache pays off.
_DECODE_CACHE: dict[tuple[int, int], object] = {}


def cached_decode(word: int, regs) -> Decoded:
    key = (regs.xlen, word)
    hit = _DECODE_CACHE.get(key)
    if hit is None:
        try:
            hit = decode(word, regs)
        except DecodeError as exc:
            hit = exc
        _DECODE_CACHE[key] = hit
    if isinstance(hit, DecodeError):
        raise hit
    return hit


class RunStatus(str, Enum):
    """Raw termination status of one simulated execution."""

    COMPLETED = "completed"
    SIM_EXCEPTION = "sim-exception"    # architectural fault
    TIMEOUT = "timeout"                # watchdog: hang / livelock
    DETECTED = "detected"              # hardened binary fired `detect`


@dataclass
class RunProfile:
    """Optional profiling data collected during a golden run."""

    regs_used: set = field(default_factory=set)
    mem_footprint: set = field(default_factory=set)   # word-aligned addrs
    user_instructions: int = 0
    kernel_instructions: int = 0
    dest_instructions: int = 0        # user instrs that write a register
    store_instructions: int = 0


@dataclass
class FuncResult:
    """Result of one functional execution."""

    status: RunStatus
    output: bytes
    exit_code: int
    instructions: int
    fault_kind: FaultKind | None = None
    fault_in_kernel: bool = False
    profile: RunProfile | None = None


@dataclass
class FaultAction:
    """A state mutation scheduled on a dynamic-instruction counter.

    ``counter`` selects which stream indexes the trigger:
    ``"commit"`` — every executed instruction; ``"user_dest"`` — user
    instructions that write a register (the LLFI population).
    ``when`` is the 0-based index in that stream; ``apply`` receives
    the engine.  For ``user_dest`` the action fires *after* the
    instruction executed (so it can flip the just-written result).
    """

    counter: str
    when: int
    apply: object  # Callable[[FunctionalEngine], None]


class _FunctionalCore(CoreAccess):
    """CoreAccess over a flat register list + sparse memory."""

    __slots__ = ("engine",)

    def __init__(self, engine: "FunctionalEngine") -> None:
        self.engine = engine

    def read_reg(self, index: int) -> int:
        return self.engine.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        if index:
            self.engine.regs[index] = value

    def load(self, addr: int, nbytes: int, signed: bool) -> int:
        engine = self.engine
        engine.memory.check_access(addr, nbytes, write=False,
                                   kernel_mode=engine.ms.in_kernel)
        if engine.profile is not None:
            engine.profile.mem_footprint.add(addr & ~7)
        if engine.observer is not None:
            engine.last_mem = ("load", addr, nbytes)
        return engine.memory.read_int(addr, nbytes, signed)

    def store(self, addr: int, nbytes: int, value: int) -> None:
        engine = self.engine
        engine.memory.check_access(addr, nbytes, write=True,
                                   kernel_mode=engine.ms.in_kernel)
        if engine.profile is not None:
            engine.profile.mem_footprint.add(addr & ~7)
        if engine.observer is not None:
            engine.last_mem = ("store", addr, nbytes)
        engine.memory.write_int(addr, value, nbytes)


class FunctionalEngine:
    """Timing-free executor over a fresh :class:`SystemImage`."""

    def __init__(self, image: SystemImage, kernel: str = "sim",
                 max_instructions: int = 2_000_000,
                 collect_profile: bool = False) -> None:
        if kernel not in ("sim", "host"):
            raise ValueError("kernel must be 'sim' or 'host'")
        self.image = image
        self.kernel_mode_kind = kernel
        self.memory = image.memory
        self.regs_meta = register_set(image.isa)
        self.regs: list[int] = [0] * self.regs_meta.count
        self.regs[self.regs_meta.stack_reg] = image.initial_sp
        self.ms = MachineState(xlen=self.regs_meta.xlen, pc=image.entry)
        self.max_instructions = max_instructions
        self.profile = RunProfile() if collect_profile else None
        self.executed = 0
        #: architectural destination register of the most recent
        #: register-writing instruction (used by the SVF injector to
        #: flip the just-produced result)
        self.last_dest = 0
        self._host_output = bytearray()
        self._core = _FunctionalCore(self)
        self._actions: list[FaultAction] = []
        self._counters = {"commit": 0, "user_dest": 0}
        #: optional passive observer (protocol: PipelineEngine.observer);
        #: while one is attached the core records each memory access
        #: as ``("load"|"store", addr, nbytes)`` in ``last_mem``.
        self.observer = None
        self.last_mem = None
        #: optional checkpoint hook (see repro.uarch.snapshot): an
        #: object with ``next_check`` (executed-instruction count) and
        #: ``poll(engine)``; polled at the top of the run loop, and a
        #: non-None poll() return ends the run with that result.
        self.fastpath = None

    # ------------------------------------------------------------------
    # fault scheduling
    # ------------------------------------------------------------------
    def schedule(self, action: FaultAction) -> None:
        self._actions.append(action)

    def _fire(self, counter: str, index: int) -> None:
        for action in self._actions:
            if action.counter == counter and action.when == index:
                action.apply(self)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _fetch(self) -> Decoded:
        pc = self.ms.pc
        if pc & 3:
            raise SimException(FaultKind.MISALIGNED, pc,
                               detail="pc", in_kernel=self.ms.in_kernel)
        addr = pc & 0xFFFF_FFFF
        region = self.memory.region_of(addr)
        if region is None:
            raise SimException(FaultKind.FETCH_FAULT, addr,
                               in_kernel=self.ms.in_kernel)
        if region.kernel_only and not self.ms.in_kernel:
            raise SimException(FaultKind.PRIVILEGE_FAULT, addr,
                               detail="fetch", in_kernel=False)
        word = self.memory.read_int(addr, 4)
        try:
            return cached_decode(word, self.regs_meta)
        except DecodeError:
            raise SimException(FaultKind.ILLEGAL_INSTRUCTION, pc,
                               in_kernel=self.ms.in_kernel) from None

    def _host_syscall(self) -> None:
        """Emulate the kernel natively (LLFI view: kernel is invisible)."""
        number = self.regs[1]
        if number == SYS_EXIT:
            self.ms.exit_code = self.regs[2] & 0xFFFF_FFFF
            self.ms.halted = True
            return
        if number == SYS_WRITE:
            buf, length = self.regs[2] & 0xFFFF_FFFF, self.regs[3]
            if length < 0 or len(self._host_output) + length \
                    > layout.OUTPUT_LIMIT - layout.OUTPUT_BASE:
                self.regs[1] = self.ms.mask  # -1
                return
            # The host kernel validates the user pointer like a real one.
            self.memory.check_access(buf, max(length, 1), write=False,
                                     kernel_mode=False)
            self._host_output.extend(self.memory.read(buf, length))
            self.regs[1] = length
            return
        self.regs[1] = self.ms.mask  # -1: unknown syscall

    def run(self) -> FuncResult:
        """Execute to completion and classify the raw termination."""
        ms = self.ms
        core = self._core
        profile = self.profile
        status = RunStatus.COMPLETED
        fault_kind: FaultKind | None = None
        fault_in_kernel = False
        has_actions = bool(self._actions)
        fastpath = self.fastpath
        step = getattr(self.observer, "step", None)
        every = (getattr(self.observer, "every", None) or 1) if step else 0
        try:
            while not ms.halted:
                if fastpath is not None \
                        and self.executed >= fastpath.next_check:
                    early = fastpath.poll(self)
                    if early is not None:
                        return early
                if self.executed >= self.max_instructions:
                    status = RunStatus.TIMEOUT
                    break
                instr = self._fetch()
                if has_actions:
                    self._fire("commit", self._counters["commit"])
                    self._counters["commit"] += 1
                if instr.op == "syscall" and self.kernel_mode_kind == "host":
                    ms.pc += 4
                    self._host_syscall()
                else:
                    ms.pc = execute(instr, ms, core)
                self.executed += 1
                if profile is not None:
                    if ms.in_kernel:
                        profile.kernel_instructions += 1
                    else:
                        profile.user_instructions += 1
                        if instr.d.cls == "store":
                            profile.store_instructions += 1
                    if instr.rs1 or instr.rs2:
                        profile.regs_used.add(instr.rs1)
                        profile.regs_used.add(instr.rs2)
                    if _writes_reg(instr):
                        profile.regs_used.add(instr.rd)
                if not ms.in_kernel and _writes_reg(instr):
                    if has_actions:
                        self.last_dest = _dest_reg(instr, ms.xlen)
                        self._fire("user_dest",
                                   self._counters["user_dest"])
                        self._counters["user_dest"] += 1
                    if profile is not None:
                        profile.dest_instructions += 1
                if every and not self.executed % every:
                    step(self)
        except SimException as exc:
            status = RunStatus.SIM_EXCEPTION
            fault_kind = exc.kind
            fault_in_kernel = exc.in_kernel or ms.in_kernel
        except DetectTrap:
            status = RunStatus.DETECTED
        except ContainmentError:
            raise
        except Exception as exc:
            # Containment contract: see PipelineEngine.run — a flip
            # must terminate in a Verdict, never a host traceback.
            raise ContainmentError(
                f"fault escaped the functional model as "
                f"{type(exc).__name__}: {exc}",
                context={
                    "engine": "functional",
                    "error": f"{type(exc).__name__}: {exc}",
                    "pc": ms.pc,
                    "instructions": self.executed,
                }) from exc

        if profile is not None:
            profile.regs_used.discard(0)
        return FuncResult(
            status=status,
            output=self._collect_output(),
            exit_code=self._collect_exit_code(),
            instructions=self.executed,
            fault_kind=fault_kind,
            fault_in_kernel=fault_in_kernel,
            profile=profile,
        )

    # ------------------------------------------------------------------
    # output collection
    # ------------------------------------------------------------------
    def _collect_output(self) -> bytes:
        if self.kernel_mode_kind == "host":
            return bytes(self._host_output)
        out_len = self.memory.read_int(layout.OUTPUT_LEN_ADDR, 4)
        out_len = min(out_len, layout.OUTPUT_LIMIT - layout.OUTPUT_BASE)
        return self.memory.read(layout.OUTPUT_BASE, out_len)

    def _collect_exit_code(self) -> int:
        if self.kernel_mode_kind == "host":
            return self.ms.exit_code
        return self.memory.read_int(
            layout.KERNEL_DATA_BASE + EXIT_CODE_OFFSET, 4)


def _dest_reg(instr: Decoded, xlen: int) -> int:
    """Architectural destination register of a reg-writing instruction."""
    if instr.op == "jal":
        return 14 if xlen == 32 else 30
    return instr.rd


def _writes_reg(instr: Decoded) -> bool:
    """Whether the instruction writes an architectural register != r0."""
    cls = instr.d.cls
    if cls in ("store", "branch", "sys"):
        return instr.op == "jalr" and instr.rd != 0 \
            or instr.op == "jal"
    return instr.rd != 0


def run_functional(user_program, kernel: str = "sim",
                   max_instructions: int = 2_000_000,
                   collect_profile: bool = False,
                   actions: list[FaultAction] | None = None) -> FuncResult:
    """Build a fresh image for *user_program* and run it functionally."""
    image = build_system_image(user_program)
    engine = FunctionalEngine(image, kernel=kernel,
                              max_instructions=max_instructions,
                              collect_profile=collect_profile)
    for action in actions or ():
        engine.schedule(action)
    return engine.run()
