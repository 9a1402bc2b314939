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

import struct
from dataclasses import dataclass
from enum import Enum

from ..isa import layout
from ..isa.encoding import WORD_MASK, Decoded, decode
from ..isa.errors import DecodeError
from ..isa.registers import register_set
from ..kernel.loader import SystemImage, build_system_image
from ..kernel.syscalls import EXIT_CODE_OFFSET, SYS_EXIT, SYS_WRITE
from .cpu import HANDLERS_BY_XLEN, KERNEL_MODE, CoreAccess, MachineState
from .exceptions import (ContainmentError, DetectTrap, FaultKind,
                         SimException)

_PAGE = layout.PAGE_SIZE
_PAGE_BASE = ~(_PAGE - 1)
#: little-endian instruction word at an offset into a page
_read_word = struct.Struct("<I").unpack_from

#: Shared decode cache: (xlen, word) -> Decoded, or the DecodeError
#: reason for an illegal word.  Distinct words are few (static
#: instructions + a handful of corrupted variants), and campaigns run
#: thousands of executions of the same binaries, so a process-global
#: cache pays off.  It holds the reason rather than the exception: a
#: re-raised instance grows its ``__traceback__`` on every raise and
#: would keep every engine it was raised through alive.
_DECODE_CACHE: dict[tuple[int, int], object] = {}


def cached_decode(word: int, regs) -> Decoded:
    key = (regs.xlen, word)
    hit = _DECODE_CACHE.get(key)
    if hit is None:
        try:
            hit = decode(word, regs)
        except DecodeError as exc:
            hit = exc.reason
        _DECODE_CACHE[key] = hit
    if isinstance(hit, str):
        raise DecodeError(word & WORD_MASK, hit)
    return hit


class RunStatus(str, Enum):
    """Raw termination status of one simulated execution."""

    COMPLETED = "completed"
    SIM_EXCEPTION = "sim-exception"    # architectural fault
    TIMEOUT = "timeout"                # watchdog: hang / livelock
    DETECTED = "detected"              # hardened binary fired `detect`


@dataclass
class FuncResult:
    """Result of one functional execution."""

    status: RunStatus
    output: bytes
    exit_code: int
    instructions: int
    fault_kind: FaultKind | None = None
    fault_in_kernel: bool = False


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


#: the trigger streams a :class:`FaultAction` can name
TRIGGER_COUNTERS = ("commit", "user_dest")


def trigger_tables(actions, items=None) -> tuple[dict, dict]:
    """``({when: [item, ...]}, {when: [item, ...]})`` for the
    ``commit`` and ``user_dest`` streams, in *actions* order; each
    action's item is itself unless *items* (parallel to *actions*)
    names another.  Raises ``ValueError`` on an unknown counter."""
    commit: dict = {}
    user_dest: dict = {}
    for action, item in zip(actions, actions if items is None else items):
        if action.counter == "commit":
            commit.setdefault(action.when, []).append(item)
        elif action.counter == "user_dest":
            user_dest.setdefault(action.when, []).append(item)
        else:
            raise ValueError(f"unknown trigger {action.counter!r}")
    return commit, user_dest


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
        if engine.observer is not None:
            engine.last_mem = ("load", addr, nbytes)
        return engine.memory.read_int(addr, nbytes, signed)

    def store(self, addr: int, nbytes: int, value: int) -> None:
        engine = self.engine
        engine.memory.check_access(addr, nbytes, write=True,
                                   kernel_mode=engine.ms.in_kernel)
        if engine.observer is not None:
            engine.last_mem = ("store", addr, nbytes)
        engine.memory.write_int(addr, value, nbytes)


class FunctionalEngine:
    """Timing-free executor over a fresh :class:`SystemImage`."""

    def __init__(self, image: SystemImage, kernel: str = "sim",
                 max_instructions: int = 2_000_000) -> None:
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
        self.executed = 0
        #: architectural destination register of the most recent
        #: register-writing instruction (used by the SVF injector to
        #: flip the just-produced result)
        self.last_dest = 0
        self._host_output = bytearray()
        self._core = _FunctionalCore(self)
        self._actions: list[FaultAction] = []
        self._counters = {"commit": 0, "user_dest": 0}
        #: raw instruction word -> decode record (see _decode_record);
        #: a corrupted word is simply another key
        self._records: dict[int, tuple] = {}
        #: code page base -> whether its (single) region is
        #: kernel-only: the region is looked up once per page, the
        #: privilege check still runs on every fetch
        self._page_kernel_only: dict[int, bool] = {}
        #: optional passive observer (protocol: PipelineEngine.observer);
        #: while one is attached the core records each memory access
        #: as ``("load"|"store", addr, nbytes)`` in ``last_mem``, and
        #: ``last_instr`` is the :class:`Decoded` instruction each
        #: ``step`` follows.
        self.observer = None
        self.last_mem = None
        self.last_instr = None
        #: optional checkpoint hook (see repro.uarch.snapshot): an
        #: object with ``next_check`` (executed-instruction count) and
        #: ``poll(engine)``; polled at the top of the run loop, and a
        #: non-None poll() return ends the run with that result.
        self.fastpath = None

    # ------------------------------------------------------------------
    # fault scheduling
    # ------------------------------------------------------------------
    def schedule(self, action: FaultAction) -> None:
        if action.counter not in TRIGGER_COUNTERS:
            raise ValueError(f"unknown trigger {action.counter!r}")
        self._actions.append(action)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _fetch(self) -> tuple:
        """Fetch the word at ``ms.pc``; returns its decode record.

        Alignment, the fetch region and privilege are checked on every
        fetch.  The word is read from the page that holds it now, never
        from a cached page object: a write into a checkpoint's frozen
        page (a code flip, a store) swaps in a private copy.
        """
        ms = self.ms
        pc = ms.pc
        if pc & 3:
            raise SimException(FaultKind.MISALIGNED, pc,
                               detail="pc", in_kernel=ms.in_kernel)
        addr = pc & 0xFFFF_FFFF
        base = addr & _PAGE_BASE
        memory = self.memory
        kernel_only = self._page_kernel_only.get(base)
        if kernel_only is None:
            region = memory.region_of(addr)
            if region is None:
                raise SimException(FaultKind.FETCH_FAULT, addr,
                                   in_kernel=ms.in_kernel)
            kernel_only = region.kernel_only
            if region.base <= base and base + _PAGE <= region.end:
                self._page_kernel_only[base] = kernel_only
        if kernel_only and ms.mode != KERNEL_MODE:
            raise SimException(FaultKind.PRIVILEGE_FAULT, addr,
                               detail="fetch", in_kernel=False)
        page = memory._pages.get(base)
        if page is None and memory._backing:
            page = memory._backing.get(base)
        word = _read_word(page, addr - base)[0] if page is not None else 0
        record = self._records.get(word)
        if record is None:
            record = self._records[word] = self._decode_record(word)
        return record

    def _decode_record(self, word: int) -> tuple:
        """Everything the run loops need to know about one instruction
        word: ``(instr, handler, writes_reg, dest_reg,
        host_syscall)``.  ``handler`` is the instruction's semantics
        (:data:`repro.uarch.cpu.HANDLERS_BY_XLEN`), ``dest_reg`` the
        architectural destination when ``writes_reg``, and
        ``host_syscall`` marks a syscall the host kernel emulates."""
        try:
            instr = cached_decode(word, self.regs_meta)
        except DecodeError:
            raise SimException(FaultKind.ILLEGAL_INSTRUCTION, self.ms.pc,
                               in_kernel=self.ms.in_kernel) from None
        writes = writes_reg(instr)
        return (instr, HANDLERS_BY_XLEN[self.ms.xlen][instr.op], writes,
                _dest_reg(instr, self.ms.xlen) if writes else 0,
                instr.op == "syscall" and self.kernel_mode_kind == "host")

    def _store_counts(self, executed: int, n_commit: int,
                      n_dest: int) -> None:
        self.executed = executed
        self._counters["commit"] = n_commit
        self._counters["user_dest"] = n_dest

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
        fetch = self._fetch
        status = RunStatus.COMPLETED
        fault_kind: FaultKind | None = None
        fault_in_kernel = False
        fastpath = self.fastpath
        step = getattr(self.observer, "step", None)
        every = (getattr(self.observer, "every", None) or 1) if step else 0
        max_instructions = self.max_instructions
        # The trigger streams only count while actions are scheduled.
        # The instruction and stream counters live in locals and are
        # stored back (_store_counts) before anything outside the loop
        # can read them: a fast-path poll, an action, an observer step
        # and the end of the run.
        counting = bool(self._actions)
        commit_t, dest_t = trigger_tables(self._actions)
        n_commit = self._counters["commit"]
        n_dest = self._counters["user_dest"]
        executed = self.executed
        # one threshold for the watchdog and the next fast-path poll
        limit = (max_instructions if fastpath is None
                 else min(fastpath.next_check, max_instructions))
        try:
            while not ms.halted:
                if executed >= limit:
                    if fastpath is not None \
                            and executed >= fastpath.next_check:
                        self._store_counts(executed, n_commit, n_dest)
                        early = fastpath.poll(self)
                        if early is not None:
                            return early
                        limit = min(fastpath.next_check, max_instructions)
                    if executed >= max_instructions:
                        status = RunStatus.TIMEOUT
                        break
                # fetch first, then fire: a code flip at commit k shows
                # at the next fetch of that pc
                instr, handler, writes, dest, host_syscall = fetch()
                if counting:
                    if commit_t and n_commit in commit_t:
                        self._store_counts(executed, n_commit, n_dest)
                        for action in commit_t[n_commit]:
                            action.apply(self)
                    n_commit += 1
                if host_syscall:
                    ms.pc += 4
                    self._host_syscall()
                else:
                    ms.pc = handler(instr, ms, core)
                executed += 1
                if counting and writes and ms.mode != KERNEL_MODE:
                    self.last_dest = dest
                    if dest_t and n_dest in dest_t:
                        self._store_counts(executed, n_commit, n_dest)
                        for action in dest_t[n_dest]:
                            action.apply(self)
                    n_dest += 1
                if every and not executed % every:
                    self._store_counts(executed, n_commit, n_dest)
                    self.last_instr = instr
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
                    "instructions": executed,
                }) from exc
        finally:
            self._store_counts(executed, n_commit, n_dest)

        return FuncResult(
            status=status,
            output=self._collect_output(),
            exit_code=self._collect_exit_code(),
            instructions=self.executed,
            fault_kind=fault_kind,
            fault_in_kernel=fault_in_kernel,
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


def writes_reg(instr: Decoded) -> bool:
    """Whether the instruction writes an architectural register != r0."""
    cls = instr.d.cls
    if cls in ("store", "branch", "sys"):
        return instr.op == "jalr" and instr.rd != 0 \
            or instr.op == "jal"
    return instr.rd != 0


def run_functional(user_program, kernel: str = "sim",
                   max_instructions: int = 2_000_000) -> FuncResult:
    """Build a fresh image for *user_program* and run it functionally."""
    image = build_system_image(user_program)
    return FunctionalEngine(image, kernel=kernel,
                            max_instructions=max_instructions).run()
