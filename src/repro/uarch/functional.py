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
from .cpu import (HANDLERS_BY_XLEN, KERNEL_MODE, VALUE_FORMS, CoreAccess,
                  MachineState, _link_reg)
from .exceptions import (ContainmentError, DetectTrap, FaultKind,
                         SimException)

_PAGE = layout.PAGE_SIZE
_PAGE_MASK = _PAGE - 1
_PAGE_BASE = ~_PAGE_MASK
#: little-endian instruction word at an offset into a page
_read_word = struct.Struct("<I").unpack_from

#: How a run loop executes an instruction word, the ``kind`` of its
#: decode record (see :func:`decode_record`).  ``_ALU`` is 0, so the
#: commonest kind is the cheapest test, and the memory kinds sort last.
_ALU, _BRANCH, _JUMP, _SYS, _CALL, _LOAD, _STORE = range(7)
_HANDLER_KIND_OF_CLASS = {"branch": _JUMP, "sys": _SYS}

#: Shared decode cache, under three key shapes:
#:
#: - ``(xlen, word)`` -> decode record, or the DecodeError reason for
#:   an illegal word.  It holds the reason rather than the exception:
#:   a re-raised instance grows its ``__traceback__`` on every raise
#:   and would keep every engine it was raised through alive.
#: - ``(xlen, pc, word)`` -> the straight-line block that starts at a
#:   block leader *pc* whose first word is *word*: the number of times
#:   ``run()`` has entered the leader so far, until the entry that
#:   makes it hot builds the block (:func:`_build_block`), or None when
#:   no block can be built there.
#: - ``(xlen, shape)``, *shape* a tuple -> the factory that binds the
#:   blocks of that shape (:func:`_build_block`).  The variants of
#:   flipped blocks live in their run's own table, never here.
#:
#: Distinct words and leaders are few (static code + a handful of
#: corrupted variants), and campaigns run thousands of executions of
#: the same binaries, so a process-global cache pays off.
_DECODE_CACHE: dict[tuple, object] = {}

#: A leader's block is built on its ``_HOT_ENTRIES``-th entry, when it
#: runs at least ``_MIN_BLOCK`` instructions; a block holds at most
#: ``_MAX_BLOCK``.  Within one run, a leader binds a variant of its
#: block from the current bytes when the block fails its code check
#: for the ``_VARIANT_FAILS``-th time.
_HOT_ENTRIES = 4
_VARIANT_FAILS = 2
_MIN_BLOCK = 3
_MAX_BLOCK = 64
#: a trigger count no run reaches
_NEVER = 1 << 62
#: a block's frozen pages when no checkpoint was restored
_NO_PAGES: dict = {}


def decode_record(word: int, regs) -> tuple:
    """Everything a run loop needs to know about one instruction word
    on register set *regs*: ``(instr, handler, kind, rs1, rs2, dest,
    fn, operand, imm, nbytes, signed, writes, is_syscall)``.

    ``rs1``/``rs2`` are the architectural sources and ``dest`` the
    architectural destination (0 means none; ``writes`` is
    ``dest != 0``).  ``kind`` says how a loop executes the word:

    - ``_ALU``: ``fn(a, b)``, the op's
      :data:`repro.uarch.cpu.VALUE_FORMS` function, over rs1's value
      ``a`` and ``b``: rs2's value when there is an rs2, else
      ``operand``, the value the immediate decodes to (0 for a
      register-register op);
    - ``_BRANCH``: taken to ``pc + 4 + imm`` when ``fn(a, b)``;
    - ``_LOAD``/``_STORE``: ``nbytes`` at ``a + imm``, a load
      sign-extending when ``signed``, a store writing ``b``;
    - ``_JUMP``, ``_SYS``, ``_CALL``: ``handler``, the op's
      :data:`repro.uarch.cpu.HANDLERS_BY_XLEN` entry, through a core
      adapter; ``is_syscall`` marks the one a host kernel emulates.

    Records live in :data:`_DECODE_CACHE`; an illegal word raises
    :class:`DecodeError`.
    """
    key = (regs.xlen, word)
    hit = _DECODE_CACHE.get(key)
    if hit is None:
        try:
            hit = _record(decode(word, regs), regs.xlen)
        except DecodeError as exc:
            hit = exc.reason
        _DECODE_CACHE[key] = hit
    if isinstance(hit, str):
        raise DecodeError(word & WORD_MASK, hit)
    return hit


def cached_decode(word: int, regs) -> Decoded:
    """The :class:`Decoded` of *word* (its decode record's first field)."""
    return decode_record(word, regs)[0]


def _record(instr: Decoded, xlen: int) -> tuple:
    d = instr.d
    fmt = d.fmt
    cls = d.cls
    op = instr.op
    rs1 = instr.rs1 if fmt in ("R", "S", "B", "I", "RJ") else 0
    rs2 = instr.rs2 if fmt in ("R", "S", "B") else 0
    dest = _dest_reg(instr, xlen)
    form = VALUE_FORMS[xlen].get(op)
    fn, operand = None, 0
    if form is not None:
        kind = _BRANCH if cls == "branch" else _ALU
        fn = form.fn
        if form.imm_mask is not None:
            operand = instr.imm & form.imm_mask
    elif cls == "load":
        kind = _LOAD
    elif cls == "store":
        kind = _STORE
    else:
        kind = _HANDLER_KIND_OF_CLASS.get(cls, _CALL)
    return (instr, HANDLERS_BY_XLEN[xlen][op], kind, rs1, rs2, dest, fn,
            operand, instr.imm, d.mem_bytes, d.mem_signed, dest != 0,
            op == "syscall")


def _build_block(page, off: int, pc: int, regs) -> "tuple | None":
    """The straight-line block at *pc*, offset *off* into its code
    *page*: ``(fn, n, off, end, code, dests, lasts, stores)``, or None
    when fewer than ``_MIN_BLOCK`` instructions qualify.

    A block is the longest run of ``_ALU``, ``_LOAD`` and ``_STORE``
    words from *pc* on the page, up to ``_MAX_BLOCK``, plus one
    ``_BRANCH`` after them.  ``fn(regs, pages, backing, page_regions,
    user)`` runs its ``n`` instructions, the code of ``page[off:end]``
    (= *code*), as one generated function (:func:`_block_factory`).
    ``dests[k]`` and ``lasts[k]`` are the number of register writes
    among the first *k* instructions and the last register they write
    (0: none); ``stores`` tells whether the block holds a store.

    The function is bound from a factory compiled once per block
    *shape*: entry *k* of the shape fixes the code of instruction *k*,
    its kind, its memory width and signedness, and which operands
    exist; a block that ends without a branch adds ``(None,)``, its
    fall-through.  Entry *k* of ``values`` holds what that code reads:
    register indices, immediates, branch targets, the code page's base
    and the op's :data:`repro.uarch.cpu.VALUE_FORMS` function, which
    the factory binds as closure cells.  The factory is kept in
    :data:`_DECODE_CACHE` under ``(xlen, shape)``, so a block that
    differs from one seen before only in its values (say, by a flipped
    register index or immediate) costs a closure, not a compile.
    """
    if page is None:
        return None
    code_base = (pc & 0xFFFF_FFFF) - off
    shape: list = []
    values: list = []
    dests, lasts = [0], [0]
    for k in range(min(_MAX_BLOCK, (_PAGE - off) >> 2)):
        try:
            (_, _, kind, rs1, rs2, dest, fn, operand, imm, nbytes, signed,
             _, _) = decode_record(_read_word(page, off + 4 * k)[0], regs)
        except DecodeError:
            break
        here = pc + 4 * k
        if kind == _BRANCH and here + 4 + imm >= 0:
            shape.append((kind,))
            values.append((here + 4 + imm, fn, rs1, rs2, here + 4))
        elif kind == _ALU:
            shape.append((kind, dest != 0, dest != 0 and rs2 != 0))
            values.append((dest, fn, rs1, rs2 or operand) if dest else ())
        elif kind == _LOAD:
            shape.append((kind, nbytes, signed, dest != 0))
            values.append((rs1, imm, dest) if dest else (rs1, imm))
        elif kind == _STORE:
            shape.append((kind, nbytes))
            values.append((rs1, imm, rs2, code_base))
        else:
            break
        dests.append(dests[-1] + (dest != 0))
        lasts.append(dest or lasts[-1])
        if kind == _BRANCH:
            break
    n = len(dests) - 1
    if n < _MIN_BLOCK:
        return None
    if shape[-1][0] != _BRANCH:
        shape.append((None,))
        values.append((pc + 4 * n,))
    key = (regs.xlen, tuple(shape))
    factory = _DECODE_CACHE.get(key)
    if factory is None:
        factory = _DECODE_CACHE[key] = _block_factory(key[1], values,
                                                      regs.xlen)
    return (factory(*[v for entry in values for v in entry]), n, off,
            off + 4 * n, bytes(page[off:off + 4 * n]), tuple(dests),
            tuple(lasts), any(form[0] == _STORE for form in shape))


def _block_factory(shape: tuple, values: list, xlen: int):
    """The factory of the blocks of *shape* (see :func:`_build_block`),
    ``factory(*cells) -> block``: *cells* are one block's values,
    flattened, and value *i* of entry *k* becomes the block's closure
    cell ``c{k}_{i}``.  *values* are the values of one block of that
    shape; only their number per entry counts here.

    The block returns the next pc, or ``~k`` to leave after its first
    *k* instructions: at a load or store that the page memo does not
    prove safe, at instruction *k*, which the caller then runs itself,
    and after a store into the block's own code page.
    """
    mask = (1 << xlen) - 1
    lines = []
    for k, form in enumerate(shape):
        kind = form[0]
        t = [f"c{k}_{i}" for i in range(5)]
        exit_ = f"return {~k}"
        if kind is None:
            lines.append(f"return {t[0]}")
        elif kind == _BRANCH:
            lines.append(f"return {t[0]} if {t[1]}(regs[{t[2]}], "
                         f"regs[{t[3]}]) else {t[4]}")
        elif kind == _ALU:
            if form[1]:
                second = f"regs[{t[3]}]" if form[2] else t[3]
                lines.append(f"regs[{t[0]}] = {t[1]}(regs[{t[2]}], "
                             f"{second})")
        else:
            nbytes = form[1]
            lines += [
                f"a = (regs[{t[0]}] + {t[1]}) & 0xFFFFFFFF",
                f"o = a & {_PAGE_MASK}",
                f"if o > {_PAGE - nbytes}: {exit_}",
                "b = a - o",
                "r = page_regions.get(b)",
            ]
            if kind == _LOAD:
                lines += [
                    f"if r is None or user and r.kernel_only: {exit_}",
                    "p = pages.get(b)",
                    "if p is None:",
                    "    p = backing.get(b)",
                    f"    if p is None: {exit_}",
                ]
                if form[3]:
                    lines.append(
                        f"regs[{t[2]}] = int.from_bytes(p[o:o + {nbytes}],"
                        f" 'little', signed={form[2]}) & {mask}")
            else:
                lines += [
                    "if r is None or user and r.kernel_only"
                    f" or not r.writable: {exit_}",
                    "p = pages.get(b)",
                    f"if p is None: {exit_}",
                    f"p[o:o + {nbytes}] = (regs[{t[2]}] & "
                    f"{(1 << (nbytes << 3)) - 1}).to_bytes({nbytes}, "
                    "'little')",
                    f"if b == {t[3]}: return {~(k + 1)}",
                ]
    cells = ", ".join(f"c{k}_{i}" for k, entry in enumerate(values)
                      for i in range(len(entry)))
    body = "".join(f"\n        {line}" for line in lines)
    namespace: dict = {}
    exec(compile(f"def factory({cells}):\n"
                 "    def block(regs, pages, backing, page_regions, user):"
                 f"{body}\n    return block", "<block>", "exec"), namespace)
    return namespace["factory"]


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

    The injectors describe what they flip: ``origin`` in words (traces
    and containment reports), ``site_bit`` the bit within its entry,
    and ``target`` a persistent flip's location, ``("reg", index,
    mask)`` or ``("mem", addr, mask)``, that ``apply`` XORs with
    ``mask`` and nothing else; a fast-path hook may decide the run
    from the golden run's first read of it
    (:meth:`repro.uarch.liveness.RegisterLiveness.first_read` and
    ``first_byte_read``).
    """

    counter: str
    when: int
    apply: object  # Callable[[FunctionalEngine], None]
    origin: "str | None" = None
    site_bit: "int | None" = None
    target: "tuple | None" = None


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
        return engine.memory.read_int(addr, nbytes, signed)

    def store(self, addr: int, nbytes: int, value: int) -> None:
        engine = self.engine
        engine.memory.check_access(addr, nbytes, write=True,
                                   kernel_mode=engine.ms.in_kernel)
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
        #: optional passive observer (protocol: PipelineEngine.observer);
        #: before each ``step``, ``last_instr`` is set to the
        #: :class:`Decoded` instruction the step follows and
        #: ``last_mem`` to that instruction's memory access,
        #: ``("load"|"store", addr, nbytes)``, or None.
        self.observer = None
        self.last_mem = None
        self.last_instr = None
        #: optional checkpoint hook (see repro.uarch.snapshot): an
        #: object with ``next_check`` (executed-instruction count) and
        #: ``poll(engine)``; polled at the top of the run loop, and a
        #: non-None poll() return ends the run with that result.  An
        #: optional ``injected(engine)`` is called right after each
        #: ``commit`` action fires and may end the run the same way,
        #: or return a jump: a callable that run() applies to the
        #: engine, with the loop's state written back, before the loop
        #: goes on from the engine's new state.
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

        Alignment, the fetch region and privilege are checked, in that
        order.  The word is read from the page that holds it now:
        ``memory._pages``, else the checkpoint's frozen
        ``memory._backing``.
        """
        ms = self.ms
        pc = ms.pc
        if pc & 3:
            raise SimException(FaultKind.MISALIGNED, pc,
                               detail="pc", in_kernel=ms.in_kernel)
        addr = pc & 0xFFFF_FFFF
        base = addr & _PAGE_BASE
        memory = self.memory
        region = memory._page_region.get(base) or memory.page_region(addr)
        if region is None:
            raise SimException(FaultKind.FETCH_FAULT, addr,
                               in_kernel=ms.in_kernel)
        if region.kernel_only and ms.mode != KERNEL_MODE:
            raise SimException(FaultKind.PRIVILEGE_FAULT, addr,
                               detail="fetch", in_kernel=False)
        page = memory._pages.get(base)
        if page is None and memory._backing:
            page = memory._backing.get(base)
        word = _read_word(page, addr - base)[0] if page is not None else 0
        try:
            return decode_record(word, self.regs_meta)
        except DecodeError:
            raise SimException(FaultKind.ILLEGAL_INSTRUCTION, pc,
                               in_kernel=ms.in_kernel) from None

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

    def _fire(self, actions, executed: int, n_commit: int, n_dest: int,
              pc: int) -> None:
        """Apply due *actions*, with the run loop's counters and pc
        stored on the engine first."""
        self._store_counts(executed, n_commit, n_dest)
        self.ms.pc = pc
        for action in actions:
            action.apply(self)

    def run(self) -> FuncResult:
        """Execute to completion and classify the raw termination.

        The loop executes ``_ALU``, ``_BRANCH``, ``_LOAD`` and
        ``_STORE`` records itself, on ``regs`` and the memory pages;
        the other kinds run their handler through the core adapter
        (DESIGN.md decision 9).  Both come from :data:`_DECODE_CACHE`:
        a word's decode record under ``(xlen, word)``, and under
        ``(xlen, pc, word)`` the straight-line block a hot leader runs
        as one call (:func:`_build_block`), unless a poll, the
        watchdog limit or a trigger falls inside it, or an observer is
        attached.  A block whose code bytes have changed (a WOI/WI
        flip, a store into code) does not run; from its second failed
        code check in this run on, the leader runs a run-local variant
        built from the current bytes instead (:func:`_variant`), under
        the same tests, bound once per leader from its shape's
        factory.  A variant whose own bytes change leaves its leader
        to run word by word.
        """
        ms = self.ms
        core = self._core
        # Hooks are attached and checkpoints restored before run();
        # nothing but a fast-path jump rebinds these objects while the
        # loop runs (they are only mutated in place), and the loop
        # reads them again after one.
        regs = self.regs
        memory = self.memory
        check_access = memory.check_access
        page_regions = memory._page_region
        pages = memory._pages
        backing = memory._backing
        regs_meta = self.regs_meta
        xlen = regs_meta.xlen
        mask = ms.mask
        records = _DECODE_CACHE
        host = self.kernel_mode_kind == "host"
        status = RunStatus.COMPLETED
        fault_kind: FaultKind | None = None
        fault_in_kernel = False
        fastpath = self.fastpath
        injected = getattr(fastpath, "injected", None)
        step = getattr(self.observer, "step", None)
        every = (getattr(self.observer, "every", None) or 1) if step else 0
        max_instructions = self.max_instructions
        # The trigger streams only count while actions are scheduled.
        # The instruction and stream counters, the pc and the privilege
        # mode live in locals.  Counters and pc are stored back before
        # anything outside the loop can read them: a fast-path poll, an
        # action, an observer step and the end of the run, and the pc
        # before a handler.  Only actions and handlers change the pc or
        # the mode, so both are read back after them.
        counting = bool(self._actions)
        commit_t, dest_t = trigger_tables(self._actions)
        n_commit = self._counters["commit"]
        n_dest = self._counters["user_dest"]
        executed = self.executed
        pc = ms.pc
        mode = ms.mode
        # The code page of the last fetch: its base (-1: none), bytes
        # (None: never written) and kernel-only flag.  Kept only for a
        # page one region holds whole, and dropped after every store,
        # handler and action: a write into a checkpoint's frozen page
        # swaps in a private copy, which a kept page object would miss.
        code_base = -1
        code_page = None
        code_kernel_only = False
        # one threshold for the watchdog and the next fast-path poll
        limit = (max_instructions if fastpath is None
                 else min(fastpath.next_check, max_instructions))
        # Blocks run only without an observer, from a leader: the first
        # pc, and the pc after a branch, a handler, an action, a jump or
        # a block; and only when no poll, watchdog limit or due trigger
        # falls inside them.  commit_next and dest_next are the next
        # due trigger counts, re-read after every fire and jump.
        leader = True
        # leader pc -> its failed code checks, variant or None this run
        variants: dict = {}
        commit_next = _next_trigger(commit_t, n_commit)
        dest_next = _next_trigger(dest_t, n_dest)
        try:
            while not ms.halted:
                if executed >= limit:
                    if fastpath is not None \
                            and executed >= fastpath.next_check:
                        self._store_counts(executed, n_commit, n_dest)
                        ms.pc = pc
                        early = fastpath.poll(self)
                        if early is not None:
                            return early
                        limit = min(fastpath.next_check, max_instructions)
                    if executed >= max_instructions:
                        status = RunStatus.TIMEOUT
                        break

                # ---- fetch: alignment, region, privilege, decode -----
                if pc & 3:
                    raise SimException(FaultKind.MISALIGNED, pc,
                                       detail="pc",
                                       in_kernel=mode == KERNEL_MODE)
                addr = pc & 0xFFFF_FFFF
                base = addr & _PAGE_BASE
                if base != code_base:
                    region = page_regions.get(base)
                    if region is not None:
                        code_base = base
                    else:
                        # first fetch from the page, or a page no one
                        # region holds whole: not kept
                        code_base = -1
                        region = memory.page_region(addr)
                        if region is None:
                            raise SimException(
                                FaultKind.FETCH_FAULT, addr,
                                in_kernel=mode == KERNEL_MODE)
                    code_page = pages.get(base)
                    if code_page is None and backing:
                        code_page = backing.get(base)
                    code_kernel_only = region.kernel_only
                if code_kernel_only and mode != KERNEL_MODE:
                    raise SimException(FaultKind.PRIVILEGE_FAULT, addr,
                                       detail="fetch", in_kernel=False)
                word = (_read_word(code_page, addr - base)[0]
                        if code_page is not None else 0)

                # ---- block: the straight run from a leader -----------
                if leader:
                    leader = False
                    if code_base == base and not every:
                        key = (xlen, pc, word)
                        block = records.get(key, 0)
                        if block.__class__ is tuple:
                            (run_block, n, off, end, code, dests, lasts,
                             stores) = block
                            if code_page[off:end] != code:
                                # flipped or stored-into code: the
                                # leader's variant, if its bytes hold
                                block = variants.get(pc, 0)
                                if (block.__class__ is not tuple
                                        or code_page[block[2]:block[3]]
                                        != block[4]):
                                    block = _variant(variants, pc, block,
                                                     code_page, off,
                                                     regs_meta)
                                if block is not None:
                                    (run_block, n, off, end, code, dests,
                                     lasts, stores) = block
                            user = mode != KERNEL_MODE
                            if (block is not None
                                    and executed + n <= limit
                                    and n_commit + n <= commit_next
                                    and (n_dest + dests[n] <= dest_next
                                         or not user)):
                                nxt = run_block(regs, pages,
                                                backing or _NO_PAGES,
                                                page_regions, user)
                                if nxt >= 0:
                                    k = n
                                    pc = nxt
                                    leader = True
                                else:
                                    # a side exit: instruction k runs
                                    # next, word by word
                                    k = ~nxt
                                    pc += 4 * k
                                executed += k
                                if counting:
                                    n_commit += k
                                    if user and dests[k]:
                                        n_dest += dests[k]
                                        self.last_dest = lasts[k]
                                if stores:
                                    code_base = -1
                                continue
                        elif block is not None:
                            records[key] = (
                                block + 1 if block + 1 < _HOT_ENTRIES
                                else _build_block(code_page, addr - base,
                                                  pc, regs_meta))

                record = records.get((xlen, word))
                if record.__class__ is not tuple:
                    try:
                        record = decode_record(word, regs_meta)
                    except DecodeError:
                        raise SimException(
                            FaultKind.ILLEGAL_INSTRUCTION, pc,
                            in_kernel=mode == KERNEL_MODE) from None
                (instr, handler, kind, rs1, rs2, dest, fn, operand, imm,
                 nbytes, signed, writes, is_syscall) = record

                # fetch first, then fire: a code flip at commit k shows
                # at the next fetch of that pc
                if counting:
                    if commit_t and n_commit in commit_t:
                        self._fire(commit_t[n_commit], executed, n_commit,
                                   n_dest, pc)
                        pc = ms.pc
                        mode = ms.mode
                        code_base = -1
                        leader = True
                        commit_next = _next_trigger(commit_t, n_commit + 1)
                        if injected is not None:
                            decided = injected(self)
                            if decided.__class__ is FuncResult:
                                return decided
                            if decided is not None:
                                # a jump: restart the iteration at the
                                # engine's new state
                                decided(self)
                                regs = self.regs
                                pages = memory._pages
                                backing = memory._backing
                                executed = self.executed
                                n_commit = self._counters["commit"]
                                n_dest = self._counters["user_dest"]
                                pc = ms.pc
                                mode = ms.mode
                                limit = min(fastpath.next_check,
                                            max_instructions)
                                commit_next = _next_trigger(commit_t,
                                                            n_commit)
                                dest_next = _next_trigger(dest_t, n_dest)
                                continue
                    n_commit += 1

                # ---- execute -----------------------------------------
                # nothing writes r0, so a missing source (0) reads 0
                if not kind:
                    value = fn(regs[rs1], regs[rs2] if rs2 else operand)
                    if dest:
                        regs[dest] = value
                    pc += 4
                elif kind == _BRANCH:
                    pc += 4 + imm if fn(regs[rs1], regs[rs2]) else 4
                    leader = True
                elif kind >= _LOAD:
                    addr = (regs[rs1] + imm) & 0xFFFF_FFFF
                    off = addr & _PAGE_MASK
                    base = addr - off
                    end = off + nbytes
                    # what the page memo proves safe skips check_access,
                    # which raises on everything else
                    region = page_regions.get(base)
                    if (region is None or end > _PAGE
                            or region.kernel_only and mode != KERNEL_MODE
                            or kind == _STORE and not region.writable):
                        check_access(addr, nbytes, write=kind == _STORE,
                                     kernel_mode=mode == KERNEL_MODE)
                    if kind == _LOAD:
                        if end > _PAGE:
                            value = memory.read_int(addr, nbytes, signed)
                        else:
                            page = pages.get(base)
                            if page is None and backing:
                                page = backing.get(base)
                            value = (0 if page is None else int.from_bytes(
                                page[off:end], "little", signed=signed))
                        if dest:
                            regs[dest] = value & mask
                    else:
                        if end > _PAGE:
                            memory.write_int(addr, regs[rs2], nbytes)
                        else:
                            page = pages.get(base)
                            if page is None:
                                page = memory._page_for(addr, True)
                            page[off:end] = (
                                regs[rs2] & ((1 << (nbytes << 3)) - 1)
                            ).to_bytes(nbytes, "little")
                        code_base = -1
                    pc += 4
                else:
                    if is_syscall and host:
                        pc += 4
                        ms.pc = pc
                        self._host_syscall()
                    else:
                        ms.pc = pc
                        pc = handler(instr, ms, core)
                    mode = ms.mode
                    code_base = -1
                    leader = True
                executed += 1

                if counting and writes and mode != KERNEL_MODE:
                    self.last_dest = dest
                    if dest_t and n_dest in dest_t:
                        self._fire(dest_t[n_dest], executed, n_commit,
                                   n_dest, pc)
                        pc = ms.pc
                        mode = ms.mode
                        code_base = -1
                        leader = True
                        dest_next = _next_trigger(dest_t, n_dest + 1)
                    n_dest += 1
                if every and not executed % every:
                    self._store_counts(executed, n_commit, n_dest)
                    ms.pc = pc
                    self.last_instr = instr
                    self.last_mem = (
                        None if kind < _LOAD else
                        ("load" if kind == _LOAD else "store", addr,
                         nbytes))
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
                    "pc": pc,
                    "instructions": executed,
                }) from exc
        finally:
            self._store_counts(executed, n_commit, n_dest)
            ms.pc = pc

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


def _variant(variants: dict, pc: int, seen, page, off: int,
             regs) -> "tuple | None":
    """The variant block to run at leader *pc*, whose block failed its
    code check, or None to run it word by word.

    *seen* is what the run's *variants* table holds for *pc*: the
    number of failed checks so far (0 when absent), None for no
    variant, or a bound variant whose own bytes have changed since.
    On the ``_VARIANT_FAILS``-th failed check the leader binds a
    variant from the current bytes of *page* (:func:`_build_block`);
    one that changes again, like a leader with no variant, runs word
    by word for the rest of the run, so a leader binds at most once.
    """
    if seen.__class__ is int:
        seen += 1
        if seen >= _VARIANT_FAILS:
            seen = _build_block(page, off, pc, regs)
    else:
        seen = None
    variants[pc] = seen
    return seen if seen.__class__ is tuple else None


def _next_trigger(table: dict, count: int) -> int:
    """The first trigger count of *table* at or after *count*."""
    return min((when for when in table if when >= count), default=_NEVER)


def collected_ranges(output_len: int) -> tuple:
    """``(addr, nbytes)`` of the memory a sim-kernel run's end reads
    when it collects *output_len* output bytes: the output length word,
    the output bytes and the exit-code word
    (:meth:`FunctionalEngine._collect_output`, ``_collect_exit_code``)."""
    return ((layout.OUTPUT_LEN_ADDR, 4), (layout.OUTPUT_BASE, output_len),
            (layout.KERNEL_DATA_BASE + EXIT_CODE_OFFSET, 4))


def _dest_reg(instr: Decoded, xlen: int) -> int:
    """Architectural destination register (0: none)."""
    if instr.d.fmt in ("R", "I", "U") or instr.op == "jalr":
        return instr.rd
    if instr.op == "jal":
        return _link_reg(xlen)
    return 0


def writes_reg(instr: Decoded) -> bool:
    """Whether the instruction writes an architectural register != r0."""
    return _dest_reg(instr, 64) != 0


def run_functional(user_program, kernel: str = "sim",
                   max_instructions: int = 2_000_000) -> FuncResult:
    """Build a fresh image for *user_program* and run it functionally."""
    image = build_system_image(user_program)
    return FunctionalEngine(image, kernel=kernel,
                            max_instructions=max_instructions).run()
