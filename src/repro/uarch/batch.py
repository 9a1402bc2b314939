"""Batched bit-parallel execution of functional injection runs.

A campaign executes thousands of near-identical runs: each one follows
the golden trajectory except for a handful of architecturally-diverged
words.  This module packs up to 64 such runs ("lanes") into NumPy
uint64 arrays and steps them in lockstep behind a single *leader*
engine that replays the golden trajectory.

Representation
--------------
Per-lane state is stored as an XOR *diff* against the leader, one
uint64 vector element per lane:

* ``reg diff``   — an ``(n_regs, n_lanes)`` array; a lane's register
  value is ``leader_reg ^ diff``.
* ``memory diff`` — a sparse ``{8-aligned word address: (n_lanes,)}``
  map, little-endian (byte ``addr+k`` lives in bits ``8k..8k+7``).
* ``output/exit diff`` — for the host kernel, per-byte diffs of the
  emulated output stream and the exit code.

A lane whose diffs are all zero is *bit-identical* to golden; the
retire scan uses exactly the reconvergence predicate the divergence
digest in :mod:`repro.uarch.snapshot` proves (all-zero diff <=>
identical digest), without hashing anything.

Lockstep only holds while control flow is shared.  Any lane whose
next fetch, branch direction, jump target, memory address, divisor
(div-by-zero), or syscall inputs diverge from the leader is *evicted*:
its full architectural state is materialised from leader+diff and the
run is finished on the scalar engine, so the scalar semantics —
including traps and containment — are inherited rather than
re-implemented.  Fault appliers run against a :class:`_LaneView` shim;
an applier that touches control state (``ms.pc``) is evicted as a
scalar *rerun* from reset.

The module is import-safe without NumPy (``batch_available()`` is then
False and campaigns fall back to the scalar path).
"""

from __future__ import annotations

import os

try:  # gated dependency: the scalar engines never need numpy
    import numpy as np
except ImportError:  # pragma: no cover - exercised on minimal installs
    np = None

from ..isa import layout
from ..isa.instructions import (CLS_DIV, CLS_LOAD, CLS_STORE, FMT_B, FMT_RJ,
                                FMT_U)
from ..kernel.syscalls import EXIT_CODE_OFFSET, SYS_EXIT, SYS_WRITE
from ..obs.metrics import (BATCH_BATCHES, BATCH_EARLY_RETIRES,
                           BATCH_LANES_PACKED, BATCH_SCALAR_EVICTIONS,
                           FALSY, get_registry)
from .cpu import KERNEL_MODE, LANE_FORMS, _sdiv, _srem, to_signed
from .exceptions import ContainmentError, DetectTrap, SimException
from .functional import FuncResult, RunStatus, trigger_tables
from .memory import ADDR_MASK

#: Widest batch: one lane per uint64 vector element keeps every
#: reduction a single vector op; campaigns chunk n runs into ceil(n/64)
#: batches.
MAX_LANES = 64
DEFAULT_LANES = 64
#: Instructions between retire scans (diff-reduction + lane retire).
RETIRE_EVERY = 64

FULL = 0xFFFF_FFFF_FFFF_FFFF
# Lane rows are tested for a nonzero element with np.count_nonzero(row)
# rather than row.any(): on a 64-lane row it costs about a quarter as
# much, and the divergent-lane path tests a row on nearly every step.
_PAGE = layout.PAGE_SIZE
_PAGE_MASK = _PAGE - 1
# step kinds of a lane record (BatchedFunctionalEngine._lane_record)
_UNIFORM, _JUMP_REG, _BRANCH, _ALU, _DIV, _LOAD, _STORE = range(7)
_DIVIDE = {"div": _sdiv, "rem": _srem}


def batch_available() -> bool:
    """True when the batched engine can run (NumPy importable)."""
    return np is not None


def resolve_batch_lanes(explicit: "int | None" = None) -> int:
    """Lane count for batched campaigns; 0 disables batching.

    ``explicit`` (the ``--batch-lanes`` flag) wins over the
    ``REPRO_BATCH`` environment switch, where ``1``/truthy means "on at
    the default width" and an integer >= 2 selects a width.
    """
    if np is None:
        return 0
    if explicit is not None:
        return max(0, min(int(explicit), MAX_LANES))
    env = os.environ.get("REPRO_BATCH")
    if env is None:
        return 0
    env = env.strip().lower()
    if env in FALSY:
        return 0
    try:
        lanes = int(env)
    except ValueError:
        return DEFAULT_LANES
    if lanes <= 1:
        return DEFAULT_LANES if lanes == 1 else 0
    return min(lanes, MAX_LANES)


# ---------------------------------------------------------------------------
# bit-plane codec (pure functions; property-tested in
# tests/test_batch_codec.py)
# ---------------------------------------------------------------------------
def pack_lanes(lanes_values):
    """Pack per-lane word lists into an ``(n_words, n_lanes)`` array.

    ``lanes_values[lane][i]`` is word *i* of that lane (``0 <= word <
    2**64``); element ``[i, lane]`` of the result holds it.
    """
    if np is None:  # pragma: no cover - guarded by batch_available
        raise RuntimeError("numpy is required for batched execution")
    arr = np.array(lanes_values, dtype=np.uint64)
    if arr.ndim != 2:
        raise ValueError("pack_lanes wants a rectangular lane x word list")
    return np.ascontiguousarray(arr.T)


def unpack_lane(planes, lane: int):
    """Inverse of :func:`pack_lanes` for a single lane."""
    return [int(word) for word in planes[:, lane]]


class LaneOutcome:
    """How one lane of a batch finished.

    ``kind`` is ``"result"`` (completed in lockstep; ``result`` is the
    :class:`FuncResult`), ``"state"`` (evicted with a materialised
    architectural state to continue from on the scalar engine), or
    ``"rerun"`` (evicted at a point the diff representation cannot
    express — rerun the whole injection on the scalar path).
    """

    __slots__ = ("kind", "result", "state")

    def __init__(self, kind, result=None, state=None):
        self.kind = kind
        self.result = result
        self.state = state


# ---------------------------------------------------------------------------
# lane view: scalar fault appliers run unmodified against one lane
# ---------------------------------------------------------------------------
class _LaneRegs:
    """Register-file view of one lane (leader ^ diff)."""

    __slots__ = ("_batch", "_lane")

    def __init__(self, batch, lane):
        self._batch = batch
        self._lane = lane

    def __len__(self):
        return len(self._batch._eng.regs)

    def __getitem__(self, index):
        batch = self._batch
        return batch._eng.regs[index] ^ int(batch._rd[index][self._lane])

    def __setitem__(self, index, value):
        batch = self._batch
        diff = (value ^ batch._eng.regs[index]) & FULL
        batch._rd[index][self._lane] = diff
        if diff:
            batch._reg_nz.add(index)
            batch._dirty = True


class _LaneMS:
    """Machine-state view: reads come from the leader; any write marks
    the lane structurally diverged (control state cannot be a diff)."""

    __slots__ = ("_view", "_ms")

    def __init__(self, view, ms):
        object.__setattr__(self, "_view", view)
        object.__setattr__(self, "_ms", ms)

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_ms"), name)

    def __setattr__(self, name, value):
        object.__getattribute__(self, "_view")._structural = True


class _LaneMemory:
    """Byte-wise memory view of one lane (leader ^ diff)."""

    __slots__ = ("_batch", "_lane")

    def __init__(self, batch, lane):
        self._batch = batch
        self._lane = lane

    def read(self, addr, nbytes):
        return self._batch._lane_mem_read(self._lane, addr & ADDR_MASK,
                                          nbytes)

    def read_int(self, addr, nbytes, signed=False):
        value = int.from_bytes(self.read(addr, nbytes), "little")
        if signed and value & (1 << (8 * nbytes - 1)):
            value -= 1 << (8 * nbytes)
        return value

    def write(self, addr, data):
        batch, lane = self._batch, self._lane
        addr &= ADDR_MASK
        for k, byte in enumerate(bytes(data)):
            batch._lane_write_byte(lane, addr + k, byte)

    def write_int(self, addr, value, nbytes):
        span = (1 << (8 * nbytes)) - 1
        self.write(addr, (value & span).to_bytes(nbytes, "little"))

    def __getattr__(self, name):
        return getattr(self._batch._eng.memory, name)


class _LaneView:
    """Engine facade handed to fault appliers for one lane."""

    def __init__(self, batch, lane):
        self._batch = batch
        self._lane = lane
        self._structural = False
        self.regs = _LaneRegs(batch, lane)
        self.ms = _LaneMS(self, batch._eng.ms)
        self.memory = _LaneMemory(batch, lane)

    def __getattr__(self, name):
        # last_dest, regs_meta, image, ... are shared with the leader
        return getattr(self._batch._eng, name)


# ---------------------------------------------------------------------------
# the batched engine
# ---------------------------------------------------------------------------
class BatchedFunctionalEngine:
    """Run up to 64 fault actions in lockstep over one leader engine.

    ``engine`` must be a *fresh* :class:`FunctionalEngine` over the
    golden image with **no** actions scheduled — triggers are managed
    here.  ``store`` (optional) is the golden checkpoint store used to
    start the batch at the nearest fork point and to early-stop once
    every live lane has provably reconverged.
    """

    def __init__(self, engine, actions, store=None):
        if np is None:
            raise RuntimeError("numpy is required for batched execution")
        if engine._actions:
            raise ValueError("leader engine must have no scheduled actions")
        n = len(actions)
        if not 1 <= n <= MAX_LANES:
            raise ValueError(f"lane count must be 1..{MAX_LANES}, got {n}")
        self._eng = engine
        self._actions = list(actions)
        self._store = store
        self._n = n
        self._xlen = engine.ms.xlen
        self._masku = np.uint64(engine.ms.mask)
        n_regs = len(engine.regs)
        self._rd = np.zeros((n_regs, n), dtype=np.uint64)
        self._mem_diff = {}
        self._out_diff = {}
        self._exit_diff = np.zeros(n, dtype=np.uint64)
        self._reg_nz = set()
        self._dirty = False
        self._fired = [False] * n
        self._evicted = [False] * n
        self._retired = [False] * n
        self._outcomes = [None] * n
        self._n_evicted = 0
        self.early_retires = 0
        # when -> lanes, per trigger stream (rejects unknown counters
        # exactly as FunctionalEngine.schedule does)
        self._commit_t, self._dest_t = trigger_tables(self._actions,
                                                      range(n))
        self._next_scan = 0
        #: raw instruction word -> lane record (see _lane_record)
        self._lanes = {}

    # -- public API ----------------------------------------------------
    @property
    def scalar_evictions(self) -> int:
        return self._n_evicted

    def materialize_lane(self, lane: int) -> dict:
        """Full architectural state of one lane (capture format)."""
        return self._materialize(lane)

    def run(self):
        """Step every lane to completion; one LaneOutcome per action."""
        eng = self._eng
        if self._store is not None:
            cp = self._store.nearest(actions=self._actions)
            from .snapshot import restore_functional
            restore_functional(eng, cp.state)
        self._next_scan = eng.executed + RETIRE_EVERY
        old_err = np.seterr(over="ignore")
        try:
            self._run_loop()
        except (SimException, DetectTrap) as exc:
            raise ContainmentError(
                "batched leader diverged from the golden trajectory",
                context={"engine": "batch",
                         "error": f"{type(exc).__name__}: {exc}",
                         "pc": eng.ms.pc,
                         "instructions": eng.executed}) from exc
        finally:
            np.seterr(**old_err)
        self._finish()
        registry = get_registry()
        if registry.enabled:
            registry.counter(BATCH_BATCHES).inc()
            registry.counter(BATCH_LANES_PACKED).inc(self._n)
            registry.counter(BATCH_EARLY_RETIRES).inc(self.early_retires)
            registry.counter(BATCH_SCALAR_EVICTIONS).inc(self._n_evicted)
        return list(self._outcomes)

    # -- main loop -----------------------------------------------------
    def _run_loop(self):
        eng = self._eng
        ms = eng.ms
        counters = eng._counters
        commit_t, dest_t = self._commit_t, self._dest_t
        fetch = eng._fetch
        exec_step = self._exec_step
        core = eng._core
        has_store = self._store is not None
        max_instructions = eng.max_instructions
        host = eng.kernel_mode_kind == "host"
        n = self._n
        while not ms.halted:
            if eng.executed >= max_instructions:
                raise ContainmentError(
                    "batched leader hit the golden instruction budget",
                    context={"engine": "batch", "pc": ms.pc,
                             "instructions": eng.executed})
            if self._n_evicted == n:
                return
            if (has_store and not commit_t and not dest_t
                    and not self._dirty):
                self._early_stop()
                return
            (instr, handler, _, _, _, dest, _, _, _, _, _, writes,
             is_syscall) = fetch()
            if self._mem_diff and self._dirty:
                # lanes about to decode a different word must leave the
                # batch *before* this slot's trigger fires (counters
                # are exact here)
                self._check_fetch()
            if commit_t:
                lanes = commit_t.pop(counters["commit"], None)
                if lanes is not None:
                    for lane in lanes:
                        self._apply(lane)
            counters["commit"] += 1
            if is_syscall and host:
                self._host_syscall_step()
            elif self._dirty:
                exec_step(instr, handler, dest)
            else:
                ms.pc = handler(instr, ms, core)
            eng.executed += 1
            if writes and ms.mode != KERNEL_MODE:
                eng.last_dest = dest
                if dest_t:
                    lanes = dest_t.pop(counters["user_dest"], None)
                    if lanes is not None:
                        for lane in lanes:
                            self._apply(lane)
                counters["user_dest"] += 1
            if self._dirty and eng.executed >= self._next_scan:
                self._scan()

    def _finish(self):
        for lane in range(self._n):
            if self._outcomes[lane] is None:
                self._outcomes[lane] = LaneOutcome(
                    "result", result=self._collect_lane(lane))

    def _early_stop(self):
        """Every live lane is architecturally golden and all triggers
        have fired: synthesize results from the store's final record,
        exactly as the scalar fast path would at its next digest."""
        final = self._store.final
        out = final["output"]
        exit_code = final["exit_code"]
        instructions = final["instructions"]
        for lane in range(self._n):
            if self._outcomes[lane] is not None:
                continue
            lane_out = out
            if self._out_diff:
                buf = bytearray(out)
                for pos, arr in self._out_diff.items():
                    v = int(arr[lane])
                    if v and pos < len(buf):
                        buf[pos] ^= v
                lane_out = bytes(buf)
            self._outcomes[lane] = LaneOutcome("result", result=FuncResult(
                status=RunStatus.COMPLETED,
                output=lane_out,
                exit_code=exit_code ^ int(self._exit_diff[lane]),
                instructions=instructions))
            if not self._retired[lane]:
                self._retired[lane] = True
                self.early_retires += 1

    # -- triggers ------------------------------------------------------
    def _apply(self, lane):
        if self._evicted[lane]:  # pragma: no cover - defensive
            return
        view = _LaneView(self, lane)
        try:
            self._actions[lane].apply(view)
        except Exception:
            # Whatever the applier did to the scalar engine (including
            # raising), the scalar rerun reproduces it exactly.
            self._fired[lane] = True
            self._evict(lane, "rerun")
            return
        self._fired[lane] = True
        if view._structural:
            self._evict(lane, "rerun")

    # -- eviction ------------------------------------------------------
    def _evict(self, lane, kind):
        if self._evicted[lane]:  # pragma: no cover - defensive
            return
        if kind == "state":
            self._outcomes[lane] = LaneOutcome(
                "state", state=self._materialize(lane))
        else:
            self._outcomes[lane] = LaneOutcome("rerun")
        self._evicted[lane] = True
        self._n_evicted += 1
        # Zero the lane's columns so reductions, the retire scan and
        # the early-stop check see live lanes only.
        self._rd[:, lane] = 0
        for arr in self._mem_diff.values():
            arr[lane] = 0
        for arr in self._out_diff.values():
            arr[lane] = 0
        self._exit_diff[lane] = 0

    def _evict_mask(self, mask):
        for lane in np.nonzero(mask)[0]:
            self._evict(int(lane), "state")

    def _materialize(self, lane):
        eng = self._eng
        ms = eng.ms
        rd = self._rd
        regs = [eng.regs[i] ^ int(rd[i][lane])
                for i in range(len(eng.regs))]
        pages = dict(eng.memory.snapshot_pages())
        patched = {}
        for word, arr in self._mem_diff.items():
            v = int(arr[lane])
            if not v:
                continue
            base = word & ~_PAGE_MASK  # 8-aligned: never straddles
            page = patched.get(base)
            if page is None:
                page = bytearray(pages.get(base, bytes(_PAGE)))
                patched[base] = page
            off = word - base
            chunk = int.from_bytes(page[off:off + 8], "little") ^ v
            page[off:off + 8] = chunk.to_bytes(8, "little")
        for base, page in patched.items():
            pages[base] = bytes(page)
        host = bytearray(eng._host_output)
        for pos, arr in self._out_diff.items():
            v = int(arr[lane])
            if v and pos < len(host):
                host[pos] ^= v
        return {
            "ms": (ms.pc, ms.mode, ms.kepc, ms.halted,
                   ms.exit_code ^ int(self._exit_diff[lane])),
            "regs": regs,
            "pages": pages,
            "executed": eng.executed,
            "counters": dict(eng._counters),
            "last_dest": eng.last_dest,
            "host_output": bytes(host),
        }

    # -- memory diff helpers -------------------------------------------
    def _check_fetch(self):
        pc = self._eng.ms.pc & ADDR_MASK
        word = pc & ~7
        arr = self._mem_diff.get(word)
        if arr is None:
            return
        bits = (arr >> np.uint64((pc - word) * 8)) & np.uint64(0xFFFF_FFFF)
        if np.count_nonzero(bits):
            self._evict_mask(bits != 0)

    def _mem_gather(self, addr, nbytes):
        """Per-lane XOR diff of the ``nbytes`` at ``addr`` (or None)."""
        md = self._mem_diff
        if not md:
            return None
        word = addr & ~7
        off = (addr - word) * 8
        lo = md.get(word)
        hi = md.get(word + 8) if off + 8 * nbytes > 64 else None
        if lo is None and hi is None:
            return None
        g = None
        if lo is not None:
            g = lo >> np.uint64(off)
        if hi is not None:
            part = hi << np.uint64(64 - off)
            g = part if g is None else g | part
        g = g & np.uint64((1 << (8 * nbytes)) - 1)
        return g if np.count_nonzero(g) else None

    def _mem_deposit(self, addr, nbytes, diff):
        """Overwrite the span's diff bits (store semantics)."""
        md = self._mem_diff
        word = addr & ~7
        off = (addr - word) * 8
        span = (1 << (8 * nbytes)) - 1
        straddles = off + 8 * nbytes > 64
        has_diff = np.count_nonzero(diff)
        if not has_diff and word not in md \
                and not (straddles and word + 8 in md):
            return
        diff = diff & np.uint64(span)
        mask_lo = (span << off) & FULL
        lo = md.get(word)
        if lo is None:
            lo = md[word] = np.zeros(self._n, dtype=np.uint64)
        lo[:] = (lo & ~np.uint64(mask_lo)) \
            | ((diff << np.uint64(off)) & np.uint64(mask_lo))
        if straddles:
            mask_hi = span >> (64 - off)
            hi = md.get(word + 8)
            if hi is None:
                hi = md[word + 8] = np.zeros(self._n, dtype=np.uint64)
            hi[:] = (hi & ~np.uint64(mask_hi)) \
                | ((diff >> np.uint64(64 - off)) & np.uint64(mask_hi))
        if has_diff:
            self._dirty = True

    def _lane_mem_read(self, lane, addr, nbytes):
        data = bytearray(self._eng.memory.read(addr, nbytes))
        end = addr + nbytes
        for word, arr in self._mem_diff.items():
            if word + 8 <= addr or word >= end:
                continue
            v = int(arr[lane])
            if not v:
                continue
            for k in range(8):
                a = word + k
                if addr <= a < end:
                    data[a - addr] ^= (v >> (8 * k)) & 0xFF
        return bytes(data)

    def _lane_read_int(self, lane, addr, nbytes):
        return int.from_bytes(self._lane_mem_read(lane, addr, nbytes),
                              "little")

    def _lane_write_byte(self, lane, addr, value):
        diff = value ^ self._eng.memory.read(addr & ADDR_MASK, 1)[0]
        word = addr & ~7
        md = self._mem_diff
        arr = md.get(word)
        if arr is None:
            if not diff:
                return
            arr = md[word] = np.zeros(self._n, dtype=np.uint64)
        shift = (addr - word) * 8
        cur = int(arr[lane])
        arr[lane] = ((cur & ~(0xFF << shift)) | (diff << shift)) & FULL
        if diff:
            self._dirty = True

    # -- retire scan ---------------------------------------------------
    def _scan(self):
        self._next_scan = self._eng.executed + RETIRE_EVERY
        nz = self._reg_nz
        if nz:
            idx = list(nz)
            sub = self._rd[idx]
            acc = np.bitwise_or.reduce(sub, axis=0)
            for index, alive in zip(idx, sub.any(axis=1)):
                if not alive:
                    nz.discard(index)
        else:
            acc = np.zeros(self._n, dtype=np.uint64)
        md = self._mem_diff
        for word in list(md):
            arr = md[word]
            if np.count_nonzero(arr):
                acc |= arr
            else:
                del md[word]
        self._dirty = bool(np.count_nonzero(acc))
        full = acc
        if self._out_diff:
            full = acc.copy()
            for arr in self._out_diff.values():
                full |= arr
        quiet = full | self._exit_diff == 0
        fired, evicted, retired = self._fired, self._evicted, self._retired
        for lane in range(self._n):
            if fired[lane] and not evicted[lane] and not retired[lane] \
                    and quiet[lane]:
                retired[lane] = True
                self.early_retires += 1

    # -- per-lane result collection ------------------------------------
    def _collect_lane(self, lane):
        eng = self._eng
        if eng.kernel_mode_kind == "host":
            out = bytearray(eng._host_output)
            for pos, arr in self._out_diff.items():
                v = int(arr[lane])
                if v and pos < len(out):
                    out[pos] ^= v
            output = bytes(out)
            exit_code = eng.ms.exit_code ^ int(self._exit_diff[lane])
        else:
            out_len = self._lane_read_int(lane, layout.OUTPUT_LEN_ADDR, 4)
            out_len = min(out_len, layout.OUTPUT_LIMIT - layout.OUTPUT_BASE)
            output = self._lane_mem_read(lane, layout.OUTPUT_BASE, out_len)
            exit_code = self._lane_read_int(
                lane, layout.KERNEL_DATA_BASE + EXIT_CODE_OFFSET, 4)
        return FuncResult(status=RunStatus.COMPLETED, output=output,
                          exit_code=exit_code, instructions=eng.executed)

    # -- host kernel ---------------------------------------------------
    def _host_syscall_step(self):
        eng = self._eng
        regs = eng.regs
        number = regs[1]
        if self._dirty:
            rd = self._rd
            d1 = rd[1]
            if 1 in self._reg_nz and np.count_nonzero(d1):
                # different syscall number: semantics diverge
                self._evict_mask(d1 != 0)
            if number == SYS_WRITE:
                dio = rd[2] | rd[3]
                if np.count_nonzero(dio):
                    # different buffer or length: output stream diverges
                    self._evict_mask(dio != 0)
        before = len(eng._host_output)
        eng.ms.pc += 4
        eng._host_syscall()
        if not self._dirty:
            return
        if number == SYS_WRITE:
            appended = len(eng._host_output) - before
            if appended and self._mem_diff:
                buf = regs[2] & 0xFFFF_FFFF
                end = buf + appended
                for word, arr in self._mem_diff.items():
                    if word + 8 <= buf or word >= end \
                            or not np.count_nonzero(arr):
                        continue
                    for k in range(8):
                        a = word + k
                        if buf <= a < end:
                            bv = (arr >> np.uint64(8 * k)) \
                                & np.uint64(0xFF)
                            if np.count_nonzero(bv):
                                self._out_diff[before + (a - buf)] = \
                                    bv.copy()
        elif number == SYS_EXIT:
            d2 = self._rd[2]
            if np.count_nonzero(d2):
                self._exit_diff = (d2 & np.uint64(0xFFFF_FFFF)).copy()

    # -- vectorized instruction semantics ------------------------------
    def _lane_record(self, instr):
        """How a step runs *instr* while some lane diverges: ``(kind,
        fn, operand)``.

        ``fn`` is the op's :data:`repro.uarch.cpu.LANE_FORMS` function
        (``_sdiv``/``_srem`` for div/rem) and ``operand`` the uint64 an
        immediate op passes as ``b`` (None when ``b`` is rs2's value).
        """
        d = instr.d
        form = LANE_FORMS[self._xlen].get(instr.op)
        fn = form.fn if form is not None else None
        operand = None
        if d.cls == CLS_LOAD:
            kind = _LOAD
        elif d.cls == CLS_STORE:
            kind = _STORE
        elif d.cls == CLS_DIV:
            kind, fn = _DIV, _DIVIDE[instr.op]
        elif d.fmt == FMT_B:
            kind = _BRANCH
        elif d.fmt == FMT_RJ:
            kind = _JUMP_REG
        elif form is None or d.fmt == FMT_U:
            # j, jal, lui and sim-kernel syscall/eret/halt/detect read
            # no register: every lane computes what the leader does
            kind = _UNIFORM
        else:
            kind = _ALU
            if form.imm_mask is not None:
                operand = np.uint64(instr.imm & form.imm_mask & FULL)
        return kind, fn, operand

    def _exec_step(self, instr, handler, dest):
        """Execute *instr* (semantics *handler*, writing register
        *dest*, 0 for none) on the leader while some lane diverges."""
        record = self._lanes.get(instr.raw)
        if record is None:
            record = self._lanes[instr.raw] = self._lane_record(instr)
        kind, fn, operand = record
        if kind == _ALU:
            self._alu_step(instr, handler, fn, operand, dest)
        elif kind == _LOAD:
            self._load_step(instr, handler, dest)
        elif kind == _STORE:
            self._store_step(instr, handler)
        elif kind == _BRANCH:
            self._branch_step(instr, handler, fn)
        elif kind == _DIV:
            self._div_step(instr, handler, fn, dest)
        else:
            if kind == _JUMP_REG and instr.rs1 in self._reg_nz:
                diff = self._rd[instr.rs1]
                if np.count_nonzero(diff):
                    self._evict_mask(diff != 0)
            ms = self._eng.ms
            ms.pc = handler(instr, ms, self._eng._core)
            self._zero_row(dest)

    def _alu_step(self, instr, handler, fn, operand, dest):
        eng = self._eng
        ms = eng.ms
        nz = self._reg_nz
        rs1, rs2 = instr.rs1, instr.rs2
        if rs1 not in nz and (operand is not None or rs2 not in nz):
            ms.pc = handler(instr, ms, eng._core)
            self._zero_row(dest)
            return
        U = np.uint64
        regs, rd = eng.regs, self._rd
        a = U(regs[rs1]) ^ rd[rs1]
        b = U(regs[rs2]) ^ rd[rs2] if operand is None else operand
        ms.pc = handler(instr, ms, eng._core)
        if dest:
            self._assign(dest, fn(a, b))

    def _div_step(self, instr, handler, fn, dest):
        eng = self._eng
        ms = eng.ms
        nz = self._reg_nz
        rs1, rs2 = instr.rs1, instr.rs2
        U = np.uint64
        if rs1 not in nz and rs2 not in nz:
            ms.pc = handler(instr, ms, eng._core)
            self._zero_row(dest)
            return
        d1, d2 = self._rd[rs1], self._rd[rs2]
        a1 = U(eng.regs[rs1]) ^ d1
        a2 = U(eng.regs[rs2]) ^ d2
        if rs2 in nz:
            zero_div = a2 == 0  # leader's divisor is never 0 (golden)
            if np.count_nonzero(zero_div):
                self._evict_mask(zero_div)
        diverged = d1 | d2
        ms.pc = handler(instr, ms, eng._core)
        if not dest:
            return
        if not np.count_nonzero(diverged):
            self._zero_row(dest)
            return
        xlen = self._xlen
        mask = int(self._masku)
        leader = eng.regs[dest]
        row = np.zeros(self._n, dtype=np.uint64)
        for lane in np.nonzero(diverged)[0]:
            if self._evicted[int(lane)]:
                continue
            a = to_signed(int(a1[lane]), xlen)
            b = to_signed(int(a2[lane]), xlen)
            row[lane] = (fn(a, b) & mask) ^ leader
        self._set_row(dest, row)

    def _branch_step(self, instr, handler, fn):
        eng = self._eng
        ms = eng.ms
        nz = self._reg_nz
        rs1, rs2 = instr.rs1, instr.rs2
        if rs1 in nz or rs2 in nz:
            U = np.uint64
            regs, rd = eng.regs, self._rd
            a, b = regs[rs1], regs[rs2]
            split = fn(U(a) ^ rd[rs1], U(b) ^ rd[rs2]) != fn(a, b)
            if np.count_nonzero(split):
                self._evict_mask(split)
        ms.pc = handler(instr, ms, eng._core)

    def _load_step(self, instr, handler, dest):
        eng = self._eng
        ms = eng.ms
        nz = self._reg_nz
        rs1 = instr.rs1
        d = instr.d
        leader_addr = (eng.regs[rs1] + instr.imm) & ms.mask & ADDR_MASK
        if rs1 in nz:
            self._check_addr_split(rs1, instr.imm, leader_addr)
        ms.pc = handler(instr, ms, eng._core)
        if not dest:
            return
        gathered = self._mem_gather(leader_addr, d.mem_bytes)
        if gathered is None:
            self._zero_row(dest)
            return
        U = np.uint64
        raw = eng.memory.read_int(leader_addr, d.mem_bytes, False)
        lane_raw = U(raw) ^ gathered
        if d.mem_signed:
            sign = U(1) << U(8 * d.mem_bytes - 1)
            value = ((lane_raw ^ sign) - sign) & self._masku
        else:
            value = lane_raw
        self._assign(dest, value)

    def _store_step(self, instr, handler):
        eng = self._eng
        ms = eng.ms
        nz = self._reg_nz
        rs1, rs2 = instr.rs1, instr.rs2
        leader_addr = (eng.regs[rs1] + instr.imm) & ms.mask & ADDR_MASK
        if rs1 in nz:
            self._check_addr_split(rs1, instr.imm, leader_addr)
        ms.pc = handler(instr, ms, eng._core)
        self._mem_deposit(leader_addr, instr.d.mem_bytes, self._rd[rs2])

    def _check_addr_split(self, rs1, imm, leader_addr):
        """Evict lanes whose effective address differs from the leader."""
        eng = self._eng
        U = np.uint64
        v1 = U(eng.regs[rs1]) ^ self._rd[rs1]
        lane_addr = ((v1 + U(imm & FULL)) & self._masku) & U(ADDR_MASK)
        split = lane_addr != U(leader_addr)
        if np.count_nonzero(split):
            self._evict_mask(split)

    # -- row bookkeeping -----------------------------------------------
    def _assign(self, rd, values):
        """Set a destination row from per-lane result *values*."""
        self._set_row(rd, values ^ np.uint64(self._eng.regs[rd]))

    def _set_row(self, rd, row):
        self._rd[rd] = row
        if np.count_nonzero(row):
            self._reg_nz.add(rd)
            self._dirty = True
        else:
            self._reg_nz.discard(rd)

    def _zero_row(self, rd):
        # A write the leader and every live lane perform identically
        # clears any prior divergence of that register.
        if rd and rd in self._reg_nz:
            self._rd[rd] = 0
            self._reg_nz.discard(rd)
