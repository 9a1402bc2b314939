"""Golden liveness oracle for cache data flips and register flips.

A flip in cache *data* changes nothing but values: until a corrupted
copy is read, by a load, an instruction fetch or the end-of-run DMA
drain, the faulty run makes every access, fill, eviction and
writeback the golden run makes, at the same cycles.  So when the
flipped byte is first consumed, if ever, can be read off the golden
run's own cache events, without simulating the faulty run at all.

:class:`LivenessRecorder` collects those events during the fault-free
capture run that builds a checkpoint store (:mod:`repro.uarch.snapshot`),
together with the pc of every instruction of that run: each load and
store from the run's observer step, which sees the instruction's
``pending_mem``, and fills, evictions, writebacks and the drain from
wrappers of the out-of-line methods that make them, so the capture runs
the L1 code every injection run does;
:class:`LivenessOracle` keeps them as flat arrays sorted by line and
walks one line's events forward from the injection point with the
taint rules :mod:`repro.uarch.cache` applies:

* a fill copies the level below's taint up (an L1 takes the L2 copy's
  taint when the L2 holds the line, else main memory's);
* a writeback replaces the level below's taint with the writer's;
* a store clears the taint of the bytes it writes;
* a clean eviction drops the copy, a dirty one writes it back first;
* a load of a tainted byte, the fetch of a tainted instruction word
  while its L1I copy is resident (word granularity, from the pc
  record) or a drain of a tainted byte consumes the corruption.

Taint over-approximates corruption, so a walk that ends with no
tainted copy left, or with the program's end, before any consumption
proves the run Masked with the golden run's cycles and output and no
architectural crossing.  A walk that finds a consumer also tells which
copies are still corrupted at any earlier point: the fast path jumps
the faulty run to the last golden checkpoint before the read and
re-plants those copies there.

Events are keyed by their *step*, the index of the golden instruction
whose fetch or memory access made them (the drain's is the run's
instruction count).  A fault lands at the top of the run loop, before
its step's fetch, so one bisection finds the first event after the
flip, and a checkpoint taken at instruction count *n* has seen exactly
the events of steps below *n*.

A register flip likewise changes one value: the faulty run follows
the golden run until an instruction reads the flipped register.
:class:`RegisterLiveness` gives each golden step's source and
destination registers, from the pc record and the run records of the
golden code, so the first read is a ``bytes.find``; and it tells when
every use of the value is a copy (stored, and loaded back only into
registers that are themselves only copied) that dies unread, as a
trap frame's save and restore does.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .memory import ADDR_MASK

#: event kinds
(LOAD, STORE, FILL_L1D, FILL_L1I, FILL_L2, DROP_L1D, DROP_L1I, DROP_L2,
 WB_L2, WB_MEM, DRAIN, OPAQUE) = range(12)

#: the copies of one line, in :meth:`LivenessOracle.walk`'s result
COPIES = ("L1D", "L1I", "L2", "memory")

_CLEAN: frozenset = frozenset()


@dataclass
class LivenessOracle:
    """One capture run's cache events, sorted by line base, then in the
    order they happened.  ``lo``/``hi`` bound the bytes a load, store or
    drain touches (offsets within the line).  ``pcs`` holds the pc of
    every instruction of the run, as native ``"I"`` array bytes."""

    line_size: int
    lines: array          # "q": line base of each event
    steps: array          # "I": step of each event
    kinds: bytes
    los: array            # "H"
    his: array            # "H"
    pcs: bytes

    def first_read(self, engine, structure: str,
                   addr: int) -> "int | None":
        """The step of the first golden access that consumes the data
        flip that landed on *addr* in *structure* (``"L1I"``/``"L1D"``/
        ``"L2"``) of *engine*, which is at the injection point; None
        proves the run Masked."""
        return self.walk(engine, structure, addr)[0]

    def walk(self, engine, structure: str, addr: int,
             stop: "int | None" = None) -> tuple:
        """``(first read, copies)``: :meth:`first_read`'s step and, for
        a *stop* no later than the read, the tainted byte offsets of
        each copy at the top of step *stop* (keyed by :data:`COPIES`,
        clean copies left out; None without a *stop*)."""
        cache = {"L1I": engine.l1i, "L1D": engine.l1d,
                 "L2": engine.l2}[structure]
        size = self.line_size
        base = addr - addr % size
        flipped = cache._find(*cache._index_tag(base))
        # each level's tainted byte offsets, never mutated in place
        taint = frozenset(flipped.taint)
        t1d = taint if structure == "L1D" else _CLEAN
        t1i = taint if structure == "L1I" else _CLEAN
        t2 = taint if structure == "L2" else _CLEAN
        tm = _CLEAN
        in_l1d = engine.l1d._find(*engine.l1d._index_tag(base)) \
            is not None
        in_l2 = engine.l2._find(*engine.l2._index_tag(base)) is not None
        start = engine.instructions
        # the step whose fetch reads a tainted word of the L1I copy
        fetch = self._first_fetch(base, t1i, start) if t1i else None
        read = copies = None
        lines, steps = self.lines, self.steps
        first = bisect_left(lines, base)
        end = bisect_right(lines, base, first)
        kinds, los, his = self.kinds, self.los, self.his
        for k in range(bisect_left(steps, start, first, end), end):
            step = steps[k]
            if fetch is not None and fetch <= step:
                # a step fetches before its data access, and no L1I
                # event of this line shares the step of its fetch
                read = fetch
                break
            if copies is None and stop is not None and step >= stop:
                copies = _copies(t1d, t1i, t2, tm)
            kind = kinds[k]
            if kind == LOAD:
                if t1d and any(los[k] <= t < his[k] for t in t1d):
                    read = step
                    break
                continue
            if kind == STORE:
                if not t1d:
                    continue
                t1d = t1d.difference(range(los[k], his[k]))
            elif kind == FILL_L1D:
                t1d = t2 if in_l2 else tm
                in_l1d = True
            elif kind == FILL_L1I:
                t1i = t2 if in_l2 else tm
                if t1i:
                    fetch = self._first_fetch(base, t1i, step)
            elif kind == FILL_L2:
                t2 = tm
                in_l2 = True
            elif kind == DROP_L1D:
                t1d = _CLEAN
                in_l1d = False
            elif kind == DROP_L1I:
                t1i = _CLEAN
                fetch = None
            elif kind == DROP_L2:
                t2 = _CLEAN
                in_l2 = False
            elif kind == WB_L2:
                t2 = t1d
            elif kind == WB_MEM:
                tm = t2
            elif kind == DRAIN:
                # the drain reads L1D, then L2, then memory
                source = t1d if in_l1d else t2 if in_l2 else tm
                if any(los[k] <= t < his[k] for t in source):
                    read = step
                    break
                continue
            else:   # OPAQUE: an access this walk does not model
                read = step
                break
            if not (t1d or t1i or t2 or tm):
                break
        else:
            read = fetch    # the line's events end before that fetch
        if copies is None and stop is not None:
            copies = _copies(t1d, t1i, t2, tm)
        return read, copies

    def _first_fetch(self, base: int, taint, start: int) -> "int | None":
        """The first step from *start* on that fetches a word of the
        line at *base* holding one of the *taint* byte offsets."""
        pcs = self.pcs
        found = None
        for word in {t & ~3 for t in taint}:
            needle = array("I", (base + word,)).tobytes()
            at = pcs.find(needle, 4 * start)
            while at > 0 and at & 3:     # a match across two pcs
                at = pcs.find(needle, at + 1)
            if at >= 0 and (found is None or at < found):
                found = at
        return None if found is None else found >> 2


def first_reg_read(rs1s: bytes, rs2s: bytes, dests: bytes, reg: int,
                   step: int) -> "int | None":
    """The first step from *step* on that reads register *reg*, given
    each step's source registers *rs1s*/*rs2s* and destination *dests*
    (one byte per step, 0: none); None when a step writes *reg* first,
    or none reads it again.  A step that reads and writes it reads it;
    r0 is never read."""
    if not reg:
        return None
    needle = bytes((reg,))
    found = [at for at in (rs1s.find(needle, step),
                           rs2s.find(needle, step)) if at >= 0]
    if not found:
        return None
    read = min(found)
    write = dests.find(needle, step)
    return None if 0 <= write < read else read


#: the registers and stored byte ranges one copy walk follows at most
#: (:meth:`RegisterLiveness.only_copied`); past it the walk gives up
COPY_WALK_LIMIT = 64


@dataclass
class RegisterLiveness:
    """When the golden pipeline run reads and writes each architectural
    register, keyed by step: the record the fast path decides register
    flips from.

    ``rs1s``/``rs2s``/``dests`` hold each step's source and destination
    registers (0: none), one byte per step, from the run record of the
    word at the step's pc in the oracle's pc record.  The run loop reads
    a register only as an instruction's rs1 or rs2 (a handler reads its
    sources from the loop's ``src_vals``) and writes one only as its
    renamed dest.  ``steps`` holds ``oracle.steps`` as native ``"I"``
    array bytes, where ``bytes.find`` finds a step's events."""

    oracle: LivenessOracle
    rs1s: bytes
    rs2s: bytes
    dests: bytes
    steps: bytes

    def first_read(self, reg: int, step: int) -> "int | None":
        """The step of the golden run's first read of register *reg*
        from step *step* on (see :func:`first_reg_read`)."""
        return first_reg_read(self.rs1s, self.rs2s, self.dests, reg, step)

    def only_copied(self, reg: int, flipped: int, step: int) -> bool:
        """Whether the golden run, from the top of step *step* on, only
        copies register *reg*'s value, whose bytes *flipped* (a bit per
        byte) are corrupted, and every copy dies unread: the register
        is read only as a store's data, and each stored corrupted byte
        is, until a store overwrites it, read only by loads into
        registers that are themselves only copied.  A copy must never
        be an operand, a branch or handler source or an address, nor
        lie in a word fetched after it is stored, in bytes the
        end-of-run drain reads or in a line an ``OPAQUE`` access
        touches.  Then a run whose register held the corruption
        differs from the golden run only in values no later step
        reads, once the first read has been made.  False also when the
        walk outgrows :data:`COPY_WALK_LIMIT`."""
        oracle = self.oracle
        rs1s, rs2s, dests = self.rs1s, self.rs2s, self.dests
        lines, steps, kinds = oracle.lines, oracle.steps, oracle.kinds
        los, his = oracle.los, oracle.his
        regs = [(reg, flipped, step)]
        # (line base, corrupted offsets as a bit per byte, store step)
        stored: list = []
        budget = COPY_WALK_LIMIT
        while regs or stored:
            budget -= 1
            if budget < 0:
                return False
            if regs:
                reg, flipped, step = regs.pop()
                needle = bytes((reg,))
                write = dests.find(needle, step)
                # the writing step's own sources are read first
                end = write + 1 if write >= 0 else len(dests)
                if rs1s.find(needle, step, end) >= 0:
                    return False    # an operand or an address
                at = rs2s.find(needle, step, end)
                while at >= 0:
                    store = self._store_at(at)
                    if store is None:
                        return False    # not a store's data
                    base, lo, hi = store
                    offsets = (flipped & ((1 << (hi - lo)) - 1)) << lo
                    if offsets:
                        stored.append((base, offsets, at))
                    at = rs2s.find(needle, at + 1, end)
                continue
            base, offsets, step = stored.pop()
            if oracle._first_fetch(base, _offsets(offsets),
                                   step + 1) is not None:
                return False
            first = bisect_left(lines, base)
            end = bisect_right(lines, base, first)
            for k in range(bisect_right(steps, step, first, end), end):
                kind = kinds[k]
                if kind == OPAQUE:
                    return False
                if kind != LOAD and kind != STORE and kind != DRAIN:
                    continue    # a fill, drop or writeback moves values
                lo, hi = los[k], his[k]
                hit = offsets & ((1 << hi) - (1 << lo))
                if not hit:
                    continue
                if kind == DRAIN:
                    return False
                if kind == STORE:
                    offsets ^= hit
                    if not offsets:
                        break
                    continue
                dest = dests[steps[k]]
                if dest:
                    n = hi - lo
                    loaded = hit >> lo
                    if loaded >> (n - 1):
                        # the sign bit's byte: any upper byte may differ
                        loaded |= 0xFF ^ ((1 << n) - 1)
                    regs.append((dest, loaded, steps[k] + 1))
        return True

    def _store_at(self, step: int) -> "tuple | None":
        """``(line base, lo, hi)`` of the store step *step* makes inside
        one line, else None."""
        oracle = self.oracle
        kinds, steps = oracle.kinds, self.steps
        needle = array("I", (step,)).tobytes()
        at = steps.find(needle)
        while at >= 0:
            if not at & 3:
                k = at >> 2
                kind = kinds[k]
                if kind == STORE:
                    return oracle.lines[k], oracle.los[k], oracle.his[k]
                if kind == LOAD or kind == OPAQUE:
                    return None
            at = steps.find(needle, at + 1)
        return None


def _offsets(bits: int) -> list:
    """The byte offsets a bit-per-byte mask sets."""
    return [off for off in range(bits.bit_length()) if bits >> off & 1]


def register_liveness(oracle: LivenessOracle,
                      code_records: dict) -> "RegisterLiveness | None":
    """The :class:`RegisterLiveness` of *oracle*'s golden run, whose code
    lines have the run records *code_records* (see
    :func:`repro.uarch.pipeline.code_records`); None when a pc has no
    record, or the golden run stores into a code line, so the records
    may not be the words it ran."""
    size = oracle.line_size
    lines, kinds = oracle.lines, oracle.kinds
    for base in code_records:
        first = bisect_left(lines, base)
        end = bisect_right(lines, base, first)
        if any(kinds[k] in (STORE, OPAQUE) for k in range(first, end)):
            return None
    pcs = memoryview(oracle.pcs).cast("I")
    operands = {}
    for pc in set(pcs):
        entry = code_records.get(pc - pc % size)
        record = entry[1][pc % size] if entry is not None else None
        if record is None:
            return None
        operands[pc] = bytes(record[3:6])
    # one step at a time: a join would hold a reference per step
    packed = bytearray()
    extend = packed.extend
    for pc in pcs:
        extend(operands[pc])
    return RegisterLiveness(
        oracle=oracle, rs1s=bytes(packed[0::3]),
        rs2s=bytes(packed[1::3]), dests=bytes(packed[2::3]),
        steps=oracle.steps.tobytes())


def _copies(t1d, t1i, t2, tm) -> dict:
    return {name: taint for name, taint in zip(COPIES, (t1d, t1i, t2, tm))
            if taint}


class LivenessRecorder:
    """Records a capture engine's cache events.  It is an observer of
    the run: its :meth:`step`, after every instruction, records that
    instruction's load or store from ``engine.pending_mem`` and the pc
    of the next one, which numbers the events' steps.  The events the
    loop's accesses make out of line (fills and evictions, writebacks
    to the L2 and memory, the drain) come from wrappers of those
    methods on the instances, so the engine class, and the L1 path
    every run takes, stays untouched."""

    def __init__(self, engine) -> None:
        self.line_size = size = engine.l1d.line_size
        offset = size - 1
        self.events: list = []
        self._append = append = self.events.append
        #: the pc of every instruction so far and of the next one, so
        #: the step in progress is ``len(pcs) - 1``
        self.pcs = pcs = array("I", (engine.ms.pc & ADDR_MASK,))
        self._append_pc = pcs.append
        l2 = engine.l2
        #: ``(object, attribute)`` of every wrapper installed
        self.installed: list = []
        for cache, fill, drop in ((engine.l1d, FILL_L1D, DROP_L1D),
                                  (engine.l1i, FILL_L1I, DROP_L1I),
                                  (l2, FILL_L2, DROP_L2)):
            self._wrap_fill_evict(cache, fill, drop)

        l2_write_line = l2.write_line
        mem_write_line = engine.memport.write_line

        def wrapped_l2_write_line(base, data, taint, probe):
            l2_write_line(base, data, taint, probe)
            append((base, len(pcs) - 1, WB_L2, 0, 0))

        def wrapped_mem_write_line(base, data, taint, probe):
            mem_write_line(base, data, taint, probe)
            append((base, len(pcs) - 1, WB_MEM, 0, 0))

        self._install(l2, write_line=wrapped_l2_write_line)
        self._install(engine.memport, write_line=wrapped_mem_write_line)

        coherent_read = engine.coherent_read

        def wrapped_coherent_read(addr, nbytes):
            step = len(pcs) - 1
            at, left = addr, nbytes
            while left:
                off = at & offset
                seg = min(left, size - off)
                append((at - off, step, DRAIN, off, off + seg))
                at += seg
                left -= seg
            return coherent_read(addr, nbytes)

        self._install(engine, coherent_read=wrapped_coherent_read)

    def step(self, engine) -> None:
        """Observer step, after every instruction: its load or store,
        after the fills and evictions that access made, then the next
        pc.  An access inside one line is a ``LOAD``/``STORE`` of its
        bytes; a line-crossing one is an ``OPAQUE`` event per line."""
        mem = engine.pending_mem
        if mem is not None:
            size = self.line_size
            addr, nbytes = mem[1], mem[2]
            off = addr & (size - 1)
            step = len(self.pcs) - 1
            if off + nbytes <= size:
                self._append((addr - off, step,
                              STORE if mem[0] == "store" else LOAD, off,
                              off + nbytes))
            else:
                end = addr + nbytes
                while addr < end:
                    off = addr & (size - 1)
                    self._append((addr - off, step, OPAQUE, 0, 0))
                    addr += size - off
        self._append_pc(engine.ms.pc & ADDR_MASK)

    def _install(self, obj, **wrappers) -> None:
        for name, wrapper in wrappers.items():
            setattr(obj, name, wrapper)
            self.installed.append((obj, name))

    def _wrap_fill_evict(self, cache, fill_kind: int,
                         drop_kind: int) -> None:
        fill, evict = cache._fill, cache._evict
        append = self._append
        offset = self.line_size - 1
        pcs = self.pcs

        def wrapped_fill(addr, probe):
            out = fill(addr, probe)
            append((addr - (addr & offset), len(pcs) - 1, fill_kind, 0,
                    0))
            return out

        def wrapped_evict(line, index, probe):
            base = cache.line_base(index, line.tag)
            evict(line, index, probe)
            append((base, len(pcs) - 1, drop_kind, 0, 0))

        self._install(cache, _fill=wrapped_fill, _evict=wrapped_evict)

    def finish(self) -> LivenessOracle:
        """Uninstall the wrappers (they close over the engine, so they
        would keep it alive until a cyclic collection) and return the
        recorded events, sorted by line (stably, so each line's events
        stay in the order they happened), with the pc of every
        instruction the run executed."""
        for obj, name in self.installed:
            delattr(obj, name)
        self.installed.clear()
        lines, steps, kinds, los, his = list(zip(
            *sorted(self.events, key=itemgetter(0)))) or [()] * 5
        pcs = self.pcs
        return LivenessOracle(
            line_size=self.line_size, lines=array("q", lines),
            steps=array("I", steps), kinds=bytes(kinds),
            los=array("H", los), his=array("H", his),
            # the last pc is the one after the final instruction
            pcs=pcs[:-1].tobytes())


def record_liveness(engine) -> "LivenessRecorder | None":
    """Install a recorder on a capture *engine* before it runs; None
    when its cache levels differ in line size (a walk follows one line
    through every level)."""
    sizes = {engine.l1i.line_size, engine.l1d.line_size,
             engine.l2.line_size}
    if len(sizes) != 1:
        return None
    return LivenessRecorder(engine)
