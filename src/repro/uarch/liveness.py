"""Golden liveness oracle for cache data flips.

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
