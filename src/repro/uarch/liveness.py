"""Golden liveness oracle for cache data flips.

A flip in cache *data* changes nothing but values: until a corrupted
copy is read, by a load, an instruction fetch or the end-of-run DMA
drain, the faulty run makes every access, fill, eviction and
writeback the golden run makes, at the same cycles.  So whether the
flipped byte is ever consumed can be read off the golden run's own
cache events, without simulating the faulty run at all.

:class:`LivenessRecorder` collects those events during the fault-free
capture run that builds a checkpoint store (:mod:`repro.uarch.snapshot`);
:class:`LivenessOracle` keeps them as flat arrays sorted by line and
walks one line's events forward from the injection point with the
taint rules :mod:`repro.uarch.cache` applies:

* a fill copies the level below's taint up (an L1 takes the L2 copy's
  taint when the L2 holds the line, else main memory's);
* a writeback replaces the level below's taint with the writer's;
* a store clears the taint of the bytes it writes;
* a clean eviction drops the copy, a dirty one writes it back first;
* a load of a tainted byte, a fetch from a tainted L1I line (line
  granularity) or a drain of a tainted byte consumes the corruption.

Taint over-approximates corruption, so a walk that ends with no
tainted copy left, or with the program's end, before any consumption
proves the run Masked with the golden run's cycles and output and no
architectural crossing.

Events are keyed by the *L1 access clock*, the sum of the L1I and L1D
``_tick`` counters: every L1 access advances it, every checkpoint
restores it, and at the injection point it equals the golden value, so
one bisection finds the first event after the flip.  Every event of
one top-level L1 access carries the clock at that access's start.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .memory import ADDR_MASK

#: event kinds
(LOAD, STORE, FETCH, FILL_L1D, FILL_L1I, FILL_L2, DROP_L1D, DROP_L1I,
 DROP_L2, WB_L2, WB_MEM, DRAIN, OPAQUE) = range(13)

_CLEAN: frozenset = frozenset()


@dataclass
class LivenessOracle:
    """One capture run's cache events, sorted by line base, then in the
    order they happened.  ``lo``/``hi`` bound the bytes a load, store or
    drain touches (offsets within the line)."""

    line_size: int
    lines: array          # "q": line base of each event
    clocks: array         # "q": L1 access clock of each event
    kinds: bytes
    los: array            # "H"
    his: array            # "H"

    def never_read(self, engine, structure: str,
                   addr: "int | None") -> bool:
        """Whether the golden run never consumes the data flip that
        landed on *addr* in *structure* (``"L1I"``/``"L1D"``/``"L2"``)
        of *engine*, which is at the injection point: True proves the
        run Masked.  *addr* None means the flip hit dead state."""
        if addr is None:
            return True
        cache = {"L1I": engine.l1i, "L1D": engine.l1d,
                 "L2": engine.l2}[structure]
        size = self.line_size
        base = addr - addr % size
        flipped = cache._find(*cache._index_tag(base))
        if structure == "L1I" and flipped is engine._fetch_line:
            return False   # the fetch in flight reads this line next
        # each level's tainted byte offsets, never mutated in place
        taint = frozenset(flipped.taint)
        t1d = taint if structure == "L1D" else _CLEAN
        t1i = taint if structure == "L1I" else _CLEAN
        t2 = taint if structure == "L2" else _CLEAN
        tm = _CLEAN
        in_l1d = engine.l1d._find(*engine.l1d._index_tag(base)) \
            is not None
        in_l2 = engine.l2._find(*engine.l2._index_tag(base)) is not None
        lines = self.lines
        first = bisect_left(lines, base)
        end = bisect_right(lines, base, first)
        clock = engine.l1i._tick + engine.l1d._tick
        kinds, los, his = self.kinds, self.los, self.his
        for k in range(bisect_left(self.clocks, clock, first, end), end):
            kind = kinds[k]
            if kind == LOAD:
                if t1d and any(los[k] <= t < his[k] for t in t1d):
                    return False
                continue
            if kind == FETCH:
                if t1i:
                    return False
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
            elif kind == FILL_L2:
                t2 = tm
                in_l2 = True
            elif kind == DROP_L1D:
                t1d = _CLEAN
                in_l1d = False
            elif kind == DROP_L1I:
                t1i = _CLEAN
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
                    return False
                continue
            else:   # OPAQUE: an access this walk does not model
                return False
            if not (t1d or t1i or t2 or tm):
                return True
        return True


class LivenessRecorder:
    """Records a capture engine's cache events by wrapping the methods
    of its caches, its memory port and its drain on the instances, so
    the engine class, and every injection run, stays untouched."""

    def __init__(self, engine) -> None:
        self.line_size = size = engine.l1d.line_size
        self.events: list = []
        self.clock = 0
        #: set by a store that missed the one-lookup path: the L1D read
        #: that follows fetches the old bytes, it is not a load
        self.store_miss = False
        l1i, l1d, l2 = engine.l1i, engine.l1d, engine.l2
        append = self.events.append
        offset = size - 1

        def spans(addr: int, nbytes: int) -> bool:
            return (addr & offset) + nbytes > size

        def opaque(addr: int, nbytes: int, clock: int) -> None:
            end = addr + nbytes
            while addr < end:
                append((addr - (addr & offset), clock, OPAQUE, 0, 0))
                addr += size - (addr & offset)

        read_hit, store_hit = l1d.read_hit, l1d.store_hit
        l1d_read, l1d_write, l1i_read = l1d.read, l1d.write, l1i.read

        # the one-lookup hits nest no events, so they leave self.clock
        def wrapped_read_hit(addr, nbytes):
            clock = l1i._tick + l1d._tick
            hit = read_hit(addr, nbytes)
            if hit is not None:
                addr &= ADDR_MASK
                off = addr & offset
                append((addr - off, clock, LOAD, off, off + nbytes))
            return hit

        def wrapped_store_hit(addr, data):
            clock = l1i._tick + l1d._tick
            old = store_hit(addr, data)
            if old is None:
                self.store_miss = True
            else:
                addr &= ADDR_MASK
                off = addr & offset
                append((addr - off, clock, STORE, off, off + len(data)))
            return old

        def wrapped_read(addr, nbytes, probe=None):
            self.clock = clock = l1i._tick + l1d._tick
            addr &= ADDR_MASK
            old_bytes, self.store_miss = self.store_miss, False
            if spans(addr, nbytes):
                opaque(addr, nbytes, clock)
                return l1d_read(addr, nbytes, probe)
            out = l1d_read(addr, nbytes, probe)
            if not old_bytes:
                off = addr & offset
                append((addr - off, clock, LOAD, off, off + nbytes))
            return out

        def wrapped_write(addr, data, probe=None):
            self.clock = clock = l1i._tick + l1d._tick
            addr &= ADDR_MASK
            if spans(addr, len(data)):
                opaque(addr, len(data), clock)
                return l1d_write(addr, data, probe)
            latency = l1d_write(addr, data, probe)
            off = addr & offset
            append((addr - off, clock, STORE, off, off + len(data)))
            return latency

        def wrapped_fetch(addr, nbytes, probe=None):
            self.clock = clock = l1i._tick + l1d._tick
            addr &= ADDR_MASK
            if spans(addr, nbytes):
                opaque(addr, nbytes, clock)
                return l1i_read(addr, nbytes, probe)
            out = l1i_read(addr, nbytes, probe)
            append((addr - (addr & offset), clock, FETCH, 0, 0))
            return out

        #: ``(object, attribute)`` of every wrapper installed
        self.installed: list = []
        self._install(l1d, read_hit=wrapped_read_hit,
                      store_hit=wrapped_store_hit, read=wrapped_read,
                      write=wrapped_write)
        self._install(l1i, read=wrapped_fetch)
        for cache, fill, drop in ((l1d, FILL_L1D, DROP_L1D),
                                  (l1i, FILL_L1I, DROP_L1I),
                                  (l2, FILL_L2, DROP_L2)):
            self._wrap_fill_evict(cache, fill, drop)

        l2_write_line = l2.write_line
        mem_write_line = engine.memport.write_line

        def wrapped_l2_write_line(base, data, taint, probe):
            l2_write_line(base, data, taint, probe)
            append((base, self.clock, WB_L2, 0, 0))

        def wrapped_mem_write_line(base, data, taint, probe):
            mem_write_line(base, data, taint, probe)
            append((base, self.clock, WB_MEM, 0, 0))

        self._install(l2, write_line=wrapped_l2_write_line)
        self._install(engine.memport, write_line=wrapped_mem_write_line)

        coherent_read = engine.coherent_read

        def wrapped_coherent_read(addr, nbytes):
            clock = l1i._tick + l1d._tick
            at, left = addr, nbytes
            while left:
                off = at & offset
                seg = min(left, size - off)
                append((at - off, clock, DRAIN, off, off + seg))
                at += seg
                left -= seg
            return coherent_read(addr, nbytes)

        self._install(engine, coherent_read=wrapped_coherent_read)

    def _install(self, obj, **wrappers) -> None:
        for name, wrapper in wrappers.items():
            setattr(obj, name, wrapper)
            self.installed.append((obj, name))

    def _wrap_fill_evict(self, cache, fill_kind: int,
                         drop_kind: int) -> None:
        fill, evict = cache._fill, cache._evict
        append = self.events.append
        offset = self.line_size - 1

        def wrapped_fill(addr, probe):
            out = fill(addr, probe)
            append((addr - (addr & offset), self.clock, fill_kind, 0, 0))
            return out

        def wrapped_evict(line, index, probe):
            base = cache.line_base(index, line.tag)
            evict(line, index, probe)
            append((base, self.clock, drop_kind, 0, 0))

        self._install(cache, _fill=wrapped_fill, _evict=wrapped_evict)

    def finish(self) -> LivenessOracle:
        """Uninstall the wrappers (they close over the engine, so they
        would keep it alive until a cyclic collection) and return the
        recorded events, sorted by line (stably, so each line's events
        stay in the order they happened)."""
        for obj, name in self.installed:
            delattr(obj, name)
        self.installed.clear()
        lines, clocks, kinds, los, his = list(zip(
            *sorted(self.events, key=itemgetter(0)))) or [()] * 5
        return LivenessOracle(
            line_size=self.line_size, lines=array("q", lines),
            clocks=array("q", clocks), kinds=bytes(kinds),
            los=array("H", los), his=array("H", his))


def record_liveness(engine) -> "LivenessRecorder | None":
    """Install a recorder on a capture *engine* before it runs; None
    when its cache levels differ in line size (a walk follows one line
    through every level)."""
    sizes = {engine.l1i.line_size, engine.l1d.line_size,
             engine.l2.line_size}
    if len(sizes) != 1:
        return None
    return LivenessRecorder(engine)
