"""Data-carrying cache models (L1I, L1D, unified L2).

The caches hold *real bytes*, not just tags: this is what lets a
single-bit fault injected into a cache line behave exactly like the
paper describes — it can be

* masked (line invalid, line overwritten, clean line evicted),
* consumed by a load or an instruction fetch (WD / WI / WOI crossing),
* written back to the next level and consumed much later, or
* drained by the DMA engine at program end without ever re-entering
  the pipeline (the ESC fault propagation model).

Organisation: set-associative, write-back, write-allocate, LRU.
Latency accounting is returned to the caller (the timing engine) per
access.

Taint: each line may carry a set of corrupted byte offsets.  Stores
clear taint on the bytes they overwrite; fills and writebacks move
taint between levels and into main memory; loads and fetches report
taint overlap to the :class:`TaintProbe` so the HVF machinery can
record the architectural-crossing moment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .memory import ADDR_MASK, Memory


@dataclass
class TaintProbe:
    """Records corruption flow for HVF/FPM analysis.

    A campaign installs one probe per injection run.  ``mem_taint``
    holds absolute byte addresses whose *main memory* copy is corrupt.
    """

    #: absolute addresses of corrupted bytes in main memory
    mem_taint: set = field(default_factory=set)
    #: whether any corrupted state still exists anywhere
    any_taint: bool = False

    def note_mem_taint(self, addrs) -> None:
        self.mem_taint.update(addrs)
        if self.mem_taint:
            self.any_taint = True

    def clear_mem_taint(self, addr: int, nbytes: int) -> None:
        if self.mem_taint:
            for a in range(addr, addr + nbytes):
                self.mem_taint.discard(a)


class Line:
    """One cache line."""

    __slots__ = ("tag", "valid", "dirty", "data", "lru", "taint")

    def __init__(self, line_size: int) -> None:
        self.tag = -1
        self.valid = False
        self.dirty = False
        self.data = bytearray(line_size)
        self.lru = 0
        #: byte offsets (within the line) whose content is corrupted
        #: relative to the fault-free execution; None when clean.
        self.taint: set | None = None


class Cache:
    """A set-associative write-back cache level."""

    def __init__(self, name: str, size: int, assoc: int, line_size: int,
                 hit_latency: int, parent: "Cache | MemoryPort") -> None:
        if size <= 0 or assoc <= 0 or line_size <= 0:
            raise ValueError(f"{name}: size, assoc and line size must be "
                             f"positive, got {size}, {assoc}, {line_size}")
        if line_size & (line_size - 1):
            # line bases are computed by masking (the fetch path's
            # ``addr & ~(line_size - 1)``)
            raise ValueError(f"{name}: line size {line_size} is not a "
                             f"power of two")
        if size % (assoc * line_size):
            raise ValueError(f"{name}: size {size} not divisible by "
                             f"assoc*line_size")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.hit_latency = hit_latency
        self.parent = parent
        self.n_sets = size // (assoc * line_size)
        # Ways are allocated lazily: a 2 MiB L2 is 32k lines, and most
        # runs touch a few hundred.  A missing way is an invalid line.
        self.sets: list[list[Line]] = [[] for _ in range(self.n_sets)]
        self._tick = 0
        # statistics
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.valid_lines = 0

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    @property
    def n_lines(self) -> int:
        return self.n_sets * self.assoc

    @property
    def bits(self) -> int:
        """Total data-bit capacity (the fault-injection population)."""
        return self.n_lines * self.line_size * 8

    def _index_tag(self, addr: int) -> tuple[int, int]:
        line_addr = addr // self.line_size
        return line_addr % self.n_sets, line_addr // self.n_sets

    def line_base(self, index: int, tag: int) -> int:
        return (tag * self.n_sets + index) * self.line_size

    # ------------------------------------------------------------------
    # the access path
    # ------------------------------------------------------------------
    def _find(self, index: int, tag: int) -> Line | None:
        for line in self.sets[index]:
            if line.valid and line.tag == tag:
                return line
        return None

    def _victim(self, index: int) -> Line:
        ways = self.sets[index]
        for line in ways:
            if not line.valid:
                return line
        if len(ways) < self.assoc:
            line = Line(self.line_size)
            ways.append(line)
            return line
        return min(ways, key=lambda l: l.lru)

    def _fill(self, addr: int, probe: TaintProbe | None) -> tuple[Line, int]:
        """Bring the line containing *addr* into this level.

        Returns ``(line, extra_latency)`` where the latency is the cost
        paid below this level.
        """
        index, tag = self._index_tag(addr)
        victim = self._victim(index)
        extra = 0
        if victim.valid:
            self._evict(victim, index, probe)
        else:
            self.valid_lines += 1
        line_base = (addr // self.line_size) * self.line_size
        data, below = self.parent.read_line(line_base, self.line_size,
                                            probe)
        extra += below
        victim.tag = tag
        victim.valid = True
        victim.dirty = False
        victim.data[:] = data
        victim.taint = self.parent.taint_of(line_base, self.line_size,
                                            probe)
        self.misses += 1
        return victim, extra

    def _evict(self, line: Line, index: int, probe: TaintProbe | None) -> None:
        """Evict a valid line, writing back if dirty.

        A *clean* corrupted line dies silently here — one of the
        hardware masking channels.  A dirty corrupted line pushes its
        corruption down a level.
        """
        if line.dirty:
            base = self.line_base(index, line.tag)
            self.parent.write_line(base, bytes(line.data), line.taint,
                                   probe)
            self.writebacks += 1
        line.valid = False
        line.dirty = False
        line.taint = None
        line.tag = -1

    def read(self, addr: int, nbytes: int,
             probe: TaintProbe | None = None) -> tuple[bytes, int, bool]:
        """Read bytes; returns ``(data, latency, tainted)``.

        ``tainted`` is True when any returned byte is corrupted — the
        caller (pipeline) records the architectural crossing.
        """
        addr &= ADDR_MASK
        end = addr + nbytes
        out = bytearray()
        latency = 0
        tainted = False
        first = True
        while addr < end:
            line_base = (addr // self.line_size) * self.line_size
            chunk_end = min(end, line_base + self.line_size)
            index, tag = self._index_tag(addr)
            line = self._find(index, tag)
            if line is None:
                line, extra = self._fill(addr, probe)
                latency += extra
            else:
                self.hits += 1
            if first:
                latency += self.hit_latency
                first = False
            self._tick += 1
            line.lru = self._tick
            off = addr - line_base
            length = chunk_end - addr
            out.extend(line.data[off:off + length])
            if line.taint and any(off <= t < off + length
                                  for t in line.taint):
                tainted = True
            addr = chunk_end
        return bytes(out), latency, tainted

    def write(self, addr: int, data: bytes,
              probe: TaintProbe | None = None) -> int:
        """Write bytes (write-allocate); returns latency.

        Overwritten bytes lose their taint: new, architecturally
        produced data replaces the corrupted content.
        """
        addr &= ADDR_MASK
        pos = 0
        latency = 0
        first = True
        while pos < len(data):
            line_base = (addr // self.line_size) * self.line_size
            chunk = min(len(data) - pos, line_base + self.line_size - addr)
            index, tag = self._index_tag(addr)
            line = self._find(index, tag)
            if line is None:
                line, extra = self._fill(addr, probe)
                latency += extra
            else:
                self.hits += 1
            if first:
                latency += self.hit_latency
                first = False
            self._tick += 1
            line.lru = self._tick
            off = addr - line_base
            line.data[off:off + chunk] = data[pos:pos + chunk]
            if line.taint:
                line.taint -= set(range(off, off + chunk))
                if not line.taint:
                    line.taint = None
            line.dirty = True
            addr += chunk
            pos += chunk
        return latency

    # ------------------------------------------------------------------
    # downstream interface (called by the level above)
    # ------------------------------------------------------------------
    def read_line(self, base: int, length: int,
                  probe: TaintProbe | None) -> tuple[bytes, int]:
        data, latency, _ = self.read(base, length, probe)
        return data, latency

    def taint_of(self, base: int, length: int,
                 probe: TaintProbe | None) -> set | None:
        """Taint byte-offsets of the line at *base* as served by this
        level: its own copy's when it holds the line (None when clean),
        else the level below's."""
        index, tag = self._index_tag(base)
        line = self._find(index, tag)
        if line is not None:
            return set(line.taint) if line.taint else None
        return self.parent.taint_of(base, length, probe)

    def write_line(self, base: int, data: bytes, taint: set | None,
                   probe: TaintProbe | None) -> None:
        """Accept a writeback from the level above."""
        index, tag = self._index_tag(base)
        line = self._find(index, tag)
        if line is None:
            line, _ = self._fill(base, probe)
        line.data[:] = data
        line.dirty = True
        line.taint = set(taint) if taint else None
        self._tick += 1
        line.lru = self._tick

    # ------------------------------------------------------------------
    # coherent (non-destructive) lookup — used by the DMA engine
    # ------------------------------------------------------------------
    def snoop(self, addr: int, nbytes: int) -> bytes | None:
        """Return this level's copy of the bytes, or None if absent.

        Does not change replacement or statistics state — the DMA
        engine observes, it does not execute through the pipeline.
        The requested range must not straddle a line boundary (the
        hierarchy-level coherent reader splits requests per line).
        """
        line_base = (addr // self.line_size) * self.line_size
        if addr + nbytes > line_base + self.line_size:
            raise ValueError("snoop request straddles a cache line")
        index, tag = self._index_tag(addr)
        line = self._find(index, tag)
        if line is None:
            return None
        off = addr - line_base
        return bytes(line.data[off:off + nbytes])

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def flip_bit(self, set_index: int, way: int, bit: int) -> dict:
        """Flip one data bit of the addressed line.

        Returns a record describing what was hit; if the line is
        invalid the flip lands in dead state and is masked at the
        hardware layer.
        """
        ways = self.sets[set_index]
        if way >= len(ways):
            return {"live": False}  # never-allocated way: dead state
        line = ways[way]
        byte_off, bit_in_byte = divmod(bit, 8)
        if not line.valid:
            return {"live": False}
        line.data[byte_off] ^= 1 << bit_in_byte
        if line.taint is None:
            line.taint = set()
        if byte_off in line.taint:
            # flipping an already-tainted byte may restore it; keep the
            # conservative marking (still possibly wrong).
            pass
        line.taint.add(byte_off)
        return {
            "live": True,
            "dirty": line.dirty,
            "addr": self.line_base(set_index, line.tag) + byte_off,
            "byte_off": byte_off,
        }

    @property
    def tag_bits(self) -> int:
        """Width of one line's tag field (32-bit physical addresses)."""
        import math

        return 32 - int(math.log2(self.n_sets)) \
            - int(math.log2(self.line_size))

    def flip_tag_bit(self, set_index: int, way: int, bit: int) -> dict:
        """Flip one *tag* bit of the addressed line (extension model).

        A corrupted tag makes the line answer for a different address:
        lookups of the original address miss (a dirty line's data is
        silently lost), the aliased address can spuriously hit and
        read foreign data, and an eventual writeback lands at the
        *wrong* location — all of which emerge naturally from the
        data-carrying model.  The whole line is marked tainted since
        its content is wrong for the address it now claims.
        """
        ways = self.sets[set_index]
        if way >= len(ways):
            return {"live": False}
        line = ways[way]
        if not line.valid or not 0 <= bit < self.tag_bits:
            return {"live": False}
        line.tag ^= 1 << bit
        line.taint = set(range(self.line_size))
        return {"live": True, "dirty": line.dirty,
                "new_tag": line.tag}

    def occupancy(self) -> float:
        """Fraction of lines currently valid."""
        return self.valid_lines / self.n_lines if self.n_lines else 0.0

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "writebacks": self.writebacks,
                "valid_lines": self.valid_lines,
                "occupancy": self.occupancy()}


class MemoryPort:
    """Terminal level: main memory behind a fixed DRAM latency."""

    def __init__(self, memory: Memory, latency: int) -> None:
        self.memory = memory
        self.latency = latency

    def read_line(self, base: int, length: int,
                  probe: TaintProbe | None) -> tuple[bytes, int]:
        return self.memory.read(base, length), self.latency

    def taint_of(self, base: int, length: int,
                 probe: TaintProbe | None) -> set | None:
        if probe is None or not probe.mem_taint:
            return None
        overlap = {a - base for a in probe.mem_taint
                   if base <= a < base + length}
        return overlap or None

    def write_line(self, base: int, data: bytes, taint: set | None,
                   probe: TaintProbe | None) -> None:
        self.memory.write(base, data)
        if probe is not None:
            probe.clear_mem_taint(base, len(data))
            if taint:
                probe.note_mem_taint(base + off for off in taint)

    def snoop(self, addr: int, nbytes: int) -> bytes:
        return self.memory.read(addr, nbytes)
