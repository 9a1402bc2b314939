"""Load/store queue model.

Entries hold the *address* and *data* of in-flight memory operations
(allocated at dispatch, reclaimed at commit).  The LSQ is one of the
paper's five injection targets; each entry exposes a 32-bit address
field plus an XLEN-wide data field to the fault sampler.

Because the engine executes memory operations eagerly while computing
out-of-order timing, a fault landing in a still-in-flight entry is
applied *retroactively* through compensation:

* load/data   — the loaded value in the destination register is
  corrupted (if the register is still live);
* load/addr   — the load is replayed from the flipped address;
* store/data  — the stored byte is corrupted in place in the D-cache;
* store/addr  — the store is undone at the original address (old bytes
  were captured) and redone at the flipped address.

Entries whose operation has already committed are dead state: flips
there are hardware-masked, as on a real core.
"""

from __future__ import annotations


class LSQEntry:
    __slots__ = ("valid", "is_store", "addr", "data", "nbytes",
                 "old_data", "dest_phys", "alloc_cycle", "commit_cycle",
                 "in_kernel")

    def __init__(self) -> None:
        self.valid = False
        self.is_store = False
        self.addr = 0
        self.data = 0
        self.nbytes = 0
        self.old_data = b""
        self.dest_phys = -1
        self.alloc_cycle = 0.0
        self.commit_cycle = 0.0
        self.in_kernel = False


class LoadStoreQueue:
    """Circular queue of :class:`LSQEntry`.

    Entries are allocated in ring order, and commit cycles strictly
    increase in program order, so the entries in flight commit in the
    order they were allocated: the valid entries are always the
    ``valid_count`` slots just before ``_next``, oldest first.
    :meth:`reclaim` walks them from the oldest and stops at the first
    one that has not committed, which frees exactly the entries a scan
    of the whole queue would free.  The pipeline's run loop walks the
    same ring in line.
    """

    def __init__(self, size: int, xlen: int) -> None:
        if size <= 0:
            raise ValueError(f"LSQ size must be positive, got {size}")
        self.size = size
        self.xlen = xlen
        self.entries = [LSQEntry() for _ in range(size)]
        self._next = 0
        self.valid_count = 0

    @property
    def entry_bits(self) -> int:
        return 32 + self.xlen

    @property
    def bits(self) -> int:
        return self.size * self.entry_bits

    def reindex(self) -> None:
        """Check that entries set from outside (a restored checkpoint)
        keep the ring's order: the valid ones are the ``valid_count``
        slots before ``_next``, with increasing commit cycles."""
        inflight = [self.entries[self._next - k]
                    for k in range(self.valid_count, 0, -1)]
        commits = [e.commit_cycle for e in inflight]
        if sum(e.valid for e in self.entries) != self.valid_count \
                or not all(e.valid for e in inflight) \
                or commits != sorted(commits):
            raise ValueError("LSQ entries are not in ring order")

    def reclaim(self, now: float) -> None:
        """Invalidate entries whose operation has committed."""
        entries = self.entries
        count = self.valid_count
        while count:
            entry = entries[self._next - count]
            if entry.commit_cycle > now:
                break
            entry.valid = False
            count -= 1
        self.valid_count = count

    def reclaimable(self, now: float) -> int:
        """How many entries :meth:`reclaim` at *now* would invalidate."""
        entries = self.entries
        count = self.valid_count
        while count and entries[self._next - count].commit_cycle <= now:
            count -= 1
        return self.valid_count - count

    def allocate(self, now: float) -> tuple[LSQEntry, float]:
        """Allocate the next entry, stalling while the queue is full.

        Returns ``(entry, stall_until)``.  The caller sets the entry's
        ``commit_cycle`` before the next allocation or reclaim.
        """
        stall_until = now
        if self.valid_count >= self.size:
            # full: wait for the oldest in-flight op (the entry about
            # to be reused) to commit
            oldest = self.entries[self._next].commit_cycle
            if oldest > stall_until:
                stall_until = oldest
        self.reclaim(stall_until)
        entry = self.entries[self._next]
        self._next = (self._next + 1) % self.size
        entry.valid = True
        self.valid_count += 1
        return entry, stall_until

    def occupancy(self) -> float:
        return self.valid_count / self.size

    def flip_target(self, index: int, bit: int) -> tuple[LSQEntry, str, int]:
        """Resolve a (entry, field, field_bit) injection coordinate.

        ``bit`` indexes the concatenation [addr(32) | data(xlen)].
        """
        entry = self.entries[index]
        if bit < 32:
            return entry, "addr", bit
        return entry, "data", bit - 32
