"""Renamed physical register file.

The pipeline renames every architectural destination onto a physical
register drawn from a free list.  The previous mapping of the
destination stays *live* until the new writer commits (that is when a
real core reclaims it), which the model honours via a pending-free
queue keyed by commit cycle.

The free list and the pending frees are one ring (see
:class:`PhysRegFile`), walked in place by the pipeline's run loop.

This structure is one of the paper's five injection targets.  The
fault behaviour falls out of the actual state:

* a flip in a **free** register is dead state — hardware-masked;
* a flip in a **live** register corrupts the value; if the register is
  re-allocated or overwritten before any reader consumes it, the fault
  is again hardware-masked; a consuming read is the architectural
  crossing (FPM ``WD``).
"""

from __future__ import annotations

FREE = 0
LIVE = 1

#: the commit cycle of a ring slot that holds a free register; no
#: reclaim walk passes it
NEVER = float("inf")


def oldest_first(ring: list, start: int, count: int) -> list:
    """The *count* entries of *ring* from slot *start* on, wrapping: a
    ring's queue, oldest first.  The one reader of every ring's order
    (the register ring here, the ROB and IQ windows of
    :class:`repro.uarch.pipeline.PipelineEngine`)."""
    end = start + count
    if end <= len(ring):
        return ring[start:end]
    return ring[start:] + ring[:end - len(ring)]


class PhysRegFile:
    """Physical registers + rename map + free list.

    The registers not in the rename map circulate through one ring of
    ``n_phys - n_arch`` slots, ``ring``, with the commit cycle of each
    slot in ``ring_commits``.  From ``free_head`` on it holds the free
    list, oldest first, each slot at :data:`NEVER`; from
    ``pending_head`` on, the pending frees in allocation (= commit)
    order, each slot at the commit cycle of the writer that replaced
    it.  Allocation takes the register at ``free_head`` and leaves the
    old mapping in the same slot, now the newest pending free;
    reclamation sets the oldest pending slots to :data:`NEVER`, which
    makes them the newest free ones.  ``live_count`` counts the
    rename map's registers (all but the zero register's) plus the
    pending ones, which tells an all-free ring from an all-pending
    one.
    """

    def __init__(self, n_phys: int, n_arch: int, xlen: int) -> None:
        if n_phys < n_arch + 1:
            raise ValueError("need more physical than architectural regs")
        self.n_phys = n_phys
        self.n_arch = n_arch
        self.xlen = xlen
        self.mask = (1 << xlen) - 1
        self.values = [0] * n_phys
        self.state = [FREE] * n_phys
        # arch register i starts mapped to physical i.  The zero
        # register is architecturally hardwired: its physical slot is
        # permanently dead state (reads bypass it, writes are dropped,
        # and it never returns to the free list), so faults landing
        # there are masked — as on a real core.
        self.rename_map = list(range(n_arch))
        for p in range(1, n_arch):
            self.state[p] = LIVE
        self.ring = list(range(n_arch, n_phys))
        self.ring_commits = [NEVER] * len(self.ring)
        self.free_head = 0
        self.pending_head = 0
        #: physical registers holding corrupted values
        self.tainted: set[int] = set()
        # occupancy statistics
        self.live_count = n_arch - 1

    @property
    def bits(self) -> int:
        return self.n_phys * self.xlen

    # ------------------------------------------------------------------
    # the ring's queues, oldest first
    # ------------------------------------------------------------------
    def _pending_count(self) -> int:
        return self.live_count - (self.n_arch - 1)

    @property
    def free_list(self) -> list[int]:
        """The free registers, the next to be allocated first."""
        return oldest_first(self.ring, self.free_head,
                            len(self.ring) - self._pending_count())

    @property
    def pending_free(self) -> list[tuple[float, int]]:
        """``(commit_cycle_of_new_writer, phys_to_free)``, in commit
        order."""
        count = self._pending_count()
        return list(zip(
            oldest_first(self.ring_commits, self.pending_head, count),
            oldest_first(self.ring, self.pending_head, count)))

    def set_queues(self, free_list, pending_free) -> None:
        """Lay the ring out from a free list and pending frees (oldest
        first, as :attr:`free_list` and :attr:`pending_free` read).
        The caller keeps ``live_count`` counting the pending ones, as a
        restore from one capture does."""
        free = list(free_list)
        pending = list(pending_free)
        if len(free) + len(pending) != len(self.ring):
            raise ValueError("free and pending registers must fill the "
                             "ring")
        self.ring = free + [phys for _, phys in pending]
        self.ring_commits = ([NEVER] * len(free)
                             + [commit for commit, _ in pending])
        self.free_head = 0
        self.pending_head = len(free) % len(self.ring)

    # ------------------------------------------------------------------
    # rename machinery
    # ------------------------------------------------------------------
    def read(self, arch: int) -> tuple[int, int]:
        """Return ``(value, phys_index)`` of an architectural register."""
        p = self.rename_map[arch]
        return self.values[p], p

    def _reclaim(self, now: float) -> None:
        ring, commits = self.ring, self.ring_commits
        slot = self.pending_head
        for _ in range(self._pending_count()):
            if commits[slot] > now:
                break
            p = ring[slot]
            commits[slot] = NEVER
            self.state[p] = FREE
            self.tainted.discard(p)
            self.live_count -= 1
            slot = (slot + 1) % len(ring)
        self.pending_head = slot

    def reclaimable(self, now: float) -> int:
        """How many registers :meth:`_reclaim` at *now* would free."""
        commits = self.ring_commits
        slot = self.pending_head
        pending = self._pending_count()
        count = 0
        while count < pending and commits[slot] <= now:
            count += 1
            slot = (slot + 1) % len(commits)
        return count

    def allocate(self, arch: int, now: float,
                 writer_commit: float) -> tuple[int, float]:
        """Rename *arch* to a fresh physical register.

        Returns ``(phys, stall_until)``: if the free list was empty the
        allocation had to wait for the earliest pending reclamation and
        ``stall_until`` reflects that cycle (else it equals *now*).
        The old mapping is queued for reclamation at *writer_commit*.
        """
        stall_until = now
        slot = self.free_head
        oldest = self.ring_commits[slot]
        if now < oldest < NEVER:
            # no free register (the ring's oldest slot is pending) and
            # none committed by now: wait for the oldest to commit
            stall_until = oldest
        self._reclaim(stall_until)
        p = self.ring[slot]
        self.ring[slot] = self.rename_map[arch]
        self.ring_commits[slot] = writer_commit
        self.free_head = (slot + 1) % len(self.ring)
        self.rename_map[arch] = p
        self.state[p] = LIVE
        self.tainted.discard(p)
        self.live_count += 1
        return p, stall_until

    def write(self, phys: int, value: int) -> None:
        self.values[phys] = value & self.mask
        # A newly produced value replaces any corruption in this slot.
        self.tainted.discard(phys)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def flip_bit(self, phys: int, bit: int) -> dict:
        """Flip one bit of a physical register.

        Dead (free) registers absorb the flip with no effect —
        hardware masking by dead state.
        """
        if not 0 <= phys < self.n_phys or not 0 <= bit < self.xlen:
            raise ValueError("register/bit index out of range")
        if self.state[phys] == FREE:
            return {"live": False}
        self.values[phys] ^= 1 << bit
        self.tainted.add(phys)
        return {"live": True, "phys": phys, "bit": bit}

    def occupancy(self) -> float:
        """Fraction of physical registers currently live."""
        return self.live_count / self.n_phys
