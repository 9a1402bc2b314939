"""Renamed physical register file.

The pipeline renames every architectural destination onto a physical
register drawn from a free list.  The previous mapping of the
destination stays *live* until the new writer commits (that is when a
real core reclaims it), which the model honours via a pending-free
queue keyed by commit cycle.

This structure is one of the paper's five injection targets.  The
fault behaviour falls out of the actual state:

* a flip in a **free** register is dead state — hardware-masked;
* a flip in a **live** register corrupts the value; if the register is
  re-allocated or overwritten before any reader consumes it, the fault
  is again hardware-masked; a consuming read is the architectural
  crossing (FPM ``WD``).
"""

from __future__ import annotations

from collections import deque
from itertools import takewhile

FREE = 0
LIVE = 1


class PhysRegFile:
    """Physical registers + rename map + free list."""

    def __init__(self, n_phys: int, n_arch: int, xlen: int) -> None:
        if n_phys < n_arch + 1:
            raise ValueError("need more physical than architectural regs")
        self.n_phys = n_phys
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
        self.free_list: deque[int] = deque(range(n_arch, n_phys))
        #: (commit_cycle_of_new_writer, phys_to_free), in commit order
        self.pending_free: deque[tuple[float, int]] = deque()
        #: physical registers holding corrupted values
        self.tainted: set[int] = set()
        # occupancy statistics
        self.live_count = n_arch - 1

    @property
    def bits(self) -> int:
        return self.n_phys * self.xlen

    # ------------------------------------------------------------------
    # rename machinery
    # ------------------------------------------------------------------
    def read(self, arch: int) -> tuple[int, int]:
        """Return ``(value, phys_index)`` of an architectural register."""
        p = self.rename_map[arch]
        return self.values[p], p

    def _reclaim(self, now: float) -> None:
        while self.pending_free and self.pending_free[0][0] <= now:
            _, p = self.pending_free.popleft()
            self.state[p] = FREE
            self.tainted.discard(p)
            self.free_list.append(p)
            self.live_count -= 1

    def reclaimable(self, now: float) -> int:
        """How many registers :meth:`_reclaim` at *now* would free."""
        return sum(1 for _ in takewhile(lambda pending: pending[0] <= now,
                                        self.pending_free))

    def allocate(self, arch: int, now: float,
                 writer_commit: float) -> tuple[int, float]:
        """Rename *arch* to a fresh physical register.

        Returns ``(phys, stall_until)``: if the free list was empty the
        allocation had to wait for the earliest pending reclamation and
        ``stall_until`` reflects that cycle (else it equals *now*).
        The old mapping is queued for reclamation at *writer_commit*.
        """
        self._reclaim(now)
        stall_until = now
        while not self.free_list:
            if not self.pending_free:
                raise RuntimeError(
                    "physical register file exhausted with nothing "
                    "pending — rename bookkeeping bug")
            stall_until = max(stall_until, self.pending_free[0][0])
            self._reclaim(stall_until)
        p = self.free_list.popleft()
        old = self.rename_map[arch]
        self.rename_map[arch] = p
        self.state[p] = LIVE
        self.tainted.discard(p)
        self.live_count += 1
        self.pending_free.append((writer_commit, old))
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
