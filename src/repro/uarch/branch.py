"""Branch prediction: a bimodal 2-bit predictor with a direct-mapped BTB.

The predictor only affects *timing* (misprediction redirects insert
frontend bubbles) and *physical-register pressure* (a misprediction
squashes the rename allocations of the wrong path).  It is deliberately
simple; the paper's vulnerability effects depend on execution-time and
occupancy differences between cores, which a bimodal predictor with
per-core table sizes captures.
"""

from __future__ import annotations


class BranchPredictor:
    """2-bit saturating counters indexed by PC, plus a BTB for targets."""

    TAKEN_INIT = 1  # weakly not-taken

    def __init__(self, entries: int, btb_entries: int) -> None:
        for size in (entries, btb_entries):
            if size <= 0 or size & (size - 1):
                raise ValueError("predictor table sizes must be positive "
                                 f"powers of two, got {size}")
        self.entries = entries
        self.btb_entries = btb_entries
        self.counters = [self.TAKEN_INIT] * entries
        self.btb: list[tuple[int, int] | None] = [None] * btb_entries
        self.lookups = 0
        self.mispredicts = 0

    def _index(self, pc: int) -> int:
        return (pc >> 2) & (self.entries - 1)

    def _btb_index(self, pc: int) -> int:
        return (pc >> 2) & (self.btb_entries - 1)

    def predict(self, pc: int) -> tuple[bool, int | None]:
        """Predict (taken?, target) for the branch at *pc*.

        The target is None on a BTB miss — a taken prediction without a
        target still redirects like a misprediction (frontend cannot
        follow it).
        """
        self.lookups += 1
        taken = self.counters[self._index(pc)] >= 2
        entry = self.btb[self._btb_index(pc)]
        target = entry[1] if entry is not None and entry[0] == pc else None
        return taken, target

    def update(self, pc: int, taken: bool, target: int) -> bool:
        """Predict, then train on the resolved outcome; returns True on
        misprediction.  One lookup, as :meth:`predict` counts it."""
        self.lookups += 1
        counters = self.counters
        index = (pc >> 2) & (self.entries - 1)
        counter = counters[index]
        if taken:
            btb = self.btb
            slot = (pc >> 2) & (self.btb_entries - 1)
            entry = btb[slot]
            # a taken branch mispredicts unless predicted taken with
            # its BTB entry holding this very target
            mispredicted = (counter < 2 or entry is None
                            or entry[0] != pc or entry[1] != target)
            if counter < 3:
                counters[index] = counter + 1
            btb[slot] = (pc, target)
        else:
            mispredicted = counter >= 2
            if counter > 0:
                counters[index] = counter - 1
        if mispredicted:
            self.mispredicts += 1
        return mispredicted

    def stats(self) -> dict:
        return {"lookups": self.lookups, "mispredicts": self.mispredicts}
