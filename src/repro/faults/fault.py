"""Microarchitectural fault specifications and samplers.

A :class:`FaultSpec` pins down one transient fault completely: the
target structure, the injection cycle, and the bit coordinate inside
the structure.  Campaigns generate specs with
:func:`sample_uniform` — single bit flips, uniformly distributed over
(time x bits), following the statistical formulation the paper adopts
from Leveugle et al. [21].

Two sampling strategies exist:

* ``uniform`` — the textbook population: any bit of the structure at
  any cycle.  For very large, mostly-idle structures (a 2 MiB L2
  running a 16 KiB-footprint workload) almost every sample lands in
  dead state and the estimate of the *vulnerable* tail is noisy.
* ``occupancy`` — variance reduction: the fault is steered into
  currently-live entries at injection time, and the estimator
  re-weights by the golden run's measured average occupancy.  The
  estimate stays unbiased (AVF = P(live) * P(effect | live)) but needs
  far fewer runs for the same confidence on the conditional term.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..uarch.config import STRUCTURES, MicroarchConfig


@dataclass(frozen=True)
class FaultSpec:
    """One transient fault in a microarchitectural structure.

    Coordinates by structure:

    * ``RF``  — ``a`` = physical register, ``b`` = bit.
    * ``LSQ`` — ``a`` = entry index, ``b`` = bit in [addr32 | data].
    * caches  — ``a`` = set, ``b`` = way, ``c`` = bit within line data
      (or within the tag for ``kind="tag"``).

    Extension models beyond the paper's single-bit data flips:
    ``kind="tag"`` targets a cache line's tag field, and ``n_bits > 1``
    flips that many *adjacent* bits (a burst/multi-cell upset).
    """

    structure: str
    cycle: float
    a: int
    b: int
    c: int = 0
    #: steer into live state at application time (occupancy sampling)
    prefer_live: bool = False
    #: "data" (default) or "tag" (caches only)
    kind: str = "data"
    #: number of adjacent bits to flip (>= 1)
    n_bits: int = 1

    def __post_init__(self) -> None:
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.cycle < 0:
            raise ValueError("fault cycle must be non-negative")
        if self.kind not in ("data", "tag"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "tag" and self.structure in ("RF", "LSQ"):
            raise ValueError("tag faults target caches only")
        if self.n_bits < 1:
            raise ValueError("n_bits must be at least 1")


def fault_site_bit(config: MicroarchConfig, spec: FaultSpec) -> int:
    """Fold a spec's bit coordinate onto its structure's bit width.

    The result is the bit position *within one entry* of the target
    structure (an RF register, an LSQ entry, a cache line's data or
    tag field), matching the folding the engines apply at the flip
    site.  Attribution profiles bin this into bit regions, so the
    dashboard can show where in the word faults were planted without
    re-deriving any sampling state.
    """
    structure = spec.structure
    if structure in ("RF", "LSQ"):
        return spec.b % config.entry_bits(structure)
    if spec.kind == "tag":
        cache = {"L1I": config.l1i, "L1D": config.l1d,
                 "L2": config.l2}[structure]
        n_sets = cache.size // (cache.assoc * cache.line_size)
        tag_bits = 32 - (n_sets.bit_length() - 1) \
            - (cache.line_size.bit_length() - 1)
        return spec.c % tag_bits
    return spec.c % config.entry_bits(structure)


def sample_uniform(config: MicroarchConfig, structure: str,
                   t_max: float, rng: random.Random,
                   prefer_live: bool = False) -> FaultSpec:
    """Draw one fault uniformly over (cycles x structure bits)."""
    cycle = rng.uniform(0.0, t_max)
    if structure == "RF":
        return FaultSpec(structure, cycle,
                         a=rng.randrange(config.n_phys_regs),
                         b=rng.randrange(config.xlen),
                         prefer_live=prefer_live)
    if structure == "LSQ":
        return FaultSpec(structure, cycle,
                         a=rng.randrange(config.lsq_size),
                         b=rng.randrange(config.lsq_entry_bits),
                         prefer_live=prefer_live)
    cache = {"L1I": config.l1i, "L1D": config.l1d,
             "L2": config.l2}[structure]
    n_sets = cache.size // (cache.assoc * cache.line_size)
    return FaultSpec(structure, cycle,
                     a=rng.randrange(n_sets),
                     b=rng.randrange(cache.assoc),
                     c=rng.randrange(cache.line_size * 8),
                     prefer_live=prefer_live)


def sample_campaign(config: MicroarchConfig, structure: str,
                    t_max: float, n: int, seed: int,
                    prefer_live: bool = False) -> list[FaultSpec]:
    """Draw *n* independent faults for one campaign (deterministic)."""
    rng = random.Random(repr((seed, structure, config.name)))
    return [sample_uniform(config, structure, t_max, rng,
                           prefer_live=prefer_live)
            for _ in range(n)]
