"""Microarchitecture configurations for the four simulated cores.

The four presets mirror the paper's Table II: two mRISC-32 ("Armv7")
cores resembling Cortex-A9 and Cortex-A15, and two mRISC-64 ("Armv8")
cores resembling Cortex-A57 and Cortex-A72.  Where the paper's table
omits a parameter (functional-unit counts, predictor sizes, cache
associativity, ...) we use the publicly documented values of the real
cores.

The five fault-injection target structures and their bit capacities
(used for the paper's size-weighted AVF/FPM aggregation) are derived
from these configurations via :meth:`MicroarchConfig.structure_bits`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.registers import MR32, MR64, register_set

#: Canonical names of the five injection-target hardware structures.
STRUCTURES = ("RF", "LSQ", "L1I", "L1D", "L2")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size: int                 # bytes
    assoc: int
    line_size: int = 64
    latency: int = 2          # cycles for a hit

    @property
    def n_lines(self) -> int:
        return self.size // self.line_size

    @property
    def bits(self) -> int:
        return self.size * 8


@dataclass(frozen=True)
class MicroarchConfig:
    """Full description of one simulated out-of-order core."""

    name: str
    isa: str

    # pipeline shape
    fetch_width: int
    commit_width: int
    frontend_depth: int       # stages between fetch and execute
    rob_size: int
    iq_size: int

    # renamed register file and LSQ
    n_phys_regs: int
    lsq_size: int

    # functional units
    n_alu: int
    n_mul: int = 1
    n_div: int = 1
    n_mem_ports: int = 1
    alu_latency: int = 1
    mul_latency: int = 3
    div_latency: int = 12

    # memory hierarchy
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 4))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 4))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(512 * 1024, 8,
                                                                latency=12))
    dram_latency: int = 120

    # branch prediction
    predictor_entries: int = 2048
    btb_entries: int = 512
    mispredict_penalty: int | None = None   # defaults to frontend_depth

    @property
    def xlen(self) -> int:
        return register_set(self.isa).xlen

    @property
    def penalty(self) -> int:
        return (self.mispredict_penalty if self.mispredict_penalty
                is not None else self.frontend_depth)

    # ------------------------------------------------------------------
    # fault-injection populations
    # ------------------------------------------------------------------
    @property
    def lsq_entry_bits(self) -> int:
        """One LSQ entry: a 32-bit address field + a data field."""
        return 32 + self.xlen

    def entry_bits(self, structure: str) -> int:
        """Bit width of one entry of an injection-target structure: a
        register, an LSQ entry, or the data of a cache line."""
        if structure == "RF":
            return self.xlen
        if structure == "LSQ":
            return self.lsq_entry_bits
        if structure in ("L1I", "L1D", "L2"):
            return getattr(self, structure.lower()).line_size * 8
        raise KeyError(f"unknown structure {structure!r}; "
                       f"expected one of {STRUCTURES}")

    def structure_bits(self, structure: str) -> int:
        """Bit capacity of one injection-target structure.

        This is the paper's weighting factor: the FIT-rate of the chip
        is the AVF-weighted sum of per-structure bit counts, so larger
        structures (the L2 above all) dominate the weighted AVF.
        """
        if structure == "RF":
            return self.n_phys_regs * self.xlen
        if structure == "LSQ":
            return self.lsq_size * self.lsq_entry_bits
        if structure == "L1I":
            return self.l1i.bits
        if structure == "L1D":
            return self.l1d.bits
        if structure == "L2":
            return self.l2.bits
        raise KeyError(f"unknown structure {structure!r}; "
                       f"expected one of {STRUCTURES}")

    def total_bits(self) -> int:
        return sum(self.structure_bits(s) for s in STRUCTURES)

    def structure_weights(self) -> dict[str, float]:
        """Normalised size weights of the five structures."""
        total = self.total_bits()
        return {s: self.structure_bits(s) / total for s in STRUCTURES}


# ---------------------------------------------------------------------------
# The four cores of the study (Table II)
#
# Cache capacities are the real cores' sizes scaled down by
# CACHE_SCALE (16x), preserving every relative relation of Table II
# (A9:A15:A57:A72 L2 = 512K:1M:1M:2M -> 32K:64K:64K:128K).  The
# workload suite is itself scaled down (second-scale simulations of
# kB-footprint kernels), and the paper's cache-resident fault dynamics
# — dirty output lines spilling into the L2, code refetched from the
# unified L2, eviction/writeback masking, the ESC escape channel —
# only exist when footprints relate to capacities the way MiBench
# relates to the real cores.  See DESIGN.md §2.
# ---------------------------------------------------------------------------
CACHE_SCALE = 16

#: the L1s are scaled harder: the scaled workloads' kB footprints must
#: exceed the L1D (as MiBench exceeds a real 32K L1D) for the paper's
#: eviction/writeback/escape dynamics to exist at all
L1_SCALE = 32

CORTEX_A9 = MicroarchConfig(
    name="cortex-a9", isa=MR32,
    fetch_width=2, commit_width=2, frontend_depth=8,
    rob_size=40, iq_size=16,
    n_phys_regs=56, lsq_size=8,
    n_alu=2, n_mul=1, n_div=1, n_mem_ports=1,
    mul_latency=4, div_latency=20,
    l1i=CacheConfig(32 * 1024 // L1_SCALE, 4, latency=1),
    l1d=CacheConfig(32 * 1024 // L1_SCALE, 4, latency=2),
    l2=CacheConfig(512 * 1024 // CACHE_SCALE, 8, latency=10),
    dram_latency=110,
    predictor_entries=1024, btb_entries=256,
)

CORTEX_A15 = MicroarchConfig(
    name="cortex-a15", isa=MR32,
    fetch_width=3, commit_width=3, frontend_depth=15,
    rob_size=60, iq_size=32,
    n_phys_regs=90, lsq_size=16,
    n_alu=2, n_mul=1, n_div=1, n_mem_ports=2,
    mul_latency=4, div_latency=16,
    l1i=CacheConfig(32 * 1024 // L1_SCALE, 2, latency=1),
    l1d=CacheConfig(32 * 1024 // L1_SCALE, 2, latency=2),
    l2=CacheConfig(1024 * 1024 // CACHE_SCALE, 16, latency=12),
    dram_latency=120,
    predictor_entries=4096, btb_entries=512,
)

CORTEX_A57 = MicroarchConfig(
    name="cortex-a57", isa=MR64,
    fetch_width=3, commit_width=3, frontend_depth=15,
    rob_size=128, iq_size=32,
    n_phys_regs=128, lsq_size=16,
    n_alu=2, n_mul=1, n_div=1, n_mem_ports=2,
    mul_latency=3, div_latency=12,
    l1i=CacheConfig(48 * 1024 // L1_SCALE, 3, latency=1),
    l1d=CacheConfig(32 * 1024 // L1_SCALE, 2, latency=2),
    l2=CacheConfig(1024 * 1024 // CACHE_SCALE, 16, latency=12),
    dram_latency=120,
    predictor_entries=4096, btb_entries=1024,
)

CORTEX_A72 = MicroarchConfig(
    name="cortex-a72", isa=MR64,
    fetch_width=3, commit_width=3, frontend_depth=15,
    rob_size=128, iq_size=64,
    n_phys_regs=192, lsq_size=32,
    n_alu=2, n_mul=1, n_div=1, n_mem_ports=2,
    mul_latency=3, div_latency=12,
    l1i=CacheConfig(48 * 1024 // L1_SCALE, 3, latency=1),
    l1d=CacheConfig(32 * 1024 // L1_SCALE, 2, latency=2),
    l2=CacheConfig(2048 * 1024 // CACHE_SCALE, 16, latency=14),
    dram_latency=120,
    predictor_entries=8192, btb_entries=1024,
)

ALL_CONFIGS = (CORTEX_A9, CORTEX_A15, CORTEX_A57, CORTEX_A72)

BY_NAME = {c.name: c for c in ALL_CONFIGS}


def config_by_name(name: str) -> MicroarchConfig:
    """Look a preset up by name (``cortex-a72`` etc.)."""
    try:
        return BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown core {name!r}; "
                       f"have {sorted(BY_NAME)}") from None
