"""Residency/attribution profiler: where vulnerability lives.

Two complementary views back the ``repro dashboard`` verb:

* **Residency profiles** — a :class:`ResidencyProfiler` attached to
  the pipeline engine samples occupancy and bit-region liveness of
  the ROB, IQ, RF, LSQ and caches every ``every`` committed
  instructions, bucketed into ``n_phases`` program-phase windows.
  The profiler is strictly read-only (it never perturbs simulation
  state), is gated by ``REPRO_PROFILE`` following the
  :mod:`repro.obs.metrics` design (default off, zero hot-loop cost
  when detached), and its output is written as ``profile-*.json``
  sidecars next to the campaign caches.  One profiled *golden* run
  per (workload, config, hardened) suffices — residency is a
  property of the fault-free execution, so campaign results stay
  byte-identical whether profiling is on or off.

* **Per-outcome attribution** — :func:`attribute_campaign` bins an
  existing :class:`~repro.injectors.campaign.CampaignResult` by
  injection site (bit region within the target entry) and by
  program-phase window (injection cycle over the golden runtime), so
  each (phase x region) cell carries its Masked/SDC/Crash/Detected
  and WD/WI/WOI/ESC mix.  Attribution is pure post-processing of
  recorded results — no re-simulation.

This is the two-level view of Hari et al. (which hardware site, then
which program site), applied to the paper's vulnerability stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .metrics import env_flag

#: default program-phase windows (equal slices of the golden runtime)
N_PHASES = 8
#: default bit regions per structure entry (equal slices of the width)
N_REGIONS = 4

#: structures with an occupancy series in residency profiles
PROFILED_STRUCTURES = ("ROB", "IQ", "RF", "LSQ", "L1I", "L1D", "L2")
#: subset that additionally carries bit-region liveness
REGION_STRUCTURES = ("RF", "LSQ", "L1I", "L1D", "L2")


def profile_enabled(explicit: "bool | None" = None) -> bool:
    """Resolve the profiler switch: argument > ``REPRO_PROFILE`` > off."""
    if explicit is not None:
        return explicit
    return env_flag("REPRO_PROFILE", False)


def phase_of(t: float, t_max: float, n_phases: int) -> int:
    """Program-phase window of time *t* in a run of length *t_max*."""
    if t_max <= 0 or t <= 0:
        return 0
    return min(n_phases - 1, int(n_phases * t / t_max))


def bit_region_of(bit: int, width: int, n_regions: int) -> int:
    """Bit-region index of *bit* within an entry of *width* bits."""
    if width <= 0:
        return 0
    return min(n_regions - 1, n_regions * (bit % width) // width)


def region_label(region: int, width: int, n_regions: int) -> str:
    """Human label for one bit region, e.g. ``b0-15``."""
    lo = region * width // n_regions
    hi = (region + 1) * width // n_regions
    return f"b{lo}-{hi - 1}"


# ---------------------------------------------------------------------------
# residency profiling (pipeline hook)
# ---------------------------------------------------------------------------
class ResidencyProfiler:
    """Samples structure occupancy/liveness from a running pipeline.

    Attach as the engine's observer (``engine.observer = profiler``)
    before ``run()``; the engine calls :meth:`step` every ``every``
    committed instructions.  All reads are non-destructive.  Cache
    liveness is estimated by scanning one set per sample round-robin,
    so a sample costs O(n_phys + lsq_size + 3*assoc);
    ``bench_perf_obs_overhead.py`` gates the total cost.
    """

    def __init__(self, config, t_max: float,
                 n_phases: int = N_PHASES,
                 n_regions: int = N_REGIONS,
                 every: int = 64) -> None:
        self.config = config
        self.t_max = max(t_max, 1e-9)
        self.n_phases = n_phases
        self.n_regions = n_regions
        self.every = every
        self.samples = 0
        # (structure, phase) -> [occupancy_sum, sample_count]
        self._occ: dict = {}
        # (structure, region, phase) -> [live_hits, candidates]
        self._live: dict = {}
        self._scan = {"L1I": 0, "L1D": 0, "L2": 0}

    # -- hot path ------------------------------------------------------
    def step(self, engine) -> None:
        self.samples += 1
        n_regions = self.n_regions
        phase = phase_of(engine.fetch_time, self.t_max, self.n_phases)
        occ = self._occ
        live = self._live
        config = self.config

        def occ_add(structure: str, value: float) -> None:
            cell = occ.get((structure, phase))
            if cell is None:
                cell = occ[(structure, phase)] = [0.0, 0]
            cell[0] += value
            cell[1] += 1

        def live_add(structure: str, region: int,
                     hit: int, total: int) -> None:
            cell = live.get((structure, region, phase))
            if cell is None:
                cell = live[(structure, region, phase)] = [0, 0]
            cell[0] += hit
            cell[1] += total

        occ_add("ROB", len(engine.rob_commits) / config.rob_size)
        occ_add("IQ", len(engine.iq_issues) / config.iq_size)

        # RF: region k is live in a register iff the (live) register's
        # value has set bits inside region k's bit span.
        rf = engine.rf
        occ_add("RF", rf.live_count / rf.n_phys)
        span = max(1, rf.xlen // n_regions)
        mask = (1 << span) - 1
        hits = [0] * n_regions
        n_live = 0
        values = rf.values
        state = rf.state
        for p in range(rf.n_phys):
            if state[p]:
                n_live += 1
                v = values[p]
                if v:
                    for k in range(n_regions):
                        if (v >> (k * span)) & mask:
                            hits[k] += 1
        for k in range(n_regions):
            live_add("RF", k, hits[k], n_live)

        # LSQ: the entry word is [addr32 | data], matching the fault
        # sampler's coordinate space.
        lsq = engine.lsq
        occ_add("LSQ", lsq.valid_count / lsq.size)
        width = lsq.entry_bits
        span = max(1, width // n_regions)
        mask = (1 << span) - 1
        hits = [0] * n_regions
        n_valid = 0
        for entry in lsq.entries:
            if entry.valid:
                n_valid += 1
                word = (entry.addr & 0xFFFF_FFFF) | (entry.data << 32)
                if word:
                    for k in range(n_regions):
                        if (word >> (k * span)) & mask:
                            hits[k] += 1
        for k in range(n_regions):
            live_add("LSQ", k, hits[k], n_valid)

        # caches: overall occupancy is the cheap valid-line counter;
        # region liveness comes from one round-robin set scan per
        # sample (regions are equal byte slices of the line data).
        scan = self._scan
        for name, cache in (("L1I", engine.l1i), ("L1D", engine.l1d),
                            ("L2", engine.l2)):
            occ_add(name, cache.occupancy())
            index = scan[name]
            scan[name] = (index + 1) % cache.n_sets
            qs = max(1, cache.line_size // n_regions)
            hits = [0] * n_regions
            n_valid = 0
            for line in cache.sets[index]:
                if line.valid:
                    n_valid += 1
                    data = line.data
                    for k in range(n_regions):
                        if any(data[k * qs:(k + 1) * qs]):
                            hits[k] += 1
            for k in range(n_regions):
                live_add(name, k, hits[k], n_valid)

    # -- aggregation ---------------------------------------------------
    def finish(self, workload: str, config_name: str,
               hardened: bool = False) -> "ResidencyProfile":
        occupancy = {}
        for structure in PROFILED_STRUCTURES:
            series = []
            for phase in range(self.n_phases):
                total, count = self._occ.get((structure, phase),
                                             (0.0, 0))
                series.append(round(total / count, 6) if count else 0.0)
            occupancy[structure] = series
        liveness = {}
        widths = {}
        for structure in REGION_STRUCTURES:
            width = self.config.entry_bits(structure)
            widths[structure] = width
            regions = {}
            for region in range(self.n_regions):
                series = []
                for phase in range(self.n_phases):
                    hit, total = self._live.get(
                        (structure, region, phase), (0, 0))
                    series.append(round(hit / total, 6) if total
                                  else 0.0)
                regions[region_label(region, width,
                                     self.n_regions)] = series
            liveness[structure] = regions
        return ResidencyProfile(
            workload=workload, config_name=config_name,
            hardened=hardened, t_max=self.t_max,
            n_phases=self.n_phases, n_regions=self.n_regions,
            every=self.every, samples=self.samples,
            occupancy=occupancy, liveness=liveness, widths=widths,
        )


@dataclass
class ResidencyProfile:
    """Per-(structure, bit-region, phase) residency of one golden run."""

    workload: str
    config_name: str
    hardened: bool
    t_max: float
    n_phases: int
    n_regions: int
    every: int
    samples: int
    #: structure -> mean occupancy per phase window
    occupancy: dict = field(default_factory=dict)
    #: structure -> {region label -> live fraction per phase window}
    liveness: dict = field(default_factory=dict)
    #: structure -> entry width in bits (labels regions)
    widths: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_json(cls, data: dict) -> "ResidencyProfile":
        return cls(**data)


@lru_cache(maxsize=None)
def profile_golden_run(workload: str, config_name: str,
                       hardened: bool = False,
                       n_phases: int = N_PHASES,
                       n_regions: int = N_REGIONS,
                       every: int = 64) -> ResidencyProfile:
    """Profile one golden pipeline replay (memoised).

    Residency is a property of the golden execution, so one profiled
    replay (:func:`~repro.injectors.golden.replay_golden`, which also
    checks that the profiler only reads state) per (workload, config,
    hardened) serves every campaign against that target; injection
    runs themselves are never profiled, which is what keeps campaign
    results byte-identical with profiling on or off.
    """
    from ..injectors.golden import golden_run, replay_golden
    from ..uarch.config import config_by_name

    golden = golden_run(workload, config_name, hardened=hardened)
    profiler = ResidencyProfiler(config_by_name(config_name),
                                 t_max=golden.cycles, n_phases=n_phases,
                                 n_regions=n_regions, every=every)
    replay_golden(workload, config_name, hardened=hardened,
                  observer=profiler)
    return profiler.finish(workload, config_name, hardened)


# ---------------------------------------------------------------------------
# per-outcome attribution (pure post-processing of campaign results)
# ---------------------------------------------------------------------------
@dataclass
class Attribution:
    """A campaign binned by (program phase x bit region)."""

    injector: str
    workload: str
    config_name: str
    target: str
    n_phases: int
    n_regions: int
    site_width: int
    t_max: float
    occupancy_weight: float
    #: cells[phase][region] = {"runs", "vulnerable", "outcomes", "fpm"}
    cells: list = field(default_factory=list)

    def _collapse(self, picked) -> list:
        out = []
        for group in picked:
            runs = sum(c["runs"] for c in group)
            vulnerable = sum(c["vulnerable"] for c in group)
            outcomes: dict = {}
            fpm: dict = {}
            for cell in group:
                for k, v in cell["outcomes"].items():
                    outcomes[k] = outcomes.get(k, 0) + v
                for k, v in cell["fpm"].items():
                    fpm[k] = fpm.get(k, 0) + v
            out.append({
                "runs": runs,
                "vulnerable": vulnerable,
                "vulnerability": (self.occupancy_weight
                                  * vulnerable / runs if runs else 0.0),
                "outcomes": outcomes,
                "fpm": fpm,
            })
        return out

    def by_phase(self) -> list:
        """One aggregated cell per program-phase window."""
        return self._collapse(self.cells)

    def by_region(self) -> list:
        """One aggregated cell per bit region."""
        return self._collapse(
            [[row[r] for row in self.cells]
             for r in range(self.n_regions)])

    def phase_vulnerability(self) -> list:
        """Occupancy-weighted P(SDC or Crash) per phase window."""
        return [cell["vulnerability"] for cell in self.by_phase()]

    def to_json(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_json(cls, data: dict) -> "Attribution":
        return cls(**data)


def _attribution_site_width(campaign) -> int:
    """Entry width (bits) of a campaign's injection sites."""
    if campaign.injector != "gefin":
        # architectural injectors flip bits of 64-bit-wide state at
        # most (registers, memory words; instruction-word and PC
        # flips land in the low half)
        return 64
    from ..uarch.config import config_by_name

    return config_by_name(campaign.config_name).entry_bits(
        campaign.structure)


def attribute_campaign(campaign, n_phases: int = N_PHASES,
                       n_regions: int = N_REGIONS) -> Attribution:
    """Bin a campaign's recorded runs by (phase x bit region).

    Works on any loaded :class:`CampaignResult` — nothing is
    re-simulated.  The phase axis normalises each run's
    ``inject_cycle`` by the campaign's golden runtime (``t_max``,
    falling back to the largest observed injection time for
    campaigns recorded before the field existed); the region axis
    folds ``site_bit`` onto the structure's entry width.
    """
    width = _attribution_site_width(campaign)
    t_max = campaign.t_max or 0.0
    if t_max <= 0:
        t_max = max((r.inject_cycle for r in campaign.results),
                    default=0.0) or 1.0
    cells = [[{"runs": 0, "vulnerable": 0, "outcomes": {}, "fpm": {}}
              for _ in range(n_regions)]
             for _ in range(n_phases)]
    for result in campaign.results:
        phase = phase_of(result.inject_cycle, t_max, n_phases)
        region = bit_region_of(result.site_bit or 0, width, n_regions)
        cell = cells[phase][region]
        cell["runs"] += 1
        if result.vulnerable:
            cell["vulnerable"] += 1
        cell["outcomes"][result.outcome] = \
            cell["outcomes"].get(result.outcome, 0) + 1
        if result.fpm:
            cell["fpm"][result.fpm] = cell["fpm"].get(result.fpm, 0) + 1
    return Attribution(
        injector=campaign.injector, workload=campaign.workload,
        config_name=campaign.config_name,
        target=campaign.structure or campaign.model
        or campaign.injector,
        n_phases=n_phases, n_regions=n_regions, site_width=width,
        t_max=t_max, occupancy_weight=campaign.occupancy_weight,
        cells=cells,
    )
