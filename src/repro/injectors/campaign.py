"""Campaign orchestration: thousands of deterministic injection runs.

A *campaign* is ``n`` independent single-fault injection runs of one
injector against one (workload, core, structure/model) target.  Every
run is deterministic in ``(seed, index)``, so campaigns are exactly
reproducible, can be parallelised across processes, and are cached on
disk (the statistical analyses re-read the same campaigns from many
benches).

The aggregation implements the paper's estimators:

* **AVF** (gefin)  = occupancy_weight x P(SDC or Crash)
* **HVF** (gefin)  = occupancy_weight x P(activated or exposed)
* FPM distribution = occupancy_weight x P(first crossing is that FPM)
* **PVF/SVF**      = P(SDC or Crash) at their respective layers

plus Leveugle-style margins of error for every proportion.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
import warnings
from dataclasses import asdict, dataclass, field
from operator import attrgetter

from ..faults.fault import sample_uniform
from ..faults.outcomes import Outcome
from ..faults.sampling import margin_of_error
from ..obs import EventLog, ProgressReporter, progress_enabled, sidecars
from ..obs.metrics import (BATCH_FALLBACKS, LATENCY_BUCKETS, Histogram,
                           MetricsRegistry, get_registry)
from ..uarch.config import MicroarchConfig, config_by_name
from ..uarch.exceptions import ContainmentError
from .archinj import build_pvf_action, run_one_pvf
from .engine import atomic_write_text, clear_checkpoints, run_sharded
from .gefin import InjectionResult, run_one_injection
from .golden import cache_dir, golden_run
from .llfi import _dest_flip_action, require_svf_isa, run_one_svf

INJECTORS = ("gefin", "pvf", "svf")


# ---------------------------------------------------------------------------
# the per-run fault draw
# ---------------------------------------------------------------------------
def draw_fault(injector: str, index: int, *, workload: str,
               config: MicroarchConfig, seed: int, golden=None,
               structure: "str | None" = None,
               model: "str | None" = None, prefer_live: bool = True,
               t_max: "float | None" = None, xlen: "int | None" = None):
    """The fault campaign run ``(seed, index)`` injects.

    The RNG is keyed on the run's coordinates alone, so every path
    that replays a run — the scalar and batched workers, the
    planner's site stream and the trace views — draws the same fault
    and reproduces the campaign's result bit for bit.  gefin returns
    a :class:`~repro.faults.fault.FaultSpec` sampled over *t_max*
    cycles (default ``golden.cycles``); pvf and svf return a
    :class:`~repro.uarch.functional.FaultAction` over *golden*'s
    dynamic instructions that flips one of *xlen* bits (default: the
    core's register width).
    """
    if injector == "gefin":
        rng = random.Random(repr((seed, "gefin", workload, config.name,
                                  structure, index)))
        return sample_uniform(config, structure,
                              golden.cycles if t_max is None else t_max,
                              rng, prefer_live=prefer_live)
    if xlen is None:
        xlen = config.xlen
    if injector == "pvf":
        rng = random.Random(repr((seed, "pvf", model, workload,
                                  config.name, index)))
        return build_pvf_action(model, rng, golden, xlen)
    if injector == "svf":
        rng = random.Random(repr((seed, "svf", workload, config.name,
                                  index)))
        return _dest_flip_action(rng, golden, xlen)
    raise ValueError(f"unknown injector {injector!r}")


# ---------------------------------------------------------------------------
# per-run workers (deterministic in (seed, index); picklable by design)
# ---------------------------------------------------------------------------
def _one_gefin(args: tuple) -> InjectionResult:
    (workload, config_name, structure, seed, index, hardened,
     prefer_live, fastpath) = args
    return _one_run("gefin", workload, config_name, seed, index,
                    hardened, fastpath, structure=structure,
                    prefer_live=prefer_live)


def _one_pvf(args: tuple) -> InjectionResult:
    workload, config_name, model, seed, index, hardened, fastpath = args
    return _one_run("pvf", workload, config_name, seed, index, hardened,
                    fastpath, model=model)


def _one_svf(args: tuple) -> InjectionResult:
    workload, config_name, seed, index, hardened, fastpath = args
    return _one_run("svf", workload, config_name, seed, index, hardened,
                    fastpath)


def _one_run(injector: str, workload: str, config_name: str, seed: int,
             index: int, hardened: bool, fastpath: "bool | None",
             **target) -> InjectionResult:
    try:
        return replay_index(injector, workload, config_name, seed, index,
                            hardened=hardened, fastpath=fastpath,
                            **target)
    except ContainmentError as exc:
        model = {"model": target["model"]} if injector == "pvf" else {}
        raise exc.with_context(seed=seed, index=index, **model)


def replay_index(injector: str, workload: str, config_name: str,
                 seed: int, index: int, *, hardened: bool = False,
                 fastpath: "bool | None" = None, tracer=None,
                 **target) -> InjectionResult:
    """Draw campaign run ``(seed, index)``'s fault (*target*: gefin's
    structure/prefer_live, pvf's model) and inject it."""
    config = config_by_name(config_name)
    golden = golden_run(workload, config_name, hardened=hardened)
    fault = draw_fault(injector, index, workload=workload, config=config,
                       seed=seed, golden=golden, **target)
    if injector == "gefin":
        return run_one_injection(workload, config, fault, golden,
                                 hardened=hardened, tracer=tracer,
                                 fastpath=fastpath)
    run = run_one_pvf if injector == "pvf" else run_one_svf
    return run(workload, config.isa, fault, golden, hardened=hardened,
               tracer=tracer, fastpath=fastpath)


# shard codecs (scalar: one InjectionResult per task; batched: a lane
# group's list per task)
def _decode_one(entry):
    return InjectionResult(**entry)


def _encode_many(results):
    return [asdict(result) for result in results]


def _decode_many(entry):
    return [InjectionResult(**fields) for fields in entry]


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Aggregated result of one campaign."""

    injector: str
    workload: str
    config_name: str
    n: int
    seed: int
    structure: str | None = None      # gefin campaigns
    model: str | None = None          # pvf campaigns (WD/WOI/WI)
    hardened: bool = False
    occupancy_weight: float = 1.0
    #: fault-population size (e.g. bits x cycles) for the
    #: finite-population margin correction; ``None`` = infinite
    population: float | None = None
    #: golden runtime the injection times were sampled over (cycles
    #: for gefin, dynamic instructions for pvf/svf); normalises
    #: program-phase attribution without re-running the golden
    t_max: float | None = None
    results: list = field(default_factory=list)
    #: two-level planner record (per-class weights/trials, planned vs
    #: actual sample counts); ``None`` for naive fixed-``n`` campaigns.
    #: See :func:`repro.core.planner.run_planned_campaign`.
    plan: "dict | None" = None

    # ------------------------------------------------------------------
    # estimators
    # ------------------------------------------------------------------
    def _count(self, predicate) -> int:
        return sum(1 for r in self.results if predicate(r))

    def rate(self, predicate) -> float:
        """Weighted fraction of runs satisfying *predicate*."""
        if not self.results:
            return 0.0
        return self.occupancy_weight * self._count(predicate) \
            / len(self.results)

    def vulnerability(self) -> float:
        """AVF (gefin) / PVF / SVF: P(SDC or Crash)."""
        return self.rate(lambda r: r.vulnerable)

    #: the paper calls the same estimator different names per layer
    avf = vulnerability
    pvf = vulnerability
    svf = vulnerability

    def sdc(self) -> float:
        return self.rate(lambda r: r.outcome == Outcome.SDC.value)

    def crash(self) -> float:
        return self.rate(lambda r: r.outcome == Outcome.CRASH.value)

    def crash_kind_rate(self, kind: str) -> float:
        return self.rate(lambda r: r.crash_kind == kind)

    def detected(self) -> float:
        return self.rate(lambda r: r.outcome == Outcome.DETECTED.value)

    def masked(self) -> float:
        return self.rate(lambda r: r.outcome == Outcome.MASKED.value)

    def hvf(self) -> float:
        """Fraction activated in hardware or exposed to software."""
        return self.rate(lambda r: r.hvf_visible)

    def fpm_rates(self) -> dict:
        """FPM -> weighted rate (incl. ESC); the HVF breakdown of Fig 5/6."""
        out = {}
        for fpm in ("WD", "WI", "WOI", "ESC"):
            out[fpm] = self.rate(lambda r, f=fpm: r.fpm == f)
        return out

    def fpm_distribution(self) -> dict:
        """FPM -> share of software-reaching faults (sums to 1)."""
        rates = self.fpm_rates()
        total = sum(rates.values())
        if total <= 0:
            return {k: 0.0 for k in rates}
        return {k: v / total for k, v in rates.items()}

    def margin(self, confidence: float = 0.99,
               population: float | None = None) -> float:
        """Margin of error; NaN for an empty campaign.

        *population* (or the campaign's ``population`` field) enables
        the finite-population correction of
        :func:`repro.faults.sampling.margin_of_error`.
        """
        n = len(self.results)
        if n == 0:
            return math.nan
        if population is None:
            population = self.population
        pop = population if population is not None else math.inf
        return margin_of_error(n, population=pop,
                               confidence=confidence)

    def summary(self) -> str:
        target = self.structure or self.model or "-"
        return (f"{self.injector}:{self.workload}@{self.config_name}"
                f"/{target}{'+ft' if self.hardened else ''} "
                f"n={len(self.results)} "
                f"vuln={100 * self.vulnerability():.2f}% "
                f"(sdc={100 * self.sdc():.2f}% "
                f"crash={100 * self.crash():.2f}% "
                f"det={100 * self.detected():.2f}%) "
                f"+/-{100 * self.margin():.2f}%")

    # ------------------------------------------------------------------
    # (de)serialisation for the on-disk store
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        from . import golden as golden_mod

        data = asdict(self)
        # version-salt the stored entry itself (in addition to the
        # cache *key*), so entries written by a different engine
        # schema are recognised as stale even if they land on the
        # same path (e.g. copied caches)
        data["schema"] = golden_mod.CACHE_SCHEMA_VERSION
        data["results"] = [asdict(r) for r in self.results]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "CampaignResult":
        data = dict(data)
        data.pop("schema", None)
        data["results"] = [InjectionResult(**r) for r in data["results"]]
        return cls(**data)


# ---------------------------------------------------------------------------
# campaign telemetry
# ---------------------------------------------------------------------------
def _observe_latencies(results, hist):
    """Fold the crossed runs' visibility latencies into *hist*."""
    for result in results:
        latency = result.visibility_latency
        if latency is not None:
            hist.observe(latency)
    return hist


def _summary_fields(campaign: "CampaignResult",
                    elapsed: float) -> dict:
    """The ``campaign_summary`` event payload: everything the
    ``repro report`` dashboard needs without re-running simulation."""
    outcomes: dict = {}
    for result in campaign.results:
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
    hist = _observe_latencies(campaign.results,
                              Histogram(LATENCY_BUCKETS))
    runs = len(campaign.results)
    return {
        "injector": campaign.injector,
        "workload": campaign.workload,
        "config": campaign.config_name,
        "target": campaign.structure or campaign.model,
        "runs": runs,
        "elapsed": round(elapsed, 3),
        "runs_per_sec": round(runs / elapsed, 3) if elapsed > 0 else 0.0,
        "outcomes": outcomes,
        "latency": {"boundaries": list(hist.boundaries),
                    "counts": list(hist.counts),
                    "count": hist.count, "sum": round(hist.sum, 3)},
    }


def _record_campaign_metrics(registry: MetricsRegistry,
                             campaign: "CampaignResult",
                             elapsed: float) -> None:
    """Fold per-structure outcome tallies and latencies into *registry*."""
    target = campaign.structure or campaign.model or campaign.injector
    for result in campaign.results:
        registry.counter(
            f"campaign.outcomes.{target}.{result.outcome}").inc()
    _observe_latencies(campaign.results, registry.histogram(
        "campaign.visibility_latency_cycles", LATENCY_BUCKETS))
    registry.timer("campaign.wall_seconds").add(elapsed)


# ---------------------------------------------------------------------------
# the campaign runner
# ---------------------------------------------------------------------------
def _write_profile_sidecar(campaign: "CampaignResult", path) -> None:
    """Write the ``profile-*.json`` residency sidecar when enabled.

    The profile comes from ONE fault-free pipeline run per
    (workload, config, hardened) — memoised in-process, cached on
    disk as the sidecar itself — so campaign results are unaffected
    (``REPRO_PROFILE=0``, the default, writes nothing at all).
    """
    from ..obs.profiles import profile_enabled, profile_golden_run

    if not profile_enabled():
        return
    sidecar = sidecars.profile_path(path.stem)
    if sidecar.exists():
        return
    profile = profile_golden_run(campaign.workload,
                                 campaign.config_name,
                                 hardened=campaign.hardened)
    atomic_write_text(sidecar, json.dumps(profile.to_json()))


def _campaign_path(meta: tuple) -> "os.PathLike":
    import hashlib

    digest = hashlib.sha256(json.dumps(meta).encode()).hexdigest()[:20]
    return sidecars.campaign_path(meta[0], meta[1], digest)


def _salted(head: tuple, workload: str, config: MicroarchConfig,
            hardened: bool) -> tuple:
    """*head* salted with the workload/core digests and the schema:
    the cache key moves when any of them changes."""
    from . import golden as golden_mod

    digest = (golden_mod.workload_digest(workload, config.isa, hardened)
              + golden_mod.config_digest(config))
    return head + (digest, golden_mod.CACHE_SCHEMA_VERSION)


def _campaign_meta(injector: str, workload: str, config_name: str,
                   structure: "str | None", model: str, n: int,
                   seed: int, hardened: bool,
                   prefer_live: bool) -> tuple:
    """The cache key tuple for a naive fixed-``n`` campaign.

    Shared by :func:`run_campaign` and :func:`campaign_cache_path`,
    so probing the cache derives exactly the path a run writes.
    """
    if injector not in INJECTORS:
        raise ValueError(f"unknown injector {injector!r}")
    if injector == "gefin":
        if structure is None:
            raise ValueError("gefin campaigns need a structure")
        head = ("gefin", workload, config_name, structure, n, seed,
                hardened, prefer_live)
    elif injector == "pvf":
        head = ("pvf", workload, config_name, model, n, seed, hardened)
    else:
        head = ("svf", workload, config_name, n, seed, hardened)
    return _salted(head, workload, config_by_name(config_name), hardened)


def campaign_cache_path(workload: str, config: "MicroarchConfig | str",
                        injector: str = "gefin",
                        structure: str | None = None,
                        model: str = "WD", n: int = 200, seed: int = 1,
                        hardened: bool = False,
                        prefer_live: bool = True) -> "os.PathLike":
    """The sidecar path :func:`run_campaign` reads/writes for these
    axes (naive campaigns; planner campaigns key their own store).

    Computing the path never simulates — it hashes the workload
    image and config geometry only — so callers can probe the cache
    without paying for a run.
    """
    config_name = config if isinstance(config, str) else config.name
    return _campaign_path(_campaign_meta(
        injector, workload, config_name, structure, model, n, seed,
        hardened, prefer_live))


def default_workers(n: int) -> int:
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring malformed REPRO_WORKERS={env!r} "
                f"(expected an integer); using the automatic default",
                RuntimeWarning, stacklevel=2)
    if n < 32:
        return 1
    return min(os.cpu_count() or 1, 8)


class _Campaign:
    """One campaign's set-up and finish.

    Shared by :func:`run_campaign` and the two-level planner
    (:func:`repro.core.planner.run_planned_campaign`), which differ
    only in which runs they inject and how.  The execution settings —
    fast path, batch lanes, workers — are resolved here, once per
    campaign, and reach the workers inside each task tuple.
    """

    def __init__(self, injector: str, workload: str, config_name: str,
                 meta: tuple, *, n: int, seed: int,
                 structure: "str | None", model: "str | None",
                 hardened: bool, prefer_live: bool, use_cache: bool,
                 population: "float | None", fastpath: "bool | None",
                 workers: "int | None",
                 batch_lanes: "int | None" = None) -> None:
        from ..uarch.batch import resolve_batch_lanes
        from ..uarch.snapshot import fastpath_enabled

        if injector not in INJECTORS:
            raise ValueError(f"unknown injector {injector!r}")
        self.config = config_by_name(config_name)
        if injector == "svf":
            require_svf_isa(self.config.isa)
        #: the result this campaign fills in
        self.result = CampaignResult(
            injector=injector, workload=workload,
            config_name=config_name, n=n, seed=seed,
            structure=structure if injector == "gefin" else None,
            model=model if injector == "pvf" else None,
            hardened=hardened, population=population)
        self.prefer_live = prefer_live
        self.use_cache = use_cache
        self.path = _campaign_path(meta)
        self.fastpath = fastpath_enabled(fastpath)
        self.lanes = resolve_batch_lanes(batch_lanes)
        self.workers = (workers if workers is not None
                        else default_workers(n))
        self.events = EventLog.resolve(default=sidecars.events_path())

    def cached(self) -> "CampaignResult | None":
        """The campaign's sidecar, when caching is on and it is fresh;
        one that :func:`repro.obs.sidecars.read_campaign` rejects
        (corrupt, or stamped with another
        :data:`~repro.injectors.golden.CACHE_SCHEMA_VERSION`) is
        removed so the campaign recomputes."""
        if not self.use_cache or not self.path.exists():
            return None
        campaign = sidecars.read_campaign(self.path)
        if campaign is None:
            # tolerate two processes racing to remove (or replace)
            # the same corrupt/stale entry
            self.path.unlink(missing_ok=True)
            return None
        if self.result.population is not None:
            campaign.population = self.result.population
        _write_profile_sidecar(campaign, self.path)
        return campaign

    def prepare(self):
        """Make sure the golden run (and, on the fast path, the
        checkpoint store) exists on disk before workers fork: every
        worker then loads the shared store instead of re-running its
        own capture run.  Returns the golden run."""
        from .golden import STORE_ENGINES, checkpoint_store

        c = self.result
        golden = golden_run(c.workload, c.config_name,
                            hardened=c.hardened)
        if self.fastpath:
            checkpoint_store(c.workload, c.config_name,
                             engine=STORE_ENGINES[c.injector],
                             hardened=c.hardened)
        gefin = c.injector == "gefin"
        c.occupancy_weight = (golden.occupancy.get(c.structure, 1.0)
                              if gefin and self.prefer_live else 1.0)
        c.t_max = (golden.cycles if gefin
                   else float(max(1, golden.instructions)))
        return golden

    def task(self, index) -> tuple:
        """The worker tuple of run *index*, or of a lane group of
        indices for the batch workers (same shape)."""
        c = self.result
        if c.injector == "gefin":
            return (c.workload, c.config_name, c.structure, c.seed,
                    index, c.hardened, self.prefer_live, self.fastpath)
        if c.injector == "pvf":
            return (c.workload, c.config_name, c.model, c.seed, index,
                    c.hardened, self.fastpath)
        return (c.workload, c.config_name, c.seed, index, c.hardened,
                self.fastpath)

    def worker(self, batched: bool = False):
        """The task worker, looked up on its module at call time, so a
        wrapper swapped in there sees every task."""
        if batched:
            from . import batch

            return (batch._one_pvf_batch if self.result.injector == "pvf"
                    else batch._one_svf_batch)
        return {"gefin": _one_gefin, "pvf": _one_pvf,
                "svf": _one_svf}[self.result.injector]

    def finish(self, results: list, elapsed: float,
               plan: "dict | None" = None,
               checkpoint_dir=None) -> "CampaignResult":
        """Aggregate *results*, announce the summary and write the
        sidecars; a successful write retires the shard checkpoints."""
        campaign = self.result
        campaign.results = results
        campaign.plan = plan
        stem = self.path.stem
        self.events.emit("campaign_summary", campaign=stem,
                         **_summary_fields(campaign, elapsed))
        registry = get_registry()
        # planned campaigns report through the planner.* counters
        if plan is None and registry.enabled:
            _record_campaign_metrics(registry, campaign, elapsed)
            snapshot = registry.snapshot()
            self.events.emit("metrics_snapshot", campaign=stem,
                             metrics=snapshot)
            atomic_write_text(sidecars.metrics_path(stem),
                              json.dumps(snapshot, indent=2))
        if self.use_cache:
            atomic_write_text(self.path, json.dumps(campaign.to_json()))
            clear_checkpoints(checkpoint_dir)
        _write_profile_sidecar(campaign, self.path)
        return campaign


def run_campaign(workload: str, config: "MicroarchConfig | str",
                 injector: str = "gefin", structure: str | None = None,
                 model: str = "WD", n: int = 200, seed: int = 1,
                 hardened: bool = False, prefer_live: bool = True,
                 use_cache: bool = True,
                 workers: int | None = None,
                 population: float | None = None,
                 progress: bool | None = None,
                 shard_size: int | None = None,
                 fastpath: bool | None = None,
                 planner: str | None = None,
                 target_margin: float | None = None,
                 batch_lanes: int | None = None) -> CampaignResult:
    """Run (or load) one fault-injection campaign.

    Parameters mirror the paper's experimental axes: *injector* picks
    the abstraction layer (``gefin`` = microarchitectural AVF/HVF,
    ``pvf`` = architecture level, ``svf`` = LLFI-style software
    level, 64-bit cores only); *structure* is required for ``gefin``;
    *model* selects the PVF fault-propagation model.

    Execution goes through the sharded engine
    (:mod:`repro.injectors.engine`): runs are split into
    deterministic shards, a crashed/raising worker re-runs only its
    shard, completed shards are checkpointed atomically under the
    cache directory, and an interrupted campaign resumes from its
    checkpoints on the next invocation — aggregating to the same
    bytes as an uninterrupted run, since every run is deterministic
    in ``(seed, index)``.  *population* is the campaign's
    fault-population size for finite-population error margins;
    *progress* forces the live stderr progress line on/off
    (``None`` defers to ``REPRO_PROGRESS``); *shard_size* overrides
    the deterministic shard split (testing/tuning only — changing it
    orphans existing checkpoints).

    *fastpath* selects the golden-fork checkpoint fast path for every
    run (``None`` defers to ``REPRO_FASTPATH``, on by default).  The
    fast path is byte-identical to the slow path — it is deliberately
    NOT part of the cache key, and the differential suite in
    ``tests/test_snapshot_equivalence.py`` holds it to that.

    *planner* selects the sampling strategy: ``None``/``"naive"`` is
    the fixed-``n`` design above; ``"two-level"`` delegates to
    :func:`repro.core.planner.run_planned_campaign`, which partitions
    the fault population into equivalence classes and stops the cell
    once its Wilson interval is inside *target_margin* — ``n`` then
    acts as the naive-equivalent budget (the hard cap).

    *batch_lanes* (``--batch-lanes``; ``None`` defers to
    ``REPRO_BATCH``, off by default) packs pvf/svf runs into the
    bit-parallel batched engine (:mod:`repro.uarch.batch`), up to 64
    lanes per batch.  Like the fast path it is byte-identical to the
    scalar path and deliberately NOT part of the cache key
    (``tests/test_batch_equivalence.py`` holds it to that); gefin
    campaigns fall back to scalar execution with a
    ``batch_fallback`` event.
    """
    if planner not in (None, "naive"):
        from ..core.planner import (DEFAULT_TARGET_MARGIN, PLANNERS,
                                    run_planned_campaign)

        if planner not in PLANNERS:
            raise ValueError(f"unknown planner {planner!r}")
        return run_planned_campaign(
            workload, config, injector=injector, structure=structure,
            model=model, n=n, seed=seed,
            target_margin=(target_margin if target_margin is not None
                           else DEFAULT_TARGET_MARGIN),
            hardened=hardened, prefer_live=prefer_live,
            use_cache=use_cache, workers=workers,
            population=population, progress=progress,
            fastpath=fastpath)
    config_name = config if isinstance(config, str) else config.name
    setup = _Campaign(
        injector, workload, config_name,
        _campaign_meta(injector, workload, config_name, structure,
                       model, n, seed, hardened, prefer_live),
        n=n, seed=seed, structure=structure, model=model,
        hardened=hardened, prefer_live=prefer_live,
        use_cache=use_cache, population=population, fastpath=fastpath,
        workers=workers, batch_lanes=batch_lanes)
    campaign = setup.cached()
    if campaign is not None:
        return campaign
    golden = setup.prepare()

    lanes = setup.lanes
    lane_groups = None
    if lanes >= 2 and injector in ("pvf", "svf") and n:
        from .batch import plan_lane_groups

        lane_groups = plan_lane_groups(
            injector, n, lanes, workload=workload,
            config_name=config_name, seed=seed,
            xlen=setup.config.xlen, golden=golden,
            model=setup.result.model)
    batched = lane_groups is not None
    tasks = [setup.task(i) for i in (lane_groups if batched else range(n))]

    target = setup.result.structure or setup.result.model
    label = (f"{injector}:{workload}@{config_name}"
             + (f"/{target}" if target else ""))
    reporter = (ProgressReporter(len(tasks), label=label)
                if progress_enabled(progress) else None)
    stem = setup.path.stem
    # The process-wide default, so serial-path pipeline metrics land in
    # the same snapshot as the campaign/engine series.
    registry = get_registry()
    if lanes >= 2 and injector == "gefin":
        # the pipeline engine has no batched mode; record the fallback
        registry.counter(BATCH_FALLBACKS).inc()
        setup.events.emit("batch_fallback", campaign=stem,
                          injector=injector, lanes=lanes)
    # Batched shards carry a lane group per task, so their checkpoint
    # layout is incompatible with scalar shards of the same campaign:
    # keep them in a distinct directory.
    checkpoint_dir = (cache_dir() / "shards"
                      / (f"{stem}-l{lanes}" if batched else stem)
                      if use_cache else None)

    wall_started = time.monotonic()
    results = run_sharded(
        setup.worker(batched), tasks, workers=setup.workers,
        shard_size=shard_size, checkpoint_dir=checkpoint_dir,
        encode=_encode_many if batched else asdict,
        decode=_decode_many if batched else _decode_one,
        events=setup.events, progress=reporter,
        outcome_key=None if batched else attrgetter("outcome"),
        label=stem,
        metrics=registry if registry.enabled else None,
        repro_dir=cache_dir() / "repros")
    if batched:
        # flatten lane groups back into campaign index order; results
        # are then bit-for-bit the scalar campaign's
        flat = [None] * n
        for group, group_results in zip(lane_groups, results):
            for index, result in zip(group, group_results):
                flat[index] = result
        results = flat
    elapsed = time.monotonic() - wall_started
    return setup.finish(results, elapsed, checkpoint_dir=checkpoint_dir)
