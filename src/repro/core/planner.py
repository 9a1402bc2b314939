"""Two-level statistical campaign planner (Hari et al. style).

Naive campaigns pay a fixed ``n`` independent random injections per
(workload, config, structure, layer) cell, with ``n`` sized by the
worst-case proportion (``p = 0.5``) and blind to the occupancy weight
that scales the final AVF.  This module replaces that with a
two-level, sequentially-stopped design:

1. **Partition.**  The naive campaign's ``n``-draw site stream is the
   cell's finite fault population: every draw is deterministic in
   ``(seed, index)``, so the planner replays the per-index RNG
   streams *without running any simulation* and partitions the sites
   into equivalence classes — program-phase windows crossed with bit
   regions of the target entry.  The residency profiles
   (:mod:`repro.obs.profiles`) annotate each class with analytic
   liveness priors; classes whose windows provably contain no live
   state (zero profiled occupancy under uniform sampling) are
   *pruned* — a flip into dead state is hardware-masked, so the class
   contributes ``p = 0`` without a single injection.
2. **Representative subsampling.**  The planner injects one
   representative per class first, then keeps drawing batches
   allocated proportionally to class population weights, consuming
   each class's site list in stream order.  Because the planned
   injections reuse the naive campaign's exact ``(seed, index)``
   sites (common random numbers), the extrapolated estimate
   ``p = sum(w_i * s_i / t_i)`` converges to the naive campaign's
   estimate *exactly* as the budget approaches ``n`` — the planner
   trades nothing but tail samples for its speedup.
3. **Sequential Wilson early stopping.**  After every batch the
   pooled :func:`~repro.faults.sampling.wilson_interval` is scaled
   onto the AVF axis by the occupancy weight; the cell stops once the
   weighted interval is inside the target margin (plus guards: a
   raw-proportion precision cap, and a tighter one-sided bound while
   the sample contains zero vulnerable outcomes).

Small early-stopped samples make the raw ``s/t`` ratio degenerate at
the extremes, so the extrapolated estimate is the per-class Beta
posterior mean under a weak analytic prior (:data:`PRIOR_P`,
calibrated from the ACE/residency analysis of the seed workloads) —
the standard regulariser for 0-of-n cells.

Every planned campaign is cached as a normal ``campaign-*.json``
sidecar carrying a ``plan`` record with per-class weights/populations
and planned-vs-actual sample counts (cache schema 4).
``benchmarks/bench_perf_planner.py`` holds the contract: >= 5x fewer
injections on a Table-III-style sweep with every cell estimate inside
the naive campaign's 99% Wilson interval.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from ..faults.fault import fault_site_bit
from ..faults.sampling import wilson_interval
from ..injectors.campaign import draw_fault
from ..obs.metrics import get_registry
from ..uarch.config import MicroarchConfig, config_by_name

#: planner grid — coarser than the dashboard's attribution grid so the
#: one-representative-per-class opening batch stays small
PLAN_PHASES = 4
PLAN_REGIONS = 2

#: injections per sequential round after the opening representative
#: sweep (rounds then grow ~1.5x)
ROUND_SIZE = 16
#: default stopping margin on the (occupancy-weighted) AVF axis
DEFAULT_TARGET_MARGIN = 0.05
#: never stop a sampled cell before this many injections — guards the
#: estimate-inside-naive-Wilson equivalence contract for cells whose
#: occupancy weight would otherwise satisfy the margin almost
#: immediately.  The floor is set by the finite-population containment
#: bound: a subsample of n sites out of N differs from the full-
#: population estimate by ~z * sqrt(p(1-p)(1/n - 1/N)), which stays
#: inside the naive 99% Wilson half-width (~2.58 * sqrt(p(1-p)/N))
#: only when N/n - 1 is small — *independent of p*.  48 of a
#: 260-site population keeps the containment z above 1.2 while
#: preserving the >= 5x savings contract.
MIN_SAMPLES = 48
#: a cell that has seen *zero* vulnerable outcomes may only stop once
#: its one-sided Wilson bound is this much tighter than the target:
#: all-masked evidence is exactly where a small sample is least able
#: to distinguish "rare" from "never"
ZERO_HIT_TIGHTEN = 0.3
#: cap on the *raw-proportion* Wilson half-width at stopping.  The
#: weighted margin alone would let a low-occupancy structure stop
#: with an arbitrarily sloppy conditional estimate (the weight hides
#: it); the cap keeps the conditional proportion itself honest, which
#: is what the naive-equivalence contract is checked on.
RAW_HALF_CAP = 0.18
#: pooled pseudo-count strength of the analytic shrinkage prior.  The
#: extrapolated estimate is the posterior mean under a Beta prior of
#: this total weight centred on the cell's analytic vulnerability
#: prior — the textbook regulariser for the degenerate 0/n and n/n
#: estimates that tiny early-stopped samples otherwise produce.
PRIOR_STRENGTH = 6.0
#: calibrated per-structure vulnerability priors *conditional on
#: hitting live state* (the scale gefin campaigns sample on), one per
#: injection-target structure.  Seeded from the ACE lifetime analysis
#: (:mod:`repro.core.ace`) of the MiBench-style suite and the PR-5
#: residency profiles.
PRIOR_P = {
    "RF": 0.17,
    "LSQ": 0.38,
    "L1I": 0.17,
    "L1D": 0.06,
    "L2": 0.06,
}

PLANNERS = ("naive", "two-level")


# ---------------------------------------------------------------------------
# level 1: partition the fault population into equivalence classes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EquivClass:
    """One equivalence class of fault sites: a phase x bit-region cell.

    *weight* is the class's share of the fault population; *live* is
    the residency-profiled live fraction of the class (an analytic
    prior — it never reweights the estimator); *pruned* marks classes
    proven dead by the residency analysis (``p = 0`` analytically, no
    injections spent).
    """

    phase: int
    region: int
    weight: float
    live: float
    pruned: bool = False


def region_span(width: int, region: int, n_regions: int) -> tuple:
    """Bit range ``[lo, hi)`` of one region within an entry."""
    return (region * width // n_regions,
            (region + 1) * width // n_regions)


def _class_live(profile, structure: str, phase: int, region: int,
                n_phases: int, n_regions: int) -> tuple:
    """(live fraction, occupancy) of one planner cell from a profile.

    The profile's grid (8 phases x 4 regions by default) is averaged
    over the planner cell it covers.
    """
    occ_series = profile.occupancy.get(structure, [])
    regions = profile.liveness.get(structure, {})
    labels = sorted(regions)

    def covered(n_src, index, n_dst):
        lo = index * n_src // n_dst
        hi = max(lo + 1, (index + 1) * n_src // n_dst)
        return range(lo, hi)

    occs = [occ_series[i] for i in
            covered(len(occ_series), phase, n_phases)] \
        if occ_series else []
    occupancy = sum(occs) / len(occs) if occs else 1.0
    lives = []
    for r in covered(len(labels), region, n_regions) if labels else []:
        series = regions[labels[r]]
        for i in covered(len(series), phase, n_phases):
            lives.append(series[i])
    live = sum(lives) / len(lives) if lives else 1.0
    return live, occupancy


def partition_classes(workload: str, config: "MicroarchConfig | str",
                      structure: str | None = None,
                      injector: str = "gefin",
                      hardened: bool = False,
                      prefer_live: bool = True,
                      n_phases: int = PLAN_PHASES,
                      n_regions: int = PLAN_REGIONS) -> list:
    """Partition one cell's fault population into equivalence classes.

    For gefin cells the grid is phase windows x bit regions of the
    target structure's entry word, annotated with the PR-5 residency
    profile's per-cell live fraction; the listed weights are the
    analytic population shares (equal time slices x
    ``width // n_regions``-bit spans).  Architectural injectors
    (pvf/svf) have no microarchitectural site coordinates, so they
    form a single class — their planned campaigns are early-stopped
    prefixes of the naive draw stream.

    A class is pruned — proven hardware-masked analytically — only
    for uniform (non-live-steered) sampling, when the residency
    profile recorded zero occupancy for the structure across the
    whole window: a flip into an invalid/unallocated entry is dead
    state by construction.
    """
    from ..obs.profiles import profile_golden_run

    config = (config_by_name(config) if isinstance(config, str)
              else config)
    if injector != "gefin":
        return [EquivClass(phase=0, region=0, weight=1.0, live=1.0)]
    if structure is None:
        raise ValueError("gefin planning needs a structure")
    width = config.entry_bits(structure)
    profile = profile_golden_run(workload, config.name,
                                 hardened=hardened)
    classes = []
    for phase in range(n_phases):
        for region in range(n_regions):
            lo, hi = region_span(width, region, n_regions)
            weight = (hi - lo) / width / n_phases
            live, occupancy = _class_live(
                profile, structure, phase, region, n_phases, n_regions)
            pruned = (not prefer_live) and occupancy == 0.0
            classes.append(EquivClass(phase=phase, region=region,
                                      weight=weight, live=live,
                                      pruned=pruned))
    return classes


def enumerate_stream(workload: str, config: MicroarchConfig,
                     structure: str, seed: int, n: int, t_max: float,
                     prefer_live: bool = True,
                     n_phases: int = PLAN_PHASES,
                     n_regions: int = PLAN_REGIONS) -> list:
    """Classify the naive campaign's ``n``-draw site stream by class.

    Replays the naive gefin worker's per-index draw
    (:func:`repro.injectors.campaign.draw_fault`) without running any
    simulation, and returns one list of naive draw
    indices per ``phase * n_regions + region`` class — the finite
    fault population the planner subsamples.  Injecting a planned
    draw therefore reproduces the naive campaign's result at that
    index bit-for-bit (common random numbers), which is what makes
    the two-level estimate converge to the naive estimate at full
    budget.
    """
    width = config.entry_bits(structure)
    members = [[] for _ in range(n_phases * n_regions)]
    for index in range(n):
        spec = draw_fault("gefin", index, workload=workload,
                          config=config, seed=seed, structure=structure,
                          prefer_live=prefer_live, t_max=t_max)
        phase = (min(int(spec.cycle / t_max * n_phases), n_phases - 1)
                 if t_max > 0 else 0)
        bit = fault_site_bit(config, spec)
        region = min(bit * n_regions // max(1, width), n_regions - 1)
        members[phase * n_regions + region].append(index)
    return members


# ---------------------------------------------------------------------------
# level 2: sequential Wilson early stopping
# ---------------------------------------------------------------------------
def _allocate(batch: int, weights: list, drawn: list,
              caps: list) -> list:
    """Allocate *batch* draws across classes, proportional to weight.

    Largest-remainder apportionment over the *cumulative* target
    (``t_i ~ w_i * total``), so allocation stays proportional across
    batches; unsampled classes are served first (the representative
    sweep).  No class ever receives more draws than its remaining
    population (*caps*); zero-weight and exhausted classes receive
    nothing.
    """
    k = len(weights)
    alloc = [0] * k

    def headroom(i: int) -> int:
        return caps[i] - drawn[i] - alloc[i]

    active = [i for i in range(k)
              if weights[i] > 0 and headroom(i) > 0]
    if not active:
        return alloc
    remaining = batch
    for i in active:                      # representatives first
        if drawn[i] == 0 and remaining > 0 and headroom(i) > 0:
            alloc[i] = 1
            remaining -= 1
    if remaining <= 0:
        return alloc
    total_w = sum(weights[i] for i in active)
    total_after = sum(drawn) + batch
    fracs = []
    for i in active:
        want = weights[i] / total_w * total_after - drawn[i] - alloc[i]
        want = max(0.0, min(want, float(headroom(i))))
        base = int(want)
        alloc[i] += base
        remaining -= base
        fracs.append((-(want - base), i))
    fracs.sort()
    # hand out any remainder by largest fractional part (ties by class
    # order), looping while classes still have population headroom
    while remaining > 0:
        progressed = False
        for _, i in fracs:
            if remaining <= 0:
                break
            if headroom(i) > 0:
                alloc[i] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            break
    # claw back an overshoot (clipped negative targets can make the
    # integer floors exceed the batch), never below a representative
    while remaining < 0:
        progressed = False
        for _, i in sorted(fracs, reverse=True):
            if remaining >= 0:
                break
            keep = 1 if drawn[i] == 0 else 0
            if alloc[i] > keep:
                alloc[i] -= 1
                remaining += 1
                progressed = True
        if not progressed:
            break
    return alloc


def _stratified_estimate(weights: list, pruned: list, trials: list,
                         successes: list, prior_p: float = 0.0,
                         prior_strength: float = 0.0) -> float:
    """Per-class-weighted posterior-mean vulnerability estimate.

    Each class contributes its Beta posterior mean
    ``(s_i + k_i * p0) / (t_i + k_i)`` with the pooled prior strength
    spread over the active classes by weight (``k_i ~ w_i``), so the
    stratified estimate equals the pooled shrinkage estimate under
    proportional allocation.  Pruned classes contribute an exact
    ``p = 0`` — analytically dead state needs no regularising.
    """
    total_w = sum(weights)
    if total_w <= 0:
        return 0.0
    active_w = sum(w for w, dead in zip(weights, pruned) if not dead)
    est = 0.0
    for i, w in enumerate(weights):
        if pruned[i] or w <= 0:
            continue
        strength = (prior_strength * w / active_w
                    if active_w > 0 else 0.0)
        denom = trials[i] + strength
        if denom <= 0:
            continue
        est += w * (successes[i] + strength * prior_p) / denom
    return est / total_w


def run_planned_campaign(workload: str,
                         config: "MicroarchConfig | str",
                         injector: str = "gefin",
                         structure: str | None = None,
                         model: str = "WD", n: int = 200,
                         seed: int = 1,
                         target_margin: float = DEFAULT_TARGET_MARGIN,
                         confidence: float = 0.99,
                         hardened: bool = False,
                         prefer_live: bool = True,
                         use_cache: bool = True,
                         workers: int | None = None,
                         population: float | None = None,
                         progress: bool | None = None,
                         fastpath: bool | None = None,
                         n_phases: int = PLAN_PHASES,
                         n_regions: int = PLAN_REGIONS):
    """Run (or load) one two-level, sequentially-stopped campaign.

    *n* is the naive-equivalent budget: the sample count a fixed-size
    campaign would pay for this cell, the size of the finite site
    population the planner subsamples, and the hard cap on planned
    draws.  The result is a normal
    :class:`~repro.injectors.campaign.CampaignResult` whose ``plan``
    field records the partition (per-class weights, populations, live
    priors, trials, successes), the planned-vs-actual counts, the
    extrapolated estimate and the per-batch Wilson-margin trajectory.

    Determinism: the site stream is deterministic in
    ``(seed, index)``, batch allocation is a pure function of the
    class populations, and the stopping rule is a pure function of
    recorded counts — so the cached sidecar is byte-stable under a
    fixed seed, at any worker count.
    """
    from ..injectors import campaign as campaign_mod
    from ..injectors.engine import run_sharded
    from ..injectors.golden import cache_dir

    config_name = config if isinstance(config, str) else config.name
    cfg = config_by_name(config_name)
    target = structure if injector == "gefin" else model \
        if injector == "pvf" else "-"
    meta = campaign_mod._salted(
        (f"planned-{injector}", workload, config_name, target, n, seed,
         hardened, prefer_live, round(target_margin, 9),
         round(confidence, 9), ROUND_SIZE, n_phases, n_regions),
        workload, cfg, hardened)
    setup = campaign_mod._Campaign(
        injector, workload, config_name, meta, n=n, seed=seed,
        structure=structure, model=model, hardened=hardened,
        prefer_live=prefer_live, use_cache=use_cache,
        population=population, fastpath=fastpath, workers=workers)
    cached = setup.cached()
    if cached is not None:
        return cached
    golden = setup.prepare()
    path = setup.path

    classes = partition_classes(workload, cfg, structure=structure,
                                injector=injector, hardened=hardened,
                                prefer_live=prefer_live,
                                n_phases=n_phases,
                                n_regions=n_regions)
    if injector == "gefin":
        members = enumerate_stream(workload, cfg, structure, seed, n,
                                   golden.cycles,
                                   prefer_live=prefer_live,
                                   n_phases=n_phases,
                                   n_regions=n_regions)
    else:
        members = [list(range(n))]
    pruned = [c.pruned for c in classes]
    caps = [0 if pruned[i] else len(m)
            for i, m in enumerate(members)]
    # empirical population shares of the *finite* site stream — the
    # weights the extrapolation must use for full-budget equivalence
    weights = [len(m) / n if n else 0.0 for m in members]
    weight = setup.result.occupancy_weight
    prior = PRIOR_P[structure] if injector == "gefin" else 0.5

    trials = [0] * len(classes)
    hits = [0] * len(classes)
    per_class_results: list = [[] for _ in classes]
    batches: list = []
    wall_started = time.monotonic()
    stopped_early = False

    active = sum(1 for i in range(len(classes))
                 if caps[i] > 0 and weights[i] > 0)
    next_batch = max(active, min(MIN_SAMPLES, n))
    while True:
        next_batch = min(next_batch, sum(caps) - sum(trials))
        if next_batch <= 0:
            break
        alloc = _allocate(next_batch, weights, trials, caps)
        if sum(alloc) <= 0:
            break
        picks = [(i, members[i][trials[i] + k])
                 for i in range(len(classes)) for k in range(alloc[i])]
        batch_results = run_sharded(
            setup.worker(), [setup.task(index) for _, index in picks],
            workers=setup.workers, checkpoint_dir=None, encode=asdict,
            decode=campaign_mod._decode_one, events=setup.events,
            label=f"{path.stem}-b{len(batches)}",
            repro_dir=cache_dir() / "repros")
        for (owner, _), result in zip(picks, batch_results):
            trials[owner] += 1
            if result.vulnerable:
                hits[owner] += 1
            per_class_results[owner].append(result)
        total = sum(trials)
        pooled = sum(hits)
        # the shrinkage prior decays with population coverage: once
        # the subsample IS the population there is no sampling
        # uncertainty left to regularise, and the estimate must equal
        # the naive campaign's exactly (finite-population logic)
        strength = PRIOR_STRENGTH * (1.0 - total / n) if n else 0.0
        low, high = wilson_interval(pooled, total,
                                    confidence=confidence)
        margin_attained = weight * (high - low) / 2.0
        batches.append({
            "n": total,
            "margin": round(margin_attained, 6),
            "estimate": round(
                weight * _stratified_estimate(weights, pruned, trials,
                                              hits, prior, strength),
                6),
        })
        zero_ok = (pooled > 0
                   or weight * high
                   <= target_margin * ZERO_HIT_TIGHTEN)
        if (margin_attained <= target_margin and zero_ok
                and (high - low) / 2.0 <= RAW_HALF_CAP
                and total >= min(MIN_SAMPLES, n)):
            stopped_early = total < n
            break
        # grow batches geometrically (~1.5x) so long-running cells pay
        # O(log n) synchronisation rounds, not O(n / batch)
        next_batch = max(ROUND_SIZE, total // 2)

    # deterministic result order: class-major, draw-minor — stable no
    # matter how batches were sized
    results = [r for group in per_class_results for r in group]
    elapsed = time.monotonic() - wall_started

    total = sum(trials)
    strength = PRIOR_STRENGTH * (1.0 - total / n) if n else 0.0
    estimate = weight * _stratified_estimate(weights, pruned, trials,
                                             hits, prior, strength)
    low, high = (wilson_interval(sum(hits), total,
                                 confidence=confidence)
                 if total else (0.0, 1.0))
    plan = {
        "planner": "two-level",
        "target_margin": target_margin,
        "confidence": confidence,
        "batch": ROUND_SIZE,
        "n_phases": n_phases,
        "n_regions": n_regions,
        "planned_n": n,
        "actual_n": total,
        "savings": round(n / total, 3) if total else float(n),
        "stopped_early": stopped_early,
        "prior_p": round(prior, 6),
        "prior_strength": PRIOR_STRENGTH,
        "estimate": round(estimate, 6),
        "wilson": [round(weight * low, 6), round(weight * high, 6)],
        "margin_attained": (batches[-1]["margin"] if batches
                            else 0.0),
        "classes": [{
            "phase": cls.phase, "region": cls.region,
            "weight": round(weights[i], 6),
            "population": len(members[i]),
            "live": round(cls.live, 6),
            "pruned": cls.pruned,
            "trials": trials[i], "successes": hits[i],
        } for i, cls in enumerate(classes)],
        "batches": batches,
    }

    campaign = setup.finish(results, elapsed, plan=plan)
    setup.events.emit("planner_summary", campaign=path.stem,
                      planner="two-level", injector=injector,
                      workload=workload, config=config_name,
                      target=target, planned_n=n, actual_n=total,
                      savings=plan["savings"],
                      margin_attained=plan["margin_attained"],
                      target_margin=target_margin,
                      estimate=plan["estimate"])
    registry = get_registry()   # a disabled one counts nothing
    registry.counter("planner.injections_planned").inc(n)
    registry.counter("planner.injections_spent").inc(total)
    registry.counter("planner.injections_saved").inc(max(0, n - total))
    return campaign


def planner_table(campaigns: list) -> list:
    """Rows of (cell, planned, actual, savings, margin) for planned
    campaigns — the dashboard/report "statistical planning" section."""
    rows = []
    for campaign in campaigns:
        plan = getattr(campaign, "plan", None)
        if not plan:
            continue
        target = campaign.structure or campaign.model or "-"
        rows.append({
            "cell": (f"{campaign.injector}:{campaign.workload}"
                     f"@{campaign.config_name}/{target}"),
            "planned_n": plan.get("planned_n", campaign.n),
            "actual_n": plan.get("actual_n", len(campaign.results)),
            "savings": plan.get("savings", 1.0),
            "target_margin": plan.get("target_margin"),
            "margin_attained": plan.get("margin_attained"),
            "estimate": plan.get("estimate"),
            "classes": sum(1 for c in plan.get("classes", [])
                           if not c.get("pruned")),
            "pruned": sum(1 for c in plan.get("classes", [])
                          if c.get("pruned")),
        })
    return rows
