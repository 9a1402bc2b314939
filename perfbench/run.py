"""Cross-layer fault-injection benchmark.

    python3 perfbench/run.py --workload gefin-avf --seed 1 --seconds 24 \
        --trace 0

Runs one workload's fault-injection campaigns (see ``campaigns.py``)
back to back for about ``--seconds`` seconds from one caller in this
process, checks every campaign against its recorded digest, and prints
as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (untraced):
``injections_per_s``, ``setup_s`` and ``peak_rss_mb``, with times in
reference seconds (see ``campaigns.py``).  ``--trace 1``
reports the per-layer metrics: each campaign seed of the run is passed
once untraced and once traced, and the first traced pass gives the
layer split.  Lines before the JSON carry the failed-run
share and the exact simulated-statistics ledger (``ledger ...``), which
repeats for a given seed.

The program is imported from ``src/`` of the checkout; every file the
benchmark writes lives under ``.perfbench/`` there and is removed on
exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
from statistics import median

import campaigns as cb
import spans

SETUP_REPEATS = 5
#: engine of the fault-free reference run each injector is costed against
REFERENCE_ENGINE = {"gefin": "pipeline", "pvf": "sim", "svf": "host"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(cb.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# timed phases
# ---------------------------------------------------------------------------
def fault_free_seconds(workload: cb.Workload) -> dict:
    """(program, injector) -> reference seconds of one fault-free run on
    the engine that injector uses, after one warm-up run (fastest of
    3)."""
    from repro.uarch.config import config_by_name
    from repro.uarch.functional import run_functional
    from repro.uarch.pipeline import run_pipeline
    from repro.workloads.suite import load_workload

    config = config_by_name(cb.CONFIG)
    out = {}
    for cell in workload.cells:
        key = (cell.program, cell.injector)
        if key in out:
            continue
        program = load_workload(cell.program, config.isa)
        engine = REFERENCE_ENGINE[cell.injector]
        if engine == "pipeline":
            def once():
                run_pipeline(program, config)
        else:
            def once():
                run_functional(program, kernel=engine)
        once()
        samples = []
        for _ in range(3):
            before = cb.edge_probes()
            started = time.perf_counter()
            once()
            elapsed = time.perf_counter() - started
            samples.append(cb.to_reference(elapsed,
                                           before + cb.edge_probes()))
        out[key] = min(samples)
    return out


def cost_ratios(passes: list, fault_free: dict) -> dict:
    """injector -> reference s per injection run / reference s of a
    fault-free run of the same program (ZOFI)."""
    cells = {}
    for result in passes:
        for index, cell_result in enumerate(result.cells):
            cells[(result.seed, index)] = cell_result.cell
    spent: dict = {}
    baseline: dict = {}
    for key, seconds in cb.campaign_seconds(passes).items():
        cell = cells.get(key)
        if cell is None:
            continue
        spent[cell.injector] = spent.get(cell.injector, 0.0) + seconds
        baseline[cell.injector] = (
            baseline.get(cell.injector, 0.0)
            + cell.n * fault_free[(cell.program, cell.injector)])
    return {inj: spent[inj] / baseline[inj] if inj in baseline else 0.0
            for inj in REFERENCE_ENGINE}


def untraced_run(workload, seed, seconds, work, reference):
    cache = work / "cache"
    setups = [cb.cold_setup(workload, cache) for _ in range(SETUP_REPEATS)]
    memos = cb.seed_free_memos()
    passes = [cb.run_pass(workload, campaign_seed, reference, memos)
              for campaign_seed in cb.campaign_seeds(seed, seconds,
                                                     workload)]
    probes = [p for result in passes for cell in result.cells
              for p in cell.probes]
    print(f"host_speed {cb.to_reference(1.0, probes)} "
          f"(reference s per host s, median over {len(probes)} probes)")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "injections_per_s": (cb.pass_throughput(passes), "runs/s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }
    return metrics, passes, {"outcomes": cb.ledger(passes[0])}, []


def _traced_pass(workload, seed, reference, memos):
    """One pass under a fresh tracer and an enabled metrics registry;
    returns (pass, tracer, registry snapshot)."""
    from repro.obs.metrics import MetricsRegistry, get_registry, set_registry

    previous = get_registry()
    set_registry(MetricsRegistry(enabled=True))
    tracer = spans.Tracer()
    try:
        with tracer:
            root = tracer.begin(spans.ROOT)
            result = cb.run_pass(workload, seed, reference, memos)
            tracer.end(root)
        snapshot = get_registry().snapshot()
    finally:
        set_registry(previous)
    return result, tracer, snapshot


def traced_run(workload, seed, seconds, work, reference):
    cache = work / "cache"
    setup_tracer = spans.Tracer()
    with setup_tracer:
        cb.cold_setup(workload, cache)
    store_mb = cb.store_bytes(cache) / 2 ** 20
    memos = cb.seed_free_memos()
    fault_free = fault_free_seconds(workload)

    # the untraced run's seeds, each once untraced and once traced
    plain_passes, traced = [], []
    for campaign_seed in cb.campaign_seeds(seed, seconds, workload):
        plain_passes.append(cb.run_pass(workload, campaign_seed, reference,
                                        memos))
        traced.append(_traced_pass(workload, campaign_seed, reference,
                                   memos))
    traced_passes = [t[0] for t in traced]
    checks = []
    for plain, other in zip(plain_passes, traced_passes):
        if [r.digest for r in plain.cells] != \
                [r.digest for r in other.cells] \
                or cb.ledger(plain) != cb.ledger(other):
            checks.append(f"seed {plain.seed}: traced pass differs from "
                          f"untraced pass")
    first, tracer, snapshot = traced[0]
    for site in tracer.missing:
        print(f"trace: no lookup site {site}; its time counts toward "
              f"its caller")
    overhead = (sum(cb.campaign_seconds(traced_passes).values())
                / sum(cb.campaign_seconds(plain_passes).values()) - 1.0)
    metrics = layer_metrics(
        setup_spans=setup_tracer.spans, tracer=tracer, snapshot=snapshot,
        store_mb=store_mb, overhead=overhead,
        costs=cost_ratios(plain_passes, fault_free))
    ledger = {"outcomes": cb.ledger(first),
              "simulated": simulated_ledger(tracer, snapshot)}
    return metrics, plain_passes + traced_passes, ledger, checks


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------
#: metric -> span names whose self times it sums.  Every span name is
#: mapped (checked below), and self times under one root sum to the
#: root's duration, so these metrics sum to trace.wall_s by construction.
_SELF_TIME_SPANS = {
    "workloads.self_s": ("load_workload",),
    "golden.self_s": ("golden_run", "checkpoint_store"),
    "pipeline.self_s": ("pipeline_run",),
    "functional.self_s": ("functional_run",),
    "batch.self_s": ("batch_run",),
    "snapshot.restore_s": ("fastpath_restore",),
    "snapshot.digest_s": ("state_digest",),
    "loader.build_image_s": ("build_system_image",),
    "injectors.self_s": ("injection_run",),
    "engine.self_s": ("run_sharded",),
    "engine.checkpoint_write_s": ("checkpoint_write",),
    "campaign.self_s": ("run_campaign",),
    "core.aggregate_s": ("aggregate",),
    "obs.emit_s": ("emit",),
    "bench.self_s": (spans.ROOT,),
}
_UNMAPPED = (set(spans.LAYER_SITES) | {spans.ROOT}) ^ {
    name for names in _SELF_TIME_SPANS.values() for name in names}
assert not _UNMAPPED, f"span names not mapped to one metric: {_UNMAPPED}"


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(*, setup_spans, tracer, snapshot, store_mb, overhead,
                  costs) -> dict:
    setup_times = spans.inclusive_times(setup_spans)
    self_s = spans.self_times(tracer.spans)
    calls = spans.call_counts(tracer.spans)
    counts = tracer.counts
    counters = snapshot["counters"]
    shard_hist = snapshot["histograms"].get("engine.shard_seconds", {})

    def span_self(names):
        return sum(self_s.get(name, 0.0) for name in names)

    restores = counters.get("fastpath.restores", 0)
    lanes = counters.get("engine.batch_lanes_packed", 0)
    pipe_instr = counts["pipeline.sim_instructions"]
    func_instr = counts["functional.sim_instructions"]
    out = {
        "workloads.load_s": (setup_times.get("load_workload", 0.0), "s"),
        "golden.golden_run_s": (setup_times.get("golden_run", 0.0), "s"),
        "golden.checkpoint_store_s": (
            setup_times.get("checkpoint_store", 0.0), "s"),
        "golden.store_mb": (store_mb, "MiB"),
        "pipeline.calls": (calls.get("pipeline_run", 0), "count"),
        "pipeline.sim_instructions": (pipe_instr, "count"),
        "pipeline.sim_cycles": (counts["pipeline.sim_cycles"], "cycles"),
        "pipeline.ns_per_instr": (
            _ratio(1e9 * self_s.get("pipeline_run", 0.0), pipe_instr),
            "ns"),
        "functional.calls": (calls.get("functional_run", 0), "count"),
        "functional.sim_instructions": (func_instr, "count"),
        "functional.ns_per_instr": (
            _ratio(1e9 * self_s.get("functional_run", 0.0), func_instr),
            "ns"),
        "batch.calls": (calls.get("batch_run", 0), "count"),
        "batch.lanes_packed": (lanes, "count"),
        "batch.eviction_ratio": (_ratio(
            counters.get("engine.batch_scalar_evictions", 0), lanes),
            "ratio"),
        "batch.early_retire_ratio": (_ratio(
            counters.get("engine.batch_early_retires", 0), lanes),
            "ratio"),
        "snapshot.restores": (restores, "count"),
        "snapshot.digest_calls": (calls.get("state_digest", 0), "count"),
        "snapshot.early_exit_ratio": (_ratio(
            counters.get("fastpath.early_exits", 0), restores), "ratio"),
        "snapshot.instructions_saved": (
            counters.get("fastpath.instructions_saved", 0), "count"),
        "injectors.gefin_cost_x": (costs["gefin"], "x"),
        "injectors.pvf_cost_x": (costs["pvf"], "x"),
        "injectors.svf_cost_x": (costs["svf"], "x"),
        "engine.shards": (shard_hist.get("count", 0), "count"),
        "campaign.calls": (calls.get("run_campaign", 0), "count"),
        "obs.emit_calls": (calls.get("emit", 0), "count"),
        "trace.wall_s": (inclusive_root(tracer.spans), "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    for metric, names in _SELF_TIME_SPANS.items():
        out[metric] = (span_self(names), "s")
    return out


def inclusive_root(span_rows) -> float:
    return sum(end - start for name, start, end, parent in span_rows
               if parent < 0)


def simulated_ledger(tracer, snapshot) -> dict:
    """Simulated work of one traced pass: counts that repeat exactly."""
    counters = snapshot["counters"]
    out = {key: tracer.counts[key] for key in sorted(tracer.counts)}
    for key in ("fastpath.restores", "fastpath.early_exits",
                "fastpath.instructions_saved", "engine.batch_batches",
                "engine.batch_lanes_packed", "engine.batch_scalar_evictions",
                "engine.batch_early_retires"):
        out[key] = counters.get(key, 0)
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cb.import_program()
        reference = cb.load_reference()
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot load the program or its reference "
              f"digests: {exc}", file=sys.stderr)
        return 2
    cb.scrub_environment()
    workload = cb.WORKLOADS[args.workload]
    work = cb.HERE.parent / ".perfbench" / f"{workload.name}-{os.getpid()}"
    try:
        run = traced_run if args.trace else untraced_run
        metrics, passes, ledger, checks = run(
            workload, args.seed, args.seconds, work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still use it
            work.parent.rmdir()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for result in passes:
        for cell in result.cells:
            if cell.error:
                checks.append(f"seed {result.seed} {cell.cell.label}: "
                              f"{cell.error}")
    for line in checks:
        print(f"check failed: {line}")
    print(f"failed_frac {failed / attempted} ratio "
          f"({failed} of {attempted} runs, {len(passes)} passes)")
    for key, value in ledger.items():
        print(f"ledger {key} {json.dumps(value, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({
        "correct": not checks and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
