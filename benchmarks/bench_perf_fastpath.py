"""Golden-fork fast-path speedup (and its equivalence gate).

Times the same gefin campaign with the checkpoint fast path off and
on, asserts the two result streams are byte-identical, and reports
the speedup plus where it comes from (instructions skipped by the
restore, instructions saved by early Masked termination).  The
capture-run cost is reported separately: it is paid once per
(workload, config, engine) and amortised across every later run.
"""

from __future__ import annotations

import time

from bench_common import emit, emit_json

from repro.injectors.campaign import run_campaign
from repro.injectors.golden import checkpoint_store, golden_run
from repro.obs.metrics import (FASTPATH_EARLY_EXITS,
                               FASTPATH_INSTRUCTIONS_SAVED,
                               FASTPATH_INSTRUCTIONS_SKIPPED,
                               MetricsRegistry, set_registry)

WORKLOAD = "crc32"
CONFIG = "cortex-a72"
N = 40


def _campaign(fastpath: bool):
    started = time.perf_counter()
    campaign = run_campaign(WORKLOAD, CONFIG, injector="gefin",
                            structure="RF", n=N, seed=2026,
                            use_cache=False, workers=1,
                            fastpath=fastpath)
    return campaign, time.perf_counter() - started


def test_perf_fastpath_speedup():
    golden = golden_run(WORKLOAD, CONFIG)

    started = time.perf_counter()
    store = checkpoint_store(WORKLOAD, CONFIG, engine="pipeline")
    capture = time.perf_counter() - started

    slow, t_slow = _campaign(fastpath=False)

    registry = MetricsRegistry(enabled=True)
    set_registry(registry)
    try:
        fast, t_fast = _campaign(fastpath=True)
    finally:
        set_registry(None)

    # the equivalence gate: speed must never buy different results
    assert fast.to_json() == slow.to_json()

    counters = registry.snapshot()["counters"]
    skipped = counters.get(FASTPATH_INSTRUCTIONS_SKIPPED, 0)
    saved = counters.get(FASTPATH_INSTRUCTIONS_SAVED, 0)
    exits = counters.get(FASTPATH_EARLY_EXITS, 0)
    total = N * golden.instructions
    speedup = t_slow / t_fast if t_fast > 0 else float("inf")

    lines = [
        f"fast-path speedup  {WORKLOAD}@{CONFIG}/RF n={N} "
        f"({len(store.checkpoints)} checkpoints, "
        f"interval {store.interval})",
        "-" * 64,
        f"slow path (campaign)    {t_slow:8.2f} s",
        f"fast path (campaign)    {t_fast:8.2f} s",
        f"speedup (warm store)    {speedup:8.2f} x",
        f"capture run (amortised) {capture:8.2f} s",
        f"instructions skipped    {skipped:8d}  "
        f"({100 * skipped / total:.1f}% of slow-path work)",
        f"instructions saved      {saved:8d}  "
        f"(early exits: {exits}/{N})",
    ]
    emit("perf_fastpath", "\n".join(lines))
    emit_json("perf_fastpath", {
        "workload": WORKLOAD, "config": CONFIG, "n": N,
        "slow_s": round(t_slow, 3), "fast_s": round(t_fast, 3),
        "speedup": round(speedup, 3),
        "capture_s": round(capture, 3),
        "instructions_skipped": skipped,
        "instructions_saved": saved, "early_exits": exits,
    })
    # conservative regression gate; measured ~6x on the dev machine
    assert speedup > 1.5
