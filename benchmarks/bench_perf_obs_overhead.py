"""Observability overhead gates.

Two costs, two gates, one merged ``BENCH_perf_obs_overhead.json``:

* **Profiler** (<5% on a profiled campaign): ``REPRO_PROFILE``
  samples pipeline state every ``every`` instructions on the one
  fault-free golden run per campaign; injection runs are never
  profiled.  Times the same campaign with profiling off and on (cold
  caches both times), asserts byte-identical result streams, and
  gates the wall-clock overhead below 5%.
* **Diff capture** (<10% over a plain traced run): the drill-down
  explorer's window-bounded golden-vs-faulty capture adds a snapshot
  recorder to the faulty replay plus a checkpoint-restored windowed
  golden pass.  Both must stay cheap enough that drilling into a run
  costs essentially one traced replay.

Both gates time ``PAIRS`` back-to-back (plain, observed) pairs,
alternating which side runs first, and gate on the median of the
per-pair overheads: single pairs on a shared host swing by +-20%,
the median of ten holds still.  The quartiles print beside it.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from bench_common import OUT_DIR, emit, emit_json

from repro.injectors.campaign import run_campaign
from repro.injectors.golden import cache_dir
from repro.obs import profiles

WORKLOAD = "crc32"
CONFIG = "cortex-a72"
N = 24

#: the acceptance gates from the observability issues
MAX_OVERHEAD = 0.05
MAX_DIFF_OVERHEAD = 0.10

#: the diff-capture measurement target (sha is long enough that the
#: fixed per-capture costs — windowed golden pass, frame assembly —
#: amortise honestly; seed/index pin one concrete campaign run)
DIFF_WORKLOAD = "sha"
DIFF_SEED = 7

#: alternating (plain, observed) pairs per gate
PAIRS = 10


def _emit_merged(update: dict) -> dict:
    """Merge *update* into BENCH_perf_obs_overhead.json.

    Both gates in this module emit into the same sidecar;
    ``emit_json`` overwrites, so each test folds its keys into
    whatever the other already wrote.
    """
    path = OUT_DIR / "BENCH_perf_obs_overhead.json"
    merged = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text())
        except ValueError:
            merged = {}
    if not isinstance(merged, dict):
        merged = {}
    merged.update(update)
    return emit_json("perf_obs_overhead", merged)


def _paired_overheads(plain, observed) -> list:
    """Per-pair overheads of *observed* over *plain*.

    Each callable runs once and returns its own wall time in seconds.
    The side that runs first alternates between pairs, so host drift
    loads both sides alike.
    """
    overheads = []
    for k in range(PAIRS):
        if k % 2:
            t_observed = observed()
            t_plain = plain()
        else:
            t_plain = plain()
            t_observed = observed()
        overheads.append((t_observed - t_plain) / t_plain)
    return overheads


def _spread(overheads) -> dict:
    q1, median, q3 = statistics.quantiles(overheads, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def _spread_line(spread: dict, gate: float) -> str:
    return (f"overhead, median of {PAIRS} pairs "
            f"{100 * spread['median']:7.2f} %  "
            f"(quartiles {100 * spread['q1']:.2f} .. "
            f"{100 * spread['q3']:.2f} %; gate: <{100 * gate:.0f}%)")


def _campaign(profile: bool):
    # pay the full profiling cost inside the timed window: no warm
    # in-process memo, no pre-existing disk sidecar to short-circuit
    profiles.profile_golden_run.cache_clear()
    for sidecar in cache_dir().glob("profile-campaign-*.json"):
        sidecar.unlink()
    os.environ["REPRO_PROFILE"] = "1" if profile else "0"
    try:
        started = time.perf_counter()
        campaign = run_campaign(WORKLOAD, CONFIG, injector="gefin",
                                structure="RF", n=N, seed=2026,
                                use_cache=False, workers=1,
                                fastpath=False)
        return campaign, time.perf_counter() - started
    finally:
        os.environ.pop("REPRO_PROFILE", None)


def test_perf_profiler_overhead():
    reference = _campaign(profile=False)[0].to_json()  # warm caches
    times = {False: [], True: []}

    def timed(profile: bool):
        def run() -> float:
            campaign, seconds = _campaign(profile=profile)
            # profiling must be read-only: same results, byte for byte
            assert campaign.to_json() == reference
            times[profile].append(seconds)
            return seconds
        return run

    spread = _spread(_paired_overheads(timed(False), timed(True)))
    profile = profiles.profile_golden_run(WORKLOAD, CONFIG)
    t_plain = statistics.median(times[False])
    t_profiled = statistics.median(times[True])

    lines = [
        f"profiler overhead  {WORKLOAD}@{CONFIG}/RF n={N} "
        f"(sample every {profile.every} instructions)",
        "-" * 64,
        f"REPRO_PROFILE=0 campaign, median  {t_plain:8.2f} s",
        f"REPRO_PROFILE=1 campaign, median  {t_profiled:8.2f} s",
        _spread_line(spread, MAX_OVERHEAD),
        f"profile samples           {profile.samples:8d}  "
        f"({len(profile.occupancy)} structures, "
        f"{profile.n_phases} phases x {profile.n_regions} regions)",
    ]
    emit("perf_obs_overhead", "\n".join(lines))
    _emit_merged({
        "workload": WORKLOAD, "config": CONFIG, "n": N,
        "pairs": PAIRS,
        "plain_s": round(t_plain, 3),
        "profiled_s": round(t_profiled, 3),
        "overhead": round(spread["median"], 4),
        "overhead_q1": round(spread["q1"], 4),
        "overhead_q3": round(spread["q3"], 4),
        "gate": MAX_OVERHEAD,
        "samples": profile.samples,
    })
    assert spread["median"] < MAX_OVERHEAD


def test_perf_diff_capture():
    from repro.injectors.golden import checkpoint_store, golden_run
    from repro.obs.trace_diff import capture_diff
    from repro.obs.tracing import trace_run

    # warm everything a drill-down would find warm on a live bench:
    # the golden memo and the golden-fork checkpoint store
    golden_run(DIFF_WORKLOAD, CONFIG)
    checkpoint_store(DIFF_WORKLOAD, CONFIG, engine="functional-host")
    trace_run("svf", DIFF_WORKLOAD, CONFIG, DIFF_SEED, index=0)
    payload = capture_diff("svf", DIFF_WORKLOAD, CONFIG, DIFF_SEED,
                           index=0)

    times = {"trace": [], "capture": []}

    def timed(name: str, fn):
        def run() -> float:
            started = time.perf_counter()
            fn()
            seconds = time.perf_counter() - started
            times[name].append(seconds)
            return seconds
        return run

    spread = _spread(_paired_overheads(
        timed("trace", lambda: trace_run("svf", DIFF_WORKLOAD, CONFIG,
                                         DIFF_SEED, index=0)),
        timed("capture", lambda: capture_diff("svf", DIFF_WORKLOAD,
                                              CONFIG, DIFF_SEED,
                                              index=0))))
    t_trace = statistics.median(times["trace"])
    t_capture = statistics.median(times["capture"])

    lines = [
        f"diff-capture overhead  svf:{DIFF_WORKLOAD}@{CONFIG} "
        f"seed={DIFF_SEED} index=0",
        "-" * 64,
        f"plain traced run, median       {1000 * t_trace:8.2f} ms",
        f"windowed diff capture, median  {1000 * t_capture:8.2f} ms",
        _spread_line(spread, MAX_DIFF_OVERHEAD),
        f"frames recorded           {len(payload['frames']):8d}",
    ]
    emit("perf_diff_capture", "\n".join(lines))
    _emit_merged({
        "diff_workload": DIFF_WORKLOAD,
        "diff_seed": DIFF_SEED,
        "diff_pairs": PAIRS,
        "diff_trace_s": round(t_trace, 4),
        "diff_capture_s": round(t_capture, 4),
        "diff_overhead": round(spread["median"], 4),
        "diff_overhead_q1": round(spread["q1"], 4),
        "diff_overhead_q3": round(spread["q3"], 4),
        "diff_gate": MAX_DIFF_OVERHEAD,
        "diff_frames": len(payload["frames"]),
    })
    assert spread["median"] < MAX_DIFF_OVERHEAD
