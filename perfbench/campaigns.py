"""The benchmark's workloads: fixed sets of fault-injection campaigns.

A *pass* runs every campaign of a workload once, back to back, in this
process (one caller, closed loop, ``workers=1``) on ``cortex-a72`` with
the fast path at its default (on).  Each campaign's
``CampaignResult.to_json()`` is hashed and compared with the digest
recorded in ``reference.json`` for the same campaign seed; a campaign
that raises or mismatches counts all of its runs as failed.

Campaign seeds come from the benchmark seed: a run seeded *s* uses
campaign seeds ``(s + k) % REFERENCE_SEEDS`` for k = 0, 1, ..., so
every campaign seed has a recorded digest.

Every pass starts from the same in-process state: the memos a campaign
seed can grow (decodes of corrupted instruction words) are reset to
what set-up left, so a repeat of a seed reuses nothing from the first.

Times are kept in *reference seconds*: wall seconds scaled by the
host's speed, read from a probe (:func:`probe`) run next to the timed
work.  A shared host runs the same work up to 2x slower in bursts of
seconds and drifts by 15% or more over minutes; scaling by a probe
taken within milliseconds of the work takes both out.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_PATH = HERE / "reference.json"

#: campaign seeds with recorded digests; pass k of a run seeded s uses
#: seed (s + k) % REFERENCE_SEEDS
REFERENCE_SEEDS = 64
CONFIG = "cortex-a72"


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the
    program; raises ImportError when the checkout has no program."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro.core.weighting  # noqa: F401
    import repro.injectors.campaign  # noqa: F401


@dataclass(frozen=True)
class Cell:
    """One campaign of a pass."""

    program: str
    injector: str
    target: str          # structure (gefin) or model (pvf); "-" for svf
    n: int

    @property
    def label(self) -> str:
        return f"{self.injector}:{self.program}/{self.target}"

    def kwargs(self) -> dict:
        if self.injector == "gefin":
            return {"structure": self.target}
        if self.injector == "pvf":
            return {"model": self.target}
        return {}


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple
    programs: tuple
    #: checkpoint-store engines the set-up builds
    stores: tuple
    #: wall seconds of one pass on a 2-core x86 VM when other tenants
    #: slow it; sizes a run so that it does the same work whatever the
    #: host speed
    pass_seconds: float
    #: ``batch_lanes`` for every campaign (0 = scalar)
    lanes: int = 0
    #: reference digest table shared with another workload
    reference: str = ""
    #: fold the gefin campaigns into size-weighted AVF/HVF per program
    aggregate: bool = False

    @property
    def reference_key(self) -> str:
        return self.reference or self.name


#: campaign sizes: gefin as the repository's gefin benches run it (30
#: runs, shards of 2), pvf/svf at 64 (shards of 4)
GEFIN_N = 30
ARCH_N = 64
_STRUCTURES = ("RF", "LSQ", "L1I", "L1D", "L2")
_ARCH_CELLS = tuple(
    Cell(program, "pvf", model, ARCH_N)
    for program in ("sha", "crc32") for model in ("WD", "WOI", "WI")
) + tuple(Cell(program, "svf", "-", ARCH_N) for program in ("sha", "crc32"))

_ARCH_STORES = ("functional-sim", "functional-host")

WORKLOADS = {
    "gefin-avf": Workload(
        name="gefin-avf",
        cells=tuple(Cell(program, "gefin", structure, GEFIN_N)
                    for program in ("sha", "qsort")
                    for structure in _STRUCTURES),
        programs=("sha", "qsort"), stores=("pipeline",),
        pass_seconds=24.0, aggregate=True),
    "arch-scalar": Workload(
        name="arch-scalar", cells=_ARCH_CELLS, programs=("sha", "crc32"),
        stores=_ARCH_STORES, pass_seconds=7.5, lanes=0, reference="arch"),
    "arch-batched": Workload(
        name="arch-batched", cells=_ARCH_CELLS, programs=("sha", "crc32"),
        stores=_ARCH_STORES, pass_seconds=5.0, lanes=64, reference="arch"),
}


#: the per-task workers ``run_campaign`` hands to ``run_sharded``: one
#: injection run each, or one lane group when batched
TASK_SITES = {"task": ("injectors", [
    ("repro.injectors.campaign", "_one_gefin"),
    ("repro.injectors.campaign", "_one_pvf"),
    ("repro.injectors.campaign", "_one_svf"),
    ("repro.injectors.batch", "_one_pvf_batch"),
    ("repro.injectors.batch", "_one_svf_batch")])}


def campaign_seed(seed: int, index: int) -> int:
    return (seed + index) % REFERENCE_SEEDS


def campaign_seeds(seed: int, seconds: float, workload: Workload) -> list:
    """The campaign seeds of a run: as many passes as fit *seconds* (at
    least one)."""
    count = round(seconds / workload.pass_seconds)
    count = max(1, min(count, REFERENCE_SEEDS))
    return [campaign_seed(seed, k) for k in range(count)]


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------
#: steps of one probe: about 1 ms on the reference host
PROBE_STEPS = 1500
#: seconds of one probe on the reference host, a 2-core x86 VM, when
#: no other tenant slows it (the tenth percentile of its probes)
REFERENCE_PROBE_S = 0.00055
#: probes taken before and after each timed set-up or fault-free run
EDGE_PROBES = 3


def probe(clock=time.perf_counter) -> float:
    """Seconds of a fixed piece of pure-Python work: integer arithmetic
    and list and dict updates, as the simulators' interpreter loops do.
    None of it is the program's code, so no change to the program can
    move it; only the host's speed can."""
    started = clock()
    regs = [0] * 32
    memory: dict = {}
    x = 1
    for _ in range(PROBE_STEPS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        reg = x & 31
        regs[reg] = (regs[reg] + x) & 0xFFFFFFFF
        memory[x & 1023] = regs[reg] >> 3
    return clock() - started


def to_reference(seconds: float, probes) -> float:
    """*seconds* of wall time at the host speed read from the median of
    *probes* (taken next to it), as seconds at the reference speed."""
    return seconds * REFERENCE_PROBE_S / median(probes)


def edge_probes() -> list:
    return [probe() for _ in range(EDGE_PROBES)]


def digest(campaign) -> str:
    """sha256 of the campaign's canonical JSON."""
    blob = json.dumps(campaign.to_json(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------
def scrub_environment() -> None:
    """Drop every ``REPRO_*`` knob so the program runs on its defaults."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def use_cache_dir(path: Path) -> None:
    path.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(path)


def clear_memoisation() -> None:
    """Forget every in-process memo of assembled programs, golden runs,
    checkpoint stores and decoded words, so set-up starts cold."""
    from repro.injectors import golden
    from repro.kernel import kernel_asm
    from repro.uarch import functional
    from repro.workloads import suite

    for memo in (suite.workload_spec, suite.load_workload,
                 kernel_asm.kernel_program, golden.golden_run,
                 golden.checkpoint_store):
        _original(memo).cache_clear()
    functional._DECODE_CACHE.clear()


def seed_free_memos() -> dict:
    """A copy of the in-process memos that campaign seeds can grow, as
    set-up left them (the golden programs' decoded words)."""
    from repro.uarch import functional

    return dict(functional._DECODE_CACHE)


def restore_memos(memos: dict) -> None:
    """Put the memos back to *memos* (from :func:`seed_free_memos`)."""
    from repro.uarch import functional

    functional._DECODE_CACHE.clear()
    functional._DECODE_CACHE.update(memos)


def _original(fn):
    """The lru-cached function under any span wrappers."""
    while not hasattr(fn, "cache_clear"):
        fn = fn.__wrapped__
    return fn


def setup(workload: Workload) -> None:
    """Assemble, golden-run and checkpoint every program of *workload*
    (what ``run_campaign`` pre-warms before its first run)."""
    from repro.injectors import golden

    for program in workload.programs:
        golden.golden_run(program, CONFIG)
        for engine in workload.stores:
            golden.checkpoint_store(program, CONFIG, engine=engine)


def cold_setup(workload: Workload, cache: Path) -> float:
    """Time one set-up in an empty cache directory; returns reference
    seconds."""
    shutil.rmtree(cache, ignore_errors=True)
    use_cache_dir(cache)
    clear_memoisation()
    before = edge_probes()
    started = time.perf_counter()
    setup(workload)
    elapsed = time.perf_counter() - started
    return to_reference(elapsed, before + edge_probes())


def store_bytes(cache: Path) -> int:
    return sum(p.stat().st_size for p in cache.glob("checkpoints-*.pkl"))


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------
@dataclass
class CellResult:
    cell: Cell
    seconds: float
    ok: bool
    outcomes: dict
    digest: str = ""
    error: str = ""
    #: host seconds of each task, in the order the campaign ran them
    tasks: tuple = ()
    #: probe i ran just before task i, the last one after the campaign;
    #: the probes before tasks are inside ``seconds``
    probes: tuple = ()

    def reference_seconds(self) -> float:
        """The campaign's seconds at the reference host speed.  Each task
        is scaled by the median of the five probes around it, the time
        outside tasks and probes by the median of all probes."""
        probes = self.probes
        if len(probes) != len(self.tasks) + 1:    # a campaign that raised
            return self.seconds
        tasks = sum(to_reference(t, probes[max(0, i - 2):i + 3])
                    for i, t in enumerate(self.tasks))
        outside = self.seconds - sum(self.tasks) - sum(probes[:-1])
        return to_reference(outside, probes) + tasks


class TaskTimer(spans.Tracer):
    """Times every task (:data:`TASK_SITES`) and probes the host speed
    just before each one, outside its span."""

    def __init__(self) -> None:
        super().__init__(sites=TASK_SITES)
        self.probes: list = []

    def wrap(self, name, fn, before=None, after=None):
        traced = super().wrap(name, fn, before, after)
        probes = self.probes

        def probed(*args, **kwargs):
            probes.append(probe())
            return traced(*args, **kwargs)

        probed.__wrapped__ = fn
        return probed


@dataclass
class PassResult:
    seed: int
    cells: list
    #: reference seconds of the AVF/HVF aggregation (0 when not
    #: aggregated)
    aggregate_seconds: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(r.cell.n for r in self.cells)

    @property
    def failed(self) -> int:
        return sum(r.cell.n for r in self.cells if not r.ok)


def run_pass(workload: Workload, seed: int, reference: dict,
             memos: dict, runner=None) -> PassResult:
    """Run every campaign of *workload* once with campaign seed *seed*,
    after resetting the seed-grown memos to *memos*.

    *runner* stands in for ``run_campaign`` (tests); by default the
    function is looked up on its module at call time, so span wrappers
    installed there see the call.  A campaign's sidecar is removed
    first: every timed campaign simulates, and writes its shards and
    sidecar as ``repro campaign`` does.  Each task is timed on its own
    (:class:`TaskTimer`).
    """
    from repro.core import weighting
    from repro.injectors import campaign as campaign_mod
    from repro.uarch.config import config_by_name

    expected = reference.get(workload.reference_key, {}).get(str(seed), {})
    restore_memos(memos)
    timer = TaskTimer()
    results = []
    by_program: dict = {}
    for cell in workload.cells:
        kwargs = cell.kwargs()
        Path(campaign_mod.campaign_cache_path(
            cell.program, CONFIG, injector=cell.injector, n=cell.n,
            seed=seed, **kwargs)).unlink(missing_ok=True)
        run = runner or campaign_mod.run_campaign
        timer.spans.clear()
        timer.probes.clear()
        cell_started = time.perf_counter()
        try:
            with timer:
                campaign = run(cell.program, CONFIG, injector=cell.injector,
                               n=cell.n, seed=seed, workers=1,
                               progress=False, batch_lanes=workload.lanes,
                               **kwargs)
        except Exception as exc:  # noqa: BLE001 - a raised campaign is a failure
            results.append(CellResult(
                cell, time.perf_counter() - cell_started, False, {},
                error=f"{type(exc).__name__}: {exc}"))
            continue
        elapsed = time.perf_counter() - cell_started
        tasks = tuple(end - start for _name, start, end, parent in timer.spans
                      if parent < 0)
        probes = tuple(timer.probes) + (probe(),)
        outcomes: dict = {}
        for result in campaign.results:
            outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
        sha = digest(campaign)
        ok = sha == expected.get(cell.label)
        results.append(CellResult(
            cell, elapsed, ok, dict(sorted(outcomes.items())), sha,
            error="" if ok else "digest differs from reference",
            tasks=tasks, probes=probes))
        by_program.setdefault(cell.program, {})[cell.target] = campaign
    aggregate_seconds = 0.0
    if workload.aggregate:
        config = config_by_name(CONFIG)
        before = edge_probes()
        started = time.perf_counter()
        for campaigns in by_program.values():
            if len(campaigns) == len(_STRUCTURES):
                weighting.weighted_vulnerability(campaigns, config)
                weighting.weighted_fpm_rates(campaigns, config)
        aggregate_seconds = to_reference(time.perf_counter() - started,
                                         before + edge_probes())
    return PassResult(seed, results, aggregate_seconds)


AGGREGATION = -1


def campaign_seconds(passes: list) -> dict:
    """(campaign seed, cell index) -> reference seconds of that campaign;
    cell index ``AGGREGATION`` is the pass's aggregation."""
    out = {}
    for result in passes:
        for index, cell_result in enumerate(result.cells):
            out[(result.seed, index)] = cell_result.reference_seconds()
        out[(result.seed, AGGREGATION)] = result.aggregate_seconds
    return out


def pass_throughput(passes: list) -> float:
    """Injection runs per reference second over *passes*."""
    return (sum(result.attempted for result in passes)
            / sum(campaign_seconds(passes).values()))


def ledger(result: PassResult) -> dict:
    """Outcome counts per campaign of one pass (exact; seed-determined)."""
    return {r.cell.label: r.outcomes for r in result.cells}
