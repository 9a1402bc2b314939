"""Batched campaign execution for the functional injectors.

Bridges :class:`repro.uarch.batch.BatchedFunctionalEngine` into the
campaign layer: rebuilds the exact per-index fault actions a scalar
campaign would draw (:func:`repro.injectors.campaign.draw_fault`),
groups them into lane batches sorted by trigger time
(lanes that fire close together share the same checkpoint restore and
retire quickly), runs each batch, and finishes evicted lanes on the
scalar engines so every :class:`InjectionResult` is byte-identical to
the scalar path.
"""

from __future__ import annotations

from ..kernel.loader import build_system_image
from ..uarch.batch import MAX_LANES, BatchedFunctionalEngine
from ..uarch.config import config_by_name
from ..uarch.exceptions import ContainmentError
from ..uarch.functional import FaultAction, FunctionalEngine
from ..uarch.snapshot import fastpath_enabled, restore_functional
from ..workloads.suite import load_workload
from .archinj import arch_result, run_one_pvf
from .campaign import draw_fault
from .golden import STORE_ENGINES, GoldenRun, checkpoint_store, golden_run
from .llfi import run_one_svf


# ---------------------------------------------------------------------------
# deterministic action rebuilds (the campaign's own draw)
# ---------------------------------------------------------------------------
def build_campaign_action(injector: str, index: int, *, workload: str,
                          config_name: str, seed: int, xlen: int,
                          golden: GoldenRun,
                          model: "str | None" = None) -> FaultAction:
    """The fault action campaign run *index* would draw on the scalar
    path — bit-for-bit, so batched campaigns inherit the cache key."""
    if injector not in ("pvf", "svf"):
        raise ValueError(f"injector {injector!r} has no batched mode")
    return draw_fault(injector, index, workload=workload,
                      config=config_by_name(config_name), seed=seed,
                      golden=golden, model=model, xlen=xlen)


def plan_lane_groups(injector: str, n: int, lanes: int, *, workload: str,
                     config_name: str, seed: int, xlen: int,
                     golden: GoldenRun,
                     model: "str | None" = None) -> list:
    """Partition campaign indices 0..n-1 into lane groups.

    Indices are sorted by trigger time before chunking so each batch
    restores from one late checkpoint and reconverges together; the
    flattened results are re-ordered by index afterwards, so grouping
    is invisible in the output.
    """
    lanes = max(1, min(int(lanes), MAX_LANES))
    order = sorted((build_campaign_action(
        injector, index, workload=workload, config_name=config_name,
        seed=seed, xlen=xlen, golden=golden, model=model).when, index)
        for index in range(n))
    return [tuple(index for _, index in order[k:k + lanes])
            for k in range(0, n, lanes)]


# ---------------------------------------------------------------------------
# batched single-batch drivers
# ---------------------------------------------------------------------------
def _run_batch(workload: str, isa: str, kernel: str, actions,
               golden: GoldenRun, hardened: bool,
               fastpath: "bool | None"):
    """Run one batch in *kernel* mode; returns (outcomes, image, store).

    The image is handed back so evicted-lane continuations can reuse
    it: ``restore_functional`` replaces the whole memory page set, so
    one image safely serves every sequential continuation.
    """
    program = load_workload(workload, isa, hardened=hardened)
    image = build_system_image(program)
    engine = FunctionalEngine(image, kernel=kernel,
                              max_instructions=golden.max_instructions)
    store = None
    if fastpath_enabled(fastpath):
        # pvf runs on the simulated kernel, svf on the host-emulated one
        injector = "pvf" if kernel == "sim" else "svf"
        store = checkpoint_store(workload, golden.config_name,
                                 engine=STORE_ENGINES[injector],
                                 hardened=hardened)
    outcomes = BatchedFunctionalEngine(engine, actions, store=store).run()
    return outcomes, image, store


def _run_batched(injector: str, workload: str, isa: str, actions,
                 golden: GoldenRun, hardened: bool,
                 fastpath: "bool | None") -> list:
    """Run one batch of pvf or svf actions; scalar-equal results.

    Lanes the batch evicts finish on the scalar engine: from their
    materialised state (``"state"``) or as a plain scalar rerun
    (``"rerun"``).
    """
    kernel = "sim" if injector == "pvf" else "host"
    outcomes, image, _store = _run_batch(workload, isa, kernel, actions,
                                         golden, hardened, fastpath)
    results = []
    for action, outcome in zip(actions, outcomes):
        if outcome.kind == "rerun":  # reproduce the scalar run wholesale
            rerun = run_one_pvf if injector == "pvf" else run_one_svf
            results.append(rerun(workload, isa, action, golden,
                                 hardened=hardened, fastpath=fastpath))
            continue
        run = outcome.result
        if outcome.kind == "state":
            # Deliberately no fast-path hook: evicted lanes almost
            # never reconverge (they left the batch for structural
            # divergence), so per-boundary digest polls would cost
            # more than they save — and a plain run is byte-identical
            # either way.
            lane = FunctionalEngine(
                image, kernel=kernel,
                max_instructions=golden.max_instructions)
            lane.schedule(action)
            restore_functional(lane, outcome.state)
            try:
                run = lane.run()
            except ContainmentError as exc:
                raise exc.with_context(
                    injector=injector, workload=workload, isa=isa,
                    origin=action.origin or "architectural state",
                    inject_cycle=float(action.when),
                    hardened=hardened, batched=True)
        results.append(arch_result(injector, run, golden, action))
    return results


def run_batched_pvf(workload: str, isa: str, actions, golden: GoldenRun,
                    hardened: bool = False,
                    fastpath: "bool | None" = None) -> list:
    """Run up to 64 PVF actions in one batch; scalar-equal results."""
    return _run_batched("pvf", workload, isa, actions, golden,
                        hardened, fastpath)


def run_batched_svf(workload: str, isa: str, actions, golden: GoldenRun,
                    hardened: bool = False,
                    fastpath: "bool | None" = None) -> list:
    """Run up to 64 SVF actions in one batch; scalar-equal results."""
    return _run_batched("svf", workload, isa, actions, golden,
                        hardened, fastpath)


# ---------------------------------------------------------------------------
# sharded-campaign workers (picklable; deterministic in (seed, indices))
# ---------------------------------------------------------------------------
def _one_pvf_batch(args: tuple) -> list:
    (workload, config_name, model, seed, indices, hardened,
     fastpath) = args
    return _one_batch("pvf", workload, config_name, seed, indices,
                      hardened, fastpath, model=model)


def _one_svf_batch(args: tuple) -> list:
    workload, config_name, seed, indices, hardened, fastpath = args
    return _one_batch("svf", workload, config_name, seed, indices,
                      hardened, fastpath)


def _one_batch(injector: str, workload: str, config_name: str,
               seed: int, indices, hardened: bool,
               fastpath: "bool | None", model: "str | None" = None):
    """Draw a lane group's faults and run them as one batch."""
    config = config_by_name(config_name)
    golden = golden_run(workload, config_name, hardened=hardened)
    actions = [draw_fault(injector, index, workload=workload,
                          config=config, seed=seed, golden=golden,
                          model=model)
               for index in indices]
    run = run_batched_pvf if injector == "pvf" else run_batched_svf
    try:
        return run(workload, config.isa, actions, golden,
                   hardened=hardened, fastpath=fastpath)
    except ContainmentError as exc:
        coordinates = {"model": model} if injector == "pvf" else {}
        raise exc.with_context(seed=seed, indices=list(indices),
                               **coordinates, batched=True)
