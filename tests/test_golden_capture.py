"""One fault-free run per engine and target.

The functional-sim checkpoint capture is the target's golden
functional run: ``golden_run`` reads its final result and starts no
engine of its own.  The gefin checkpoint capture is the target's
golden pipeline run: its occupancy observer samples occupancy, and
``GoldenRun.cycles`` / ``occupancy`` read its final result.  These
properties keep that sound and cheap:

* the capture's observers (the occupancy sampler and the liveness
  recorder) never change engine state, so a capture that carries them
  records the same checkpoints as one that does not;
* a functional capture that thins its own grid ends with the
  checkpoints and digests of one given its final interval up front;
* a cold ``golden_run`` makes one functional run; a gefin set-up adds
  one pipeline run, and a pvf/svf one none;
* only a pvf WD campaign replays the golden run, once, for its
  population and first-read record.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.injectors import golden as golden_mod
from repro.injectors.campaign import run_campaign
from repro.injectors.golden import checkpoint_store, golden_run
from repro.kernel.loader import build_system_image
from repro.uarch import snapshot
from repro.uarch.config import config_by_name
from repro.uarch.functional import FunctionalEngine
from repro.uarch.liveness import record_liveness
from repro.uarch.pipeline import PipelineEngine
from repro.workloads.suite import load_workload

CONFIG = "cortex-a72"


def _capture(workload: str, observe=lambda engine: None):
    """A capture run's checkpoints and result, with the observer that
    ``observe(engine)`` returns attached."""
    config = config_by_name(CONFIG)
    golden = golden_run(workload, CONFIG)
    engine = PipelineEngine(
        build_system_image(load_workload(workload, config.isa)), config,
        max_instructions=golden.max_instructions)
    hook = snapshot._PipelineCapture(
        snapshot.checkpoint_interval(golden.instructions))
    engine.fastpath = hook
    engine.observer = observe(engine)
    result = engine.run()
    assert result.status.value == "completed"
    return hook.checkpoints, result


@pytest.mark.parametrize("workload", ("sha", "crc32"))
def test_the_occupancy_observer_changes_no_checkpoint(workload):
    plain, plain_result = _capture(workload)
    sampler = snapshot.OccupancySampler()
    sampled, sampled_result = _capture(workload, lambda engine: sampler)
    assert [cp.state for cp in sampled] == [cp.state for cp in plain]
    assert sampled_result == plain_result
    assert sampler.averages() == checkpoint_store(
        workload, CONFIG, engine="pipeline").final["occupancy"]


@pytest.mark.parametrize("workload", ("sha", "crc32"))
def test_the_capture_observer_changes_no_checkpoint(workload):
    """The capture's one observer, the liveness recorder with the
    occupancy sampler, leaves every checkpoint as a plain capture's."""
    plain, plain_result = _capture(workload)
    recorders = []

    def observe(engine):
        recorders.append(record_liveness(engine))
        return snapshot._CaptureObserver(recorders[0],
                                         snapshot.OccupancySampler())

    observed, observed_result = _capture(workload, observe)
    assert recorders[0] is not None and recorders[0].pcs
    assert [cp.state for cp in observed] == [cp.state for cp in plain]
    assert observed_result == plain_result


@pytest.mark.parametrize("workload,hardened", [
    ("sha", False), ("crc32", False), ("crc32", True)])
def test_a_thinning_capture_ends_on_its_final_grid(workload, hardened):
    """The capture's own grid: ``MIN_INTERVAL`` doubled k times, with at
    most 2T+1 checkpoints and more than T once thinned, holding what a
    capture given that interval up front holds."""
    def factory():
        return build_system_image(load_workload(
            workload, config_by_name(CONFIG).isa, hardened=hardened))

    store = snapshot.build_functional_store(factory, "sim")
    target = snapshot.TARGET_CHECKPOINTS
    k = (store.interval // snapshot.MIN_INTERVAL).bit_length() - 1
    assert k > 0, "the capture never thinned"
    assert store.interval == snapshot.MIN_INTERVAL << k
    assert target < len(store.checkpoints) <= 2 * target + 1
    fixed = snapshot.build_functional_store(factory, "sim",
                                            interval=store.interval)
    assert fixed.interval == store.interval
    assert [(cp.instructions, cp.counters, cp.state)
            for cp in store.checkpoints] == [
        (cp.instructions, cp.counters, cp.state)
        for cp in fixed.checkpoints]
    assert store.digests == fixed.digests
    assert list(store.digests) == [cp.instructions
                                   for cp in store.checkpoints]
    assert store.final == fixed.final


@pytest.fixture
def cold(tmp_path, monkeypatch):
    """An empty cache directory and memo; yields the engine runs
    (``pipeline``, ``functional``) and golden ``replays`` made since."""
    runs = SimpleNamespace(pipeline=[], functional=[], replays=[])
    for cls, calls in ((PipelineEngine, runs.pipeline),
                       (FunctionalEngine, runs.functional)):
        def counted(engine, run=cls.run, calls=calls):
            calls.append(engine)
            return run(engine)

        monkeypatch.setattr(cls, "run", counted)
    replay = golden_mod.replay_golden

    def replayed(*args, **kwargs):
        runs.replays.append(args)
        return replay(*args, **kwargs)

    monkeypatch.setattr(golden_mod, "replay_golden", replayed)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    golden_run.cache_clear()
    checkpoint_store.cache_clear()
    yield runs
    golden_run.cache_clear()
    checkpoint_store.cache_clear()


def test_golden_run_runs_no_pipeline(cold):
    """It reads the functional-sim capture, one functional run."""
    golden = golden_run("crc32", CONFIG)
    assert len(cold.functional) == 1 and not cold.pipeline
    final = checkpoint_store("crc32", CONFIG,
                             engine="functional-sim").final
    assert (golden.output, golden.exit_code, golden.instructions,
            golden.dest_instructions) == (
        final["output"], final["exit_code"], final["instructions"],
        final["dest_instructions"])
    assert len(cold.functional) == 1 and not cold.replays


def test_pvf_set_up_runs_no_pipeline(cold):
    run_campaign("crc32", CONFIG, injector="pvf", model="WD", n=2,
                 seed=1, use_cache=False, workers=1)
    assert len(cold.pipeline) == 0


def test_gefin_set_up_runs_the_pipeline_once(cold):
    golden = golden_run("crc32", CONFIG)
    store = checkpoint_store("crc32", CONFIG, engine="pipeline",
                             hardened=False)
    assert len(cold.pipeline) == 1
    assert len(cold.functional) == 1     # the golden capture alone
    assert golden.cycles == store.final["cycles"]
    assert golden.occupancy == store.final["occupancy"]
    assert store.final["instructions"] == golden.instructions
    assert len(cold.pipeline) == 1


@pytest.mark.parametrize("injector,model,replays", [
    ("pvf", "WOI", 0), ("pvf", "WI", 0), ("svf", None, 0),
    ("pvf", "WD", 1)])
def test_only_a_wd_campaign_replays_the_golden_run(cold, injector, model,
                                                   replays):
    """One replay gives a WD campaign both its population (the profile
    fields of ``GoldenRun``) and its first-read record; no other
    campaign replays."""
    golden_run("crc32", CONFIG)
    run_campaign("crc32", CONFIG, injector=injector, model=model, n=4,
                 seed=1, use_cache=False, workers=1)
    assert len(cold.replays) == replays
    assert not cold.pipeline


def test_capture_checked_against_the_functional_reference(cold,
                                                          monkeypatch):
    """A capture that retires another count than the functional run
    raises instead of becoming the golden pipeline reference."""
    real = golden_run("crc32", CONFIG)
    off = dataclasses.replace(real, instructions=real.instructions + 1)
    monkeypatch.setattr(golden_mod, "golden_run",
                        lambda *args, **kwargs: off)
    with pytest.raises(RuntimeError, match="functional reference"):
        checkpoint_store("crc32", CONFIG, engine="pipeline",
                         hardened=False)


def test_one_memo_entry_per_target(cold):
    """A default left out, passed positionally or by keyword makes one
    memo entry, so a target's store is built or loaded once."""
    store = checkpoint_store("crc32", CONFIG, engine="pipeline")
    assert checkpoint_store("crc32", CONFIG, engine="pipeline",
                            hardened=False) is store
    assert checkpoint_store("crc32", CONFIG, "pipeline", False) is store
    assert checkpoint_store("crc32", CONFIG) is store
    # the pipeline store and the golden run's functional-sim store
    assert checkpoint_store.cache_info().currsize == 2
    golden = golden_run("crc32", CONFIG)
    assert golden_run("crc32", CONFIG, hardened=False) is golden
    assert golden_run("crc32", CONFIG, False) is golden
    assert golden_run.cache_info().currsize == 1
    assert len(cold.pipeline) == 1
