"""One fault-free pipeline run per target.

The gefin checkpoint capture is the target's golden pipeline run: its
occupancy observer samples occupancy, and ``GoldenRun.cycles`` /
``occupancy`` read its final result, while ``golden_run`` itself runs
only the functional engine.  Two properties keep that sound and cheap:

* the capture's observers (the occupancy sampler and the liveness
  recorder) never change engine state, so a capture that carries them
  records the same checkpoints as one that does not;
* a cold set-up runs the pipeline once per gefin target and never for
  a pvf/svf target.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.injectors import golden as golden_mod
from repro.injectors.campaign import run_campaign
from repro.injectors.golden import checkpoint_store, golden_run
from repro.kernel.loader import build_system_image
from repro.uarch import snapshot
from repro.uarch.config import config_by_name
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


@pytest.fixture
def cold(tmp_path, monkeypatch):
    """An empty cache directory and memo; yields a counter of
    ``PipelineEngine.run`` calls."""
    calls = []
    run = PipelineEngine.run

    def counted(engine):
        calls.append(engine)
        return run(engine)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(PipelineEngine, "run", counted)
    golden_run.cache_clear()
    checkpoint_store.cache_clear()
    yield calls
    golden_run.cache_clear()
    checkpoint_store.cache_clear()


def test_golden_run_runs_no_pipeline(cold):
    golden_run("crc32", CONFIG)
    assert len(cold) == 0


def test_pvf_set_up_runs_no_pipeline(cold):
    run_campaign("crc32", CONFIG, injector="pvf", model="WD", n=2,
                 seed=1, use_cache=False, workers=1)
    assert len(cold) == 0


def test_gefin_set_up_runs_the_pipeline_once(cold):
    golden = golden_run("crc32", CONFIG)
    store = checkpoint_store("crc32", CONFIG, engine="pipeline",
                             hardened=False)
    assert len(cold) == 1
    assert golden.cycles == store.final["cycles"]
    assert golden.occupancy == store.final["occupancy"]
    assert store.final["instructions"] == golden.instructions
    assert len(cold) == 1


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
    assert checkpoint_store.cache_info().currsize == 1
    golden = golden_run("crc32", CONFIG)
    assert golden_run("crc32", CONFIG, hardened=False) is golden
    assert golden_run("crc32", CONFIG, False) is golden
    assert golden_run.cache_info().currsize == 1
    assert len(cold) == 1
