"""One golden replay for every fault-free run that is not an injection.

``replay_golden`` forks the golden run of one engine kind: the
residency profiler, the ACE lifetime analysis and the golden side of a
trace diff all run through it.  These tests pin its contract:

* a full replay with a passive observer ends exactly as the golden run
  did, on the pipeline and both functional kinds, and one whose
  observer changes state raises;
* on a warm store the profiler and ACE each cost one pipeline run;
* a trace diff's golden pass resumes from a checkpoint, so it retires
  at most one checkpoint interval plus its window;
* every checkpoint pick goes through one lookup on the store, and a
  freshly saved store replaces only the stale stores of its target.
"""

from __future__ import annotations

import pytest

from repro.core.ace import ace_analysis
from repro.injectors.golden import (STORE_ENGINES, checkpoint_store,
                                    golden_run, replay_golden)
from repro.obs.profiles import profile_golden_run
from repro.obs.trace_diff import capture_diff
from repro.uarch.functional import FaultAction, FunctionalEngine
from repro.uarch.pipeline import PipelineEngine

CONFIG = "cortex-a72"
ENGINES = tuple(STORE_ENGINES.values())


class _Count:
    """A passive observer: counts its steps, reads nothing."""

    def __init__(self) -> None:
        self.steps = 0

    def step(self, engine) -> None:
        self.steps += 1


class _Halt:
    """An observer that changes state: halts the machine early."""

    def step(self, engine) -> None:
        engine.ms.halted = True


@pytest.mark.parametrize("engine", ENGINES)
def test_full_replay_ends_as_the_golden_run(engine):
    golden = golden_run("crc32", CONFIG)
    final = checkpoint_store("crc32", CONFIG, engine=engine).final
    observer = _Count()
    result = replay_golden("crc32", CONFIG, engine=engine,
                           observer=observer)
    assert result.status.value == "completed"
    assert result.output == golden.output
    assert result.instructions == final["instructions"]
    if engine != "functional-host":
        # the host kernel runs no kernel instructions of its own
        assert result.instructions == golden.instructions
    assert observer.steps == result.instructions


@pytest.mark.parametrize("engine", ENGINES)
def test_an_observer_that_changes_state_raises(engine):
    with pytest.raises(RuntimeError, match="diverged from the golden"):
        replay_golden("crc32", CONFIG, engine=engine, observer=_Halt())


@pytest.fixture
def pipeline_runs(monkeypatch):
    """Warm stores, then a counter of ``PipelineEngine.run`` calls."""
    checkpoint_store("crc32", CONFIG)
    calls = []
    run = PipelineEngine.run

    def counted(engine):
        calls.append(engine)
        return run(engine)

    monkeypatch.setattr(PipelineEngine, "run", counted)
    return calls


def test_profiler_makes_one_pipeline_run_on_a_warm_store(pipeline_runs):
    profile = profile_golden_run.__wrapped__("crc32", CONFIG)
    assert profile.samples > 0
    assert len(pipeline_runs) == 1


def test_ace_makes_one_pipeline_run_on_a_warm_store(pipeline_runs):
    assert ace_analysis("crc32", CONFIG).avf["RF"] > 0
    assert len(pipeline_runs) == 1


@pytest.fixture
def retired(monkeypatch):
    """(instructions at entry, at exit) of every engine run."""
    spans = []
    for cls, counter in ((PipelineEngine, "instructions"),
                         (FunctionalEngine, "executed")):
        def counted(engine, run=cls.run, counter=counter):
            begin = getattr(engine, counter)
            result = run(engine)
            spans.append((begin, result.instructions))
            return result

        monkeypatch.setattr(cls, "run", counted)
    return spans


@pytest.mark.parametrize("injector,target", [
    ("gefin", {"structure": "RF"}),
    ("pvf", {"model": "WD"}),
    ("svf", {}),
])
def test_diff_golden_pass_retires_one_interval_plus_window(
        injector, target, retired):
    store = checkpoint_store("sha", CONFIG, engine=STORE_ENGINES[injector])
    payload = capture_diff(injector, "sha", CONFIG, seed=5, index=1,
                           **target)
    steps = [frame["step"] for frame in payload["frames"]]
    assert steps, "the faulty pass recorded no window"
    window = max(steps) - min(steps) + 1
    begin, end = retired[-1]          # the golden pass runs last
    assert end <= max(steps) + 1
    assert end - begin <= store.interval + window
    if min(steps) >= store.interval:
        assert begin > 0, "the golden pass did not resume"


def test_one_lookup_serves_every_checkpoint_pick():
    store = checkpoint_store("sha", CONFIG, engine="functional-sim")
    cps = store.checkpoints
    assert len(cps) > 5
    mid = cps[len(cps) // 2]
    assert store.nearest(instructions=mid.instructions) is mid
    assert store.nearest(instructions=mid.instructions - 1) \
        is cps[len(cps) // 2 - 1]
    assert store.nearest(instructions=0) is cps[0]
    assert store.nearest() is cps[-1]
    actions = [FaultAction(counter, cp.counters[counter] + 3, None)
               for counter, cp in (("commit", cps[5]),
                                   ("user_dest", cps[2]))]
    # the earliest-restoring action decides
    assert store.nearest(actions=actions) is cps[2]
    assert store.nearest(actions=actions[:1]) is cps[5]
    pipeline = checkpoint_store("sha", CONFIG)
    cp = pipeline.checkpoints[3]
    assert pipeline.nearest(cycle=cp.cycle) is cp
    assert pipeline.nearest(cycle=cp.cycle - 0.5) \
        is pipeline.checkpoints[2]


def test_a_fresh_store_replaces_only_its_targets_stale_stores(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    golden_run.cache_clear()
    checkpoint_store.cache_clear()
    stem = f"checkpoints-crc32-{CONFIG}"
    old = "0" * 24
    # a pipeline store is built on the golden run, the functional-sim
    # capture, so that store is fresh too
    stale = [tmp_path / f"{stem}-pipeline-{old}.pkl",
             tmp_path / f"{stem}-functional-sim-{old}.pkl"]
    keep = [tmp_path / f"{stem}-pipeline-ft-{old}.pkl",
            tmp_path / f"checkpoints-sha-{CONFIG}-pipeline-{old}.pkl"]
    for path in stale + keep:
        path.write_bytes(b"decoy")
    try:
        checkpoint_store("crc32", CONFIG)
    finally:
        golden_run.cache_clear()
        checkpoint_store.cache_clear()
    for engine in ("pipeline", "functional-sim"):
        fresh = [path for path in tmp_path.glob(f"{stem}-{engine}-*.pkl")
                 if path not in keep]
        assert len(fresh) == 1 and fresh[0] not in stale
    assert all(path.exists() for path in keep)
    assert not any(path.exists() for path in stale)
