"""Engine observers: passive on the run they watch, and pinned output.

Every observation hook — the fault tracer, the trace-diff recorders,
the residency profiler, the ACE lifetime tracker and the cosimulation
probes — watches one execution without changing it.  The passivity
tests run the same faulty execution with and without each observer
and require every result field to match (floats by ``repr``).  The
ledger tests pin what each observer itself records, in
``corpus/ledger/observers.json``, the capture run's liveness recorder
included: its oracle arrays and the capture's checkpoint digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.ace import LifetimeTracker, ace_analysis
from repro.faults.fault import FaultSpec
from repro.fuzz.oracle import _arch_regs_functional, _arch_regs_pipeline
from repro.injectors.campaign import draw_fault
from repro.injectors.golden import golden_run
from repro.isa.registers import MR64
from repro.kernel.loader import build_system_image
from repro.obs.profiles import ResidencyProfiler, profile_golden_run
from repro.obs.trace_diff import (DEFAULT_AFTER, _FunctionalRecorder,
                                  _PipelineRecorder, capture_diff)
from repro.obs.tracing import FaultTracer
from repro.uarch import snapshot
from repro.uarch.config import CORTEX_A72, config_by_name
from repro.uarch.functional import FunctionalEngine
from repro.uarch.pipeline import PipelineEngine
from repro.workloads.suite import load_workload

CONFIG = "cortex-a72"

LEDGER = json.loads((Path(__file__).parent / "corpus" / "ledger"
                     / "observers.json").read_text())

#: the trace-diff suite's pinned campaign runs (injector -> workload,
#: target, seed; index 0)
PINNED = {
    "gefin": ("sha", {"structure": "RF"}, 7),
    "pvf": ("crc32", {"model": "WD"}, 8),
    "svf": ("crc32", {}, 880099),
}


class _CosimProbe:
    """The cosimulation oracle's probe: snapshot pc and architectural
    registers every ``every`` instructions."""

    every = 64

    def __init__(self, regs_of) -> None:
        self.regs_of = regs_of
        self.snapshots = []

    def step(self, engine) -> None:
        self.snapshots.append((engine.ms.pc, self.regs_of(engine)))


def _attach(engine, observer) -> None:
    engine.observer = observer


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True)
                          .encode()).hexdigest()


def _liveness_digest(workload: str, config_name: str) -> str:
    """sha256 of a freshly built pipeline capture's liveness oracle
    (each array's bytes, length first) and checkpoint digests."""
    config = config_by_name(config_name)
    golden = golden_run(workload, config_name)
    store = snapshot.build_pipeline_store(
        lambda: build_system_image(load_workload(workload, config.isa)),
        config, golden.max_instructions,
        snapshot.checkpoint_interval(golden.instructions))
    oracle = store.liveness
    h = hashlib.sha256()
    for part in (oracle.lines, oracle.steps, oracle.kinds, oracle.los,
                 oracle.his, oracle.pcs):
        data = bytes(part)
        h.update(len(data).to_bytes(8, "little") + data)
    h.update(json.dumps(sorted(store.digests.items())).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# passivity: an observed run equals the unobserved run, field by field
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def crc32_golden():
    return golden_run("crc32", CONFIG)


def _pipeline_observers(golden):
    return {
        "tracer": lambda: FaultTracer(),
        "recorder": lambda: _PipelineRecorder(DEFAULT_AFTER),
        "profiler": lambda: ResidencyProfiler(CORTEX_A72,
                                              t_max=golden.cycles),
        "lifetime": lambda: LifetimeTracker(xlen=CORTEX_A72.xlen),
        "cosim": lambda: _CosimProbe(_arch_regs_pipeline),
    }


PIPELINE_OBSERVERS = ("tracer", "recorder", "profiler", "lifetime",
                      "cosim")

#: what each pipeline observer recorded (non-empty: it was attached)
RECORDED = {
    "tracer": lambda o: o.events,
    "recorder": lambda o: o.frames,
    "profiler": lambda o: o.samples,
    "lifetime": lambda o: o.reg_ace_cycles,
    "cosim": lambda o: o.snapshots,
}


class TestObserversArePassive:
    def _pipeline_run(self, golden, spec, observer=None):
        engine = PipelineEngine(
            build_system_image(load_workload("crc32", MR64)), CORTEX_A72,
            faults=[spec], max_instructions=golden.max_instructions,
            max_cycles=golden.max_cycles)
        if observer is not None:
            _attach(engine, observer)
        return engine.run()

    @pytest.mark.parametrize("kind", PIPELINE_OBSERVERS)
    @pytest.mark.parametrize("structure", ("RF", "L1I"))
    def test_pipeline_result_unchanged(self, crc32_golden, structure,
                                       kind):
        golden = crc32_golden
        if structure == "RF":
            # a live register read in user mode: a WD SDC
            spec = FaultSpec("RF", golden.cycles * 0.4, a=33, b=5,
                             prefer_live=True)
        else:
            # crc32's inner-loop line, mid-run: a WOI SDC
            spec = FaultSpec("L1I", golden.cycles * 0.5, a=1, b=0, c=5)
        bare = self._pipeline_run(golden, spec)
        observer = _pipeline_observers(golden)[kind]()
        observed = self._pipeline_run(golden, spec, observer)
        assert bare.fault_applied and bare.crossing is not None
        assert repr(observed) == repr(bare)
        assert RECORDED[kind](observer)

    @pytest.mark.parametrize("kind", ("recorder", "cosim"))
    def test_functional_result_unchanged(self, crc32_golden, kind):
        golden = crc32_golden

        def run(observer=None):
            action = draw_fault("pvf", 0, workload="crc32",
                                config=CORTEX_A72, seed=8,
                                golden=golden, model="WD")
            engine = FunctionalEngine(
                build_system_image(load_workload("crc32", MR64)),
                kernel="sim", max_instructions=golden.max_instructions)
            engine.schedule(action)
            if observer is not None:
                _attach(engine, observer)
            return engine.run()

        bare = run()
        observer = (_FunctionalRecorder(DEFAULT_AFTER)
                    if kind == "recorder"
                    else _CosimProbe(_arch_regs_functional))
        observed = run(observer)
        assert repr(observed) == repr(bare)
        if kind == "recorder":
            assert observer.frames
        else:
            assert observer.snapshots


# ---------------------------------------------------------------------------
# each observer's own output, pinned
# ---------------------------------------------------------------------------
class TestObserverLedger:
    @pytest.mark.parametrize("workload", ("sha", "crc32"))
    def test_ace_estimates(self, workload):
        result = ace_analysis(workload, CONFIG)
        pinned = LEDGER["ace"][f"{workload}/{CONFIG}"]
        assert repr(result.cycles) == pinned["cycles"]
        assert {k: repr(v) for k, v in result.avf.items()} \
            == pinned["avf"]

    def test_residency_profile(self):
        profile = profile_golden_run("sha", CONFIG)
        assert _digest(profile.to_json()) \
            == LEDGER["profile_sha256"][f"sha/{CONFIG}"]

    @pytest.mark.parametrize("injector", sorted(PINNED))
    def test_diff_capture(self, injector):
        workload, target, seed = PINNED[injector]
        payload = capture_diff(injector, workload, CONFIG, seed,
                               index=0, **target)
        assert _digest(payload) \
            == LEDGER["capture_diff_sha256"][injector]

    @pytest.mark.parametrize("config_name", ("cortex-a9", "cortex-a15",
                                             "cortex-a57", "cortex-a72"))
    @pytest.mark.parametrize("workload", ("crc32", "sha", "qsort"))
    def test_capture_liveness(self, workload, config_name):
        assert _liveness_digest(workload, config_name) \
            == LEDGER["liveness_sha256"][f"{workload}/{config_name}"]
