"""The pipeline loop's in-line L1 paths against the cache methods.

``PipelineEngine.run`` serves L1D load and store hits and the L1I hit
of a line switch itself, unless the L1 access methods are wrapped on
the instances, as the capture's liveness recorder wraps them; then
every access goes through ``Cache.read_hit``/``store_hit``/``read``/
``write``, the reference.  Both ways must make the same run, fault-free
and with a data flip in either L1: the same digest at every
checkpoint boundary, the same cache, predictor and LSQ counters, the
same captured state at the end and the same result.
"""

from __future__ import annotations

import pytest

from repro.faults.fault import FaultSpec
from repro.kernel.loader import build_system_image
from repro.uarch import snapshot
from repro.uarch.config import config_by_name
from repro.uarch.liveness import record_liveness
from repro.uarch.pipeline import PipelineEngine, _hits_in_line
from repro.workloads.suite import load_workload

CONFIGS = ("cortex-a9", "cortex-a15", "cortex-a57", "cortex-a72")
WORKLOADS = ("crc32", "sha", "qsort")


def _counters(engine) -> tuple:
    return (tuple((c.hits, c.misses, c._tick)
                  for c in (engine.l1i, engine.l1d, engine.l2)),
            engine.predictor.lookups, engine.predictor.mispredicts,
            engine.lsq.valid_count)


class _Boundaries:
    """A fast-path hook that records the digest and the counters at
    every *interval* instructions and never ends the run."""

    def __init__(self, interval: int) -> None:
        self.interval = interval
        self.next_check = 0
        self.seen: list = []

    def poll(self, engine):
        self.seen.append((engine.instructions,
                          snapshot.pipeline_digest(engine),
                          _counters(engine)))
        self.next_check = engine.instructions + self.interval
        return None


def _run(workload: str, config_name: str, faults, methods: bool,
         interval: int = 500):
    config = config_by_name(config_name)
    engine = PipelineEngine(
        build_system_image(load_workload(workload, config.isa)), config,
        faults=faults)
    hook = engine.fastpath = _Boundaries(interval)
    recorder = record_liveness(engine) if methods else None
    assert _hits_in_line(engine.l1i, engine.l1d) is not methods
    result = engine.run()
    if recorder is not None:
        recorder.finish()
    return (result, hook.seen, _counters(engine),
            snapshot.capture_pipeline(engine))


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_in_line_hits_make_the_method_paths_run(workload, config_name):
    plain = _run(workload, config_name, (), methods=False)
    assert plain[0].status.value == "completed"
    assert plain == _run(workload, config_name, (), methods=True)
    interval = max(1, plain[0].instructions // 16)
    cycle = plain[0].cycles / 3
    for structure in ("L1D", "L1I"):
        flip = [FaultSpec(structure, cycle, a=3, b=1, c=77,
                          prefer_live=True)]
        flipped = _run(workload, config_name, flip, False, interval)
        assert flipped[0].fault_live
        assert flipped == _run(workload, config_name, flip, True,
                               interval)
