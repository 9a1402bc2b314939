"""The pipeline engine against its recorded run ledger.

``corpus/ledger/pipeline-runs.json`` was recorded before the rename,
LSQ reclaim, L1D hit and permission-check paths of the run loop were
rewritten (see ``tests/ledgers.py``): fault-free runs of crc32, sha
and qsort on every config with the state of every injection target
every 997 instructions, and fixed RF/LSQ/L1I/L1D/L2 faults on a 32-bit
and a 64-bit core on the slow path, which the same runs from a
restored checkpoint must equal.
"""

from __future__ import annotations

import json

import pytest

from tests.ledgers import (PIPELINE_RUNS_PATH, pipeline_fault_free_run,
                           pipeline_faulty_cases, pipeline_faulty_run,
                           slow_twin)

LEDGER = json.loads(PIPELINE_RUNS_PATH.read_text())


def _diff(want: dict, got: dict) -> dict:
    return {key: (want.get(key), got.get(key))
            for key in sorted(want.keys() | got.keys())
            if want.get(key) != got.get(key)}


@pytest.mark.parametrize("key", sorted(LEDGER["fault_free"]))
def test_fault_free_run(key):
    workload, config = key.split("/")
    want = LEDGER["fault_free"][key]
    got = pipeline_fault_free_run(workload, config)
    if got["states"] != want["states"]:
        first = next(i for i, (w, g) in enumerate(
            zip(want["states"], got["states"])) if w != g) \
            if len(got["states"]) == len(want["states"]) else "len"
        pytest.fail(f"structure state {first} (every 997 instructions) "
                    f"differs")
    assert _diff(want, got) == {}


def test_faulty_runs():
    """Each run, on the slow path and from a restored checkpoint, equals
    the recorded slow-path run: result, counters and end state."""
    want = LEDGER["faulty"]
    got = {key: pipeline_faulty_run(build)
           for key, build in pipeline_faulty_cases()}
    assert sorted({slow_twin(key) for key in got}) == sorted(want)
    assert len(got) == 2 * len(want)
    bad = {key: _diff(want[slow_twin(key)], run)
           for key, run in got.items() if want[slow_twin(key)] != run}
    assert bad == {}
