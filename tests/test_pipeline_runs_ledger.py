"""The pipeline engine against its recorded run ledger.

``corpus/ledger/pipeline-runs.json`` was recorded before the rename,
LSQ reclaim, L1D hit and permission-check paths of the run loop were
rewritten (see ``tests/ledgers.py``): fault-free runs of crc32, sha
and qsort on every config with the state of every injection target
every 997 instructions, and fixed RF/LSQ/L1I/L1D/L2 faults on a 32-bit
and a 64-bit core, each on the slow path and on the checkpoint fast
path.
"""

from __future__ import annotations

import json

import pytest

from tests.ledgers import (PIPELINE_RUNS_PATH, pipeline_fault_free_run,
                           pipeline_faulty_cases, pipeline_faulty_run)

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
    want = LEDGER["faulty"]
    got = {key: pipeline_faulty_run(build)
           for key, build in pipeline_faulty_cases()}
    assert sorted(got) == sorted(want)
    bad = {key: _diff(want[key], got[key]) for key in want
           if want[key] != got[key]}
    assert bad == {}
