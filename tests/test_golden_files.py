"""The tracked golden references are what ``golden_run`` computes.

``corpus/golden`` holds one ``golden-*.json`` file per (workload,
config, hardened) target the suite runs, hardened sha, crc32 and
smooth among them.  Each was written by the golden functional run that
``golden_run`` once made itself.  Recomputing a target in an empty
cache must give every :class:`GoldenRun` field its file holds, so
these files pin the functional engine, the functional-sim checkpoint
capture whose final result ``golden_run`` reads, and the
golden-profile observer of the replay behind its profile fields.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.injectors.golden import GoldenRun, checkpoint_store, golden_run

TRACKED = sorted((Path(__file__).parent / "corpus" / "golden").glob(
    "golden-*.json"))

#: the profile properties a reference holds besides the fields
PROFILE = {"regs_used", "footprint", "kernel_instructions",
           "user_instructions"}


def test_every_target_is_tracked():
    assert len(TRACKED) >= 16
    assert any(json.loads(path.read_text())["hardened"]
               for path in TRACKED)


@pytest.mark.parametrize("path", TRACKED, ids=lambda path: path.stem)
def test_golden_file_is_recomputed_byte_identical(path, tmp_path,
                                                  monkeypatch):
    tracked = json.loads(path.read_text())
    assert set(tracked) == PROFILE | {
        f.name for f in dataclasses.fields(GoldenRun)}
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    golden_run.cache_clear()
    checkpoint_store.cache_clear()
    try:
        golden = golden_run(tracked["workload"], tracked["config_name"],
                            tracked["hardened"])
        got = {name: getattr(golden, name) for name in tracked}
    finally:
        golden_run.cache_clear()
        checkpoint_store.cache_clear()
    got["output"] = golden.output.hex()
    assert got == tracked
