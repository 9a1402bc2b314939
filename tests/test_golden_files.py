"""The tracked golden references are what ``golden_run`` computes.

``tests/.test-cache`` holds one ``golden-*.json`` file per (workload,
config, hardened) target the suite runs, hardened sha, crc32 and
smooth among them.  Recomputing each in an empty cache must write the
same file under the same name, so these files pin the functional
engine and the golden-profile observer that fill a :class:`GoldenRun`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.injectors.golden import golden_run

TRACKED = sorted((Path(__file__).parent / ".test-cache").glob(
    "golden-*.json"))


def test_every_target_is_tracked():
    assert len(TRACKED) >= 16
    assert any(json.loads(path.read_text())["hardened"]
               for path in TRACKED)


@pytest.mark.parametrize("path", TRACKED, ids=lambda path: path.stem)
def test_golden_file_is_recomputed_byte_identical(path, tmp_path,
                                                  monkeypatch):
    tracked = json.loads(path.read_text())
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    golden_run.cache_clear()
    try:
        golden = golden_run(tracked["workload"], tracked["config_name"],
                            tracked["hardened"])
    finally:
        golden_run.cache_clear()
    assert golden.to_json() == tracked
    assert (tmp_path / path.name).read_text() == path.read_text()
