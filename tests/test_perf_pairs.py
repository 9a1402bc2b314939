"""The summary table of benchmarks/perf_pairs.py (no benchmark runs)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).parent.parent / "benchmarks" / "perf_pairs.py"
_SPEC = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)


def _result(rate, setup, rss):
    return {"correct": True, "failed": 0, "metrics": {
        "injections_per_s": {"value": rate, "unit": "runs/s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"}}}


def test_rows_follow_the_experiments_table_format():
    pairs = [(_result(100, 0.30, 40), _result(200, 0.20, 40)),
             (_result(110, 0.25, 40), _result(190, 0.30, 41)),
             (_result(90, 0.28, 40), _result(210, 0.21, 39)),
             (_result(105, 0.26, 40), _result(205, 0.22, 40))]
    rows = perf_pairs.summarize("arch-scalar", pairs)
    assert [row.split(" | ")[1] for row in rows] == [
        "`injections_per_s`", "`setup_s`", "`peak_rss_mb`"]
    rate = rows[0].split(" | ")
    # medians, direction-aware wins
    assert rate[2].startswith("102.5 [")
    assert rate[3].startswith("202.5 [")
    assert rate[4] == "1.98x"
    assert rate[5] == "4/4 |"
    assert rows[1].endswith("| 3/4 |")     # lower setup_s wins
    assert rows[2].endswith("| 1/4 |")     # one strictly lower rss


def test_spread_of_one_value():
    assert perf_pairs.spread([3.0]) == (3.0, 3.0, 3.0)


def test_notes_give_the_spread_of_per_pair_ratios():
    """Each pair's change ÷ parent, summarised apart from the seeds'
    spread: the sides' quartiles here are wide, the ratios all 2x."""
    pairs = [(_result(rate, 0.2, 40), _result(2 * rate, 0.2, 40))
             for rate in (50, 100, 150, 200)]
    notes = perf_pairs.per_pair("gefin-avf", pairs, [1, 2, 3, 4])
    assert notes[0] == ("Per pair (seed parent/change), `gefin-avf` "
                        "`injections_per_s`: 1 50/100, 2 100/200, "
                        "3 150/300, 4 200/400.")
    assert notes[1] == ("Per-pair change ÷ parent, `gefin-avf` "
                        "`injections_per_s`: 2x [2x, 2x].")
    assert notes[3].endswith("`setup_s`: 1x [1x, 1x].")
    assert len(notes) == 6
