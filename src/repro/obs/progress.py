"""Live single-line progress reporting for long campaigns.

The reporter redraws one stderr line per completed shard::

    gefin:sha/RF: 1250/2000 runs  41.7 runs/s  ETA 18s  [crash=12 masked=1198 sdc=40]

so a 2,000-run campaign is observable without polluting stdout (which
stays machine-parseable).  Enablement is resolved per campaign: an
explicit ``--progress``/``--quiet`` flag wins, otherwise the
``REPRO_PROGRESS`` environment variable decides, defaulting to off.
"""

from __future__ import annotations

import shutil
import sys
import time
from collections import Counter

from .metrics import env_flag


def progress_enabled(explicit: "bool | None" = None) -> bool:
    """Resolve the progress switch: flag > ``REPRO_PROGRESS`` > off."""
    if explicit is not None:
        return explicit
    return env_flag("REPRO_PROGRESS", False)


def _format_eta(seconds: float) -> str:
    if seconds != seconds or seconds == float("inf"):  # nan / inf
        return "?"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class ProgressReporter:
    """Redraws a ``\\r``-terminated status line on *stream*."""

    def __init__(self, total: int, label: str = "campaign",
                 stream=None) -> None:
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0
        self.counts: Counter = Counter()
        self._started = time.monotonic()
        self._last_len = 0

    def advance(self, runs: int, outcomes=()) -> None:
        """Account *runs* completed runs and redraw the line."""
        self.done += runs
        self.counts.update(outcomes)
        self._draw()

    def _compose(self, final: bool = False) -> str:
        elapsed = max(time.monotonic() - self._started, 1e-9)
        rate = self.done / elapsed
        if final:
            line = (f"{self.label}: {self.done}/{self.total} runs  "
                    f"{rate:.1f} runs/s  in {_format_eta(elapsed)}")
        else:
            remaining = max(self.total - self.done, 0)
            eta = remaining / rate if rate > 0 else float("inf")
            line = (f"{self.label}: {self.done}/{self.total} runs  "
                    f"{rate:.1f} runs/s  ETA {_format_eta(eta)}")
        if self.counts:
            tallies = " ".join(f"{k}={v}"
                               for k, v in sorted(self.counts.items()))
            line += f"  [{tallies}]"
        return line

    def _width(self) -> int:
        """Terminal width so a ``\\r`` redraw never wraps into scroll."""
        return shutil.get_terminal_size((80, 24)).columns

    def _draw(self, final: bool = False) -> None:
        line = self._compose(final=final)
        # clamp to the terminal: a line wider than the terminal wraps,
        # and the next \r then only rewinds the *last* visual row,
        # turning the redraw into scrolling garbage
        width = max(self._width() - 1, 1)
        if len(line) > width:
            line = line[:width]
        pad = " " * max(self._last_len - len(line), 0)
        try:
            self.stream.write("\r" + line + pad)
            self.stream.flush()
        except (OSError, ValueError):
            return
        self._last_len = len(line)

    def finish(self) -> None:
        """Redraw the final, self-describing state and end the line."""
        if self._last_len:
            self._draw(final=True)
            try:
                self.stream.write("\n")
                self.stream.flush()
            except (OSError, ValueError):
                pass
            self._last_len = 0
