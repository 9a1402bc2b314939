"""Append-only JSONL event log for campaign telemetry.

Every event is one JSON object per line with at least ``ts`` (Unix
seconds) and ``event`` keys; the campaign engine adds ``campaign``
(the cache key) plus event-specific fields:

``campaign_started``   ``n``, ``shards``, ``resumed``, ``workers``
``shard_done``         ``shard``, ``runs``, ``elapsed``
``shard_retry``        ``shard``, ``attempt``, ``error``
``campaign_finished``  ``runs``, ``elapsed``

Lines are appended with ``O_APPEND`` semantics, so concurrent
campaigns interleave whole lines rather than corrupting each other.
The file handle is opened once on the first :meth:`EventLog.emit` and
reused for the log's lifetime (one ``open``/``close`` syscall pair
per campaign instead of per event — measurable at shard granularity).
The log location is resolved by :meth:`EventLog.resolve`: the
``REPRO_EVENT_LOG`` environment variable names the file, a falsy
value (``obs.metrics.FALSY``: ``0``/``false``/``no``/``off``/empty)
or ``none`` disables logging, and an unset
variable falls back to the *default* the caller supplies (the
campaign engine passes ``<cache dir>/events.jsonl``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from .metrics import FALSY


class EventLog:
    """Writes telemetry events as JSON lines; ``path=None`` is a no-op."""

    def __init__(self, path: "Path | str | None") -> None:
        self.path = Path(path) if path is not None else None
        self._handle = None

    @classmethod
    def resolve(cls, default: "Path | str | None" = None) -> "EventLog":
        """Build an event log honouring ``REPRO_EVENT_LOG``."""
        env = os.environ.get("REPRO_EVENT_LOG")
        if env is None:
            return cls(default)
        value = env.strip().lower()
        if value in FALSY or value == "none":
            return cls(None)
        return cls(env)

    @property
    def enabled(self) -> bool:
        return self.path is not None

    def emit(self, event: str, **fields) -> None:
        """Append one event; telemetry failures never break a campaign."""
        if self.path is None:
            return
        record = {"ts": round(time.time(), 3), "event": event, **fields}
        try:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a")
            # one write call per whole line, flushed immediately, so
            # concurrent loggers sharing the O_APPEND file interleave
            # complete lines
            self._handle.write(json.dumps(record) + "\n")
            self._handle.flush()
        except (OSError, ValueError):
            self.close()

    def close(self) -> None:
        """Release the file handle (later emits reopen transparently)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter teardown
        self.close()
