"""The cache directory's file layout: what each sidecar is called, how
a directory of them is listed, and when one counts as current.

* ``campaign-<injector>-<workload>-<digest>.json`` — one
  :class:`~repro.injectors.campaign.CampaignResult` stamped with
  :data:`~repro.injectors.golden.CACHE_SCHEMA_VERSION`; its stem is
  the campaign id;
* ``profile-<campaign id>.json`` / ``metrics-<campaign id>.json`` —
  the residency profile (``REPRO_PROFILE``) and metrics snapshot
  (``REPRO_METRICS``) of one campaign;
* ``trace-<stem>-<seed>-<index>.json`` — one run's differential trace
  (:mod:`repro.obs.trace_diff`);
* ``events.jsonl`` — the event log, one JSON record a line.

The cache directory is shared mutable state, so nothing here raises
on a corrupt, foreign or stale file or deletes one: a read returns
``None``, a listing skips the file, the index flags it.  Only the
campaign store (``_Campaign.cached``) removes a sidecar it cannot
reuse.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

CAMPAIGN, PROFILE, METRICS, TRACE = ("campaign-", "profile-",
                                     "metrics-", "trace-")
EVENTS = "events.jsonl"


def directory(cache_path: "Path | str | None" = None) -> Path:
    """*cache_path*, or the default cache directory when it is None."""
    from ..injectors.golden import cache_dir

    return Path(cache_path) if cache_path else cache_dir()


def _named(cache_path, prefix: str, *parts) -> Path:
    return directory(cache_path) / f"{prefix}{'-'.join(map(str, parts))}.json"


def campaign_path(injector: str, workload: str, digest: str,
                  cache_path=None) -> Path:
    return _named(cache_path, CAMPAIGN, injector, workload, digest)


def profile_path(campaign_id: str, cache_path=None) -> Path:
    return _named(cache_path, PROFILE, campaign_id)


def metrics_path(campaign_id: str, cache_path=None) -> Path:
    return _named(cache_path, METRICS, campaign_id)


def trace_path(stem: str, seed: int, index: int, cache_path=None) -> Path:
    return _named(cache_path, TRACE, stem, seed, index)


def events_path(cache_path=None) -> Path:
    return directory(cache_path) / EVENTS


def _read_json(path: "Path | str"):
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, OSError):
        return None


def read_campaign(path: "Path | str"):
    """The campaign in one sidecar, or ``None`` when the file is
    missing, corrupt, foreign or stamped with another
    ``CACHE_SCHEMA_VERSION``."""
    from ..injectors import golden as golden_mod
    from ..injectors.campaign import CampaignResult

    data = _read_json(path)
    if not isinstance(data, dict) \
            or data.get("schema") != golden_mod.CACHE_SCHEMA_VERSION:
        return None
    try:
        return CampaignResult.from_json(data)
    except (ValueError, TypeError, KeyError):
        return None


def read_profile(path: "Path | str"):
    """The residency profile in one sidecar, or ``None``."""
    from .profiles import ResidencyProfile

    try:
        return ResidencyProfile.from_json(_read_json(path))
    except (ValueError, TypeError, KeyError):
        return None


def read_trace(path: "Path | str") -> "dict | None":
    """One differential-trace payload, or ``None`` on absence,
    corruption or a trace schema mismatch."""
    from .trace_diff import TRACE_DIFF_SCHEMA_VERSION

    data = _read_json(path)
    if not isinstance(data, dict) \
            or data.get("kind") != "trace-diff" \
            or data.get("schema") != TRACE_DIFF_SCHEMA_VERSION \
            or not isinstance(data.get("frames"), list):
        return None
    return data


def parse_event(line: "str | bytes") -> "dict | None":
    """One event-log line as a record; ``None`` for a blank, torn
    (unparseable) or foreign line."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if isinstance(record, dict) and "event" in record:
        return record
    return None


def _index_entry(path: Path, now: float) -> dict:
    from ..injectors import golden as golden_mod

    entry: dict = {"id": path.stem}
    data = _read_json(path)
    try:
        schema = data.get("schema")
        target = data.get("structure") or data.get("model")
        entry.update({
            "injector": data.get("injector"),
            "workload": data.get("workload"),
            "config": data.get("config_name"),
            "target": target,
            "label": (f"{data.get('injector')}:{data.get('workload')}"
                      + (f"/{target}" if target else "")),
            "n": data.get("n"),
            "runs": len(data.get("results", ())),
            "seed": data.get("seed"),
            "hardened": bool(data.get("hardened")),
            "planned": data.get("plan") is not None,
            "schema": schema,
            "stale": schema != golden_mod.CACHE_SCHEMA_VERSION,
        })
    except (TypeError, AttributeError):
        entry["error"] = "unparseable"
    try:
        entry["age_seconds"] = round(
            max(0.0, now - path.stat().st_mtime), 1)
    except OSError:
        pass
    return entry


class CacheListing:
    """One sorted pass over a cache directory, sidecars grouped by
    kind; each view parses its group when asked."""

    def __init__(self, cache_path: "Path | str | None" = None) -> None:
        self.files: dict = {CAMPAIGN: [], PROFILE: [], TRACE: []}
        for path in sorted(directory(cache_path).glob("*.json")):
            group = self.files.get(path.name.split("-", 1)[0] + "-")
            if group is not None:
                group.append(path)

    def _read(self, kind: str, read) -> list:
        return [item for item in map(read, self.files[kind])
                if item is not None]

    def campaigns(self) -> list:
        """Every current campaign, in id order."""
        return self._read(CAMPAIGN, read_campaign)

    def index(self) -> list:
        """One entry per campaign sidecar; a stale or unparseable one
        is flagged (``stale``, ``error``), not left out."""
        now = time.time()
        return [_index_entry(path, now) for path in self.files[CAMPAIGN]]

    def profile_ids(self) -> list:
        return [path.stem for path in self.files[PROFILE]]

    def profiles(self) -> dict:
        """Readable profiles keyed (workload, config, hardened)."""
        return {(p.workload, p.config_name, p.hardened): p
                for p in self._read(PROFILE, read_profile)}

    def traces(self) -> list:
        """Every readable differential-trace payload."""
        return self._read(TRACE, read_trace)
