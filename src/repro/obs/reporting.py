"""``repro report``: turn an events.jsonl log into a text dashboard.

Campaigns at ROADMAP scale produce event logs with millions of lines;
this module aggregates one **without re-running any simulation**:
outcome mix per campaign, throughput (runs/sec overall and as a
per-shard trend), visibility-latency percentiles, and retry hot
spots.  Everything is derived from the event stream the campaign
engine already writes — ``campaign_started`` / ``shard_done`` /
``shard_retry`` / ``campaign_finished`` plus the ``campaign_summary``
record appended after aggregation (outcome tallies and the
visibility-latency histogram) and optional ``metrics_snapshot``
records when ``REPRO_METRICS`` is on.

Rendering goes through :mod:`repro.core.report` so the dashboard
matches the look of every other bench/figure in the repo.
"""

from __future__ import annotations

import gzip
import sys
from pathlib import Path

from ..core.report import (render_bar_chart, render_sparkline,
                           render_table)
from .metrics import Histogram
from .sidecars import parse_event

__all__ = ["EventTail", "ReportAggregator", "iter_events",
           "render_report", "report_data"]


def _open_events(path: "Path | str"):
    """Open an event log: a path, a ``.gz`` path, or ``-`` (stdin).

    Live logs may be read mid-append; ``errors="replace"`` keeps a
    torn multi-byte character from raising where a torn JSON line
    would merely be skipped.
    """
    if str(path) == "-":
        return sys.stdin
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", errors="replace")
    return open(path, errors="replace")


def iter_events(path: "Path | str"):
    """Stream a JSONL event log, skipping malformed/foreign lines.

    A generator — million-line logs are aggregated without ever
    materialising the whole list.  *path* may be a plain file, a
    gzip-compressed ``.gz`` file, or ``-`` for stdin.

    Safe on a *live* log: a torn final line (a writer caught
    mid-append) fails to parse and is skipped rather than raised on,
    so ``repro report`` can run while a campaign writes.  Use
    :class:`EventTail` to follow the log and pick that line up once
    the writer finishes it.
    """
    handle = _open_events(path)
    try:
        for line in handle:
            record = parse_event(line)
            if record is not None:
                yield record
    finally:
        if handle is not sys.stdin:
            handle.close()


class EventTail:
    """Incremental follow-mode reader of a live JSONL event log.

    Each :meth:`poll` returns the events completed since the last
    poll, in append order.  The tail is deliberately forgiving about
    everything a live log does:

    * **missing file** — the log may not exist yet (no campaign has
      run); ``poll`` returns nothing until it appears;
    * **torn final line** — a writer caught mid-append leaves a line
      without its newline; the tail *remembers* the offset where it
      starts instead of consuming it, and re-parses it on the next
      poll once the writer finished the line;
    * **rotation/truncation** — the path replaced by a different file
      (inode change) or rewritten shorter reopens the tail from the
      start of the replacement, so no post-rotation event is lost.

    ``lag_bytes`` after a poll is how far the reader trails the
    writer (the torn fragment still buffered in the file).
    """

    def __init__(self, path: "Path | str") -> None:
        self.path = Path(path)
        self._offset = 0           # bytes consumed (complete lines)
        self._signature = None     # (st_dev, st_ino) of the log file
        self.lag_bytes = 0
        self.skipped = 0           # malformed *complete* lines

    def _stat_signature(self):
        try:
            stat = self.path.stat()
        except OSError:
            return None, 0
        return (stat.st_dev, stat.st_ino), stat.st_size

    def poll(self) -> list:
        """Return the new fully-written events since the last poll."""
        signature, size = self._stat_signature()
        if signature is None:
            # nothing to read (yet); keep the offset — a vanished log
            # that reappears under the same inode resumes where the
            # writer left off, a fresh file resets below
            self.lag_bytes = 0
            return []
        if signature != self._signature or size < self._offset:
            # rotated or truncated: start over on the new file
            self._signature = signature
            self._offset = 0
        if size <= self._offset:
            self.lag_bytes = 0
            return []
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                chunk = handle.read(size - self._offset)
        except OSError:
            return []
        events = []
        consumed = 0
        for raw in chunk.splitlines(keepends=True):
            if not raw.endswith(b"\n"):
                break                      # torn tail: re-read next poll
            consumed += len(raw)
            record = parse_event(raw.decode("utf-8", errors="replace"))
            if record is not None:
                events.append(record)
            elif raw.strip():
                self.skipped += 1
        self._offset += consumed
        self.lag_bytes = size - self._offset
        return events


def _hist_from_dump(dump: dict) -> "Histogram | None":
    try:
        hist = Histogram(dump["boundaries"])
        hist.counts = list(dump["counts"])
        hist.count = int(dump["count"])
        hist.sum = float(dump["sum"])
    except (KeyError, TypeError, ValueError):
        return None
    return hist


class _Campaign:
    """Mutable aggregate of one campaign's events."""

    def __init__(self, key: str) -> None:
        self.key = key
        self.n = 0
        self.shards = 0
        self.resumed = 0
        self.workers = 0
        self.runs = 0
        self.elapsed = 0.0
        self.runs_per_sec = 0.0
        self.retries: dict = {}          # shard -> (attempts, last err)
        self.shard_rates: list = []      # runs/sec per completed shard
        self.outcomes: dict = {}
        self.latency: "Histogram | None" = None
        self.label = key
        self.plan: "dict | None" = None  # planner_summary payload

    def absorb(self, record: dict) -> None:
        kind = record["event"]
        if kind == "campaign_started":
            self.n = record.get("n", self.n)
            self.shards = record.get("shards", self.shards)
            self.resumed = record.get("resumed", self.resumed)
            self.workers = record.get("workers", self.workers)
        elif kind == "shard_done":
            wall = record.get("wall", 0.0)
            runs = record.get("runs", 0)
            if wall and runs:
                self.shard_rates.append(runs / wall)
        elif kind == "shard_retry":
            shard = record.get("shard", -1)
            attempt = record.get("attempt", 1)
            attempts, error = self.retries.get(shard, (0, ""))
            # keep the error of the *highest* attempt seen, not of
            # whichever record happened to arrive last (multi-worker
            # logs interleave out of order)
            if attempt >= attempts:
                error = record.get("error", "")
            self.retries[shard] = (max(attempts, attempt), error)
        elif kind == "campaign_finished":
            self.runs = record.get("runs", self.runs)
            self.elapsed = record.get("elapsed", self.elapsed)
            if self.elapsed > 0:
                self.runs_per_sec = self.runs / self.elapsed
        elif kind == "campaign_summary":
            self.outcomes = record.get("outcomes", {})
            self.runs = record.get("runs", self.runs)
            self.elapsed = record.get("elapsed", self.elapsed)
            self.runs_per_sec = record.get("runs_per_sec",
                                           self.runs_per_sec)
            injector = record.get("injector")
            if injector:
                target = record.get("target")
                self.label = (f"{injector}:{record.get('workload', '?')}"
                              + (f"/{target}" if target else ""))
            dump = record.get("latency")
            if isinstance(dump, dict):
                self.latency = _hist_from_dump(dump)
        elif kind == "planner_summary":
            self.plan = {k: record.get(k) for k in
                         ("planner", "planned_n", "actual_n",
                          "savings", "target_margin",
                          "margin_attained", "estimate")}


class ReportAggregator:
    """Incremental per-campaign aggregation of an event stream.

    The one-shot :func:`report_data`/:func:`render_report` paths feed
    a whole log through it; the live observatory
    (:mod:`repro.obs.server`) keeps one per SSE client and absorbs
    events as :class:`EventTail` delivers them, re-deriving the
    summary without ever re-reading the log from the start.
    """

    def __init__(self) -> None:
        self.campaigns: "dict[str, _Campaign]" = {}
        self.absorbed = 0

    def absorb(self, record: dict) -> None:
        key = record.get("campaign")
        if not key:
            return
        if key not in self.campaigns:
            self.campaigns[key] = _Campaign(key)
        self.campaigns[key].absorb(record)
        self.absorbed += 1

    def absorb_all(self, events) -> None:
        for record in events:
            self.absorb(record)

    def data(self) -> dict:
        """The machine-readable summary (see :func:`report_data`)."""
        out: dict = {"campaigns": [], "outcome_totals": {},
                     "retries": []}
        for c in self.campaigns.values():
            entry = {
                "key": c.key,
                "label": c.label,
                "n": c.n,
                "shards": c.shards,
                "resumed": c.resumed,
                "workers": c.workers,
                "runs": c.runs,
                "elapsed": round(c.elapsed, 3),
                "runs_per_sec": round(c.runs_per_sec, 3),
                "outcomes": dict(c.outcomes),
                "shard_rates": [round(r, 3) for r in c.shard_rates],
                "retries": sum(a for a, _ in c.retries.values()),
            }
            if c.latency is not None and c.latency.count:
                entry["latency"] = {
                    "count": c.latency.count,
                    "mean": round(c.latency.mean, 3),
                    "p50": round(c.latency.percentile(50), 3),
                    "p90": round(c.latency.percentile(90), 3),
                    "p99": round(c.latency.percentile(99), 3),
                }
            if c.plan is not None:
                entry["plan"] = dict(c.plan)
            out["campaigns"].append(entry)
            for outcome, count in c.outcomes.items():
                out["outcome_totals"][outcome] = \
                    out["outcome_totals"].get(outcome, 0) + count
            for shard, (attempts, error) in sorted(c.retries.items()):
                out["retries"].append({"campaign": c.label,
                                       "shard": shard,
                                       "attempts": attempts,
                                       "last_error": error})
        out["retries"].sort(key=lambda r: -r["attempts"])
        return out


def _aggregate(events) -> "dict[str, _Campaign]":
    aggregator = ReportAggregator()
    aggregator.absorb_all(events)
    return aggregator.campaigns


def _outcome_mix(outcomes: dict) -> str:
    total = sum(outcomes.values())
    if not total:
        return "-"
    return " ".join(f"{k}={100 * v / total:.0f}%"
                    for k, v in sorted(outcomes.items(),
                                       key=lambda kv: -kv[1]))


def report_data(events) -> dict:
    """Aggregate an event stream into a JSON-serialisable summary.

    The machine-readable counterpart of :func:`render_report`
    (``repro report --json``): per-campaign stats, aggregate outcome
    totals, and retry hot spots — nothing is re-simulated.
    """
    aggregator = ReportAggregator()
    aggregator.absorb_all(events)
    return aggregator.data()


def render_report(events, limit: int = 20) -> str:
    """Render the text dashboard for an event stream or list."""
    campaigns = _aggregate(events)
    if not campaigns:
        return "no campaign events found"
    recent = list(campaigns.values())[-limit:]
    sections = []

    # --- campaign table -----------------------------------------------
    rows = [[c.label, c.runs, f"{c.elapsed:.1f}s",
             f"{c.runs_per_sec:.1f}",
             sum(a for a, _ in c.retries.values()) or "-",
             _outcome_mix(c.outcomes)] for c in recent]
    sections.append(render_table(
        ["campaign", "runs", "elapsed", "runs/s", "retries",
         "outcome mix"], rows,
        title=f"campaigns ({len(campaigns)} total, "
              f"last {len(recent)} shown)"))

    # --- aggregate outcome mix ----------------------------------------
    totals: dict = {}
    for c in campaigns.values():
        for outcome, count in c.outcomes.items():
            totals[outcome] = totals.get(outcome, 0) + count
    grand = sum(totals.values())
    if grand:
        sections.append(render_bar_chart(
            {k: v / grand for k, v in sorted(totals.items(),
                                             key=lambda kv: -kv[1])},
            title=f"outcome mix over {grand} runs"))

    # --- visibility-latency percentiles -------------------------------
    rows = []
    for c in recent:
        if c.latency is None or not c.latency.count:
            continue
        hist = c.latency
        rows.append([c.label, hist.count, f"{hist.mean:.1f}",
                     f"{hist.percentile(50):.1f}",
                     f"{hist.percentile(90):.1f}",
                     f"{hist.percentile(99):.1f}"])
    if rows:
        sections.append(render_table(
            ["campaign", "crossed", "mean", "p50", "p90", "p99"],
            rows, title="visibility latency, cycles "
                        "(injection -> architectural crossing)"))

    # --- statistical planning savings ---------------------------------
    planned_rows = [c for c in recent if c.plan is not None]
    if planned_rows:
        planned = sum(c.plan.get("planned_n") or 0
                      for c in planned_rows)
        actual = sum(c.plan.get("actual_n") or 0
                     for c in planned_rows)
        saved = f"{planned / actual:.2f}x" if actual else "-"
        rows = [[c.label, c.plan.get("planned_n"),
                 c.plan.get("actual_n"),
                 f"{c.plan.get('savings', 0):.2f}x",
                 f"{c.plan.get('margin_attained'):.4f}"
                 if c.plan.get("margin_attained") is not None
                 else "-",
                 f"{c.plan.get('target_margin'):.4f}"
                 if c.plan.get("target_margin") is not None
                 else "-"] for c in planned_rows]
        sections.append(render_table(
            ["campaign", "planned", "actual", "saved", "margin",
             "target"], rows,
            title=f"statistical planning ({actual}/{planned} "
                  f"injections spent, {saved} saved)"))

    # --- throughput trend ---------------------------------------------
    trend = [rate for c in recent for rate in c.shard_rates]
    if trend:
        lo, hi = min(trend), max(trend)
        sections.append(
            "throughput trend (runs/s per completed shard, "
            f"{lo:.1f}..{hi:.1f})\n"
            f"  [{render_sparkline(trend)}]")

    # --- retry hot spots ----------------------------------------------
    hot = [(c.label, shard, attempts, error)
           for c in campaigns.values()
           for shard, (attempts, error) in c.retries.items()]
    hot.sort(key=lambda row: -row[2])
    if hot:
        rows = [[label, shard, attempts, error[:60]]
                for label, shard, attempts, error in hot[:10]]
        sections.append(render_table(
            ["campaign", "shard", "attempts", "last error"], rows,
            title="retry hot spots"))

    return "\n\n".join(sections)
