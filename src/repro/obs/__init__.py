"""Campaign observability: events, metrics, tracing, progress, reports.

* :mod:`~repro.obs.events` — append-only JSONL event log written by
  the campaign engine (started / shard done / retry / finished /
  summary / metrics snapshot).
* :mod:`~repro.obs.progress` — single-line stderr progress reporter
  (runs/sec, ETA, running outcome counts).
* :mod:`~repro.obs.metrics` — opt-in metrics registry (counters,
  gauges, histograms, timers) gated by ``REPRO_METRICS``, and
  ``env_flag``, the one reader of on/off ``REPRO_*`` switches.
* :mod:`~repro.obs.sidecars` — the cache directory's file layout:
  campaign, profile, metrics and trace sidecar names, the one
  campaign read (schema-checked, never deletes), the sorted directory
  pass behind every read-only view, and the event-log line parser.
* :mod:`~repro.obs.tracing` — per-run fault-propagation traces (the
  flip's life story across the vulnerability stack).
* :mod:`~repro.obs.trace_diff` — cycle-level golden-vs-faulty
  differential traces with a memoizing ``trace-*.json`` sidecar
  store (the drill-down explorer's data layer).
* :mod:`~repro.obs.reporting` — ``repro report``: aggregate an event
  log into a text dashboard without re-running any simulation.
* :mod:`~repro.obs.profiles` — residency/attribution profiler gated
  by ``REPRO_PROFILE`` (``profile-*.json`` campaign sidecars) and
  per-outcome campaign attribution by (phase x bit region).
* :mod:`~repro.obs.dashboard` — ``repro dashboard``: the cross-layer
  vulnerability map as ANSI text and self-contained HTML.
* :mod:`~repro.obs.server` — ``repro serve``: the live campaign
  observatory (SSE event tailing, sidecar JSON APIs, per-run trace
  drill-down, Prometheus ``/metrics``).
"""

from .events import EventLog
from .metrics import (MetricsRegistry, get_registry, metrics_enabled,
                      set_registry)
from .profiles import (Attribution, ResidencyProfile,
                       ResidencyProfiler, attribute_campaign,
                       profile_enabled, profile_golden_run)
from .progress import ProgressReporter, progress_enabled
from .trace_diff import (TRACE_DIFF_SCHEMA_VERSION, capture_diff,
                         load_or_capture, render_diff)
from .tracing import FaultTrace, FaultTracer, TraceEvent

__all__ = [
    "Attribution",
    "EventLog",
    "FaultTrace",
    "FaultTracer",
    "MetricsRegistry",
    "ProgressReporter",
    "ResidencyProfile",
    "ResidencyProfiler",
    "TRACE_DIFF_SCHEMA_VERSION",
    "TraceEvent",
    "attribute_campaign",
    "capture_diff",
    "get_registry",
    "load_or_capture",
    "metrics_enabled",
    "profile_enabled",
    "profile_golden_run",
    "progress_enabled",
    "render_diff",
    "set_registry",
]
