"""``repro serve``: the live campaign observatory.

A stdlib-only HTTP server (``http.server.ThreadingHTTPServer`` — no
new dependencies) that turns the repo's batch observability artifacts
into a *serving* layer while preserving the zero-re-simulation
contract: every endpoint renders from ``campaign-*.json`` /
``profile-*.json`` / ``trace-*.json`` sidecars and ``events.jsonl``
alone.  The single deliberate exception is the per-run drill-down
(``/diff``), which simulates one ``(seed, index)`` fault *at most
once* — the differential capture persists to the
:mod:`repro.obs.trace_diff` sidecar store, every repeat request is a
pure sidecar read — and only when the server was started with
``--allow-replay``.

Endpoints
---------

``GET /``
    The HTML dashboard as a live page: the same
    :func:`repro.obs.dashboard.html_sections` body as ``repro
    dashboard --html`` plus a small inline script that renders
    nothing itself.  It subscribes to ``/events/stream``, swaps the
    throughput, outcome-mix, sparkline and planner-savings divs for
    the HTML each ``summary`` carries, places the drill-down's
    ``html``, and shows the connection state.
``GET /events/stream``
    Server-sent events.  Each connection tails ``events.jsonl``
    incrementally (:class:`repro.obs.reporting.EventTail`: torn
    trailing lines are re-read on the next poll, log rotation reopens
    the file), forwards ``campaign_started`` / ``shard_done`` /
    ``shard_retry`` / ``campaign_finished`` / ``campaign_summary`` /
    ``planner_summary`` / ``metrics_snapshot`` records as typed SSE
    events, and pushes a re-aggregated ``summary`` after every batch:
    the ``repro report --json`` payload plus ``sections``, the live
    sections rendered by :func:`repro.obs.dashboard.live_sections`.
``GET /api/campaigns``
    Discovered campaign sidecars with schema/staleness flags.
``GET /api/campaign/<id>``
    One campaign in depth: estimators, FPM mix, (phase x bit-region)
    attribution via :func:`repro.obs.profiles.attribute_campaign`,
    and the workload's cross-layer divergence row.
``GET /api/summary``
    The aggregated ``repro report --json`` payload for the event log.
``GET /api/run/<campaign>/<seed>/<index>/diff``
    Golden-vs-faulty differential frames for one campaign run
    (:mod:`repro.obs.trace_diff`, campaign-identical ``(seed, index)``
    derivation): the fault trace, outcome and rendered trace text plus
    per-step register/PC/memory/structure diffs inside a bounded
    window around injection and crossing (``diff``), and the run's
    trace section as the static dashboard renders it (``html``), which
    the live page's drill-down panel places.  403 unless
    ``--allow-replay``; served from the trace sidecar after the first
    capture.
``GET /metrics``
    Prometheus text exposition of the ``REPRO_METRICS`` registry plus
    the server's own counters (requests, SSE clients, tail lag).
"""

from __future__ import annotations

import html
import json
import re
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from . import sidecars
from .dashboard import (_CSS, build_dashboard, html_sections,
                        live_sections, trace_section)
from .metrics import MetricsRegistry, get_registry, render_prometheus
from .profiles import N_PHASES, N_REGIONS, attribute_campaign
from .reporting import EventTail, ReportAggregator, report_data

__all__ = ["Observatory", "ObservatoryServer", "make_server", "serve"]

#: event kinds forwarded verbatim on the SSE stream (progress deltas
#: plus the aggregate records the browser patches sections from)
FORWARDED_EVENTS = frozenset((
    "campaign_started", "shard_done", "shard_retry",
    "campaign_finished", "campaign_summary",
    "planner_summary", "metrics_snapshot", "job_update",
))

_CAMPAIGN_ID = re.compile(r"^campaign-[A-Za-z0-9._-]+$")

_DIFF_PATH = re.compile(
    r"^/api/run/(campaign-[A-Za-z0-9._-]+)/(-?\d+)/(\d+)/diff$")


class Observatory:
    """Shared, read-mostly state behind every request handler thread.

    Owns the sidecar/event-log locations, the replay gate, and an
    always-on private :class:`MetricsRegistry` for the server's own
    counters (kept separate from the ``REPRO_METRICS`` process
    registry so serving never perturbs campaign telemetry).
    """

    def __init__(self, cache_path: "Path | str | None" = None,
                 events_path: "Path | str | None" = None,
                 allow_replay: bool = False,
                 poll_interval: float = 0.5,
                 n_phases: int = N_PHASES,
                 n_regions: int = N_REGIONS) -> None:
        self.cache_path = sidecars.directory(cache_path)
        self.events_path = (Path(events_path) if events_path
                            else sidecars.events_path(self.cache_path))
        self.allow_replay = allow_replay
        self.poll_interval = poll_interval
        self.n_phases = n_phases
        self.n_regions = n_regions
        self.metrics = MetricsRegistry(enabled=True)
        self.stopping = False
        # serialises cold trace captures so concurrent drill-downs of
        # the same run simulate once, not once per request thread
        self._trace_lock = threading.Lock()

    # ------------------------------------------------------------------
    # sidecar discovery (never simulates)
    # ------------------------------------------------------------------
    def campaign_index(self) -> dict:
        """Every ``campaign-*.json`` sidecar with staleness flags."""
        from ..injectors.golden import CACHE_SCHEMA_VERSION

        listing = sidecars.CacheListing(self.cache_path)
        return {"cache": str(self.cache_path),
                "events": str(self.events_path),
                "schema": CACHE_SCHEMA_VERSION,
                "campaigns": listing.index(),
                "profiles": listing.profile_ids()}

    def load_campaign(self, campaign_id: str):
        """Load one current sidecar by id; ``None`` if absent, invalid
        or stale."""
        if not _CAMPAIGN_ID.match(campaign_id):
            return None
        return sidecars.read_campaign(
            self.cache_path / f"{campaign_id}.json")

    def campaign_detail(self, campaign_id: str) -> "dict | None":
        """Estimators + attribution + divergence for one campaign."""
        from ..core.divergence import METHODS, build_rows

        campaign = self.load_campaign(campaign_id)
        if campaign is None:
            return None
        detail = {
            "id": campaign_id,
            "injector": campaign.injector,
            "workload": campaign.workload,
            "config": campaign.config_name,
            "target": campaign.structure or campaign.model,
            "hardened": campaign.hardened,
            "seed": campaign.seed,
            "n": campaign.n,
            "runs": len(campaign.results),
            "vulnerability": campaign.vulnerability(),
            "sdc": campaign.sdc(),
            "crash": campaign.crash(),
            "detected": campaign.detected(),
            "masked": campaign.masked(),
            "hvf": campaign.hvf(),
            "fpm_rates": campaign.fpm_rates(),
            "margin": (None if campaign.n == 0
                       else campaign.margin()),
            "plan": campaign.plan,
            "attribution": attribute_campaign(
                campaign, n_phases=self.n_phases,
                n_regions=self.n_regions).to_json(),
        }
        # the workload's cross-layer divergence row, from every
        # sidecar in the cache (pure post-processing)
        rows = build_rows(
            sidecars.CacheListing(self.cache_path).campaigns())
        for row in rows:
            if (row.workload == campaign.workload
                    and row.config_name == campaign.config_name
                    and row.hardened == campaign.hardened):
                detail["divergence"] = {
                    "label": row.label,
                    "flags": sorted(row.flags),
                    "layers": {m: row.layers[m].value
                               for m in METHODS
                               if m in row.layers},
                }
                break
        return detail

    def run_diff(self, campaign_id: str, seed: int,
                 index: int) -> "dict | None":
        """The ``/diff`` drill-down: the memoized differential trace
        of one campaign run, or ``None`` if the campaign is unknown.

        The sidecar supplies the campaign axes; the ``(seed, index)``
        derivation matches the campaign workers bit for bit, so the
        returned frames describe exactly the run the campaign
        classified.  A warm ``trace-<campaign>-<seed>-<index>.json``
        sidecar is a pure read; a cold one simulates once under the
        trace lock, persists, and announces itself with a
        ``trace_ready`` job_update event on the SSE stream.  ``html``
        is the run's section of the static page's "Per-run
        differential traces", for the live page to place as is.
        """
        from .events import EventLog
        from .trace_diff import load_or_capture

        campaign = self.load_campaign(campaign_id)
        if campaign is None:
            return None
        self.metrics.counter("server.trace_requests").inc()
        with self._trace_lock:
            payload, cached = load_or_capture(
                campaign.injector, campaign.workload,
                campaign.config_name, seed, index=index,
                structure=campaign.structure, model=campaign.model,
                hardened=campaign.hardened,
                cache_path=self.cache_path, stem=campaign_id)
        if cached:
            self.metrics.counter("server.trace_cache_hits").inc()
        else:
            EventLog(self.events_path).emit(
                "job_update",
                job=sidecars.trace_path(campaign_id, seed, index,
                                        self.cache_path).stem,
                state="trace_ready",
                label=(f"{campaign.injector}:{campaign.workload} "
                       f"seed={seed} index={index}"),
                sidecar=campaign_id)
        return {"campaign": campaign_id,
                "seed": seed, "index": index,
                "cached": cached,
                "diff": payload,
                "html": trace_section(payload)}

    def summary(self) -> dict:
        """One-shot ``repro report --json`` aggregation of the log."""
        return report_data(EventTail(self.events_path).poll())

    def prometheus(self) -> str:
        """``/metrics`` payload: process registry + server counters."""
        parts = []
        registry = get_registry()
        if registry.enabled:
            parts.append(render_prometheus(registry.snapshot()))
        parts.append(render_prometheus(self.metrics.snapshot()))
        return "".join(parts) or "# no metrics enabled\n"


# ---------------------------------------------------------------------------
# the live page (shared dashboard body + SSE patch script)
# ---------------------------------------------------------------------------
_LIVE_CSS = _CSS + """
#live-status { position: fixed; top: 0.6em; right: 0.8em;
               padding: 0.2em 0.7em; border-radius: 1em;
               background: #e8f4e8; color: #205020; font-size: 0.85em; }
#live-status.down { background: #fae4e4; color: #8c1a1a; }
pre { font: 12px/1.3 ui-monospace, monospace; }
#trace-panel input { width: 16em; font: inherit; margin: 0 0.4em 0 0; }
#trace-panel input.num { width: 6em; }
#trace-panel button { font: inherit; }
#trace-meta { color: #666; margin: 0.5em 0; }
"""

# The page script renders nothing: every SSE ``summary`` carries the
# live sections as server-rendered HTML (dashboard.live_sections) and
# every /diff its run's trace section (dashboard.trace_section); the
# script places them and reports the connection state.
_LIVE_JS = """
(function () {
  'use strict';
  function status(text, down) {
    var el = document.getElementById('live-status');
    if (el) { el.textContent = text; el.className = down ? 'down' : ''; }
  }
  var es = new EventSource('/events/stream');
  es.addEventListener('summary', function (e) {
    var d = JSON.parse(e.data);
    Object.keys(d.sections).forEach(function (id) {
      var el = document.getElementById(id);
      if (el) { el.innerHTML = d.sections[id]; }
    });
    status('live \\u2014 ' + d.campaigns.length + ' campaigns', false);
  });
  es.onerror = function () {
    status('disconnected \\u2014 retrying', true);
  };

  function field(id) {
    return document.getElementById(id).value.trim() || '0';
  }
  function loadDiff() {
    var meta = document.getElementById('trace-meta');
    var cid = document.getElementById('trace-campaign').value.trim();
    if (!cid) { meta.textContent = 'enter a campaign id'; return; }
    meta.textContent = 'loading\\u2026';
    var req = new XMLHttpRequest();
    req.open('GET', '/api/run/' + encodeURIComponent(cid) + '/'
      + field('trace-seed') + '/' + field('trace-index') + '/diff');
    req.onload = function () {
      if (req.status === 403) {
        meta.textContent = 'replay is gated: restart the observatory '
          + 'with --allow-replay';
      } else if (req.status !== 200) {
        meta.textContent = 'error ' + req.status + ': '
          + req.responseText.slice(0, 200);
      } else {
        meta.textContent = '';
        document.getElementById('trace-view').innerHTML =
          JSON.parse(req.responseText).html;
      }
    };
    req.onerror = function () { meta.textContent = 'request failed'; };
    req.send();
  }
  document.getElementById('trace-load').addEventListener('click', loadDiff);
})();
"""


# The drill-down panel: one gated, memoized /diff fetch per load,
# placed as the server rendered it, and never any external request.
_TRACE_PANEL = """
<h2>Run drill-down</h2>
<div id="trace-panel">
  <p class="muted">golden-vs-faulty differential frames for one
  campaign run (needs <code>--allow-replay</code>; simulated at most
  once, then served from the trace sidecar).</p>
  <p>
    <input id="trace-campaign" placeholder="campaign-… id">
    <input id="trace-seed" class="num" placeholder="seed" value="0">
    <input id="trace-index" class="num" placeholder="index" value="0">
    <button id="trace-load">load</button>
  </p>
  <div id="trace-meta"></div>
  <div id="trace-view"></div>
</div>
"""


def render_live_html(data, title: str = "repro live observatory") -> str:
    """The served dashboard page: shared body + SSE patch script."""
    parts = ["<!DOCTYPE html>", '<html lang="en"><head>',
             '<meta charset="utf-8">',
             f"<title>{html.escape(title)}</title>",
             f"<style>{_LIVE_CSS}</style>", "</head><body>",
             '<div id="live-status">connecting…</div>',
             f"<h1>{html.escape(title)}</h1>",
             *html_sections(data),
             _TRACE_PANEL,
             f"<script>{_LIVE_JS}</script>",
             "</body></html>"]
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# the HTTP layer
# ---------------------------------------------------------------------------
class ObservatoryServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared :class:`Observatory`.

    Handler threads are non-daemon so ``server_close`` joins them:
    an SSE stream gets to flush its final comment frame before the
    process exits instead of being torn down mid-write.  The streams
    exit within one poll interval of ``shutdown()`` setting the
    observatory's stop flag, so the join is bounded.
    """

    daemon_threads = False

    def __init__(self, address, observatory: Observatory) -> None:
        super().__init__(address, ObservatoryHandler)
        self.observatory = observatory

    def shutdown(self) -> None:
        # wake the SSE loops first so handler threads drain promptly
        self.observatory.stopping = True
        super().shutdown()


class ObservatoryHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-observatory"

    # quiet by default: the access log goes nowhere unless the
    # observatory is asked to be verbose (the CLI keeps stdout for
    # the bound-address line)
    def log_message(self, format, *args):  # noqa: A002
        pass

    @property
    def obs(self) -> Observatory:
        return self.server.observatory

    # ------------------------------------------------------------------
    # response helpers
    # ------------------------------------------------------------------
    def _send_body(self, status: int, body: bytes,
                   content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload, status: int = 200) -> None:
        body = json.dumps(payload, indent=2).encode()
        self._send_body(status, body,
                        "application/json; charset=utf-8")

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message, "status": status},
                        status=status)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        self.obs.metrics.counter("server.requests_total").inc()
        try:
            if path in ("/", "/index.html"):
                self._serve_page()
            elif path == "/events/stream":
                self._serve_sse()
            elif path == "/api/campaigns":
                self._send_json(self.obs.campaign_index())
            elif path.startswith("/api/campaign/"):
                self._serve_campaign(path)
            elif path == "/api/summary":
                self._send_json(self.obs.summary())
            elif path.startswith("/api/run/"):
                self._serve_diff(path)
            elif path == "/metrics":
                self._send_body(
                    200, self.obs.prometheus().encode(),
                    "text/plain; version=0.0.4; charset=utf-8")
            else:
                self.obs.metrics.counter("server.not_found").inc()
                self._send_error_json(404, f"no route for {path}")
        except BrokenPipeError:
            # client went away mid-response; nothing to salvage
            self.obs.metrics.counter("server.client_aborts").inc()
        except Exception as exc:  # pragma: no cover - defensive
            self.obs.metrics.counter("server.errors").inc()
            try:
                self._send_error_json(500, f"{type(exc).__name__}: "
                                           f"{exc}")
            except OSError:
                pass

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _serve_page(self) -> None:
        data = build_dashboard(cache_path=self.obs.cache_path,
                               events_path=self.obs.events_path,
                               n_phases=self.obs.n_phases,
                               n_regions=self.obs.n_regions)
        self._send_body(200, render_live_html(data).encode(),
                        "text/html; charset=utf-8")

    def _serve_campaign(self, path: str) -> None:
        campaign_id = path[len("/api/campaign/"):]
        detail = self.obs.campaign_detail(campaign_id)
        if detail is None:
            self._send_error_json(404,
                                  f"no campaign {campaign_id!r}")
            return
        self._send_json(detail)

    def _serve_diff(self, path: str) -> None:
        match = _DIFF_PATH.match(path)
        if match is None:
            self._send_error_json(
                404, "run paths are /api/run/<campaign>/<seed>/"
                     "<index>/diff")
            return
        if not self.obs.allow_replay:
            self.obs.metrics.counter("server.replay_denied").inc()
            self._send_error_json(
                403, "trace replay simulates one run; start the "
                     "observatory with --allow-replay to enable it")
            return
        self.obs.metrics.counter("server.replays").inc()
        payload = self.obs.run_diff(match.group(1), int(match.group(2)),
                                    int(match.group(3)))
        if payload is None:
            self._send_error_json(404,
                                  f"no campaign {match.group(1)!r}")
            return
        self._send_json(payload)

    # ------------------------------------------------------------------
    # the SSE tail
    # ------------------------------------------------------------------
    def _serve_sse(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        # SSE is an unbounded stream: no Content-Length, and the
        # connection closes when either side goes away
        self.send_header("Connection", "close")
        self.end_headers()

        clients = self.obs.metrics.gauge("server.sse_clients")
        open_now = self.obs.metrics.counter("server.sse_opened")
        open_now.inc()
        clients.set(clients.value + 1)
        tail = EventTail(self.obs.events_path)
        aggregator = ReportAggregator()
        forwarded = self.obs.metrics.counter(
            "server.sse_events_forwarded")
        lag = self.obs.metrics.gauge("server.tail_lag_bytes")
        try:
            # prime with history so the first summary is complete
            aggregator.absorb_all(tail.poll())
            self._sse_summary(aggregator)
            idle = 0.0
            while not self.obs.stopping:
                time.sleep(self.obs.poll_interval)
                events = tail.poll()
                lag.set(float(tail.lag_bytes))
                if not events:
                    idle += self.obs.poll_interval
                    if idle >= 15.0:
                        # comment heartbeat: keeps proxies open and
                        # surfaces dead clients as BrokenPipeError
                        self.wfile.write(b": keepalive\n\n")
                        self.wfile.flush()
                        idle = 0.0
                    continue
                idle = 0.0
                for record in events:
                    aggregator.absorb(record)
                    if record["event"] in FORWARDED_EVENTS:
                        self._sse_emit(record["event"], record)
                        forwarded.inc()
                self._sse_summary(aggregator)
            # graceful shutdown: a final comment frame tells clients
            # this close is deliberate, not a network fault
            self.wfile.write(b": observatory stopping\n\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        finally:
            clients.set(max(0.0, clients.value - 1))

    def _sse_summary(self, aggregator: ReportAggregator) -> None:
        data = aggregator.data()
        data["sections"] = live_sections(data)
        self._sse_emit("summary", data)

    def _sse_emit(self, event: str, payload: dict) -> None:
        blob = json.dumps(payload, separators=(",", ":"))
        self.wfile.write(f"event: {event}\ndata: {blob}\n\n".encode())
        self.wfile.flush()


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def make_server(host: str = "127.0.0.1", port: int = 0,
                **observatory_kwargs) -> ObservatoryServer:
    """Bind an observatory server; ``port=0`` picks an ephemeral
    port (read the bound one off ``server.server_address``)."""
    return ObservatoryServer((host, port),
                             Observatory(**observatory_kwargs))


def serve(host: str = "127.0.0.1", port: int = 8000,
          announce=print, **observatory_kwargs) -> None:
    """Run the observatory until interrupted or signalled.

    *announce* receives the bound address line once the socket is
    listening — with ``--port 0`` that line is the only way to learn
    the ephemeral port, so it goes to stdout by default.

    SIGTERM/SIGINT trigger a graceful stop: SSE streams flush a
    final comment frame and close, and the call returns normally so
    the process exits 0.
    """
    server = make_server(host, port, **observatory_kwargs)
    obs = server.observatory

    def _request_stop(signum=None, frame=None):
        # shutdown() blocks until serve_forever exits, so it must
        # run off the signal frame to avoid self-deadlock
        threading.Thread(target=server.shutdown,
                         daemon=True).start()

    # handlers go in before the address is announced: anyone who can
    # see the bound-address line may already be sending SIGTERM
    try:
        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)
    except ValueError:
        # not the main thread (threaded tests): KeyboardInterrupt
        # and an explicit shutdown() remain the stop paths
        pass
    bound_host, bound_port = server.server_address[:2]
    announce(f"observatory serving at http://{bound_host}:{bound_port}"
             f" (cache {obs.cache_path}, events "
             f"{obs.events_path}, replay "
             f"{'on' if obs.allow_replay else 'off'})")
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
