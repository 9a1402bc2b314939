"""Live campaign observatory: endpoints, SSE tail, replay gate.

The acceptance bar: every endpoint round-trips against a fixture
sidecar directory; the SSE stream delivers deltas in order under
concurrent appends (torn trailing lines held back until complete);
the ``/diff`` drill-down is 403 unless ``--allow-replay``; ``/metrics``
is well-formed Prometheus text exposition; and — the observatory's
core contract — no non-replay endpoint ever runs a simulation.
"""

from __future__ import annotations

import contextlib
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.server import (FORWARDED_EVENTS, Observatory,
                              make_server, render_live_html, serve)
from test_dashboard import _full_bag, _sidecar_dir, _synthetic_profile

VULNS = {"sha": (0.1, 0.8, 0.2), "crc32": (0.6, 0.2, 0.4)}


@pytest.fixture
def sidecars(tmp_path):
    _sidecar_dir(tmp_path, _full_bag(VULNS),
                 profile=_synthetic_profile())
    return tmp_path


@contextlib.contextmanager
def _serving(cache_path, **kwargs):
    server = make_server(cache_path=cache_path, **kwargs)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        yield server, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return (response.status,
                response.headers.get("Content-Type", ""),
                response.read())


def _get_json(url):
    status, ctype, body = _get(url)
    assert status == 200
    assert ctype.startswith("application/json")
    return json.loads(body)


# ---------------------------------------------------------------------------
# JSON endpoints
# ---------------------------------------------------------------------------
class TestEndpoints:
    def test_campaign_index(self, sidecars):
        with _serving(sidecars) as (_, base):
            index = _get_json(base + "/api/campaigns")
        bag = _full_bag(VULNS)
        assert len(index["campaigns"]) == len(bag)
        assert index["profiles"] == ["profile-campaign-x"]
        entry = index["campaigns"][0]
        assert _CAMPAIGN_KEYS <= set(entry)
        assert not entry["stale"]       # to_json stamps the schema
        assert entry["label"].startswith(entry["injector"] + ":")

    def test_index_flags_stale_and_garbage(self, sidecars):
        victim = next(sidecars.glob("campaign-gefin-*.json"))
        data = json.loads(victim.read_text())
        data["schema"] = -1
        victim.write_text(json.dumps(data))
        (sidecars / "campaign-torn.json").write_text("{not json")
        with _serving(sidecars) as (_, base):
            index = _get_json(base + "/api/campaigns")
        by_id = {c["id"]: c for c in index["campaigns"]}
        assert by_id[victim.stem]["stale"]
        assert by_id["campaign-torn"]["error"] == "unparseable"

    def test_campaign_detail_round_trip(self, sidecars):
        from repro.injectors.campaign import CampaignResult

        path = next(sidecars.glob("campaign-gefin-sha-*.json"))
        campaign = CampaignResult.from_json(
            json.loads(path.read_text()))
        with _serving(sidecars) as (_, base):
            detail = _get_json(f"{base}/api/campaign/{path.stem}")
        assert detail["vulnerability"] == pytest.approx(
            campaign.vulnerability())
        assert detail["runs"] == len(campaign.results)
        cells = detail["attribution"]["cells"]
        assert sum(c["runs"] for row in cells
                   for c in row) == len(campaign.results)
        divergence = detail["divergence"]
        assert set(divergence["layers"]) == {"AVF", "PVF", "SVF",
                                             "rPVF"}
        assert divergence["label"].startswith("sha@")

    def test_campaign_detail_absent_is_404(self, sidecars):
        with _serving(sidecars) as (_, base):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(base + "/api/campaign/campaign-nope")
            assert err.value.code == 404
            # a traversal-shaped id never reaches the filesystem
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(base + "/api/campaign/campaign-..%2f..%2fetc")
            assert err.value.code == 404

    def test_unknown_route_is_404_json(self, sidecars):
        with _serving(sidecars) as (_, base):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(base + "/api/bogus")
            assert err.value.code == 404
            assert json.loads(err.value.read())["status"] == 404

    def test_summary_endpoint_aggregates_events(self, sidecars):
        (sidecars / "events.jsonl").write_text(json.dumps(
            {"event": "campaign_summary", "campaign": "c1",
             "injector": "gefin", "workload": "sha", "target": "RF",
             "runs": 8, "elapsed": 4.0, "runs_per_sec": 2.0,
             "outcomes": {"masked": 6, "sdc": 2}}) + "\n")
        with _serving(sidecars) as (_, base):
            summary = _get_json(base + "/api/summary")
        (campaign,) = summary["campaigns"]
        assert campaign["label"] == "gefin:sha/RF"
        assert summary["outcome_totals"] == {"masked": 6, "sdc": 2}

    def test_live_page_is_the_dashboard_plus_script(self, sidecars):
        with _serving(sidecars) as (_, base):
            status, ctype, body = _get(base + "/")
        assert status == 200 and ctype.startswith("text/html")
        page = body.decode()
        assert page.startswith("<!DOCTYPE html>")
        assert "Cross-layer divergence" in page     # PR-5 body
        assert "<script>" in page                   # live patcher
        assert "/events/stream" in page
        for live_id in ("live-status", "live-campaigns",
                        "live-outcomes", "live-throughput",
                        "live-planner"):
            assert f'id="{live_id}"' in page, live_id

    def test_render_live_html_shares_static_body(self, sidecars):
        from repro.obs.dashboard import build_dashboard, render_html

        data = build_dashboard(cache_path=sidecars)
        static = render_html(data)
        live = render_live_html(data)
        # same section headings, only the live page carries a script
        for heading in re.findall(r"<h2>[^<]+</h2>", static):
            assert heading in live
        assert "<script" not in static
        assert "<script>" in live


_CAMPAIGN_KEYS = {"id", "injector", "workload", "config", "target",
                  "label", "n", "runs", "seed", "hardened",
                  "planned", "schema", "stale"}


def _rf_gefin_sha(sidecars):
    """The fixture bag's gefin sha/RF campaign id (a real replayable
    target: seed 7 index 0 is the pinned trace_diff run)."""
    return next(p.stem
                for p in sorted(sidecars.glob("campaign-gefin-sha-*"))
                if json.loads(p.read_text())["structure"] == "RF")


# ---------------------------------------------------------------------------
# the replay gate
# ---------------------------------------------------------------------------
class TestReplayGate:
    def test_trace_is_403_by_default(self, sidecars):
        # the replayed trace travels only inside the gated /diff
        # payload: a shut gate captures nothing and persists nothing
        cid = next(sidecars.glob("campaign-gefin-*.json")).stem
        with _serving(sidecars) as (server, base):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{base}/api/run/{cid}/7/0/diff")
            assert err.value.code == 403
            assert "trace" not in json.loads(err.value.read())
            metrics = server.observatory.metrics
            assert metrics.counter("server.replay_denied").value == 1
            assert metrics.counter("server.trace_requests").value == 0
        assert not list(sidecars.glob("trace-*.json"))
        events = sidecars / "events.jsonl"
        assert not events.exists() or \
            "trace_ready" not in events.read_text()

    def test_diff_is_403_by_default(self, sidecars):
        cid = next(sidecars.glob("campaign-gefin-*.json")).stem
        with _serving(sidecars) as (server, base):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{base}/api/run/{cid}/1/0/diff")
            assert err.value.code == 403
            assert "--allow-replay" in \
                json.loads(err.value.read())["error"]
            denied = server.observatory.metrics.counter(
                "server.replay_denied")
            assert denied.value == 1

    def test_diff_serves_and_memoizes(self, sidecars):
        cid = _rf_gefin_sha(sidecars)
        with _serving(sidecars, allow_replay=True) as (server, base):
            first = _get_json(f"{base}/api/run/{cid}/7/0/diff")
            second = _get_json(f"{base}/api/run/{cid}/7/0/diff")
            metrics = server.observatory.metrics
            assert metrics.counter("server.trace_requests").value == 2
            assert metrics.counter("server.trace_cache_hits").value \
                == 1
            exposition = _get(base + "/metrics")[2].decode()
        assert first["cached"] is False and second["cached"] is True
        assert first["diff"] == second["diff"]
        diff = first["diff"]
        assert diff["kind"] == "trace-diff"
        assert diff["injector"] == "gefin"
        assert diff["structure"] == "RF"
        assert diff["seed"] == 7 and diff["index"] == 0
        assert diff["frames"]
        # the sidecar lands next to the campaign, named by its id, so
        # every later server (and the dashboard) reuses it
        assert (sidecars / f"trace-{cid}-7-0.json").exists()
        # the cold capture announced itself on the event stream
        assert "trace_ready" in \
            (sidecars / "events.jsonl").read_text()
        assert "repro_server_trace_requests_total 2" in exposition
        assert "repro_server_trace_cache_hits_total 1" in exposition

    def test_trace_replays_when_allowed(self, sidecars):
        # the one endpoint that simulates: a real gefin replay with
        # the campaign-identical (seed, index) derivation
        from dataclasses import asdict

        from repro.injectors.campaign import _one_gefin

        cid = next(sidecars.glob("campaign-gefin-sha-*.json")).stem
        with _serving(sidecars, allow_replay=True) as (_, base):
            payload = _get_json(f"{base}/api/run/{cid}/7/0/diff")
        assert payload["campaign"] == cid
        diff = payload["diff"]
        trace = diff["trace"]
        assert trace["injector"] == "gefin"
        assert trace["seed"] == 7 and trace["index"] == 0
        assert diff["rendered"].startswith("fault trace:")
        # field-for-field agreement with the campaign worker
        worker = _one_gefin(("sha", "cortex-a72", trace["structure"],
                             7, 0, False, True, True))
        assert diff["outcome"] == asdict(worker)

    def test_diff_of_missing_campaign_is_404(self, sidecars):
        with _serving(sidecars, allow_replay=True) as (_, base):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(base + "/api/run/campaign-nope/1/0/diff")
            assert err.value.code == 404

    def test_trace_and_diff_share_the_sidecar(self, sidecars):
        # one capture persists the trace and the diff frames together:
        # a later server serves both from the sidecar, simulating once
        cid = _rf_gefin_sha(sidecars)
        with _serving(sidecars, allow_replay=True) as (_, base):
            cold = _get_json(f"{base}/api/run/{cid}/7/0/diff")
        with _serving(sidecars, allow_replay=True) as (server, base):
            warm = _get_json(f"{base}/api/run/{cid}/7/0/diff")
            hits = server.observatory.metrics.counter(
                "server.trace_cache_hits")
            assert hits.value == 1
        assert cold["cached"] is False and warm["cached"] is True
        assert warm["diff"]["trace"] == cold["diff"]["trace"]
        assert warm["diff"]["rendered"].startswith("fault trace:")
        assert warm["diff"]["rendered"] == cold["diff"]["rendered"]
        assert warm["diff"]["outcome"] == cold["diff"]["outcome"]
        assert warm["diff"]["frames"] == cold["diff"]["frames"]
        ready = (sidecars / "events.jsonl").read_text()
        assert ready.count("trace_ready") == 1


# ---------------------------------------------------------------------------
# /metrics
# ---------------------------------------------------------------------------
_PROM_LINE = re.compile(
    r"^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
    r"(counter|gauge|histogram|summary)"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le=\"[^\"]+\"\})? "
    r"[0-9eE.+-]+|\+Inf|-Inf|NaN)$")


class TestMetricsEndpoint:
    def test_exposition_parses(self, sidecars):
        with _serving(sidecars) as (_, base):
            _get(base + "/api/campaigns")
            status, ctype, body = _get(base + "/metrics")
        assert status == 200
        assert ctype == "text/plain; version=0.0.4; charset=utf-8"
        text = body.decode()
        assert text.endswith("\n")
        for line in text.rstrip("\n").split("\n"):
            assert _PROM_LINE.match(line), line
        # counters carry the conventional _total suffix, once
        assert "repro_server_requests_total 2" in text
        assert "_total_total" not in text

    def test_request_counter_is_cumulative(self, sidecars):
        with _serving(sidecars) as (_, base):
            first = _get(base + "/metrics")[2].decode()
            second = _get(base + "/metrics")[2].decode()

        def count(text):
            for line in text.splitlines():
                if line.startswith("repro_server_requests_total "):
                    return int(line.split()[-1])
            raise AssertionError("request counter missing")

        assert count(second) == count(first) + 1


# ---------------------------------------------------------------------------
# the SSE stream
# ---------------------------------------------------------------------------
class _SSEClient:
    """A raw-socket SSE reader (urllib buffers; sockets don't)."""

    def __init__(self, base: str):
        host, port = base[len("http://"):].split(":")
        self.sock = socket.create_connection((host, int(port)),
                                             timeout=10)
        self.sock.sendall(b"GET /events/stream HTTP/1.1\r\n"
                          b"Host: observatory\r\n"
                          b"Accept: text/event-stream\r\n\r\n")
        self._buffer = b""
        self._read_headers()

    def _read_headers(self) -> None:
        while b"\r\n\r\n" not in self._buffer:
            self._buffer += self.sock.recv(65536)
        head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        assert b"200" in head.split(b"\r\n", 1)[0]
        assert b"text/event-stream" in head

    def next_event(self, deadline: float = 10.0):
        """Return the next ``(event, payload)`` frame."""
        end = time.time() + deadline
        while True:
            frame, sep, rest = self._buffer.partition(b"\n\n")
            if sep:
                self._buffer = rest
                if frame.startswith(b":"):      # keepalive comment
                    continue
                event, data = None, None
                for line in frame.decode().splitlines():
                    if line.startswith("event: "):
                        event = line[len("event: "):]
                    elif line.startswith("data: "):
                        data = json.loads(line[len("data: "):])
                return event, data
            if time.time() > end:
                raise AssertionError("no SSE frame before deadline")
            self.sock.settimeout(max(0.1, end - time.time()))
            self._buffer += self.sock.recv(65536)

    def close(self) -> None:
        self.sock.close()


def _summary_event(campaign, runs, workload="sha"):
    return {"event": "campaign_summary", "campaign": campaign,
            "injector": "gefin", "workload": workload, "target": "RF",
            "runs": runs, "elapsed": 1.0, "runs_per_sec": float(runs),
            "outcomes": {"masked": runs}}


class TestSSE:
    def test_initial_summary_then_typed_deltas(self, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps(_summary_event("c0", 4)) + "\n")
        with _serving(tmp_path, events_path=events,
                      poll_interval=0.05) as (_, base):
            client = _SSEClient(base)
            try:
                # history primes the first summary before any delta
                event, data = client.next_event()
                assert event == "summary"
                assert data["campaigns"][0]["runs"] == 4
                with events.open("a") as handle:
                    handle.write(json.dumps(
                        _summary_event("c1", 8, "crc32")) + "\n")
                # the raw record is forwarded first, then the
                # re-aggregated summary that folds it in
                event, data = client.next_event()
                assert event == "campaign_summary"
                assert data["campaign"] == "c1"
                event, data = client.next_event()
                assert event == "summary"
                assert {c["label"] for c in data["campaigns"]} == \
                    {"gefin:sha/RF", "gefin:crc32/RF"}
            finally:
                client.close()

    def test_torn_line_held_until_complete(self, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text("")
        line = json.dumps(_summary_event("c0", 4))
        with _serving(tmp_path, events_path=events,
                      poll_interval=0.05) as (_, base):
            client = _SSEClient(base)
            try:
                event, data = client.next_event()
                assert event == "summary" and not data["campaigns"]
                with events.open("a") as handle:
                    handle.write(line[:20])     # torn mid-record
                time.sleep(0.2)                 # poll sees the tear
                with events.open("a") as handle:
                    handle.write(line[20:] + "\n")
                event, data = client.next_event()
                assert event == "campaign_summary"     # exactly once
                assert data["runs"] == 4
                event, data = client.next_event()
                assert event == "summary"
                assert data["campaigns"][0]["runs"] == 4
            finally:
                client.close()

    def test_ordering_under_concurrent_appends(self, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text("")
        total = 40

        def writer():
            for i in range(total):
                with events.open("a") as handle:
                    handle.write(json.dumps(
                        {"event": "shard_done", "campaign": "c0",
                         "shard": i, "runs": 1, "wall": 0.1,
                         "elapsed": 0.1 * i}) + "\n")
                time.sleep(0.002)

        with _serving(tmp_path, events_path=events,
                      poll_interval=0.02) as (_, base):
            client = _SSEClient(base)
            try:
                assert client.next_event()[0] == "summary"
                thread = threading.Thread(target=writer)
                thread.start()
                seen = []
                while len(seen) < total:
                    event, data = client.next_event()
                    if event == "shard_done":
                        seen.append(data["shard"])
                thread.join()
                # every append arrives, in file order, exactly once
                assert seen == list(range(total))
            finally:
                client.close()

    def test_forwarded_event_set_matches_engine(self):
        # the engine's emitting sites must stay within the forwarded
        # set, or the live page silently misses deltas
        assert {"campaign_started", "shard_done", "shard_retry",
                "campaign_finished", "campaign_summary",
                "metrics_snapshot"} <= FORWARDED_EVENTS


# ---------------------------------------------------------------------------
# the zero-simulation contract
# ---------------------------------------------------------------------------
class TestNoSimulation:
    def test_non_replay_endpoints_never_simulate(self, sidecars,
                                                 monkeypatch):
        # mirror test_dashboard: poison every simulation entry point,
        # then exercise every endpoint except the replay drill-down
        import repro.injectors.golden as golden_mod
        import repro.uarch.functional as functional_mod
        import repro.uarch.pipeline as pipeline_mod

        def boom(*args, **kwargs):
            raise AssertionError("observatory ran a simulation")

        monkeypatch.setattr(golden_mod, "golden_run", boom)
        monkeypatch.setattr(pipeline_mod, "run_pipeline", boom)
        monkeypatch.setattr(pipeline_mod.PipelineEngine, "run", boom)
        monkeypatch.setattr(functional_mod, "run_functional", boom)
        monkeypatch.setattr(functional_mod.FunctionalEngine, "run",
                            boom)

        (sidecars / "events.jsonl").write_text(
            json.dumps(_summary_event("c0", 4)) + "\n")
        cid = next(sidecars.glob("campaign-gefin-*.json")).stem
        observatory = Observatory(cache_path=sidecars)
        assert observatory.campaign_index()["campaigns"]
        assert observatory.campaign_detail(cid)["runs"] > 0
        assert observatory.summary()["campaigns"]
        assert observatory.prometheus()
        from repro.obs.dashboard import build_dashboard

        assert render_live_html(
            build_dashboard(cache_path=sidecars,
                            events_path=sidecars / "events.jsonl"))

    def test_warm_drilldown_never_resimulates(self, sidecars,
                                              monkeypatch):
        # the acceptance bar: once the trace sidecar exists, the
        # drill-down renders entirely from it — poison every
        # simulation entry point and serve anyway
        cid = _rf_gefin_sha(sidecars)
        observatory = Observatory(cache_path=sidecars,
                                  allow_replay=True)
        cold = observatory.run_diff(cid, 7, 0)
        assert cold["cached"] is False

        import repro.injectors.golden as golden_mod
        import repro.uarch.functional as functional_mod
        import repro.uarch.pipeline as pipeline_mod

        def boom(*args, **kwargs):
            raise AssertionError("warm drill-down ran a simulation")

        monkeypatch.setattr(golden_mod, "golden_run", boom)
        monkeypatch.setattr(pipeline_mod, "run_pipeline", boom)
        monkeypatch.setattr(pipeline_mod.PipelineEngine, "run", boom)
        monkeypatch.setattr(functional_mod, "run_functional", boom)
        monkeypatch.setattr(functional_mod.FunctionalEngine, "run",
                            boom)

        warm = observatory.run_diff(cid, 7, 0)
        assert warm["cached"] is True
        assert warm["diff"] == cold["diff"]
        assert warm["diff"]["rendered"].startswith("fault trace:")

    def test_serving_leaves_sidecars_untouched(self, sidecars):
        # byte-identical sidecars with the server attached or not
        before = {p.name: p.read_bytes()
                  for p in sorted(sidecars.glob("*.json"))}
        with _serving(sidecars) as (_, base):
            _get(base + "/api/campaigns")
            _get(base + "/")
            _get(base + "/metrics")
        after = {p.name: p.read_bytes()
                 for p in sorted(sidecars.glob("*.json"))}
        assert after == before


# ---------------------------------------------------------------------------
# the CLI verb
# ---------------------------------------------------------------------------
class TestServeCLI:
    def test_port_zero_announces_ephemeral_address(self, tmp_path,
                                                   monkeypatch):
        # serve() blocks; capture the announce line, then use it to
        # reach the server from this thread and shut it down
        announced = []
        servers = []
        import repro.obs.server as server_mod

        original = server_mod.make_server

        def capture(*args, **kwargs):
            server = original(*args, **kwargs)
            servers.append(server)
            return server

        monkeypatch.setattr(server_mod, "make_server", capture)
        thread = threading.Thread(
            target=serve,
            kwargs={"port": 0, "cache_path": tmp_path,
                    "announce": announced.append},
            daemon=True)
        thread.start()
        deadline = time.time() + 10
        while not announced and time.time() < deadline:
            time.sleep(0.01)
        try:
            (line,) = announced
            match = re.search(r"http://([\d.]+):(\d+)", line)
            assert match, line
            port = int(match.group(2))
            assert port != 0        # the *bound* port, not the ask
            assert "replay off" in line
            index = _get_json(f"http://127.0.0.1:{port}"
                              "/api/campaigns")
            assert index["campaigns"] == []
        finally:
            servers[0].shutdown()
            thread.join(timeout=5)

    def test_cli_wires_serve_flags(self, monkeypatch, tmp_path):
        from repro.cli import main

        calls = {}

        def fake_serve(**kwargs):
            calls.update(kwargs)

        monkeypatch.setattr("repro.obs.server.serve", fake_serve)
        code = main(["serve", "--port", "0", "--cache",
                     str(tmp_path), "--allow-replay",
                     "--poll-interval", "0.25"])
        assert code == 0
        assert calls["port"] == 0
        assert calls["cache_path"] == str(tmp_path)
        assert calls["allow_replay"] is True
        assert calls["poll_interval"] == 0.25


class TestGracefulShutdown:
    def _spawn_serve(self, tmp_path, *flags):
        import subprocess
        import sys
        from pathlib import Path

        env = dict(__import__("os").environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache", str(tmp_path), *flags],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)

    @pytest.mark.parametrize("flags", [(), ("--allow-replay",)])
    def test_sigterm_exits_zero(self, tmp_path, flags):
        import signal as signal_mod

        process = self._spawn_serve(tmp_path, *flags)
        try:
            line = process.stdout.readline()
            assert "observatory serving at http://" in line
            process.send_signal(signal_mod.SIGTERM)
            code = process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
        assert code == 0, process.stderr.read()

    def test_sigterm_flushes_sse_final_frame(self, tmp_path):
        import signal as signal_mod

        process = self._spawn_serve(tmp_path)
        try:
            line = process.stdout.readline()
            base = "http://" + line.split("http://", 1)[1].split()[0]
            client = _SSEClient(base)
            event, _ = client.next_event()
            assert event == "summary"
            process.send_signal(signal_mod.SIGTERM)
            # the final comment frame announces a deliberate close
            deadline = time.time() + 20
            tail = b""
            while time.time() < deadline:
                try:
                    chunk = client.sock.recv(65536)
                except OSError:
                    break
                if not chunk:
                    break
                tail += chunk
            assert b": observatory stopping" in tail
            code = process.wait(timeout=30)
            assert code == 0
        finally:
            if process.poll() is None:
                process.kill()


# ---------------------------------------------------------------------------
# one renderer: the live page places server-rendered HTML
# ---------------------------------------------------------------------------
def _div_inner(page, div_id):
    match = re.search(f'<div id="{div_id}">(.*?)</div>', page, re.S)
    assert match, div_id
    return match.group(1)


def _halfway_events():
    """A summary whose fields sit exactly half-way between two
    renderings: elapsed 2.25 s, 0.25 runs/s, latency p50/p99 2.5/10.5
    and shard rates [1, 2]."""
    latency = {"boundaries": [1, 4, 10, 11],
               "counts": [25, 50, 23, 2, 0], "count": 100,
               "sum": 400.0}
    return [
        {"event": "campaign_started", "campaign": "c0", "n": 3,
         "shards": 2, "workers": 1},
        {"event": "shard_done", "campaign": "c0", "shard": 0,
         "runs": 1, "wall": 1.0},
        {"event": "shard_done", "campaign": "c0", "shard": 1,
         "runs": 2, "wall": 1.0},
        {"event": "campaign_summary", "campaign": "c0",
         "injector": "gefin", "workload": "sha", "target": "RF",
         "runs": 3, "elapsed": 2.25, "runs_per_sec": 0.25,
         "outcomes": {"masked": 2, "sdc": 1}, "latency": latency},
        {"event": "planner_summary", "campaign": "c0",
         "planner": "two-level", "planned_n": 12, "actual_n": 3,
         "savings": 4.0, "target_margin": 0.05,
         "margin_attained": 0.04, "estimate": 0.3},
    ]


class TestOneRenderer:
    def test_sse_sections_are_the_static_divs(self, sidecars):
        from repro.obs.dashboard import build_dashboard, render_html

        events = sidecars / "events.jsonl"
        events.write_text("".join(json.dumps(e) + "\n"
                                  for e in _halfway_events()))
        page = render_html(build_dashboard(cache_path=sidecars,
                                           events_path=events))
        with _serving(sidecars, events_path=events,
                      poll_interval=0.05) as (server, base):
            client = _SSEClient(base)
            try:
                event, data = client.next_event()
            finally:
                client.close()
            summary = server.observatory.summary()
        assert event == "summary"
        # every key of the report payload stays; sections is added
        assert set(data) == set(summary) | {"sections"}
        assert {k: v for k, v in data.items()
                if k != "sections"} == summary
        assert list(data["sections"]) == ["live-campaigns",
                                          "live-outcomes",
                                          "live-throughput",
                                          "live-planner"]
        for div_id, inner in data["sections"].items():
            assert inner == _div_inner(page, div_id), div_id
        # the half-way values render once, the Python way
        sections = data["sections"]
        assert "<td>2.2s</td><td>0.2</td><td>2/10</td>" in \
            sections["live-campaigns"]
        assert "<pre>[=@]</pre>" in sections["live-throughput"]
        assert "3/12 injections spent (4.00x saved)" in \
            sections["live-planner"]

    def test_diff_html_is_the_static_trace_section(self, sidecars):
        from repro.obs.dashboard import build_dashboard, render_html

        cid = _rf_gefin_sha(sidecars)
        with _serving(sidecars, allow_replay=True) as (_, base):
            cold = _get_json(f"{base}/api/run/{cid}/7/0/diff")
        assert cold["cached"] is False
        page = render_html(build_dashboard(cache_path=sidecars))
        start = page.index('<h3 id="run-gefin-sha-')
        end = page.index("\n<h", start)
        assert cold["html"] == page[start:end]
        assert cold["html"].count("<tr>") == \
            len(cold["diff"]["frames"]) + 1

    def test_page_script_renders_nothing(self, sidecars):
        from repro.obs.server import _LIVE_JS

        with _serving(sidecars) as (_, base):
            page = _get(base + "/")[2].decode()
        script = page.split("<script>", 1)[1].split("</script>", 1)[0]
        assert script == _LIVE_JS
        for renderer in ("function table", "function spark",
                         "renderFrame", "renderJobs"):
            assert renderer not in script, renderer
        assert len(_LIVE_JS.strip().splitlines()) < 60
        assert 'id="live-jobs"' not in page
        assert 'id="trace-prev"' not in page


class TestStaleSidecars:
    def test_stale_copy_changes_no_view(self, sidecars):
        from repro.obs.dashboard import build_dashboard

        cid = _rf_gefin_sha(sidecars)
        observatory = Observatory(cache_path=sidecars)

        def views():
            data = build_dashboard(cache_path=sidecars)
            return ([c.to_json() for c in data.campaigns],
                    data.fpm_mix, data.phase_heatmaps,
                    observatory.campaign_detail(cid)["divergence"])

        before = views()
        # an old-schema copy with a different, larger outcome mix: the
        # divergence row would prefer it (largest n wins duplicates)
        stale = json.loads((sidecars / f"{cid}.json").read_text())
        stale["schema"] = -1
        stale["n"] = 40
        stale["results"] = [dict(stale["results"][0], outcome="sdc",
                                 fpm="WD")] * 40
        (sidecars / f"{cid}-old.json").write_text(json.dumps(stale))
        assert views() == before
        index = observatory.campaign_index()
        by_id = {c["id"]: c for c in index["campaigns"]}
        assert by_id[f"{cid}-old"]["stale"]
        assert not by_id[cid]["stale"]

    def test_stale_or_corrupt_sidecar_has_no_drilldown(self, sidecars,
                                                       monkeypatch):
        # the index lists each one, flagged; the detail and the replay
        # drill-down answer 404 without simulating anything
        import repro.injectors.golden as golden_mod
        import repro.uarch.functional as functional_mod
        import repro.uarch.pipeline as pipeline_mod

        def boom(*args, **kwargs):
            raise AssertionError("a stale sidecar was re-simulated")

        monkeypatch.setattr(golden_mod, "golden_run", boom)
        monkeypatch.setattr(pipeline_mod.PipelineEngine, "run", boom)
        monkeypatch.setattr(functional_mod.FunctionalEngine, "run",
                            boom)

        cid = _rf_gefin_sha(sidecars)
        stale = json.loads((sidecars / f"{cid}.json").read_text())
        stale["schema"] = -1
        (sidecars / f"{cid}-old.json").write_text(json.dumps(stale))
        (sidecars / "campaign-torn.json").write_text("{not json")
        (sidecars / "campaign-array.json").write_text("[]")
        with _serving(sidecars, allow_replay=True) as (_, base):
            index = _get_json(base + "/api/campaigns")
            by_id = {c["id"]: c for c in index["campaigns"]}
            assert by_id[f"{cid}-old"]["stale"]
            assert by_id["campaign-torn"]["error"] == "unparseable"
            assert by_id["campaign-array"]["error"] == "unparseable"
            assert _get_json(f"{base}/api/campaign/{cid}")["runs"] > 0
            for bad in (f"{cid}-old", "campaign-torn", "campaign-array"):
                for url in (f"{base}/api/campaign/{bad}",
                            f"{base}/api/run/{bad}/7/0/diff"):
                    with pytest.raises(urllib.error.HTTPError) as err:
                        _get(url)
                    assert err.value.code == 404, url
        assert not list(sidecars.glob("trace-*.json"))
