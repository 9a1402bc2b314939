"""Observability stack: event log, progress line, metrics, tracing.

The acceptance bar: the event log survives concurrent writers without
torn lines; the progress line never wraps the terminal; the metrics
registry snapshot round-trips losslessly; and a replayed fault trace
agrees exactly with the campaign worker for the same (workload,
structure, seed, index).
"""

from __future__ import annotations

import io
import json
import threading
from pathlib import Path

import pytest

from repro.obs.events import EventLog
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    metrics_enabled,
    set_registry,
)
from repro.obs.progress import ProgressReporter, _format_eta
from repro.obs.reporting import (iter_events, render_report,
                                 report_data)


# ---------------------------------------------------------------------------
# event log
# ---------------------------------------------------------------------------
class TestEventLog:
    def test_resolve_unset_uses_default(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_EVENT_LOG", raising=False)
        log = EventLog.resolve(default=tmp_path / "ev.jsonl")
        assert log.enabled and log.path == tmp_path / "ev.jsonl"

    @pytest.mark.parametrize("value", ["0", "off", "none", "false", " "])
    def test_resolve_disabling_values(self, monkeypatch, tmp_path,
                                      value):
        monkeypatch.setenv("REPRO_EVENT_LOG", value)
        log = EventLog.resolve(default=tmp_path / "ev.jsonl")
        assert not log.enabled
        log.emit("ignored")  # no-op, must not create the default path
        assert not (tmp_path / "ev.jsonl").exists()

    @pytest.mark.parametrize("value, path", [
        ("no", None), ("NO", None), ("none", None), ("off", None),
        ("0", None), ("false", None), ("", None), ("unset", None),
        ("no.jsonl", "no.jsonl")])
    def test_resolve_reads_the_shared_falsy_set(self, monkeypatch, value,
                                                path):
        """``obs.metrics.FALSY`` (plus ``none``) disables the log, an
        unset variable with no default gives no log, and anything else
        is a path."""
        if value == "unset":
            monkeypatch.delenv("REPRO_EVENT_LOG", raising=False)
        else:
            monkeypatch.setenv("REPRO_EVENT_LOG", value)
        log = EventLog.resolve()
        assert log.path == (Path(path) if path else None)

    def test_resolve_env_path_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_EVENT_LOG", str(tmp_path / "env.jsonl"))
        log = EventLog.resolve(default=tmp_path / "default.jsonl")
        assert log.path == tmp_path / "env.jsonl"

    def test_emit_keeps_one_open_handle(self, tmp_path):
        with EventLog(tmp_path / "ev.jsonl") as log:
            log.emit("first", n=1)
            handle = log._handle
            assert handle is not None
            log.emit("second", n=2)
            assert log._handle is handle
        assert log._handle is None  # context exit closed it
        log.emit("third", n=3)      # transparently reopens
        log.close()
        events = [json.loads(line)["event"]
                  for line in (tmp_path / "ev.jsonl").read_text()
                  .splitlines()]
        assert events == ["first", "second", "third"]

    def test_concurrent_appends_interleave_whole_lines(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        per_writer = 200

        def writer(tag):
            log = EventLog(path)
            for i in range(per_writer):
                log.emit("tick", tag=tag, i=i)
            log.close()

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        lines = path.read_text().splitlines()
        assert len(lines) == 4 * per_writer
        records = [json.loads(line) for line in lines]  # no torn lines
        for tag in range(4):
            seen = [r["i"] for r in records if r["tag"] == tag]
            assert seen == list(range(per_writer))


# ---------------------------------------------------------------------------
# progress reporter
# ---------------------------------------------------------------------------
class TestProgressReporter:
    def test_line_contents_and_eta(self, monkeypatch):
        stream = io.StringIO()
        reporter = ProgressReporter(10, label="demo", stream=stream)
        monkeypatch.setattr(reporter, "_width", lambda: 200)
        reporter.advance(4, ["masked", "masked", "sdc", "crash"])
        line = stream.getvalue()
        assert line.startswith("\r")
        assert "demo: 4/10 runs" in line
        assert "runs/s" in line and "ETA" in line
        assert "crash=1 masked=2 sdc=1" in line

    def test_finish_final_state_names_campaign(self, monkeypatch):
        stream = io.StringIO()
        reporter = ProgressReporter(4, label="gefin:sha/RF",
                                    stream=stream)
        monkeypatch.setattr(reporter, "_width", lambda: 200)
        reporter.advance(4, ["masked"] * 4)
        reporter.finish()
        final = stream.getvalue().split("\r")[-1]
        assert final.endswith("\n")
        assert "gefin:sha/RF: 4/4 runs" in final
        assert "masked=4" in final
        assert " in " in final and "ETA" not in final

    def test_line_clamped_to_terminal_width(self, monkeypatch):
        stream = io.StringIO()
        reporter = ProgressReporter(1000, label="x" * 50, stream=stream)
        monkeypatch.setattr(reporter, "_width", lambda: 40)
        reporter.advance(500, ["masked"] * 500)
        line = stream.getvalue().lstrip("\r")
        assert len(line) <= 39

    def test_eta_formatting(self):
        assert _format_eta(42) == "42s"
        assert _format_eta(90) == "1m30s"
        assert _format_eta(7320) == "2h02m"
        assert _format_eta(float("inf")) == "?"


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_enabled_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        assert metrics_enabled() is False
        monkeypatch.setenv("REPRO_METRICS", "1")
        assert metrics_enabled() is True
        assert metrics_enabled(explicit=False) is False

    def test_disabled_registry_hands_out_null_instruments(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc(5)
        reg.gauge("g").set(3.0)
        reg.histogram("h").observe(1.0)
        with reg.timer("t").time():
            pass
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {},
                        "histograms": {}, "timers": {}}

    def test_histogram_bucketing(self):
        hist = Histogram((1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 50.0, 5000.0):
            hist.observe(value)
        # upper-inclusive edges; the last sample overflows
        assert hist.counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.mean == pytest.approx(5056.5 / 5)

    def test_histogram_percentiles_interpolate(self):
        hist = Histogram((10.0, 20.0))
        for _ in range(10):
            hist.observe(5.0)      # all in the first bucket
        assert hist.percentile(50) == pytest.approx(5.0)
        assert hist.percentile(100) == pytest.approx(10.0)
        hist.observe(1000.0)       # overflow reports the last edge
        assert hist.percentile(100) == pytest.approx(20.0)

    def test_histogram_rejects_bad_boundaries(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram((5.0, 1.0))
        Histogram(LATENCY_BUCKETS)  # the shipped edges are valid

    def test_snapshot_round_trip(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("runs").inc(7)
        reg.gauge("rate").set(12.5)
        hist = reg.histogram("lat", (1.0, 10.0))
        hist.observe(0.5)
        hist.observe(99.0)
        reg.timer("wall").add(1.25)
        snap = reg.snapshot()
        json.loads(json.dumps(snap))  # JSON-serialisable
        again = MetricsRegistry.from_snapshot(snap)
        assert again.snapshot() == snap

    def test_set_registry_swaps_default(self):
        from repro.obs.metrics import get_registry

        custom = MetricsRegistry(enabled=True)
        set_registry(custom)
        try:
            assert get_registry() is custom
        finally:
            set_registry(None)


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------
class TestPrometheus:
    def _registry(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("campaign.runs").inc(7)
        reg.counter("server.requests_total").inc(3)
        reg.gauge("tail.lag_bytes").set(128.0)
        hist = reg.histogram("latency", (1.0, 10.0))
        hist.observe(0.5)
        hist.observe(99.0)
        reg.timer("shard.wall").add(1.25)
        return reg

    def test_counters_gain_total_suffix_once(self):
        from repro.obs.metrics import render_prometheus

        text = render_prometheus(self._registry().snapshot())
        assert "# TYPE repro_campaign_runs_total counter" in text
        assert "repro_campaign_runs_total 7" in text
        # a name already ending _total is not doubled
        assert "repro_server_requests_total 3" in text
        assert "_total_total" not in text

    def test_histogram_buckets_are_cumulative(self):
        from repro.obs.metrics import render_prometheus

        text = render_prometheus(self._registry().snapshot())
        assert 'repro_latency_bucket{le="1"} 1' in text
        assert 'repro_latency_bucket{le="10"} 1' in text
        assert 'repro_latency_bucket{le="+Inf"} 2' in text
        assert "repro_latency_sum 99.5" in text
        assert "repro_latency_count 2" in text

    def test_gauges_and_timers(self):
        from repro.obs.metrics import render_prometheus

        text = render_prometheus(self._registry().snapshot())
        assert "# TYPE repro_tail_lag_bytes gauge" in text
        assert "repro_tail_lag_bytes 128" in text
        assert "# TYPE repro_shard_wall_seconds summary" in text
        assert "repro_shard_wall_seconds_sum 1.25" in text
        assert "repro_shard_wall_seconds_count 1" in text

    def test_names_are_sanitised(self):
        from repro.obs.metrics import _prom_name

        assert _prom_name("a.b-c d") == "repro_a_b_c_d"
        assert _prom_name("2fast") == "repro__2fast"
        assert _prom_name("plain", namespace="") == "plain"

    def test_empty_snapshot_renders_empty(self):
        from repro.obs.metrics import render_prometheus

        assert render_prometheus(
            MetricsRegistry(enabled=True).snapshot()) == ""

    def test_every_line_is_well_formed(self):
        import re

        from repro.obs.metrics import render_prometheus

        text = render_prometheus(self._registry().snapshot())
        assert text.endswith("\n")
        shape = re.compile(
            r"^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* \w+"
            r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le=\"[^\"]+\"\})? \S+)$")
        for line in text.rstrip("\n").split("\n"):
            assert shape.match(line), line


# ---------------------------------------------------------------------------
# fault tracing
# ---------------------------------------------------------------------------
class TestTracing:
    def test_trace_agrees_with_campaign_worker(self):
        from repro.injectors.campaign import _one_gefin
        from repro.obs.tracing import trace_fault

        trace, result = trace_fault("sha", "cortex-a72", "RF", 7,
                                    index=0)
        campaign = _one_gefin(("sha", "cortex-a72", "RF", 7, 0,
                               False, True, True))
        assert result == campaign
        assert trace.outcome == campaign.outcome
        assert trace.fpm == campaign.fpm
        assert trace.crossed == campaign.crossed

    def test_trace_render_tells_the_story(self):
        from repro.obs.tracing import trace_fault

        trace, result = trace_fault("crc32", "cortex-a72", "RF", 7,
                                    index=0)
        text = trace.render()
        assert "injected" in text and "outcome" in text
        assert result.outcome in text
        assert "timeline" in text
        if trace.crossed:
            assert trace.latency_cycles is not None
            assert trace.latency_cycles >= 0


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------
def _synthetic_events():
    hist = Histogram(LATENCY_BUCKETS)
    for value in (3.0, 40.0, 900.0):
        hist.observe(value)
    return [
        {"ts": 1.0, "event": "campaign_started", "campaign": "c1",
         "n": 8, "shards": 2, "resumed": 0, "workers": 1},
        {"ts": 2.0, "event": "shard_done", "campaign": "c1",
         "shard": 0, "runs": 4, "wall": 2.0, "elapsed": 2.0},
        {"ts": 3.0, "event": "shard_retry", "campaign": "c1",
         "shard": 1, "attempt": 2, "error": "boom"},
        {"ts": 4.0, "event": "shard_done", "campaign": "c1",
         "shard": 1, "runs": 4, "wall": 1.0, "elapsed": 3.0},
        {"ts": 5.0, "event": "campaign_finished", "campaign": "c1",
         "runs": 8, "elapsed": 4.0},
        {"ts": 6.0, "event": "campaign_summary", "campaign": "c1",
         "injector": "gefin", "workload": "sha", "target": "RF",
         "runs": 8, "elapsed": 4.0, "runs_per_sec": 2.0,
         "outcomes": {"masked": 5, "sdc": 2, "crash": 1},
         "latency": {"boundaries": list(hist.boundaries),
                     "counts": list(hist.counts),
                     "count": hist.count, "sum": hist.sum}},
    ]


class TestReporting:
    def test_load_events_skips_garbage(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "campaign_started"}\n'
                        "not json at all\n"
                        '{"no_event_key": 1}\n'
                        '{"event": "campaign_finished"}\n')
        kinds = [e["event"] for e in iter_events(path)]
        assert kinds == ["campaign_started", "campaign_finished"]

    def test_render_report_sections(self):
        text = render_report(_synthetic_events())
        assert "gefin:sha/RF" in text          # campaign label
        assert "outcome mix" in text
        assert "masked" in text and "62" in text   # 5/8 = 62%
        assert "visibility latency" in text
        assert "p50" in text and "p99" in text
        assert "throughput trend" in text
        assert "retry hot spots" in text and "boom" in text

    def test_render_report_empty(self):
        assert render_report([]) == "no campaign events found"

    def test_report_needs_no_simulation(self, monkeypatch):
        # rendering must not import or invoke the pipeline
        import sys

        import repro.obs.reporting as reporting

        monkeypatch.delitem(sys.modules, "repro.uarch.pipeline",
                            raising=False)
        render_report(_synthetic_events())
        assert "repro.uarch.pipeline" not in sys.modules
        assert reporting  # keep the import explicit

    def test_load_events_is_a_lazy_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "a"}\n{"event": "b"}\n')
        stream = iter_events(path)
        assert iter(stream) is stream       # generator, not a list
        assert next(stream)["event"] == "a"

    def test_load_events_reads_gzip(self, tmp_path):
        import gzip

        path = tmp_path / "events.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            for record in _synthetic_events():
                handle.write(json.dumps(record) + "\n")
        kinds = [e["event"] for e in iter_events(path)]
        assert kinds[0] == "campaign_started"
        assert kinds[-1] == "campaign_summary"
        assert "gefin:sha/RF" in render_report(iter_events(path))

    def test_load_events_reads_stdin(self, monkeypatch):
        lines = "".join(json.dumps(r) + "\n"
                        for r in _synthetic_events())
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        kinds = [e["event"] for e in iter_events("-")]
        assert len(kinds) == len(_synthetic_events())

    @pytest.mark.parametrize("dump", [
        {},                                             # empty
        {"boundaries": [1.0, 10.0]},                    # partial
        {"boundaries": [1.0, 10.0], "counts": [0, 0, 0],
         "count": 0},                                   # missing sum
        {"boundaries": [10.0, 1.0], "counts": [0, 0, 0],
         "count": 0, "sum": 0.0},                       # descending
        {"boundaries": [1.0, 10.0], "counts": [0, 0, 0],
         "count": "three", "sum": 0.0},                 # non-numeric
        {"boundaries": None, "counts": [0], "count": 0,
         "sum": 0.0},                                   # wrong type
    ])
    def test_hist_from_dump_rejects_malformed(self, dump):
        from repro.obs.reporting import _hist_from_dump

        assert _hist_from_dump(dump) is None

    def test_hist_from_dump_accepts_well_formed(self):
        from repro.obs.reporting import _hist_from_dump

        hist = Histogram(LATENCY_BUCKETS)
        hist.observe(40.0)
        clone = _hist_from_dump(
            {"boundaries": list(hist.boundaries),
             "counts": list(hist.counts),
             "count": hist.count, "sum": hist.sum})
        assert clone is not None
        assert clone.count == 1
        assert clone.percentile(50) == pytest.approx(
            hist.percentile(50))

    def test_interleaved_campaigns_stay_separate(self):
        # two campaigns' events arrive interleaved, as they do with
        # concurrent writers sharing one events.jsonl
        c1 = _synthetic_events()
        c2 = []
        for record in _synthetic_events():
            record = dict(record)
            record["campaign"] = "c2"
            if record["event"] == "campaign_summary":
                record["workload"] = "crc32"
                record["target"] = "LSQ"
                record["outcomes"] = {"masked": 8}
            c2.append(record)
        interleaved = [r for pair in zip(c1, c2) for r in pair]
        text = render_report(interleaved)
        assert "gefin:sha/RF" in text
        assert "gefin:crc32/LSQ" in text
        data = report_data(iter(interleaved))
        assert {c["label"] for c in data["campaigns"]} == \
            {"gefin:sha/RF", "gefin:crc32/LSQ"}
        assert all(c["runs"] == 8 for c in data["campaigns"])
        assert data["outcome_totals"]["masked"] == 13

    def test_retry_keeps_highest_attempt_error(self):
        # multi-worker logs interleave: the attempt-3 record can land
        # before attempt-1.  The hot-spot table must show the error of
        # the highest attempt, not of whichever line came last.
        events = [
            {"event": "shard_retry", "campaign": "c1", "shard": 4,
             "attempt": 3, "error": "final straw"},
            {"event": "shard_retry", "campaign": "c1", "shard": 4,
             "attempt": 1, "error": "stale first try"},
        ]
        data = report_data(events)
        (entry,) = data["retries"]
        assert entry["attempts"] == 3
        assert entry["last_error"] == "final straw"
        text = render_report(events)
        assert "final straw" in text
        assert "stale first try" not in text

    def test_report_data_shape(self):
        data = report_data(_synthetic_events())
        (campaign,) = data["campaigns"]
        assert campaign["label"] == "gefin:sha/RF"
        assert campaign["runs"] == 8
        assert campaign["retries"] == 2
        assert len(campaign["shard_rates"]) == 2
        assert campaign["latency"]["count"] == 3
        assert campaign["latency"]["p50"] <= campaign["latency"]["p99"]
        assert data["outcome_totals"] == {"masked": 5, "sdc": 2,
                                          "crash": 1}
        assert json.loads(json.dumps(data)) == data


# ---------------------------------------------------------------------------
# follow-mode tailing
# ---------------------------------------------------------------------------
class TestEventTail:
    def _write(self, path, records):
        with path.open("a") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    def test_polls_are_incremental(self, tmp_path):
        from repro.obs.reporting import EventTail

        path = tmp_path / "events.jsonl"
        self._write(path, [{"event": "a"}, {"event": "b"}])
        tail = EventTail(path)
        assert [e["event"] for e in tail.poll()] == ["a", "b"]
        assert tail.poll() == []            # nothing new
        self._write(path, [{"event": "c"}])
        assert [e["event"] for e in tail.poll()] == ["c"]
        assert tail.lag_bytes == 0

    def test_missing_file_is_not_an_error(self, tmp_path):
        from repro.obs.reporting import EventTail

        path = tmp_path / "events.jsonl"
        tail = EventTail(path)
        assert tail.poll() == []            # no log yet
        self._write(path, [{"event": "late"}])
        assert [e["event"] for e in tail.poll()] == ["late"]

    def test_torn_final_line_delivered_exactly_once(self, tmp_path):
        from repro.obs.reporting import EventTail

        path = tmp_path / "events.jsonl"
        line = json.dumps({"event": "torn", "n": 1})
        path.write_text(json.dumps({"event": "whole"}) + "\n"
                        + line[:10])
        tail = EventTail(path)
        assert [e["event"] for e in tail.poll()] == ["whole"]
        assert tail.lag_bytes == 10         # the tear, still pending
        assert tail.poll() == []            # not consumed, not retried
        with path.open("a") as handle:
            handle.write(line[10:] + "\n")
        assert [e["event"] for e in tail.poll()] == ["torn"]
        assert tail.lag_bytes == 0
        assert tail.skipped == 0            # held back, never dropped

    def test_truncation_restarts_from_the_top(self, tmp_path):
        from repro.obs.reporting import EventTail

        path = tmp_path / "events.jsonl"
        self._write(path, [{"event": "old", "i": i}
                           for i in range(5)])
        tail = EventTail(path)
        assert len(tail.poll()) == 5
        path.write_text(json.dumps({"event": "fresh"}) + "\n")
        assert [e["event"] for e in tail.poll()] == ["fresh"]

    def test_rotation_reopens_the_replacement(self, tmp_path):
        from repro.obs.reporting import EventTail

        path = tmp_path / "events.jsonl"
        self._write(path, [{"event": "before", "i": i}
                           for i in range(3)])
        tail = EventTail(path)
        assert len(tail.poll()) == 3
        # rotate: the old log moves aside, a new file takes the path
        path.rename(tmp_path / "events.jsonl.1")
        self._write(path, [{"event": "after", "i": i}
                           for i in range(9)])
        events = tail.poll()
        assert [e["event"] for e in events] == ["after"] * 9

    def test_garbage_complete_lines_are_counted(self, tmp_path):
        from repro.obs.reporting import EventTail

        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "good"}\n'
                        "not json\n"
                        '{"no_event": 1}\n')
        tail = EventTail(path)
        assert [e["event"] for e in tail.poll()] == ["good"]
        assert tail.skipped == 2

    def test_aggregator_incremental_matches_batch(self, tmp_path):
        from repro.obs.reporting import (EventTail, ReportAggregator,
                                         report_data)

        path = tmp_path / "events.jsonl"
        tail = EventTail(path)
        incremental = ReportAggregator()
        for record in _synthetic_events():
            self._write(path, [record])
            incremental.absorb_all(tail.poll())
        assert incremental.data() == report_data(_synthetic_events())


# ---------------------------------------------------------------------------
# on/off environment switches
# ---------------------------------------------------------------------------
_ENV_VALUES = (None, "", "1", " Yes ", "off", "0", "garbage", "8")


def _switches():
    from repro.obs.metrics import metrics_enabled
    from repro.obs.profiles import profile_enabled
    from repro.obs.progress import progress_enabled
    from repro.uarch.batch import resolve_batch_lanes
    from repro.uarch.snapshot import fastpath_enabled

    return {"REPRO_PROGRESS": progress_enabled,
            "REPRO_METRICS": metrics_enabled,
            "REPRO_PROFILE": profile_enabled,
            "REPRO_FASTPATH": fastpath_enabled,
            "REPRO_BATCH": resolve_batch_lanes}


#: how each switch reads each value (unset first); the opt-in
#: switches are on only for a truthy value, the fast path is off only
#: for a falsy one, and REPRO_BATCH also takes a lane count
_EXPECTED = {
    "REPRO_PROGRESS": (False, False, True, True, False, False, False,
                       False),
    "REPRO_METRICS": (False, False, True, True, False, False, False,
                      False),
    "REPRO_PROFILE": (False, False, True, True, False, False, False,
                      False),
    "REPRO_FASTPATH": (True, False, True, True, False, False, True,
                       True),
    "REPRO_BATCH": (0, 0, 64, 64, 0, 0, 64, 8),
}


@pytest.mark.parametrize("name", sorted(_EXPECTED))
@pytest.mark.parametrize("position", range(len(_ENV_VALUES)),
                         ids=[repr(v) for v in _ENV_VALUES])
def test_env_switch_reading(name, position, monkeypatch):
    value = _ENV_VALUES[position]
    if value is None:
        monkeypatch.delenv(name, raising=False)
    else:
        monkeypatch.setenv(name, value)
    got = _switches()[name]()
    assert got == _EXPECTED[name][position]
    assert type(got) is type(_EXPECTED[name][position])
