"""Differential trace explorer: capture, round-trip, codec, render.

The acceptance bar (from the issue): replaying a frame's register
diff onto its ``golden_regs`` reconstructs the faulty architectural
state exactly (the ``digest`` field proves it); the payload's
``outcome`` agrees byte-for-byte with the campaign worker for the
same ``(seed, index)``; the sidecar codec memoizes so a drill-down is
simulated at most once; and an attached ``arch_probe`` pins the
scalar slow path, so the traced trajectory is byte-identical under
every ``REPRO_FASTPATH`` / ``REPRO_BATCH`` setting.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.obs.trace_diff import (TRACE_DIFF_SCHEMA_VERSION,
                                  capture_diff, default_stem,
                                  frame_diverges, load_diff,
                                  load_or_capture, render_diff,
                                  save_diff, state_digest,
                                  trace_sidecar_path)

CONFIG = "cortex-a72"

#: one pinned campaign run per injector family (seed, index chosen so
#: each exercises a distinct shape: gefin diverges through pipeline
#: structures while staying masked, pvf WD is a register-flip SDC
#: with visible register diffs, svf flips a live dest register but
#: masks out)
PINNED = {
    "gefin": ("sha", {"structure": "RF"}, 7),
    "pvf": ("crc32", {"model": "WD"}, 8),
    "svf": ("crc32", {}, 880099),
}


@pytest.fixture(scope="module")
def payloads():
    return {injector: capture_diff(injector, workload, CONFIG, seed,
                                   index=0, **kwargs)
            for injector, (workload, kwargs, seed) in PINNED.items()}


# ---------------------------------------------------------------------------
# the round-trip contract: golden + diff == faulty, digest-proven
# ---------------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("injector", sorted(PINNED))
    def test_frames_reconstruct_faulty_state(self, payloads, injector):
        payload = payloads[injector]
        assert payload["frames"], "window recorded no frames"
        assert payload["anchors"]["injected"] is not None
        checked = 0
        for frame in payload["frames"]:
            if frame["golden_regs"] is None:
                continue
            regs = list(frame["golden_regs"])
            for index_str, (old, new) in frame["regs"].items():
                # the diff's "old" side must be the golden value it
                # claims to replace, or the replay lies
                assert regs[int(index_str)] == old
                regs[int(index_str)] = new
            assert state_digest(frame["pc"], regs) == frame["digest"]
            checked += 1
        assert checked == len(payload["frames"])

    @pytest.mark.parametrize("injector", sorted(PINNED))
    def test_outcome_agrees_byte_for_byte(self, payloads, injector):
        from repro.injectors.campaign import (_one_gefin, _one_pvf,
                                              _one_svf)

        workload, kwargs, seed = PINNED[injector]
        if injector == "gefin":
            worker = _one_gefin((workload, CONFIG,
                                 kwargs["structure"], seed, 0,
                                 False, True, True))
        elif injector == "pvf":
            worker = _one_pvf((workload, CONFIG, kwargs["model"],
                               seed, 0, False, True))
        else:
            worker = _one_svf((workload, CONFIG, seed, 0, False,
                               True))
        assert (json.dumps(payloads[injector]["outcome"],
                           sort_keys=True)
                == json.dumps(asdict(worker), sort_keys=True))

    def test_functional_anchors_coincide(self, payloads):
        # architectural (pvf/svf) faults cross the moment they land
        for injector in ("pvf", "svf"):
            anchors = payloads[injector]["anchors"]
            assert anchors["injected"] == anchors["crossed"]

    def test_divergence_is_visible_per_family(self, payloads):
        # pvf seed 8 is an SDC whose flip survives to the output:
        # register diffs must appear downstream of the anchor
        pvf = payloads["pvf"]
        assert pvf["outcome"]["outcome"] == "sdc"
        assert any(frame["regs"] for frame in pvf["frames"])
        # svf seed 880099 flips a live dest register (visible in the
        # anchor frame's diff) that the program later masks
        svf = payloads["svf"]
        anchor = svf["anchors"]["injected"]
        (anchor_frame,) = [frame for frame in svf["frames"]
                           if frame["step"] == anchor]
        assert anchor_frame["regs"], "flip invisible at its own step"
        assert "injected" in anchor_frame["marks"]
        # gefin seed 7 stays architecturally masked; divergence shows
        # up in the pipeline-structure deltas instead
        gefin = payloads["gefin"]
        assert all(frame["structs"] is not None
                   for frame in gefin["frames"])
        assert any(frame_diverges(frame) for frame in gefin["frames"])
        assert not any(frame["regs"] for frame in gefin["frames"])

    def test_frames_are_ordered_and_annotated(self, payloads):
        for payload in payloads.values():
            steps = [frame["step"] for frame in payload["frames"]]
            assert steps == sorted(steps)
            assert len(set(steps)) == len(steps)
            for frame in payload["frames"]:
                assert 0 <= frame["phase"] < payload["n_phases"]
                assert isinstance(frame["in_kernel"], bool)


# ---------------------------------------------------------------------------
# the window: `before` golden steps ahead of the injection, `after` from it
# ---------------------------------------------------------------------------
#: one run per injector whose flip lands, that never crosses after its
#: injection window, and whose window fits in the run
WINDOWED = {
    "gefin": ("sha", {"structure": "L1D"}, 8),
    "pvf": ("sha", {"model": "WD"}, 7),
    "svf": ("sha", {}, 7),
}


@pytest.mark.parametrize("injector", sorted(WINDOWED))
def test_window_holds_before_golden_steps_then_after(injector):
    workload, kwargs, seed = WINDOWED[injector]
    payload = capture_diff(injector, workload, CONFIG, seed, index=0,
                           **kwargs)
    window = payload["window"]
    injected = payload["anchors"]["injected"]
    assert injected is not None
    prior = [f for f in payload["frames"] if f["step"] < injected]
    assert [f["step"] for f in prior] \
        == list(range(injected - window["before"], injected))
    assert sum(f["step"] >= injected for f in payload["frames"]) \
        == window["after"] + 1
    for frame in prior:
        # until the fault lands the faulty run is the golden run
        assert frame["regs"] == {}
        assert frame["pc"] == frame["golden_pc"]


def test_a_run_that_ends_in_its_injection_step_keeps_its_anchors():
    """This LSQ flip crosses as it lands and the next instruction
    crashes, so no step completes after the injection: both anchors
    are the step that crashed, behind the golden window."""
    payload = capture_diff("gefin", "crc32", CONFIG, 11, index=0,
                           structure="LSQ")
    outcome = payload["outcome"]
    assert outcome["fault_applied"] and outcome["crossed"]
    assert outcome["outcome"] == "crash"
    anchors = payload["anchors"]
    injected = anchors["injected"]
    assert injected is not None and anchors["crossed"] == injected
    assert [f["step"] for f in payload["frames"]] \
        == list(range(injected - payload["window"]["before"], injected))


# ---------------------------------------------------------------------------
# the sidecar store: versioned codec, memoization
# ---------------------------------------------------------------------------
class TestSidecarCodec:
    def test_save_load_round_trip(self, payloads, tmp_path):
        path = tmp_path / "trace-x-1-0.json"
        payload = payloads["svf"]
        save_diff(payload, path)
        loaded = load_diff(path)
        assert (json.dumps(loaded, sort_keys=True)
                == json.dumps(payload, sort_keys=True))

    @pytest.mark.parametrize("poison", [
        lambda d: d.update(schema=TRACE_DIFF_SCHEMA_VERSION + 1),
        lambda d: d.update(kind="campaign"),
        lambda d: d.update(frames="not-a-list"),
    ])
    def test_load_rejects_foreign_shapes(self, payloads, tmp_path,
                                         poison):
        data = json.loads(json.dumps(payloads["svf"]))
        poison(data)
        path = tmp_path / "trace-x-1-0.json"
        path.write_text(json.dumps(data))
        assert load_diff(path) is None

    def test_load_tolerates_absent_and_torn(self, tmp_path):
        assert load_diff(tmp_path / "nope.json") is None
        torn = tmp_path / "torn.json"
        torn.write_text('{"kind": "trace-di')
        assert load_diff(torn) is None

    def test_load_or_capture_simulates_at_most_once(self, tmp_path,
                                                    monkeypatch):
        workload, _, seed = PINNED["svf"]
        first, cached = load_or_capture("svf", workload, CONFIG, seed,
                                        index=0, cache_path=tmp_path)
        assert cached is False
        assert trace_sidecar_path(
            default_stem("svf", workload, CONFIG), seed, 0,
            tmp_path).exists()
        # the warm path must not touch a simulator at all
        import repro.obs.trace_diff as trace_diff_mod

        def boom(*args, **kwargs):
            raise AssertionError("warm sidecar re-simulated")

        monkeypatch.setattr(trace_diff_mod, "capture_diff", boom)
        second, cached = load_or_capture("svf", workload, CONFIG,
                                         seed, index=0,
                                         cache_path=tmp_path)
        assert cached is True
        assert (json.dumps(second, sort_keys=True)
                == json.dumps(first, sort_keys=True))

    def test_corrupt_sidecar_recaptures(self, payloads, tmp_path):
        workload, _, seed = PINNED["svf"]
        path = trace_sidecar_path(
            default_stem("svf", workload, CONFIG), seed, 0, tmp_path)
        path.write_text("{garbage")
        payload, cached = load_or_capture("svf", workload, CONFIG,
                                          seed, index=0,
                                          cache_path=tmp_path)
        assert cached is False
        assert (json.dumps(payload, sort_keys=True)
                == json.dumps(payloads["svf"], sort_keys=True))

    def test_stem_and_path_naming(self):
        assert default_stem("gefin", "sha", CONFIG, structure="RF",
                            hardened=True) == "gefin-sha-cortex-a72-RF-ft"
        assert default_stem("svf", "crc32", CONFIG) \
            == "svf-crc32-cortex-a72"
        path = trace_sidecar_path("campaign-x", 7, 3, "/tmp")
        assert path.name == "trace-campaign-x-7-3.json"


# ---------------------------------------------------------------------------
# rendering (CLI --diff output + the timeline column fix)
# ---------------------------------------------------------------------------
class TestRenderDiff:
    def test_plain_text_structure(self, payloads):
        text = render_diff(payloads["svf"], color="off")
        assert text.startswith("trace diff: svf:crc32@cortex-a72")
        assert "anchors" in text and "outcome" in text
        assert payloads["svf"]["outcome"]["outcome"] in text
        assert "\x1b[" not in text

    def test_color_highlights_changes(self, payloads):
        text = render_diff(payloads["pvf"], color="256")
        assert "\x1b[38;5;196m" in text
        assert render_diff(payloads["pvf"], color="off").count("\n") \
            == text.count("\n")

    def test_masked_frames_say_so(self, payloads):
        text = render_diff(payloads["gefin"], color="off")
        assert "structs" in text        # the divergence that is there
        reg_names = payloads["gefin"]["reg_names"]
        assert reg_names and isinstance(reg_names[0], str)


class TestTimelineColumn:
    def test_integral_cycles_render_without_decimal(self):
        from repro.obs.tracing import TraceEvent

        line = TraceEvent(123456789012.0, "injected", "x").render()
        assert "@123456789012 " in line
        assert "123456789012.0" not in line and ".1" not in line

    def test_fractional_cycles_keep_one_decimal(self):
        from repro.obs.tracing import TraceEvent

        assert "@12.5 " in TraceEvent(12.5, "landed", "y").render()

    def test_timeline_columns_align_dynamically(self):
        from repro.obs.tracing import FaultTrace, TraceEvent

        trace = FaultTrace(workload="sha", config_name=CONFIG,
                           injector="gefin", structure="RF",
                           model=None, seed=1, index=0,
                           outcome="masked",
                           events=[TraceEvent(5.0, "injected", "a"),
                                   TraceEvent(123456.0, "outcome",
                                              "b")])
        lines = trace.render().splitlines()
        timeline = [line for line in lines if line.startswith("  @")]
        assert timeline == ["  @     5  injected   a",
                            "  @123456  outcome    b"]


# ---------------------------------------------------------------------------
# the scalar-slow-path pin: probes see the from-reset trajectory
# ---------------------------------------------------------------------------
class TestScalarPathPinned:
    def _trace(self):
        from repro.obs.tracing import trace_run

        workload, _, seed = PINNED["svf"]
        trace, result = trace_run("svf", workload, CONFIG, seed,
                                  index=0)
        return (json.dumps(trace.to_json(), sort_keys=True),
                json.dumps(asdict(result), sort_keys=True))

    def test_trace_run_identical_across_fastpath(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        slow = self._trace()
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        fast = self._trace()
        assert slow == fast

    def test_trace_agrees_with_batched_campaign(self, tmp_path,
                                                monkeypatch):
        # REPRO_BATCH runs campaigns through the bit-parallel lanes;
        # the traced replay forces the scalar slow path yet must
        # classify every run identically, byte for byte
        from repro.injectors.campaign import run_campaign
        from repro.obs.tracing import trace_run

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_BATCH", "1")
        campaign = run_campaign("crc32", CONFIG, injector="svf", n=4,
                                seed=880123, use_cache=False,
                                workers=1, batch_lanes=8)
        monkeypatch.delenv("REPRO_BATCH")
        for index, result in enumerate(campaign.results):
            _, replay = trace_run("svf", "crc32", CONFIG, 880123,
                                  index=index)
            assert (json.dumps(asdict(replay), sort_keys=True)
                    == json.dumps(asdict(result), sort_keys=True))


# ---------------------------------------------------------------------------
# probes never perturb the run they observe
# ---------------------------------------------------------------------------
class TestProbeIsPassive:
    def test_capture_leaves_outcome_unchanged(self, payloads):
        # the recorder rides along as arch_probe; the traced result it
        # returns must equal the probe-free replay's
        from repro.obs.tracing import trace_run

        workload, kwargs, seed = PINNED["pvf"]
        _, bare = trace_run("pvf", workload, CONFIG, seed, index=0,
                            model=kwargs["model"])
        assert (json.dumps(payloads["pvf"]["outcome"], sort_keys=True)
                == json.dumps(asdict(bare), sort_keys=True))
        # the timeline runs forward: the outcome is stamped at the
        # run's final instruction count, after the injection
        stamps = [e["cycle"] for e in payloads["pvf"]["trace"]["events"]]
        assert stamps == sorted(stamps) and stamps[-1] > stamps[0]
