"""Attribution profiler + cross-layer divergence dashboard.

The acceptance bar: profiling off (the default) leaves campaign
results byte-identical; the profiler is read-only and its profiles
round-trip losslessly; attribution bins every recorded run exactly
once; divergence analytics flag opposite-direction pairs; and the
dashboard renders both ANSI and self-contained HTML from sidecars
alone — demonstrably without re-running any simulation.
"""

from __future__ import annotations

import json

import pytest

from repro.core.divergence import (analyze_divergence, build_rows,
                                   gefin_structure_rows)
from repro.injectors.campaign import CampaignResult
from repro.injectors.gefin import InjectionResult
from repro.obs.dashboard import (Heatmap, build_dashboard,
                                 render_dashboard, render_heatmap,
                                 render_html)
from repro.obs.profiles import (ResidencyProfile, attribute_campaign,
                                bit_region_of, phase_of,
                                profile_enabled, profile_golden_run,
                                region_label)
from repro.obs.sidecars import CacheListing

STRUCTURES = ("RF", "LSQ", "L1I", "L1D", "L2")


# ---------------------------------------------------------------------------
# synthetic campaign material (no simulation involved)
# ---------------------------------------------------------------------------
def _result(outcome="masked", fpm=None, inject_cycle=0.0,
            site_bit=0, crossed=False):
    return InjectionResult(
        outcome=outcome, fpm=fpm, fault_applied=True,
        fault_live=True, crossed=crossed or fpm is not None,
        cycles=1000.0, inject_cycle=inject_cycle,
        site_bit=site_bit)


def _campaign(injector="gefin", workload="sha", structure="RF",
              model=None, results=(), t_max=1000.0, weight=1.0,
              config_name="cortex-a72", hardened=False):
    return CampaignResult(
        injector=injector, workload=workload,
        config_name=config_name, n=len(results), seed=1,
        structure=structure if injector == "gefin" else None,
        model=model, hardened=hardened, occupancy_weight=weight,
        t_max=t_max, results=list(results))


def _full_bag(vulns):
    """One campaign bag per workload: 5 gefin + 3 pvf + 1 svf.

    *vulns* maps workload -> (avf_like, pvf_like, svf_like) rough
    vulnerability levels in [0, 1] steering the outcome mix.
    """
    bag = []
    for workload, (avf, pvf, svf) in vulns.items():
        for structure in STRUCTURES:
            results = [
                _result(outcome=("sdc" if i < round(10 * avf)
                                 else "masked"),
                        fpm=("WD" if i < round(10 * avf) else None),
                        inject_cycle=i * 100.0, site_bit=i * 6)
                for i in range(10)]
            bag.append(_campaign(workload=workload,
                                 structure=structure,
                                 results=results))
        for model in ("WD", "WOI", "WI"):
            results = [
                _result(outcome=("crash" if i < round(10 * pvf)
                                 else "masked"),
                        inject_cycle=float(i), site_bit=i % 32,
                        crossed=True)
                for i in range(10)]
            bag.append(_campaign(injector="pvf", workload=workload,
                                 structure=None, model=model,
                                 results=results, t_max=10.0))
        results = [
            _result(outcome=("sdc" if i < round(10 * svf)
                             else "masked"),
                    inject_cycle=float(i), site_bit=i % 64,
                    crossed=True)
            for i in range(10)]
        bag.append(_campaign(injector="svf", workload=workload,
                             structure=None, results=results,
                             t_max=10.0))
    return bag


# ---------------------------------------------------------------------------
# binning helpers
# ---------------------------------------------------------------------------
class TestBinning:
    def test_phase_of_bins_uniformly(self):
        assert phase_of(0.0, 100.0, 4) == 0
        assert phase_of(24.9, 100.0, 4) == 0
        assert phase_of(25.1, 100.0, 4) == 1
        assert phase_of(99.9, 100.0, 4) == 3
        # at-or-past the end clamps into the last window
        assert phase_of(100.0, 100.0, 4) == 3
        assert phase_of(250.0, 100.0, 4) == 3
        assert phase_of(5.0, 0.0, 4) == 0      # degenerate runtime

    def test_bit_region_of_folds_and_clamps(self):
        assert bit_region_of(0, 64, 4) == 0
        assert bit_region_of(15, 64, 4) == 0
        assert bit_region_of(16, 64, 4) == 1
        assert bit_region_of(63, 64, 4) == 3
        assert bit_region_of(64, 64, 4) == 0   # folds onto the width
        assert bit_region_of(7, 0, 4) == 0     # degenerate width

    def test_region_labels_cover_the_width(self):
        labels = [region_label(r, 64, 4) for r in range(4)]
        assert labels == ["b0-15", "b16-31", "b32-47", "b48-63"]


# ---------------------------------------------------------------------------
# the residency profiler
# ---------------------------------------------------------------------------
class TestProfiler:
    def test_enabled_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert profile_enabled() is False
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert profile_enabled() is True
        assert profile_enabled(explicit=False) is False

    def test_profile_golden_run_samples_everything(self):
        profile = profile_golden_run("sha", "cortex-a72")
        assert profile.samples > 0
        assert set(profile.occupancy) == {"ROB", "IQ", "RF", "LSQ",
                                          "L1I", "L1D", "L2"}
        for structure, series in profile.occupancy.items():
            assert len(series) == profile.n_phases
            assert all(0.0 <= v <= 1.0 for v in series), structure
        # every region structure carries per-region live fractions
        assert set(profile.liveness) == {"RF", "LSQ", "L1I", "L1D",
                                         "L2"}
        for structure, regions in profile.liveness.items():
            assert len(regions) == profile.n_regions
            for series in regions.values():
                assert all(0.0 <= v <= 1.0 for v in series)
        # something must actually be live in a real execution
        assert any(v > 0 for v in profile.occupancy["RF"])
        assert any(v > 0
                   for series in profile.liveness["RF"].values()
                   for v in series)

    def test_profile_round_trips_through_json(self):
        profile = profile_golden_run("sha", "cortex-a72")
        clone = ResidencyProfile.from_json(
            json.loads(json.dumps(profile.to_json())))
        assert clone == profile

    def test_profiler_off_is_byte_identical(self, monkeypatch):
        from repro.injectors.campaign import run_campaign

        def run():
            return json.dumps(run_campaign(
                "sha", "cortex-a72", structure="RF", n=4, seed=11,
                use_cache=False, workers=1).to_json(),
                sort_keys=True)

        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        baseline = run()
        monkeypatch.setenv("REPRO_PROFILE", "1")
        profiled = run()
        assert profiled == baseline

    def test_profile_sidecar_written_when_enabled(self, monkeypatch):
        from repro.injectors.campaign import run_campaign
        from repro.injectors.golden import cache_dir

        monkeypatch.setenv("REPRO_PROFILE", "1")
        run_campaign("sha", "cortex-a72", structure="RF", n=4,
                     seed=11, workers=1)
        sidecars = list(cache_dir().glob("profile-campaign-*.json"))
        assert sidecars
        profile = ResidencyProfile.from_json(
            json.loads(sidecars[0].read_text()))
        assert profile.workload in ("sha", "crc32", "qsort", "fft",
                                    "cjpeg", "djpeg", "rijndael",
                                    "corner", "smooth",
                                    "stringsearch", "crc32")


# ---------------------------------------------------------------------------
# per-outcome attribution
# ---------------------------------------------------------------------------
class TestAttribution:
    def test_every_run_lands_in_exactly_one_cell(self):
        results = [_result(inject_cycle=i * 37.0, site_bit=i * 3,
                           outcome="sdc" if i % 3 == 0 else "masked",
                           fpm="WD" if i % 3 == 0 else None)
                   for i in range(20)]
        campaign = _campaign(results=results)
        attribution = attribute_campaign(campaign)
        total = sum(cell["runs"] for row in attribution.cells
                    for cell in row)
        assert total == 20
        by_phase = attribution.by_phase()
        assert sum(c["runs"] for c in by_phase) == 20
        by_region = attribution.by_region()
        assert sum(c["runs"] for c in by_region) == 20
        outcomes = {}
        for cell in by_phase:
            for k, v in cell["outcomes"].items():
                outcomes[k] = outcomes.get(k, 0) + v
        assert outcomes == {"sdc": 7, "masked": 13}

    def test_vulnerability_respects_occupancy_weight(self):
        results = [_result(outcome="sdc", fpm="WD"),
                   _result(outcome="masked")]
        campaign = _campaign(results=results, weight=0.5)
        attribution = attribute_campaign(campaign, n_phases=1,
                                         n_regions=1)
        (cell,) = attribution.by_phase()
        assert cell["vulnerability"] == pytest.approx(0.25)
        assert attribution.phase_vulnerability() == [
            pytest.approx(0.25)]

    def test_site_width_tracks_structure_geometry(self):
        rf = attribute_campaign(_campaign(structure="RF"))
        lsq = attribute_campaign(_campaign(structure="LSQ"))
        l1d = attribute_campaign(_campaign(structure="L1D"))
        assert rf.site_width == 64
        assert lsq.site_width == 96           # addr32 + xlen
        assert l1d.site_width == 512          # 64-byte lines
        svf = attribute_campaign(_campaign(injector="svf",
                                           structure=None))
        assert svf.site_width == 64

    def test_missing_t_max_falls_back_to_observed(self):
        results = [_result(inject_cycle=c)
                   for c in (10.0, 400.0, 800.0)]
        campaign = _campaign(results=results, t_max=None)
        attribution = attribute_campaign(campaign, n_phases=4)
        assert attribution.t_max == pytest.approx(800.0)
        assert sum(c["runs"]
                   for c in attribution.by_phase()) == 3

    def test_site_bit_recorded_by_all_injectors(self):
        from repro.injectors.campaign import (_one_gefin, _one_pvf,
                                              _one_svf)

        gefin = _one_gefin(("sha", "cortex-a72", "RF", 7, 0, False,
                            True, True))
        assert gefin.site_bit is not None
        assert 0 <= gefin.site_bit < 64
        pvf = _one_pvf(("sha", "cortex-a72", "WD", 7, 0, False,
                        True))
        assert pvf.site_bit is not None
        assert 0 <= pvf.site_bit < 64
        svf = _one_svf(("sha", "cortex-a72", 7, 0, False, True))
        assert svf.site_bit is not None
        assert 0 <= svf.site_bit < 64


# ---------------------------------------------------------------------------
# divergence analytics
# ---------------------------------------------------------------------------
class TestDivergence:
    def test_rows_carry_all_four_layers(self):
        bag = _full_bag({"sha": (0.2, 0.5, 0.3),
                         "crc32": (0.4, 0.1, 0.6)})
        rows = build_rows(bag)
        assert len(rows) == 2
        for row in rows:
            assert set(row.layers) == {"AVF", "PVF", "SVF", "rPVF"}
            assert row.structures == sorted(STRUCTURES)
            for measurement in row.layers.values():
                assert 0.0 <= measurement.value <= 1.0

    def test_opposite_direction_pairs_flagged(self):
        # AVF orders sha < crc32 while PVF orders sha > crc32
        bag = _full_bag({"sha": (0.1, 0.8, 0.2),
                         "crc32": (0.6, 0.2, 0.4)})
        report = analyze_divergence(bag)
        assert any("AVF vs PVF" in label
                   for label in report.disagreements)
        flagged = {row.workload for row in report.rows
                   if "AVF vs PVF" in row.flags}
        assert flagged == {"sha", "crc32"}
        assert report.opposite_count() >= 1

    def test_agreeing_layers_not_flagged(self):
        bag = _full_bag({"sha": (0.1, 0.1, 0.1),
                         "crc32": (0.6, 0.6, 0.6)})
        report = analyze_divergence(bag)
        assert not any("AVF vs PVF" in label
                       for label in report.disagreements)

    def test_ranking_puts_worst_pair_first(self):
        bag = _full_bag({"sha": (0.1, 0.9, 0.1),
                         "crc32": (0.6, 0.1, 0.7)})
        report = analyze_divergence(bag)
        assert report.ranking
        scores = [s.score for s in report.ranking]
        assert scores == sorted(scores, reverse=True)
        # the flipped pair must outrank a perfectly tracking one
        labels = [s.label for s in report.ranking]
        assert labels[0] != "AVF vs SVF"

    def test_largest_n_campaign_wins_duplicates(self):
        small = _campaign(results=[_result()] * 2)
        large = _campaign(results=[_result()] * 8)
        rows = gefin_structure_rows([small, large])
        (slot,) = rows.values()
        assert len(slot["RF"].results) == 8

    def test_tolerance_suppresses_noise_flips(self):
        bag = _full_bag({"sha": (0.30, 0.32, 0.3),
                         "crc32": (0.32, 0.30, 0.3)})
        strict = analyze_divergence(bag, tolerance=0.0)
        lax = analyze_divergence(bag, tolerance=0.2)
        assert len(lax.disagreements) <= len(strict.disagreements)
        assert not lax.disagreements


# ---------------------------------------------------------------------------
# the dashboard
# ---------------------------------------------------------------------------
def _sidecar_dir(tmp_path, bag, profile=None):
    for i, campaign in enumerate(bag):
        (tmp_path / f"campaign-{campaign.injector}-"
         f"{campaign.workload}-{i:04d}.json").write_text(
            json.dumps(campaign.to_json()))
    if profile is not None:
        (tmp_path / "profile-campaign-x.json").write_text(
            json.dumps(profile.to_json()))
    return tmp_path


def _synthetic_profile():
    return ResidencyProfile(
        workload="sha", config_name="cortex-a72", hardened=False,
        t_max=1000.0, n_phases=8, n_regions=4, every=64, samples=10,
        occupancy={s: [0.5] * 8 for s in ("ROB", "IQ", "RF", "LSQ",
                                          "L1I", "L1D", "L2")},
        liveness={s: {f"b{r}": [0.2] * 8 for r in range(4)}
                  for s in STRUCTURES},
        widths={"RF": 64, "LSQ": 96, "L1I": 512, "L1D": 512,
                "L2": 512})


class TestDashboard:
    def test_scan_tolerates_garbage(self, tmp_path):
        (tmp_path / "campaign-bogus.json").write_text("{not json")
        (tmp_path / "campaign-foreign.json").write_text(
            '{"stranger": 1}')
        (tmp_path / "profile-bogus.json").write_text("[]")
        bag = _full_bag({"sha": (0.2, 0.5, 0.3)})
        _sidecar_dir(tmp_path, bag)
        listing = CacheListing(tmp_path)
        assert len(listing.campaigns()) == len(bag)
        assert listing.profiles() == {}

    def test_ansi_dashboard_has_all_sections(self, tmp_path):
        bag = _full_bag({"sha": (0.1, 0.8, 0.2),
                         "crc32": (0.6, 0.2, 0.4)})
        _sidecar_dir(tmp_path, bag, profile=_synthetic_profile())
        data = build_dashboard(cache_path=tmp_path)
        text = render_dashboard(data)
        assert "vulnerability by structure x program phase" in text
        assert "bit region" in text
        assert "FPM mix" in text
        assert "cross-layer divergence" in text
        assert "opposite-direction pairs" in text
        assert "miscorrelation ranking" in text
        assert "residency profiles" in text
        assert "\x1b[" not in text      # color off by default

    def test_ansi_color_wraps_cells(self):
        heatmap = Heatmap(title="t", row_labels=["RF"],
                          col_labels=["P0"], values=[[0.5]])
        colored = render_heatmap(heatmap, color=True)
        assert "\x1b[38;5;" in colored and "\x1b[0m" in colored
        assert "\x1b[" not in render_heatmap(heatmap, color=False)

    def test_eight_colour_fallback_uses_sgr_reds(self):
        heatmap = Heatmap(title="t", row_labels=["RF"],
                          col_labels=["P0", "P1", "P2"],
                          values=[[0.2, 0.5, 1.0]])
        text = render_heatmap(heatmap, color="8")
        # the faint/normal/bold red ramp, never a 256-colour escape
        assert "\x1b[2;31m" in text      # low third: faint
        assert "\x1b[31m" in text        # middle third: normal
        assert "\x1b[1;31m" in text      # top third: bold
        assert "\x1b[38;5;" not in text

    def test_html_is_self_contained(self, tmp_path):
        bag = _full_bag({"sha": (0.1, 0.8, 0.2),
                         "crc32": (0.6, 0.2, 0.4)})
        _sidecar_dir(tmp_path, bag, profile=_synthetic_profile())
        page = render_html(build_dashboard(cache_path=tmp_path))
        assert page.startswith("<!DOCTYPE html>")
        assert "<svg" in page and "</svg>" in page
        assert "Cross-layer divergence" in page
        # zero external requests: no scripts, links, imports or
        # fetched URLs (the SVG xmlns is an identifier, not a fetch)
        for needle in ("<script", "<link", "src=", "href=",
                       "@import", "url("):
            assert needle not in page, needle
        assert page.count("http") == page.count(
            "http://www.w3.org/2000/svg")

    def test_events_summary_folds_in(self, tmp_path):
        bag = _full_bag({"sha": (0.2, 0.5, 0.3)})
        _sidecar_dir(tmp_path, bag)
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps(
            {"event": "campaign_summary", "campaign": "c1",
             "injector": "gefin", "workload": "sha", "target": "RF",
             "runs": 10, "elapsed": 2.0, "runs_per_sec": 5.0,
             "outcomes": {"masked": 10}}) + "\n")
        data = build_dashboard(cache_path=tmp_path,
                               events_path=events)
        text = render_dashboard(data)
        assert "campaign throughput/latency" in text
        assert "gefin:sha/RF" in text

    def test_dashboard_needs_no_simulation(self, tmp_path,
                                           monkeypatch):
        # the dashboard must work from sidecars alone: poison every
        # simulation entry point and render everything anyway
        import repro.injectors.golden as golden_mod
        import repro.uarch.functional as functional_mod
        import repro.uarch.pipeline as pipeline_mod

        def boom(*args, **kwargs):
            raise AssertionError("dashboard ran a simulation")

        monkeypatch.setattr(golden_mod, "golden_run", boom)
        monkeypatch.setattr(pipeline_mod, "run_pipeline", boom)
        monkeypatch.setattr(pipeline_mod.PipelineEngine, "run", boom)
        monkeypatch.setattr(functional_mod, "run_functional", boom)
        monkeypatch.setattr(functional_mod.FunctionalEngine, "run",
                            boom)

        bag = _full_bag({"sha": (0.1, 0.8, 0.2),
                         "crc32": (0.6, 0.2, 0.4)})
        _sidecar_dir(tmp_path, bag, profile=_synthetic_profile())
        data = build_dashboard(cache_path=tmp_path)
        assert render_dashboard(data)
        assert render_html(data)

    def test_empty_cache_renders_hint(self, tmp_path):
        data = build_dashboard(cache_path=tmp_path)
        assert "no campaign sidecars" in render_dashboard(data)
        assert "No campaign sidecars" in render_html(data)

    def test_cli_dashboard_end_to_end(self, tmp_path, monkeypatch,
                                      capsys):
        from repro.cli import main

        bag = _full_bag({"sha": (0.1, 0.8, 0.2),
                         "crc32": (0.6, 0.2, 0.4)})
        _sidecar_dir(tmp_path, bag)
        html_path = tmp_path / "dash.html"
        code = main(["dashboard", "--cache", str(tmp_path),
                     "--no-color", "--html", str(html_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cross-layer divergence" in out
        assert html_path.exists()
        assert html_path.read_text().startswith("<!DOCTYPE html>")


# ---------------------------------------------------------------------------
# colour-depth resolution
# ---------------------------------------------------------------------------
class _Tty:
    def isatty(self):
        return True


class _Pipe:
    def isatty(self):
        return False


class TestColorMode:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setenv("TERM", "xterm-256color")

    def test_depth_follows_term(self, monkeypatch):
        from repro.obs.dashboard import resolve_color_mode

        assert resolve_color_mode(stream=_Tty()) == "256"
        monkeypatch.setenv("TERM", "xterm")
        assert resolve_color_mode(stream=_Tty()) == "8"

    def test_no_color_convention_wins(self, monkeypatch):
        from repro.obs.dashboard import resolve_color_mode

        monkeypatch.setenv("NO_COLOR", "1")
        assert resolve_color_mode(stream=_Tty()) == "off"
        # ...unless the user explicitly forced colour on
        assert resolve_color_mode(force=True, stream=_Tty()) == "256"

    def test_dumb_or_absent_term_disables(self, monkeypatch):
        from repro.obs.dashboard import resolve_color_mode

        monkeypatch.setenv("TERM", "dumb")
        assert resolve_color_mode(stream=_Tty()) == "off"
        monkeypatch.delenv("TERM", raising=False)
        assert resolve_color_mode(stream=_Tty()) == "off"

    def test_pipes_get_no_colour(self):
        from repro.obs.dashboard import resolve_color_mode

        assert resolve_color_mode(stream=_Pipe()) == "off"

    def test_explicit_off_outranks_everything(self):
        from repro.obs.dashboard import resolve_color_mode

        assert resolve_color_mode(force=False, stream=_Tty()) == "off"

    def test_force_on_respects_term_depth(self, monkeypatch):
        from repro.obs.dashboard import resolve_color_mode

        monkeypatch.setenv("TERM", "vt100")
        assert resolve_color_mode(force=True, stream=_Pipe()) == "8"
