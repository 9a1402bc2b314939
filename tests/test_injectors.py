"""Injector campaigns: determinism, caching, layer semantics."""

from __future__ import annotations

import pytest

from repro.injectors.campaign import CampaignResult, run_campaign
from repro.injectors.golden import golden_run
from repro.isa.registers import MR32, MR64
from repro.uarch.config import CORTEX_A9, CORTEX_A72


class TestGoldenRuns:
    def test_golden_matches_reference(self):
        from repro.workloads.suite import workload_spec

        golden = golden_run("crc32", "cortex-a72")
        assert golden.output == workload_spec("crc32").reference_output()
        assert golden.exit_code == 0
        assert golden.cycles > 0
        assert golden.instructions > 1000

    def test_golden_profile_contents(self):
        golden = golden_run("crc32", "cortex-a72")
        assert 0 < golden.kernel_instructions < golden.instructions
        assert golden.dest_instructions > 0
        assert len(golden.regs_used) >= 5
        assert 0 not in golden.regs_used
        assert len(golden.footprint) > 10
        assert set(golden.occupancy) == {"RF", "LSQ", "L1I", "L1D", "L2"}

    def test_golden_cached_on_disk(self):
        first = golden_run("crc32", "cortex-a72")
        golden_run.cache_clear()
        second = golden_run("crc32", "cortex-a72")
        assert first.output == second.output
        assert first.cycles == second.cycles

    def test_watchdog_limits_scale_with_golden(self):
        golden = golden_run("crc32", "cortex-a72")
        assert golden.max_instructions >= 4 * golden.instructions
        assert golden.max_cycles >= 4 * golden.cycles


class TestCampaignMachinery:
    def test_deterministic_in_seed(self):
        a = run_campaign("crc32", CORTEX_A72, injector="svf", n=15,
                         seed=11, use_cache=False)
        b = run_campaign("crc32", CORTEX_A72, injector="svf", n=15,
                         seed=11, use_cache=False)
        assert [r.outcome for r in a.results] == \
            [r.outcome for r in b.results]

    def test_different_seeds_differ_somewhere(self):
        a = run_campaign("sha", CORTEX_A72, injector="svf", n=25,
                         seed=1, use_cache=False)
        b = run_campaign("sha", CORTEX_A72, injector="svf", n=25,
                         seed=2, use_cache=False)
        assert [r.outcome for r in a.results] != \
            [r.outcome for r in b.results]

    def test_json_roundtrip(self):
        campaign = run_campaign("crc32", CORTEX_A72, injector="svf",
                                n=10, seed=1, use_cache=False)
        clone = CampaignResult.from_json(campaign.to_json())
        assert clone.vulnerability() == campaign.vulnerability()
        assert clone.results == campaign.results

    def test_unknown_injector_rejected(self):
        with pytest.raises(ValueError):
            run_campaign("sha", CORTEX_A72, injector="beam", n=1)

    def test_gefin_requires_structure(self):
        with pytest.raises(ValueError):
            run_campaign("sha", CORTEX_A72, injector="gefin", n=1)

    def test_rates_sum_to_weight(self):
        campaign = run_campaign("sha", CORTEX_A72, injector="gefin",
                                structure="RF", n=12, seed=7)
        total = (campaign.masked() + campaign.sdc() + campaign.crash()
                 + campaign.detected())
        assert total == pytest.approx(campaign.occupancy_weight)

    def test_occupancy_weight_bounds(self):
        campaign = run_campaign("sha", CORTEX_A72, injector="gefin",
                                structure="L2", n=6, seed=7)
        assert 0.0 < campaign.occupancy_weight < 0.05
        uniform = run_campaign("sha", CORTEX_A72, injector="gefin",
                               structure="L2", n=6, seed=7,
                               prefer_live=False)
        assert uniform.occupancy_weight == 1.0


class TestLayerSemantics:
    @pytest.mark.parametrize("planner", [None, "two-level"])
    def test_svf_campaign_rejects_32bit_before_simulating(
            self, planner, monkeypatch):
        import repro.injectors.campaign as campaign_mod
        import repro.injectors.golden as golden_mod

        def boom(*args, **kwargs):
            raise AssertionError("golden run before the ISA check")

        monkeypatch.setattr(golden_mod, "golden_run", boom)
        monkeypatch.setattr(campaign_mod, "golden_run", boom)
        with pytest.raises(ValueError, match="64-bit"):
            run_campaign("sha", "cortex-a9", injector="svf", n=2,
                         workers=1, use_cache=False, planner=planner)

    @pytest.mark.parametrize("entry", ["trace_run", "cli", "cli-diff"])
    def test_svf_trace_rejects_32bit(self, entry):
        from repro.cli import main
        from repro.obs.tracing import trace_run

        argv = ["trace-fault", "crc32", "--injector", "svf",
                "--config", "cortex-a9", "--window", "0"]
        with pytest.raises(ValueError, match="64-bit"):
            if entry == "trace_run":
                trace_run("svf", "sha", "cortex-a9", 1)
            else:
                main(argv + (["--diff"] if entry == "cli-diff" else []))

    def test_svf_sdc_dominated(self):
        """Software-level injection mostly produces SDCs (paper Fig 4)."""
        campaign = run_campaign("sha", CORTEX_A72, injector="svf",
                                n=60, seed=1)
        assert campaign.sdc() > campaign.crash()
        assert campaign.vulnerability() > 0.2

    def test_pvf_models_differ(self):
        wd = run_campaign("sha", CORTEX_A72, injector="pvf", model="WD",
                          n=40, seed=1)
        wi = run_campaign("sha", CORTEX_A72, injector="pvf", model="WI",
                          n=40, seed=1)
        # WI (wrong instruction / PC corruption) produces relatively
        # more crashes than WD (paper Fig. 7)
        wd_crash_share = wd.crash() / max(wd.vulnerability(), 1e-9)
        wi_crash_share = wi.crash() / max(wi.vulnerability(), 1e-9)
        assert wi_crash_share > wd_crash_share

    def test_pvf_unknown_model_rejected(self):
        from repro.injectors.archinj import build_pvf_action

        import random
        golden = golden_run("crc32", "cortex-a72")
        with pytest.raises(ValueError):
            build_pvf_action("XX", random.Random(0), golden, 64)

    def test_avf_much_smaller_than_svf(self):
        """Absolute scales: full-system AVF values are far below the
        software-layer ones (paper Fig. 1 axis note)."""
        avf = run_campaign("sha", CORTEX_A72, injector="gefin",
                           structure="L2", n=20, seed=1)
        svf = run_campaign("sha", CORTEX_A72, injector="svf", n=60,
                           seed=1)
        assert avf.vulnerability() < svf.vulnerability() / 5

    def test_pvf_on_both_isas(self):
        for config, isa in ((CORTEX_A72, MR64), (CORTEX_A9, MR32)):
            campaign = run_campaign("qsort", config, injector="pvf",
                                    n=25, seed=3)
            assert campaign.config_name == config.name
            assert len(campaign.results) == 25

    def test_hvf_at_least_avf(self):
        campaign = run_campaign("sha", CORTEX_A72, injector="gefin",
                                structure="RF", n=30, seed=1)
        assert campaign.hvf() >= campaign.vulnerability() - 1e-9

    def test_fpm_distribution_normalised(self):
        campaign = run_campaign("sha", CORTEX_A72, injector="gefin",
                                structure="RF", n=30, seed=1)
        dist = campaign.fpm_distribution()
        total = sum(dist.values())
        assert total == pytest.approx(1.0) or total == 0.0


class TestFunctionalEscapeContext:
    """A pvf/svf containment escape carries the coordinates that replay
    it, on the scalar path (fast path on and off) and through a lane
    group."""

    @staticmethod
    def _explode(monkeypatch, name):
        import repro.injectors.campaign as campaign_mod

        build = getattr(campaign_mod, name)
        drawn = []

        def exploding(*args, **kwargs):
            action = build(*args, **kwargs)

            def apply(engine):
                raise RuntimeError("synthetic model bug")

            action.apply = apply
            drawn.append(action)
            return action

        monkeypatch.setattr(campaign_mod, name, exploding)
        return drawn

    @pytest.mark.parametrize("fastpath", [False, True])
    @pytest.mark.parametrize("injector", ["pvf", "svf"])
    def test_scalar_escape_carries_run_coordinates(self, monkeypatch,
                                                   injector, fastpath):
        import repro.injectors.campaign as campaign_mod
        from repro.uarch.exceptions import ContainmentError

        if injector == "pvf":
            drawn = self._explode(monkeypatch, "build_pvf_action")
            worker = campaign_mod._one_pvf
            task = ("crc32", "cortex-a72", "WD", 5, 3, False, fastpath)
        else:
            drawn = self._explode(monkeypatch, "_dest_flip_action")
            worker = campaign_mod._one_svf
            task = ("crc32", "cortex-a72", 5, 3, False, fastpath)
        with pytest.raises(ContainmentError) as info:
            worker(task)
        (action,) = drawn
        expected = {"injector": injector, "workload": "crc32",
                    "isa": CORTEX_A72.isa, "origin": action.origin,
                    "inject_cycle": float(action.when),
                    "hardened": False, "fastpath": fastpath,
                    "seed": 5, "index": 3}
        if injector == "pvf":
            expected["model"] = "WD"
        context = info.value.context
        assert {key: context.get(key) for key in expected} == expected
        assert "batched" not in context

    def test_batched_escape_carries_lane_group(self, monkeypatch):
        import repro.injectors.batch as batch_mod
        from repro.uarch.exceptions import ContainmentError

        self._explode(monkeypatch, "build_pvf_action")
        with pytest.raises(ContainmentError) as info:
            batch_mod._one_pvf_batch(("crc32", "cortex-a72", "WD", 5,
                                      (3, 4), False, True))
        context = info.value.context
        assert context["batched"] is True
        assert context["indices"] == [3, 4]
        assert (context["injector"], context["seed"],
                context["model"]) == ("pvf", 5, "WD")


class TestWorkerLookup:
    """Campaigns look their per-task workers up on the worker modules
    at call time, so a wrapper swapped in there sees every task."""

    @staticmethod
    def _count(monkeypatch, module, name):
        original = getattr(module, name)
        calls = []

        def shim(args):
            calls.append(args)
            return original(args)

        monkeypatch.setattr(module, name, shim)
        return calls

    def test_workers_are_looked_up_at_call_time(self, monkeypatch):
        import repro.injectors.batch as batch_mod
        import repro.injectors.campaign as campaign_mod

        scalar = self._count(monkeypatch, campaign_mod, "_one_svf")
        batched = self._count(monkeypatch, batch_mod, "_one_svf_batch")
        common = dict(injector="svf", n=6, seed=3, workers=1,
                      use_cache=False)
        run_campaign("crc32", CORTEX_A72, batch_lanes=0, **common)
        assert (len(scalar), len(batched)) == (6, 0)
        run_campaign("crc32", CORTEX_A72, batch_lanes=64, **common)
        assert (len(scalar), len(batched)) == (6, 1)
        run_campaign("crc32", CORTEX_A72, planner="two-level", **common)
        assert len(scalar) == 12
