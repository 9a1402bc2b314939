"""Campaign store: cache keys, invalidation, parallel execution path."""

from __future__ import annotations

import json
from dataclasses import asdict

from repro.injectors.campaign import (CampaignResult, _campaign_path,
                                      _encode_many, _encode_one,
                                      run_campaign)
from repro.injectors.gefin import InjectionResult
from repro.injectors.golden import cache_dir, workload_digest


class TestCacheKeys:
    def test_digest_differs_per_workload_and_hardening(self):
        a = workload_digest("sha", "mrisc64", False)
        b = workload_digest("qsort", "mrisc64", False)
        c = workload_digest("sha", "mrisc64", True)
        assert len({a, b, c}) == 3

    def test_digest_stable(self):
        assert workload_digest("sha", "mrisc64", False) == \
            workload_digest("sha", "mrisc64", False)

    def test_campaign_paths_distinct(self):
        p1 = _campaign_path(("svf", "sha", "cortex-a72", 10, 1, False,
                             "abc"))
        p2 = _campaign_path(("svf", "sha", "cortex-a72", 10, 2, False,
                             "abc"))
        assert p1 != p2
        assert str(p1).startswith(str(cache_dir()))

    def test_corrupt_cache_entry_recomputed(self):
        campaign = run_campaign("crc32", "cortex-a72", injector="svf",
                                n=8, seed=77)
        # find & corrupt the stored file
        matches = [p for p in cache_dir().glob("campaign-svf-crc32-*")
                   if json.loads(p.read_text())["seed"] == 77]
        assert matches
        matches[0].write_text("{ not json")
        again = run_campaign("crc32", "cortex-a72", injector="svf",
                             n=8, seed=77)
        assert again.vulnerability() == campaign.vulnerability()

    def test_no_cache_flag_bypasses_store(self):
        first = run_campaign("crc32", "cortex-a72", injector="svf",
                             n=5, seed=88, use_cache=False)
        second = run_campaign("crc32", "cortex-a72", injector="svf",
                              n=5, seed=88, use_cache=False)
        assert [r.outcome for r in first.results] == \
            [r.outcome for r in second.results]


class TestParallelPath:
    def test_worker_pool_matches_serial(self):
        serial = run_campaign("crc32", "cortex-a72", injector="svf",
                              n=12, seed=99, use_cache=False,
                              workers=1)
        parallel = run_campaign("crc32", "cortex-a72", injector="svf",
                                n=12, seed=99, use_cache=False,
                                workers=2)
        assert [r.outcome for r in serial.results] == \
            [r.outcome for r in parallel.results]

    def test_default_workers_env(self, monkeypatch):
        from repro.injectors.campaign import default_workers

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers(1000) == 3
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers(4) == 1


class TestEncoding:
    def test_results_encode_as_asdict_does(self):
        """The one result encoder gives ``asdict``'s fields in its
        order, and ``to_json`` the bytes of ``asdict`` over the whole
        campaign, with the plan a copy."""
        from repro.injectors.golden import CACHE_SCHEMA_VERSION

        results = [InjectionResult("sdc", fpm="WOI", fault_applied=True,
                                   cycles=12.5, crossing_cycle=3.0,
                                   site_bit=7),
                   InjectionResult("crash", crash_kind="access-fault")]
        for result in results:
            assert list(_encode_one(result).items()) == \
                list(asdict(result).items())
        assert _encode_many(results) == [asdict(r) for r in results]
        plan = {"classes": [{"phase": 0, "trials": 2}], "wilson": [0, 1]}
        campaign = CampaignResult("pvf", "sha", "cortex-a72", 2, 1,
                                  model="WOI", results=results, plan=plan)
        want = asdict(campaign)
        want["schema"] = CACHE_SCHEMA_VERSION
        data = campaign.to_json()
        assert json.dumps(data) == json.dumps(want)
        assert data["plan"] == plan and data["plan"] is not plan
        assert data["plan"]["classes"][0] is not plan["classes"][0]
        assert CampaignResult.from_json(data) == campaign
