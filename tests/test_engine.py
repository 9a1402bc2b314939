"""Resilient campaign engine: shards, retry, resume, atomicity.

The acceptance bar: a campaign killed mid-run resumes from its shard
checkpoints and aggregates to *byte-identical* JSON; one failed worker
costs one shard retry, not the campaign; concurrent campaigns never
corrupt the shared cache.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.injectors.campaign import (
    CampaignResult,
    default_workers,
    run_campaign,
)
from repro.injectors.engine import (
    ShardFailure,
    atomic_write_text,
    plan_shards,
    run_sharded,
)
from repro.injectors.golden import cache_dir
from repro.obs import EventLog, ProgressReporter, progress_enabled


# ---------------------------------------------------------------------------
# module-level workers (picklable for the pooled paths)
# ---------------------------------------------------------------------------
def _double(task):
    return task * 2


def _flaky_worker(task):
    """Raises once for value 3, then succeeds (sentinel on disk)."""
    value, sentinel = task
    if value == 3 and sentinel and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        raise RuntimeError("injected worker failure")
    return value * 10


def _crashing_worker(task):
    """Hard-kills its process once for value 2 (no exception raised)."""
    value, sentinel = task
    if value == 2 and sentinel and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(1)
    return value + 100


def _always_failing(task):
    raise RuntimeError("permanently broken")


def _campaign_in_subprocess(seed):
    """Helper for the concurrent-campaign test (fork-inherits env)."""
    campaign = run_campaign("crc32", "cortex-a72", injector="svf",
                            n=6, seed=seed, workers=1)
    return [r.outcome for r in campaign.results]


# ---------------------------------------------------------------------------
# shard planning
# ---------------------------------------------------------------------------
class TestShardPlan:
    def test_partitions_exactly(self):
        plan = plan_shards(100)
        assert plan[0].start == 0
        assert plan[-1].stop == 100
        assert sum(len(s) for s in plan) == 100
        for left, right in zip(plan, plan[1:]):
            assert left.stop == right.start

    def test_deterministic_and_worker_independent(self):
        # the plan depends only on n, so checkpoints written at one
        # parallelism line up with a resume at another
        assert plan_shards(2000) == plan_shards(2000)

    def test_empty_and_explicit_size(self):
        assert plan_shards(0) == []
        assert [len(s) for s in plan_shards(7, shard_size=3)] == [3, 3, 1]

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(10, shard_size=-1)


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------
class TestAtomicWrite:
    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "cache.json"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_litter(self, tmp_path):
        atomic_write_text(tmp_path / "a.json", "x" * 4096)
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

    def test_creates_parent_dirs(self, tmp_path):
        nested = tmp_path / "deep" / "down" / "b.json"
        atomic_write_text(nested, "payload")
        assert nested.read_text() == "payload"


# ---------------------------------------------------------------------------
# engine execution: retry + resume
# ---------------------------------------------------------------------------
class TestRunSharded:
    def test_results_in_task_order(self):
        out = run_sharded(_double, list(range(17)), workers=1,
                          shard_size=4)
        assert out == [i * 2 for i in range(17)]

    def test_serial_retry_recovers(self, tmp_path):
        sentinel = str(tmp_path / "fail-once")
        tasks = [(i, sentinel) for i in range(6)]
        out = run_sharded(_flaky_worker, tasks, workers=1, shard_size=2,
                          backoff_base=0.01)
        assert out == [i * 10 for i in range(6)]
        assert os.path.exists(sentinel)  # the failure really happened

    def test_pooled_retry_after_worker_exception(self, tmp_path):
        sentinel = str(tmp_path / "fail-once-pooled")
        tasks = [(i, sentinel) for i in range(8)]
        out = run_sharded(_flaky_worker, tasks, workers=2, shard_size=2,
                          backoff_base=0.01)
        assert out == [i * 10 for i in range(8)]

    def test_pooled_recovers_from_killed_worker(self, tmp_path):
        # a SIGKILL-style death breaks the pool; the wave restart must
        # re-run only the lost shards, not abort the campaign
        sentinel = str(tmp_path / "crash-once")
        tasks = [(i, sentinel) for i in range(6)]
        out = run_sharded(_crashing_worker, tasks, workers=2,
                          shard_size=2, max_retries=3,
                          backoff_base=0.01)
        assert out == [i + 100 for i in range(6)]

    def test_exhausted_retries_raise_shard_failure(self):
        with pytest.raises(ShardFailure):
            run_sharded(_always_failing, [1, 2], workers=1,
                        shard_size=1, max_retries=1, backoff_base=0.0)

    def test_resume_from_checkpoints(self, tmp_path):
        ckpt = tmp_path / "shards"
        tasks = list(range(10))
        first = run_sharded(_double, tasks, workers=1, shard_size=3,
                            checkpoint_dir=ckpt)
        assert len(list(ckpt.glob("shard-*.json"))) == 4
        # a worker that cannot run proves the resume never recomputes
        resumed = run_sharded(_always_failing, tasks, workers=1,
                              shard_size=3, checkpoint_dir=ckpt,
                              max_retries=0)
        assert resumed == first

    def test_corrupt_checkpoint_recomputed(self, tmp_path):
        ckpt = tmp_path / "shards"
        tasks = list(range(6))
        run_sharded(_double, tasks, workers=1, shard_size=2,
                    checkpoint_dir=ckpt)
        victim = sorted(ckpt.glob("shard-*.json"))[1]
        victim.write_text("{ truncated")
        out = run_sharded(_double, tasks, workers=1, shard_size=2,
                          checkpoint_dir=ckpt)
        assert out == [i * 2 for i in range(6)]


# ---------------------------------------------------------------------------
# campaign-level resume: byte-identical aggregates
# ---------------------------------------------------------------------------
class TestCampaignResume:
    ARGS = dict(injector="svf", n=8, seed=4242, workers=1, shard_size=2)

    def _campaign_files(self, seed):
        out = []
        for path in cache_dir().glob("campaign-svf-crc32-*.json"):
            try:
                if json.loads(path.read_text())["seed"] == seed:
                    out.append(path)
            except ValueError:
                continue
        return out

    def _campaign_file(self, seed):
        matches = self._campaign_files(seed)
        assert matches, "campaign cache file not found"
        return matches[0]

    def _purge(self, seed):
        """Forget the campaign (the test cache persists across runs)."""
        import shutil

        for path in self._campaign_files(seed):
            shutil.rmtree(cache_dir() / "shards" / path.stem,
                          ignore_errors=True)
            path.unlink()

    def test_interrupted_campaign_resumes_byte_identical(
            self, monkeypatch):
        from repro.injectors import campaign as campaign_mod

        self._purge(4242)
        # 1. uninterrupted run; keep its shard checkpoints alive to
        #    emulate a campaign killed after the shards completed but
        #    before the final aggregate was written
        monkeypatch.setattr(campaign_mod, "clear_checkpoints",
                            lambda d: None)
        run_campaign("crc32", "cortex-a72", **self.ARGS)
        final = self._campaign_file(4242)
        expected = final.read_bytes()
        final.unlink()
        shard_dir = cache_dir() / "shards" / final.stem
        checkpoints = sorted(shard_dir.glob("shard-*.json"))
        assert len(checkpoints) == 4

        # 2. drop one checkpoint (that shard was mid-flight when the
        #    campaign died); the resume must re-run exactly that shard
        checkpoints[1].unlink()
        real_worker = campaign_mod._one_svf
        calls = []

        def counting_worker(task):
            calls.append(task)
            return real_worker(task)

        monkeypatch.setattr(campaign_mod, "_one_svf", counting_worker)
        resumed = run_campaign("crc32", "cortex-a72", **self.ARGS)
        assert final.read_bytes() == expected
        # only the lost shard (run indices 2 and 3) was recomputed
        assert [t[3] for t in calls] == [2, 3]
        assert [r.outcome for r in resumed.results] == \
            [r.outcome
             for r in CampaignResult.from_json(
                 json.loads(expected)).results]

    def test_checkpoints_removed_after_success(self):
        run_campaign("crc32", "cortex-a72", injector="svf", n=6,
                     seed=515, workers=1, shard_size=2)
        final = self._campaign_file(515)
        assert not (cache_dir() / "shards" / final.stem).exists()


@pytest.mark.parametrize("damage", [b"", b"\0" * 256],
                         ids=["empty", "nul-filled"])
@pytest.mark.parametrize("kind", ["shard", "sidecar", "golden"])
def test_unreadable_cache_files_are_recomputed(tmp_path, monkeypatch, kind,
                                               damage):
    """What an OS crash may leave of an unsynced cache file (nothing,
    or zeros) is discarded, and the re-run aggregates byte-identically
    and writes the file again."""
    from repro.injectors import campaign as campaign_mod
    from repro.injectors import golden

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    # keep the shard checkpoints, as a campaign killed before its
    # aggregate would
    monkeypatch.setattr(campaign_mod, "clear_checkpoints", lambda d: None)
    args = dict(injector="svf", n=6, seed=4343, workers=1, shard_size=2)

    def forget():
        golden.golden_run.cache_clear()
        golden.checkpoint_store.cache_clear()

    forget()
    expected = json.dumps(run_campaign("crc32", "cortex-a72",
                                       **args).to_json())
    [sidecar] = tmp_path.glob("campaign-svf-crc32-*.json")
    shards = sorted((tmp_path / "shards" / sidecar.stem).glob("shard-*"))
    # the golden run's cache file is its functional-sim checkpoint store
    victim = {"shard": shards[1], "sidecar": sidecar,
              "golden": next(tmp_path.glob(
                  "checkpoints-crc32-*-functional-sim-*.pkl"))}[kind]
    if kind != "sidecar":
        sidecar.unlink()        # else the campaign is read back whole
    victim.write_bytes(damage)
    forget()
    again = run_campaign("crc32", "cortex-a72", **args)
    forget()
    assert json.dumps(again.to_json()) == expected
    # written again, whole
    if kind == "golden":
        pickle.loads(victim.read_bytes())
    else:
        json.loads(victim.read_text())


# ---------------------------------------------------------------------------
# concurrent campaigns on one cache
# ---------------------------------------------------------------------------
class TestConcurrency:
    def test_concurrent_same_campaign_no_corruption(self):
        # golden data first, so both processes race only on the
        # campaign itself
        run_campaign("crc32", "cortex-a72", injector="svf", n=2,
                     seed=808, workers=1)
        with ProcessPoolExecutor(max_workers=2) as pool:
            a, b = pool.map(_campaign_in_subprocess, [909, 909])
        assert a == b
        # the racing writers left a complete, parseable file
        matches = [p for p in cache_dir().glob("campaign-svf-crc32-*")
                   if json.loads(p.read_text())["seed"] == 909]
        assert matches
        reloaded = CampaignResult.from_json(
            json.loads(matches[0].read_text()))
        assert [r.outcome for r in reloaded.results] == a


# ---------------------------------------------------------------------------
# satellite fixes: workers env, empty campaigns, population margins
# ---------------------------------------------------------------------------
class TestDefaultWorkers:
    def test_malformed_env_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "banana")
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            assert default_workers(4) == 1
        with pytest.warns(RuntimeWarning):
            assert default_workers(1000) >= 1

    def test_valid_env_still_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_workers(1000) == 3


class TestEmptyAndPopulation:
    def test_empty_campaign_margin_is_nan(self):
        campaign = run_campaign("crc32", "cortex-a72", injector="svf",
                                n=0, seed=606, use_cache=False)
        assert campaign.results == []
        assert campaign.margin() != campaign.margin()  # NaN
        assert campaign.vulnerability() == 0.0
        assert "n=0" in campaign.summary()

    def test_finite_population_tightens_margin(self):
        campaign = run_campaign("crc32", "cortex-a72", injector="svf",
                                n=6, seed=707, use_cache=False)
        infinite = campaign.margin()
        finite = campaign.margin(population=10)
        assert finite < infinite
        # population= plumbed through the constructor as well
        campaign.population = 10
        assert campaign.margin() == finite


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------
class TestTelemetry:
    def test_event_log_records_campaign_lifecycle(self, tmp_path,
                                                  monkeypatch):
        log = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_EVENT_LOG", str(log))
        run_campaign("crc32", "cortex-a72", injector="svf", n=4,
                     seed=111, workers=1, use_cache=False)
        events = [json.loads(line)["event"]
                  for line in log.read_text().splitlines()]
        assert events[0] == "campaign_started"
        assert "shard_done" in events
        # the post-aggregation summary lands after the lifecycle ends
        # (a metrics_snapshot may follow when REPRO_METRICS is on)
        assert (events.index("campaign_summary")
                > events.index("campaign_finished"))
        assert events[-1] in ("campaign_summary", "metrics_snapshot")

    def test_event_log_disabled(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_EVENT_LOG", "0")
        assert not EventLog.resolve(tmp_path / "x.jsonl").enabled
        monkeypatch.delenv("REPRO_EVENT_LOG")
        assert EventLog.resolve(None).enabled is False

    def test_retry_event_emitted(self, tmp_path):
        log = EventLog(tmp_path / "retry.jsonl")
        sentinel = str(tmp_path / "flaky")
        run_sharded(_flaky_worker, [(i, sentinel) for i in range(4)],
                    workers=1, shard_size=2, backoff_base=0.0,
                    events=log)
        kinds = [json.loads(line)["event"]
                 for line in log.path.read_text().splitlines()]
        assert "shard_retry" in kinds

    def test_progress_reporter_line(self):
        stream = io.StringIO()
        reporter = ProgressReporter(10, label="demo", stream=stream)
        reporter.advance(4, ["sdc", "masked", "masked", "crash"])
        reporter.finish()
        text = stream.getvalue()
        assert "demo: 4/10 runs" in text
        assert "masked=2" in text
        assert text.endswith("\n")

    def test_progress_enabled_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        assert progress_enabled(None) is False
        assert progress_enabled(True) is True
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        assert progress_enabled(None) is True
        assert progress_enabled(False) is False


# ---------------------------------------------------------------------------
# CLI flags
# ---------------------------------------------------------------------------
class TestCliFlags:
    def test_campaign_accepts_progress_and_quiet(self, capsys):
        from repro.cli import main

        assert main(["campaign", "crc32", "--injector", "svf",
                     "-n", "4", "--seed", "222", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "svf:crc32" in out

    def test_progress_flags_mutually_exclusive(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "crc32", "--progress", "--quiet"])

