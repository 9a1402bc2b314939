"""Self-tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

import campaigns as cb
import run as bench
import spans

cb.import_program()

SMALL = cb.Workload(
    name="small",
    cells=(cb.Cell("crc32", "svf", "-", 4),
           cb.Cell("crc32", "pvf", "WD", 3)),
    programs=("crc32",), stores=(), pass_seconds=1.0, reference="small")


def fake_campaign(seed, outcomes=("Masked",)):
    return SimpleNamespace(
        results=[SimpleNamespace(outcome=o) for o in outcomes],
        to_json=lambda: {"seed": seed, "outcomes": list(outcomes)})


def sha(campaign):
    return hashlib.sha256(json.dumps(campaign.to_json(), sort_keys=True)
                          .encode()).hexdigest()


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------
def test_every_span_name_maps_to_one_self_time_metric():
    names = [n for ns in bench._SELF_TIME_SPANS.values() for n in ns]
    assert len(names) == len(set(names))
    assert set(names) == set(spans.LAYER_SITES) | {spans.ROOT}


def test_self_time_nested_and_sibling_spans():
    rows = [["root", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],       # child of root
            ["b", 2.0, 3.0, 1],       # grandchild, nested in a
            ["a", 5.0, 9.0, 0]]       # sibling of the first a
    self_s = spans.self_times(rows)
    assert self_s == {"root": 3.0, "a": 6.0, "b": 1.0}
    assert sum(self_s.values()) == 10.0
    assert spans.inclusive_times(rows)["a"] == 7.0
    assert spans.call_counts(rows) == {"root": 1, "a": 2, "b": 1}


def test_tracer_records_parents_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    assert [row[0] for row in tracer.spans] == ["outer", "inner", "inner"]
    assert [row[3] for row in tracer.spans] == [-1, 0, 0]
    assert spans.self_times(tracer.spans) == {"outer": 3.0, "inner": 2.0}


def test_install_and_uninstall_restore_every_site():
    sites = [site for _layer, entries in spans.LAYER_SITES.values()
             for site in entries]
    before = [spans._resolve(m, a)[0].__dict__[spans._resolve(m, a)[1]]
              for m, a in sites]
    with spans.Tracer():
        wrapped = [spans._resolve(m, a)[0].__dict__[spans._resolve(m, a)[1]]
                   for m, a in sites]
    after = [spans._resolve(m, a)[0].__dict__[spans._resolve(m, a)[1]]
             for m, a in sites]
    assert all(w is not b for w, b in zip(wrapped, before))
    assert all(a is b for a, b in zip(after, before))


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------
def test_raised_campaign_counts_all_its_runs_failed(cache):
    def runner(program, config, *, injector, seed, **kw):
        if injector == "pvf":
            raise RuntimeError("boom")
        return fake_campaign(seed)

    good = sha(fake_campaign(7))
    reference = {"small": {"7": {"svf:crc32/-": good}}}
    result = cb.run_pass(SMALL, 7, reference, {}, runner=runner)
    assert (result.attempted, result.failed) == (7, 3)
    assert "RuntimeError: boom" in result.cells[1].error


def test_digest_mismatch_counts_all_its_runs_failed(cache):
    def runner(program, config, *, injector, seed, **kw):
        return fake_campaign(seed)

    reference = {"small": {"7": {"svf:crc32/-": sha(fake_campaign(7)),
                                 "pvf:crc32/WD": "0" * 64}}}
    result = cb.run_pass(SMALL, 7, reference, {}, runner=runner)
    assert (result.attempted, result.failed) == (7, 3)
    assert result.cells[0].ok and not result.cells[1].ok


# ---------------------------------------------------------------------------
# seeds and arguments
# ---------------------------------------------------------------------------
def test_seed_argument_reaches_the_campaigns(cache, monkeypatch):
    from repro.injectors import campaign as campaign_mod

    seen = []

    def fake_run_campaign(program, config, *, injector, seed, workers,
                          batch_lanes, **kw):
        seen.append((injector, seed, workers, batch_lanes))
        return fake_campaign(seed)

    monkeypatch.setattr(campaign_mod, "run_campaign", fake_run_campaign)
    monkeypatch.setattr(cb, "cold_setup", lambda workload, path: 0.5)
    seconds = 2 * SMALL.pass_seconds   # two seeds
    _metrics, passes, _ledger, _checks = bench.untraced_run(
        SMALL, 63, seconds, cache / "work", {})
    assert [p.seed for p in passes] == [63, 0]
    assert [s for _inj, s, _w, _l in seen] == [63, 63, 0, 0]
    assert {(w, lanes) for _inj, _s, w, lanes in seen} == {(1, 0)}


def test_throughput_counts_every_campaign_and_aggregation():
    cell = SMALL.cells[0]
    passes = [cb.PassResult(seed, [cb.CellResult(cell, seconds, True, {})],
                            aggregate_seconds=0.5)
              for seed, seconds in ((1, 2.0), (2, 3.5))]
    assert cb.campaign_seconds(passes) == {
        (1, 0): 2.0, (1, cb.AGGREGATION): 0.5,
        (2, 0): 3.5, (2, cb.AGGREGATION): 0.5}
    assert cb.pass_throughput(passes) == 2 * cell.n / 6.5


def test_reference_seconds_scale_each_task_by_the_probes_around_it(
        monkeypatch):
    monkeypatch.setattr(cb, "REFERENCE_PROBE_S", 1.0)
    cell = SMALL.cells[0]
    # half speed (probe 2 s) around the first three tasks, then reference
    probes = (2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0)
    tasks = (2.0,) * 6
    outside = 3.0
    result = cb.CellResult(cell, sum(tasks) + sum(probes[:-1]) + outside,
                           True, {}, tasks=tasks, probes=probes)
    # tasks 1 + 1 + 1 + 2 + 2 + 2, outside 3 at the median probe (1 s)
    assert result.reference_seconds() == 12.0
    # no probes (a campaign that raised): wall seconds as they are
    bare = cb.CellResult(cell, 5.0, True, {}, tasks=(1.0,))
    assert bare.reference_seconds() == 5.0


def test_probe_runs_before_each_task_outside_its_span(cache, monkeypatch):
    from repro.injectors import campaign as campaign_mod

    ticks = iter(range(1000))
    monkeypatch.setattr(cb, "probe", lambda: float(next(ticks)))
    monkeypatch.setattr(campaign_mod, "_one_svf", lambda task: next(ticks))

    def runner(program, config, *, injector, seed, n, **kw):
        for task in range(n):
            campaign_mod._one_svf(task)
        return fake_campaign(seed)

    result = cb.run_pass(SMALL, 7, {}, {}, runner=runner)
    first = result.cells[0]
    assert len(first.probes) == len(first.tasks) + 1 == 5
    # each probe value is a tick taken before its task's tick
    assert first.probes[:4] == (0.0, 2.0, 4.0, 6.0)


def test_run_pass_times_each_task(cache, monkeypatch):
    from repro.injectors import campaign as campaign_mod

    monkeypatch.setattr(campaign_mod, "_one_svf", lambda task: task)

    def runner(program, config, *, injector, seed, n, **kw):
        for task in range(n):       # looked up at call time, as run_sharded
            campaign_mod._one_svf(task)
        return fake_campaign(seed)

    result = cb.run_pass(SMALL, 7, {}, {}, runner=runner)
    assert [len(r.tasks) for r in result.cells] == [4, 3]
    assert all(0.0 <= t <= result.cells[0].seconds
               for t in result.cells[0].tasks)


def test_every_pass_starts_from_the_memos_set_up_left(cache):
    from repro.uarch import functional

    seen = []

    def runner(program, config, *, injector, seed, **kw):
        seen.append(set(functional._DECODE_CACHE))
        functional._DECODE_CACHE[(0, seed)] = "decoded corrupted word"
        return fake_campaign(seed)

    saved = cb.seed_free_memos()
    try:
        for _ in range(2):
            cb.run_pass(SMALL, 7, {}, {(0, -1): "golden word"},
                        runner=runner)
    finally:
        cb.restore_memos(saved)
    assert seen == [{(0, -1)}, {(0, -1), (0, 7)}] * 2


def test_unknown_workload_is_rejected():
    with pytest.raises(SystemExit) as exc:
        bench.parse_args(["--workload", "no-such-workload"])
    assert exc.value.code == 2
    proc = subprocess.run(
        [sys.executable, str(cb.HERE / "run.py"), "--workload", "nope",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
