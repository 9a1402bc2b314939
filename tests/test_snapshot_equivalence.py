"""Differential equivalence of the checkpoint fast path.

The golden-fork fast path (:mod:`repro.uarch.snapshot`) restores the
nearest fault-free checkpoint instead of simulating from reset, and
terminates early once a run provably reconverges onto the golden
trajectory.  Its contract is *byte-identical results*: with and
without the fast path, every injector must produce the same
:class:`InjectionResult` stream, for every workload, every structure,
and every injection cycle — including the adversarial ones (cycle 0,
exactly on a checkpoint boundary, one off a boundary, the last cycle,
beyond the golden run).  These tests hold it to that, plus the
round-trip property the whole scheme rests on (restore is lossless
for both engines) and the cache-versioning rules that keep stale
checkpoints from ever mixing with fresh results.
"""

from __future__ import annotations

import dataclasses
import json
import random
from array import array

import pytest

from repro.faults.fault import FaultSpec, sample_campaign
from repro.injectors import golden as golden_mod
from repro.injectors.archinj import build_pvf_action, run_one_pvf
from repro.injectors.campaign import run_campaign
from repro.injectors.gefin import run_one_injection
from repro.injectors.golden import checkpoint_store, golden_run
from repro.injectors.llfi import _dest_flip_action, run_one_svf
from repro.isa.registers import register_set
from repro.kernel.loader import build_system_image
from repro.obs.metrics import (FASTPATH_EARLY_EXITS, FASTPATH_RESTORES,
                               MetricsRegistry, set_registry)
from repro.uarch import snapshot
from repro.uarch.config import config_by_name
from repro.uarch.functional import FaultAction, FunctionalEngine
from repro.uarch.pipeline import PipelineEngine
from repro.workloads.suite import WORKLOAD_NAMES, load_workload

WORKLOAD = "crc32"
CONFIG = "cortex-a72"
STRUCTURES = ("RF", "LSQ", "L1I", "L1D", "L2")


@pytest.fixture(scope="module")
def config():
    return config_by_name(CONFIG)


@pytest.fixture(scope="module")
def golden():
    return golden_run(WORKLOAD, CONFIG)


def _differential(workload, config, spec, golden):
    """One injection on both paths; they must agree byte-for-byte."""
    slow = run_one_injection(workload, config, spec, golden,
                             fastpath=False)
    fast = run_one_injection(workload, config, spec, golden,
                             fastpath=True)
    assert slow == fast, spec
    return fast


# ---------------------------------------------------------------------------
# round-trip: restore is lossless for both engines
# ---------------------------------------------------------------------------
class TestRoundTrip:
    def _image(self, config):
        return build_system_image(
            load_workload(WORKLOAD, config.isa))

    def test_pipeline_restore_is_lossless(self, config, golden):
        store = checkpoint_store(WORKLOAD, CONFIG, engine="pipeline")
        assert store.checkpoints[0].instructions == 0
        picks = {0, len(store.checkpoints) // 2,
                 len(store.checkpoints) - 1}
        for i in sorted(picks):
            cp = store.checkpoints[i]
            engine = PipelineEngine(
                self._image(config), config,
                max_instructions=golden.max_instructions,
                max_cycles=golden.max_cycles)
            snapshot.restore_pipeline(engine, cp.state)
            # the restored state digests identically to the capture...
            assert snapshot.pipeline_digest(engine) == cp.digest
            # ...and runs out to the capture run's exact final result
            result = engine.run()
            assert result.status.value == "completed"
            assert result.output == store.final["output"]
            assert result.exit_code == store.final["exit_code"]
            assert result.cycles == store.final["cycles"]
            assert result.instructions == store.final["instructions"]
            assert result.kernel_instructions == \
                store.final["kernel_instructions"]

    @pytest.mark.parametrize("kernel", ["sim", "host"])
    def test_functional_restore_is_lossless(self, kernel, config,
                                            golden):
        store = checkpoint_store(WORKLOAD, CONFIG,
                                 engine=f"functional-{kernel}")
        for i in (0, len(store.checkpoints) // 2,
                  len(store.checkpoints) - 1):
            cp = store.checkpoints[i]
            engine = FunctionalEngine(
                self._image(config), kernel=kernel,
                max_instructions=golden.max_instructions)
            snapshot.restore_functional(engine, cp.state)
            assert snapshot.functional_digest(engine) == cp.digest
            result = engine.run()
            assert result.status.value == "completed"
            assert result.output == store.final["output"]
            assert result.exit_code == store.final["exit_code"]
            assert result.instructions == store.final["instructions"]


# ---------------------------------------------------------------------------
# pipeline (gefin) differential: structures, workloads, adversarial cycles
# ---------------------------------------------------------------------------
class TestPipelineEquivalence:
    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_every_structure_agrees(self, structure, config, golden):
        specs = sample_campaign(config, structure, golden.cycles,
                                n=6, seed=3, prefer_live=True)
        for spec in specs:
            _differential(WORKLOAD, config, spec, golden)

    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_every_workload_agrees(self, workload, config):
        # SVF (functional-host) keeps the full-suite sweep cheap;
        # the pipeline engine gets its workload diversity from the
        # campaign-level test below plus the crc32/sha/qsort stores
        # the rest of the suite exercises
        g = golden_run(workload, CONFIG)
        xlen = register_set(config.isa).xlen
        rng = random.Random(repr(("equiv-svf", workload)))
        for _ in range(2):
            action = _dest_flip_action(rng, g, xlen)
            slow = run_one_svf(workload, config.isa, action, g,
                               fastpath=False)
            fast = run_one_svf(workload, config.isa, action, g,
                               fastpath=True)
            assert slow == fast, action.origin

    def test_adversarial_cycles_agree(self, config, golden):
        store = checkpoint_store(WORKLOAD, CONFIG, engine="pipeline")
        boundaries = [cp.cycle for cp in store.checkpoints]
        mid = boundaries[len(boundaries) // 2]
        cycles = [0.0,                      # before the first fetch
                  mid,                      # exactly on a boundary
                  mid - 1.0, mid + 1.0,     # either side of it
                  boundaries[-1],           # the last checkpoint
                  golden.cycles,            # the golden run's end
                  golden.cycles + 123.0]    # beyond the golden run
        base = [FaultSpec("RF", 0.0, a=5, b=17),
                FaultSpec("L1D", 0.0, a=3, b=1, c=21),
                FaultSpec("LSQ", 0.0, a=2, b=9)]
        for spec in base:
            for cycle in cycles:
                _differential(WORKLOAD, config,
                              dataclasses.replace(spec, cycle=cycle),
                              golden)


# ---------------------------------------------------------------------------
# functional (pvf/svf) differential: models and adversarial triggers
# ---------------------------------------------------------------------------
class TestFunctionalEquivalence:
    @pytest.mark.parametrize("model", ["WD", "WOI", "WI"])
    def test_pvf_models_agree(self, model, config, golden):
        xlen = register_set(config.isa).xlen
        rng = random.Random(repr(("equiv-pvf", model)))
        for _ in range(4):
            action = build_pvf_action(model, rng, golden, xlen)
            slow = run_one_pvf(WORKLOAD, config.isa, action, golden,
                               fastpath=False)
            fast = run_one_pvf(WORKLOAD, config.isa, action, golden,
                               fastpath=True)
            assert slow == fast, action.origin

    def test_adversarial_triggers_agree(self, config, golden):
        store = checkpoint_store(WORKLOAD, CONFIG,
                                 engine="functional-sim")
        mid = store.checkpoints[len(store.checkpoints) // 2]
        boundary = mid.counters.get("commit", 0)
        whens = sorted({0, boundary, max(0, boundary - 1),
                        boundary + 1, golden.instructions - 1})

        def reg_flip(when):
            def apply(engine):
                engine.regs[5] ^= 1 << 7
            action = FaultAction("commit", when, apply)
            action.origin = f"r5 bit 7 at instruction {when}"
            return action

        for when in whens:
            slow = run_one_pvf(WORKLOAD, config.isa, reg_flip(when),
                               golden, fastpath=False)
            fast = run_one_pvf(WORKLOAD, config.isa, reg_flip(when),
                               golden, fastpath=True)
            assert slow == fast, when


# ---------------------------------------------------------------------------
# campaign-level: aggregated streams and statistics are identical
# ---------------------------------------------------------------------------
class TestAggregateEquivalence:
    @pytest.mark.parametrize("injector,kwargs", [
        ("gefin", {"structure": "RF"}),
        ("pvf", {"model": "WD"}),
        ("svf", {}),
    ])
    def test_campaigns_are_byte_identical(self, injector, kwargs):
        slow = run_campaign(WORKLOAD, CONFIG, injector=injector,
                            n=12, seed=1, use_cache=False,
                            fastpath=False, **kwargs)
        fast = run_campaign(WORKLOAD, CONFIG, injector=injector,
                            n=12, seed=1, use_cache=False,
                            fastpath=True, **kwargs)
        assert fast.to_json() == slow.to_json()
        assert fast.vulnerability() == slow.vulnerability()
        assert fast.hvf() == slow.hvf()
        assert fast.fpm_rates() == slow.fpm_rates()


# ---------------------------------------------------------------------------
# the fast path actually engages (it must not silently degrade to slow)
# ---------------------------------------------------------------------------
class TestFastPathEngages:
    def test_restores_and_early_exits_are_observed(self, config,
                                                   golden):
        registry = MetricsRegistry(enabled=True)
        set_registry(registry)
        try:
            specs = sample_campaign(config, "RF", golden.cycles,
                                    n=8, seed=5, prefer_live=True)
            for spec in specs:
                run_one_injection(WORKLOAD, config, spec, golden,
                                  fastpath=True)
            snap = registry.snapshot()["counters"]
        finally:
            set_registry(None)
        assert snap[FASTPATH_RESTORES] == len(specs)
        # masked runs dominate RF campaigns; at least one must have
        # reconverged and exited early
        assert snap.get(FASTPATH_EARLY_EXITS, 0) > 0
        assert snap.get("fastpath.instructions_saved", 0) > 0


# ---------------------------------------------------------------------------
# cache versioning: schema bumps invalidate, never mix
# ---------------------------------------------------------------------------
class TestVersionInvalidation:
    def test_snapshot_schema_bump_unlinks_stale_store(self, tmp_path,
                                                      monkeypatch):
        store = snapshot.CheckpointStore(
            schema=snapshot.SNAPSHOT_SCHEMA_VERSION, engine="pipeline",
            key="k1", interval=64,
            checkpoints=[snapshot.Checkpoint(0, 0.0, {}, "d", {})],
            digests={0: "d"}, final={"output": b""})
        path = tmp_path / "store.pkl"
        snapshot.save_store(path, store)
        loaded = snapshot.load_store(path, "k1")
        assert loaded is not None and loaded.key == "k1"
        # wrong key: stale, unlinked
        assert snapshot.load_store(path, "other") is None
        assert not path.exists()
        snapshot.save_store(path, store)
        # format change: every persisted store is stale
        monkeypatch.setattr(snapshot, "SNAPSHOT_SCHEMA_VERSION",
                            snapshot.SNAPSHOT_SCHEMA_VERSION + 1)
        assert snapshot.load_store(path, "k1") is None
        assert not path.exists()

    def test_corrupt_store_is_unlinked(self, tmp_path):
        path = tmp_path / "store.pkl"
        path.write_bytes(b"not a pickle")
        assert snapshot.load_store(path, "k1") is None
        assert not path.exists()

    def test_campaign_schema_salts_key_and_entry(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        kwargs = dict(injector="svf", n=4, seed=9, use_cache=True)
        first = run_campaign(WORKLOAD, CONFIG, **kwargs)
        paths = sorted(tmp_path.glob("campaign-svf-*.json"))
        assert len(paths) == 1
        entry = json.loads(paths[0].read_text())
        assert entry["schema"] == golden_mod.CACHE_SCHEMA_VERSION

        # an entry written under a different engine schema is stale
        # even on the same path (e.g. a copied cache): doctor the
        # in-file salt and the campaign must be recomputed in place
        entry["schema"] = golden_mod.CACHE_SCHEMA_VERSION - 1
        entry["results"] = []  # a stale hit would return 0 results
        paths[0].write_text(json.dumps(entry))
        again = run_campaign(WORKLOAD, CONFIG, **kwargs)
        assert again.to_json() == first.to_json()
        assert len(again.results) == 4
        fresh = json.loads(paths[0].read_text())
        assert fresh["schema"] == golden_mod.CACHE_SCHEMA_VERSION

        # a schema bump moves the cache *key*: old entries miss
        monkeypatch.setattr(golden_mod, "CACHE_SCHEMA_VERSION",
                            golden_mod.CACHE_SCHEMA_VERSION + 1)
        bumped = run_campaign(WORKLOAD, CONFIG, **kwargs)
        assert bumped.results == first.results
        assert len(sorted(tmp_path.glob("campaign-svf-*.json"))) == 2

    def test_checkpoint_store_key_tracks_schema(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        captured = []
        real = snapshot.load_store

        def spy(path, key):
            captured.append((str(path), key))
            return real(path, key)

        monkeypatch.setattr(snapshot, "load_store", spy)
        checkpoint_store.cache_clear()
        try:
            checkpoint_store(WORKLOAD, CONFIG,
                             engine="functional-host")
            checkpoint_store.cache_clear()
            monkeypatch.setattr(golden_mod, "CACHE_SCHEMA_VERSION",
                                golden_mod.CACHE_SCHEMA_VERSION + 1)
            checkpoint_store(WORKLOAD, CONFIG,
                             engine="functional-host")
        finally:
            checkpoint_store.cache_clear()
        assert len(captured) == 2
        # the schema salt lands in both the key and the file name
        assert captured[0][1] != captured[1][1]
        assert captured[0][0] != captured[1][0]


# ---------------------------------------------------------------------------
# the golden code lines' shared run records
# ---------------------------------------------------------------------------
def test_runs_share_the_golden_code_records_and_never_grow_them(
        config, golden, monkeypatch):
    from repro.uarch import pipeline

    store = checkpoint_store(WORKLOAD, CONFIG)
    # the pc of every golden instruction, whose lines the table holds
    pcs = array("I", store.liveness.pcs)
    assert len(pcs) == golden.instructions
    line = config.l1i.line_size
    table = store.code_records
    assert set(table) == set(store.code) == {pc & -line for pc in pcs}

    def frozen():
        return {base: (data, list(records))
                for base, (data, records) in table.items()}

    before = frozen()
    built = []
    run_record = pipeline.run_record
    monkeypatch.setattr(pipeline, "run_record",
                        lambda *args: built.append(args) or run_record(*args))
    # a run whose fault never fires fetches golden code only
    engine = PipelineEngine(
        build_system_image(load_workload(WORKLOAD, config.isa)), config,
        faults=[FaultSpec("RF", golden.cycles * 2, 0, 0)],
        max_instructions=golden.max_instructions)
    snapshot.prepare_pipeline_fastpath(engine, store)
    assert engine.run().output == golden.output
    assert not built
    # corrupted instruction words get the run's own records
    run_campaign(WORKLOAD, CONFIG, injector="gefin", structure="L1I",
                 n=12, seed=3, use_cache=False, workers=1)
    assert built
    assert frozen() == before
