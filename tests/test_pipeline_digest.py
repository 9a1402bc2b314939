"""Sensitivity of the pipeline's fast-path digest.

``snapshot.pipeline_digest`` decides when an injection run has
reconverged onto the golden run and may stop early.  It must change
with every piece of live state (a missed difference would end a
diverged run early with the golden result) and must not change with
dead state (a spurious difference only costs speed, but the digest is
defined to exclude it).  The fields are hashed as length-prefixed
binary buffers, so state moved from one field into the next must
change it too.
"""

from __future__ import annotations

import pickle

import pytest

from repro.injectors.golden import checkpoint_store
from repro.kernel.loader import build_system_image
from repro.uarch import snapshot
from repro.uarch.config import config_by_name
from repro.uarch.pipeline import PipelineEngine
from repro.uarch.regfile import FREE, LIVE
from repro.workloads.suite import load_workload

WORKLOAD = "sha"
CONFIG = "cortex-a72"


@pytest.fixture(scope="module")
def state():
    """Captured pipeline state halfway through a fault-free run."""
    store = checkpoint_store(WORKLOAD, CONFIG)
    return store.checkpoints[len(store.checkpoints) // 2].state


def _engine(state) -> PipelineEngine:
    config = config_by_name(CONFIG)
    engine = PipelineEngine(
        build_system_image(load_workload(WORKLOAD, config.isa)), config)
    snapshot.restore_pipeline(engine, state)
    return engine


def _changes(state, mutate) -> bool:
    """Whether *mutate* (applied to a freshly restored engine) changes
    the digest; both digests must exist."""
    engine = _engine(state)
    before = snapshot.pipeline_digest(engine)
    mutate(engine)
    after = snapshot.pipeline_digest(engine)
    assert before is not None and after is not None
    return before != after


def _live_phys(engine) -> int:
    return next(p for p in range(1, engine.rf.n_phys)
                if engine.rf.state[p] == LIVE)


def _valid_line(cache):
    return next(line for ways in cache.sets for line in ways
                if line.valid)


class TestLiveStateChangesDigest:
    def test_restore_reproduces_the_captured_digest(self, state):
        store = checkpoint_store(WORKLOAD, CONFIG)
        cp = store.checkpoints[len(store.checkpoints) // 2]
        assert snapshot.pipeline_digest(_engine(state)) == cp.digest

    def test_live_register_value(self, state):
        def mutate(engine):
            engine.rf.values[_live_phys(engine)] ^= 1 << 7
        assert _changes(state, mutate)

    def test_live_register_readiness(self, state):
        def mutate(engine):
            engine.reg_ready[_live_phys(engine)] += 0.5
        assert _changes(state, mutate)

    def test_rob_one_entry_longer_with_the_same_prefix(self, state):
        # the ROB ring holds at most rob_size cycles: the restored
        # window is the longer one
        def mutate(engine):
            engine.set_windows(engine.rob_commits[:-1], engine.iq_issues)
        assert _changes(state, mutate)

    def test_rob_tail_moved_to_the_issue_queue_head(self, state):
        # the concatenated float buffers stay the same; only the
        # fields' framing tells the two states apart (both leave the
        # IQ's oldest entry out, so its ring has room for one more)
        engine = _engine(state)
        rob, iq = engine.rob_commits, engine.iq_issues
        engine.set_windows(rob, iq[1:])
        before = snapshot.pipeline_digest(engine)
        engine.set_windows(rob[:-1], rob[-1:] + iq[1:])
        after = snapshot.pipeline_digest(engine)
        assert before is not None and after is not None
        assert before != after

    def test_free_list_order(self, state):
        def mutate(engine):
            free = engine.rf.free_list
            engine.rf.set_queues(free[-1:] + free[:-1],
                                 engine.rf.pending_free)
        assert _changes(state, mutate)

    def test_one_predictor_counter(self, state):
        def mutate(engine):
            counters = engine.predictor.counters
            counters[5] = (counters[5] + 1) % 4
        assert _changes(state, mutate)

    def test_one_empty_btb_slot_filled(self, state):
        def mutate(engine):
            btb = engine.predictor.btb
            slot = btb.index(None)
            btb[slot] = (slot << 2, 0x1_0000)
        assert _changes(state, mutate)

    def test_one_occupied_btb_slot_retargeted(self, state):
        def mutate(engine):
            btb = engine.predictor.btb
            slot = next(i for i, e in enumerate(btb) if e is not None)
            pc, target = btb[slot]
            btb[slot] = (pc, target + 4)
        assert _changes(state, mutate)

    @pytest.mark.parametrize("name", ["l1i", "l1d", "l2"])
    def test_cache_line_lru(self, state, name):
        def mutate(engine):
            _valid_line(getattr(engine, name)).lru += 1
        assert _changes(state, mutate)

    def test_cache_line_byte(self, state):
        def mutate(engine):
            _valid_line(engine.l1d).data[3] ^= 0x10
        assert _changes(state, mutate)

    def test_valid_lsq_entry(self, state):
        def mutate(engine):
            entry = next(e for e in engine.lsq.entries if e.valid)
            entry.data ^= 1
        assert _changes(state, mutate)


class TestDeadStateLeavesDigest:
    def test_free_register_value_and_readiness(self, state):
        def mutate(engine):
            phys = engine.rf.free_list[0]
            assert engine.rf.state[phys] == FREE
            engine.rf.values[phys] ^= 0xFF
            engine.reg_ready[phys] += 100.0
        assert not _changes(state, mutate)

    def test_invalid_line_contents(self, state):
        engine = _engine(state)
        line = _valid_line(engine.l1d)
        line.valid = False
        before = snapshot.pipeline_digest(engine)
        line.data[:] = bytes(len(line.data))
        line.tag ^= 1
        line.lru += 7
        line.dirty = not line.dirty
        assert snapshot.pipeline_digest(engine) == before

    def test_invalid_lsq_slot(self, state):
        def mutate(engine):
            entry = next(e for e in engine.lsq.entries if not e.valid)
            entry.addr ^= 0x40
            entry.data ^= 0x1234
            entry.old_data = b"\x01\x02"
            entry.commit_cycle += 3.0
        assert not _changes(state, mutate)

    def test_tainted_line_withholds_the_digest(self, state):
        engine = _engine(state)
        _valid_line(engine.l2).taint = {0}
        assert snapshot.pipeline_digest(engine) is None


def test_previous_schema_store_is_rebuilt_not_loaded(tmp_path,
                                                     monkeypatch):
    """A store pickled under the previous schema (no liveness oracle)
    sits where a current store would be found: it is discarded and
    rebuilt."""
    current = snapshot.SNAPSHOT_SCHEMA_VERSION
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    checkpoint_store.cache_clear()
    try:
        fresh = checkpoint_store("crc32", CONFIG)
        (path,) = tmp_path.glob("checkpoints-crc32-*-pipeline-*.pkl")
        stale = pickle.loads(path.read_bytes())
        stale.schema = current - 1
        stale.digests = {n: "stale" for n in stale.digests}
        stale.liveness = None
        snapshot.save_store(path, stale)
        checkpoint_store.cache_clear()
        rebuilt = checkpoint_store("crc32", CONFIG)
    finally:
        checkpoint_store.cache_clear()
    assert rebuilt.schema == current
    assert rebuilt.digests == fresh.digests
    assert rebuilt.liveness is not None
    assert pickle.loads(path.read_bytes()).schema == current
