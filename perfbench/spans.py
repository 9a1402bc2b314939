"""In-memory span tracing around the program's public layer entry points.

The benchmark never edits ``src/``: it swaps each entry point for a
wrapper at the place its caller looks it up (a module global, or a
method on its class), records one span per call, and puts the original
back afterwards.  Spans are kept in memory as ``[name, start, end,
parent]`` rows and reduced once the traced pass ends.

A span's self time is its duration minus the durations of its direct
children.  The wrappers run on one thread, so children never overlap
and their durations are exactly the part of the parent they cover.  The
self times of all spans under one root therefore sum to the root's
duration.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

#: span name -> (layer, lookup sites).  A site is ``(module, attribute)``
#: where the attribute may be ``Class.method``.  Every site a caller
#: resolves at call time is listed, so no call slips past its span.
_INJECTOR_MODULES = ("repro.injectors.gefin", "repro.injectors.archinj",
                     "repro.injectors.llfi", "repro.injectors.batch")
LAYER_SITES = {
    "load_workload": ("workloads", [
        (m, "load_workload")
        for m in ("repro.injectors.golden",) + _INJECTOR_MODULES]),
    "golden_run": ("injectors.golden", [
        (m, "golden_run")
        for m in ("repro.injectors.golden", "repro.injectors.campaign")
        + _INJECTOR_MODULES]),
    "checkpoint_store": ("injectors.golden", [
        ("repro.injectors.golden", "checkpoint_store"),
        ("repro.injectors.batch", "checkpoint_store")]),
    "pipeline_run": ("uarch.pipeline", [
        ("repro.uarch.pipeline", "PipelineEngine.run")]),
    "functional_run": ("uarch.functional", [
        ("repro.uarch.functional", "FunctionalEngine.run")]),
    "batch_run": ("uarch.batch", [
        ("repro.uarch.batch", "BatchedFunctionalEngine.run")]),
    "fastpath_restore": ("uarch.snapshot", [
        ("repro.uarch.snapshot", "prepare_pipeline_fastpath"),
        ("repro.uarch.snapshot", "prepare_functional_fastpath"),
        ("repro.uarch.snapshot", "restore_functional"),
        ("repro.injectors.batch", "restore_functional")]),
    "state_digest": ("uarch.snapshot", [
        ("repro.uarch.snapshot", "pipeline_digest"),
        ("repro.uarch.snapshot", "functional_digest")]),
    "build_system_image": ("kernel.loader", [
        (m, "build_system_image")
        for m in ("repro.kernel.loader", "repro.uarch.functional")
        + _INJECTOR_MODULES]),
    "injection_run": ("injectors", [
        ("repro.injectors.campaign", "_one_gefin"),
        ("repro.injectors.campaign", "_one_pvf"),
        ("repro.injectors.campaign", "_one_svf"),
        ("repro.injectors.campaign", "run_one_injection"),
        ("repro.injectors.campaign", "run_one_pvf"),
        ("repro.injectors.campaign", "run_one_svf"),
        ("repro.injectors.batch", "_one_pvf_batch"),
        ("repro.injectors.batch", "_one_svf_batch"),
        ("repro.injectors.batch", "run_batched_pvf"),
        ("repro.injectors.batch", "run_batched_svf"),
        ("repro.injectors.batch", "run_one_pvf"),
        ("repro.injectors.batch", "run_one_svf")]),
    "run_sharded": ("injectors.engine", [
        ("repro.injectors.campaign", "run_sharded")]),
    "checkpoint_write": ("injectors.engine", [
        ("repro.injectors.engine", "atomic_write_text")]),
    "run_campaign": ("injectors.campaign", [
        ("repro.injectors.campaign", "run_campaign")]),
    "aggregate": ("core", [
        ("repro.core.weighting", "weighted_vulnerability"),
        ("repro.core.weighting", "weighted_fpm_rates")]),
    "emit": ("obs", [("repro.obs.events", "EventLog.emit")]),
}

#: the benchmark's own code between layer calls (root span name)
ROOT = "bench"


def _resolve(module: str, attr: str):
    """(owner object, attribute name) for a lookup site."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def self_times(spans) -> dict:
    """name -> summed self time (duration minus direct children)."""
    out: dict = defaultdict(float)
    for name, start, end, parent in spans:
        duration = end - start
        out[name] += duration
        if parent >= 0:
            out[spans[parent][0]] -= duration
    return dict(out)


def inclusive_times(spans) -> dict:
    """name -> summed duration of every span of that name."""
    out: dict = defaultdict(float)
    for name, start, end, _parent in spans:
        out[name] += end - start
    return dict(out)


def call_counts(spans) -> dict:
    out: dict = defaultdict(int)
    for name, *_rest in spans:
        out[name] += 1
    return dict(out)


class Tracer:
    """Records spans around the sites in *sites* (default
    :data:`LAYER_SITES`, same shape).

    ``counts`` accumulates simulated-work counters read from the
    engines' own state around each ``run`` call (instructions retired
    and cycles committed since the run began, which starts from the
    restored checkpoint on the fast path).
    """

    def __init__(self, clock=time.perf_counter, sites=None) -> None:
        self.clock = clock
        self.sites = LAYER_SITES if sites is None else sites
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.missing: list = []
        self._open: list = []
        self._saved: list = []

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._open.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """*fn* inside a span; *before(args)* -> token and
        *after(args, token)* read counters around a completed call."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                token = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, token)
                return result
            finally:
                end(index)

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------
    def _engine_counter(self, prefix: str, position, cycles=None):
        counts = self.counts

        def before(args):
            engine = args[0]
            return position(engine), (cycles(engine) if cycles else 0.0)

        def after(args, token):
            start_position, start_cycles = token
            counts[f"{prefix}.sim_instructions"] += \
                position(args[0]) - start_position
            if cycles is not None:
                counts[f"{prefix}.sim_cycles"] += \
                    cycles(args[0]) - start_cycles

        return before, after

    def install(self) -> None:
        """Swap every lookup site for its traced wrapper.

        A site the program no longer has is listed in ``missing`` and
        skipped; its time then counts toward the calling span.
        """
        hooks = {
            "pipeline_run": self._engine_counter(
                "pipeline", lambda e: e.instructions,
                lambda e: e.last_commit),
            "functional_run": self._engine_counter(
                "functional", lambda e: e.executed),
            "batch_run": self._engine_counter(
                "batch", lambda b: b._eng.executed),
        }
        for name, (_layer, sites) in self.sites.items():
            before, after = hooks.get(name, (None, None))
            for module, attr in sites:
                try:
                    owner, key = _resolve(module, attr)
                    original = owner.__dict__[key]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(f"{module}.{attr}")
                    continue
                self._saved.append((owner, key, original))
                setattr(owner, key,
                        self.wrap(name, original, before, after))

    def uninstall(self) -> None:
        """Put every original back (reverse order, so a site listed
        twice ends up with its true original)."""
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
