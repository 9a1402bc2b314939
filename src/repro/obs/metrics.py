"""Lightweight metrics registry: counters, gauges, histograms, timers.

The simulator's hot paths (the pipeline inner loop, the per-run
injector workers) must stay metric-free unless the user opts in, so
enablement follows the same pattern as the event log: the
``REPRO_METRICS`` environment variable turns the registry on
(``1``/``yes``/``true``/``on``), and a disabled registry hands out
shared *null instruments* whose mutators are no-ops — instrumentation
sites never need their own guards.

Instruments:

* :class:`Counter` — monotonically increasing count (``inc``).
* :class:`Gauge` — last-write-wins scalar (``set``).
* :class:`Histogram` — fixed bucket boundaries chosen at creation;
  ``observe`` bins a sample, ``percentile`` interpolates within the
  winning bucket.  Boundaries are upper-inclusive edges; samples past
  the last edge land in a ``+inf`` overflow bucket.
* :class:`Timer` — wall-clock accumulator (``time()`` context
  manager), tracking call count and total seconds.

A :class:`MetricsRegistry` owns instruments by name and serialises
them with :meth:`~MetricsRegistry.snapshot` /
:meth:`~MetricsRegistry.from_snapshot` (a lossless round-trip), which
is how campaign metrics reach the ``events.jsonl`` stream and the
per-campaign ``*-metrics.json`` sidecar files.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

#: what an on/off environment switch reads as on, and as off
TRUTHY = frozenset({"1", "yes", "true", "on"})
FALSY = frozenset({"0", "false", "no", "off", ""})

#: visibility-latency histogram edges, in simulated cycles
LATENCY_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                   500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0,
                   50_000.0)
#: wall-time histogram edges, in seconds
SECONDS_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                   10.0, 30.0, 60.0, 300.0)

# Checkpoint fast-path counters (see :mod:`repro.uarch.snapshot`):
# how often a run started from a restored checkpoint, how much golden
# prefix it skipped, how often the early-Masked exit fired (a
# functional run's golden digest or, at injection, the dead-state exit
# or a liveness record; digest exits and oracle exits are also counted
# on their own), and
# how often a latent flip jumped along the golden run to its first
# read, over how many instructions.
FASTPATH_RESTORES = "fastpath.restores"
FASTPATH_CYCLES_SKIPPED = "fastpath.cycles_skipped"
FASTPATH_INSTRUCTIONS_SKIPPED = "fastpath.instructions_skipped"
FASTPATH_EARLY_EXITS = "fastpath.early_exits"
FASTPATH_INSTRUCTIONS_SAVED = "fastpath.instructions_saved"
FASTPATH_DIGEST_EXITS = "fastpath.digest_exits"
FASTPATH_ORACLE_EXITS = "fastpath.oracle_exits"
FASTPATH_JUMPS = "fastpath.jumps"
FASTPATH_INSTRUCTIONS_JUMPED = "fastpath.instructions_jumped"

# Batched bit-parallel engine counters (see :mod:`repro.uarch.batch`):
# batches executed, lanes packed into them, lanes retired early by the
# reconvergence scan, lanes evicted to the scalar path, and campaigns
# that requested batching but fell back to scalar execution.
BATCH_BATCHES = "engine.batch_batches"
BATCH_LANES_PACKED = "engine.batch_lanes_packed"
BATCH_EARLY_RETIRES = "engine.batch_early_retires"
BATCH_SCALAR_EVICTIONS = "engine.batch_scalar_evictions"
BATCH_FALLBACKS = "engine.batch_fallbacks"


def env_flag(name: str, default: bool) -> bool:
    """Read an on/off environment switch: a truthy value is True, a
    falsy one (the empty string too) is False, and an unset variable
    or any other value gives *default*."""
    env = os.environ.get(name, "").strip().lower()
    if name not in os.environ or env not in TRUTHY | FALSY:
        return default
    return env in TRUTHY


def metrics_enabled(explicit: "bool | None" = None) -> bool:
    """Resolve the metrics switch: argument > ``REPRO_METRICS`` > off."""
    if explicit is not None:
        return explicit
    return env_flag("REPRO_METRICS", False)


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------
class Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-boundary histogram with percentile estimation."""

    __slots__ = ("boundaries", "counts", "count", "sum")

    def __init__(self, boundaries) -> None:
        edges = tuple(float(b) for b in boundaries)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("boundaries must be strictly increasing "
                             "and non-empty")
        self.boundaries = edges
        self.counts = [0] * (len(edges) + 1)   # last = overflow
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, edge in enumerate(self.boundaries):
            if value <= edge:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimate the *p*-th percentile (0..100) by interpolation.

        The sample is assumed uniform within its bucket; the overflow
        bucket reports its lower edge (the estimate is a floor there).
        """
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        if not self.count:
            return 0.0
        rank = p / 100.0 * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            if seen + n >= rank and n:
                lo = self.boundaries[i - 1] if i else 0.0
                if i >= len(self.boundaries):
                    return self.boundaries[-1]
                hi = self.boundaries[i]
                frac = (rank - seen) / n
                return lo + frac * (hi - lo)
            seen += n
        return self.boundaries[-1]


class Timer:
    """Wall-clock accumulator: total seconds and call count."""

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    @contextmanager
    def time(self):
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.count += 1
            self.total += time.perf_counter() - started

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds


# ---------------------------------------------------------------------------
# null instruments (disabled registry)
# ---------------------------------------------------------------------------
class _NullInstrument:
    __slots__ = ()
    value = 0
    count = 0
    total = 0.0
    sum = 0.0
    mean = 0.0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def add(self, seconds: float) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0

    @contextmanager
    def time(self):
        yield self


_NULL = _NullInstrument()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class MetricsRegistry:
    """Named instruments + snapshot (de)serialisation."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}
        self._timers: dict = {}

    @classmethod
    def resolve(cls, explicit: "bool | None" = None) -> "MetricsRegistry":
        """Build a registry honouring ``REPRO_METRICS``."""
        return cls(enabled=metrics_enabled(explicit))

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL
        if name not in self._counters:
            self._counters[name] = Counter()
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL
        if name not in self._gauges:
            self._gauges[name] = Gauge()
        return self._gauges[name]

    def histogram(self, name: str,
                  boundaries=LATENCY_BUCKETS) -> Histogram:
        if not self.enabled:
            return _NULL
        if name not in self._histograms:
            self._histograms[name] = Histogram(boundaries)
        return self._histograms[name]

    def timer(self, name: str) -> Timer:
        if not self.enabled:
            return _NULL
        if name not in self._timers:
            self._timers[name] = Timer()
        return self._timers[name]

    # ------------------------------------------------------------------
    # (de)serialisation
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serialisable dump of every instrument."""
        return {
            "counters": {k: c.value
                         for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value
                       for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: {"boundaries": list(h.boundaries),
                    "counts": list(h.counts),
                    "count": h.count, "sum": h.sum}
                for k, h in sorted(self._histograms.items())},
            "timers": {k: {"count": t.count, "total": t.total}
                       for k, t in sorted(self._timers.items())},
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        reg = cls(enabled=True)
        for name, value in data.get("counters", {}).items():
            reg.counter(name).inc(value)
        for name, value in data.get("gauges", {}).items():
            reg.gauge(name).set(value)
        for name, dump in data.get("histograms", {}).items():
            hist = reg.histogram(name, dump["boundaries"])
            hist.counts = list(dump["counts"])
            hist.count = dump["count"]
            hist.sum = dump["sum"]
        for name, dump in data.get("timers", {}).items():
            timer = reg.timer(name)
            timer.count = dump["count"]
            timer.total = dump["total"]
        return reg


# ---------------------------------------------------------------------------
# Prometheus text exposition (version 0.0.4)
# ---------------------------------------------------------------------------
def _prom_name(name: str, namespace: str = "repro") -> str:
    """Sanitise a registry name into a Prometheus metric name."""
    cleaned = "".join(c if c.isalnum() or c == "_" else "_"
                      for c in name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"{namespace}_{cleaned}" if namespace else cleaned


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_prometheus(snapshot: dict,
                      namespace: str = "repro") -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dump as Prometheus
    text exposition format (``text/plain; version=0.0.4``).

    Counters gain the conventional ``_total`` suffix, histograms
    become cumulative ``_bucket{le=...}`` series with ``_sum`` and
    ``_count``, and timers are exposed as summaries in seconds.  The
    observatory's ``/metrics`` endpoint concatenates one of these per
    registry (the process-wide ``REPRO_METRICS`` snapshot plus the
    server's own counters).
    """
    lines = []
    for name, value in snapshot.get("counters", {}).items():
        metric = _prom_name(name, namespace)
        if not metric.endswith("_total"):
            metric += "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        metric = _prom_name(name, namespace)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, dump in snapshot.get("histograms", {}).items():
        metric = _prom_name(name, namespace)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for edge, count in zip(dump["boundaries"], dump["counts"]):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{_prom_value(float(edge))}"}} '
                         f"{cumulative}")
        lines.append(f'{metric}_bucket{{le="+Inf"}} {dump["count"]}')
        lines.append(f"{metric}_sum {_prom_value(float(dump['sum']))}")
        lines.append(f"{metric}_count {dump['count']}")
    for name, dump in snapshot.get("timers", {}).items():
        metric = _prom_name(name, namespace) + "_seconds"
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_sum {_prom_value(float(dump['total']))}")
        lines.append(f"{metric}_count {dump['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


_default: "MetricsRegistry | None" = None


def get_registry() -> MetricsRegistry:
    """Process-wide default registry (resolved from the env once)."""
    global _default
    if _default is None:
        _default = MetricsRegistry.resolve()
    return _default


def set_registry(registry: "MetricsRegistry | None") -> None:
    """Swap the process-wide default (tests; ``None`` re-resolves)."""
    global _default
    _default = registry
