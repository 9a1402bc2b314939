"""Resilient sharded campaign execution.

Large injection campaigns (the paper draws 2,000 faults per target)
are the hot path of every figure, and the original runner had three
failure modes that made big campaigns fragile:

* a killed or racing process could leave a truncated cache file,
* one crashed pool worker poisoned the whole campaign, and
* an interrupted campaign restarted from zero.

This module fixes all three.  A campaign's ``n`` runs are split into
deterministic *shards* (the split depends only on ``n``, never on the
worker count, so a campaign interrupted at one parallelism resumes
correctly at another).  Shards execute on a
:class:`~concurrent.futures.ProcessPoolExecutor`; a shard whose worker
raises — or whose process dies and breaks the pool — is retried with
capped exponential backoff instead of aborting the campaign.  Every
completed shard is checkpointed atomically (``tempfile`` +
``os.replace``, without ``fsync``) into the cache directory, and a
re-invocation resumes from whatever checkpoints exist; one an OS
crash left unreadable is run again.  Because every run is deterministic
in ``(seed, index)``, a resumed campaign aggregates to byte-identical
results.

The module is deliberately generic: it knows nothing about injectors
or :class:`InjectionResult`; callers supply the per-task worker and
``encode``/``decode`` hooks for checkpoint (de)serialisation.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

from ..uarch.exceptions import ContainmentError

__all__ = [
    "Shard",
    "ShardFailure",
    "atomic_write_text",
    "clear_checkpoints",
    "plan_shards",
    "run_sharded",
    "write_containment_repro",
]

#: shard sizing: aim for ~16 shards per campaign so a resume never
#: loses more than ~6% of completed work, but never make shards so
#: large that a retry re-runs a huge slice
MAX_SHARD_SIZE = 128
TARGET_SHARDS = 16


# ---------------------------------------------------------------------------
# atomic file writes
# ---------------------------------------------------------------------------
def atomic_write_text(path: "Path | str", text: str) -> None:
    """Write *text* to *path* via a same-directory temp file + rename.

    A reader can never observe a partially written file, and two
    concurrent writers race benignly (last rename wins, both files
    are complete).  This is the only way cache files are created.
    Nothing is synced to disk: a killed process (even ``SIGKILL``)
    leaves the old file or the whole new one, while after an OS crash
    a cache file may read empty or garbled, and every reader then
    discards it and recomputes it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=path.name + ".", suffix=".tmp",
        delete=False)
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# shard planning
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Shard:
    """A contiguous ``[start, stop)`` slice of a campaign's run indices."""

    index: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def name(self) -> str:
        return f"shard-{self.start:06d}-{self.stop:06d}"


class ShardFailure(RuntimeError):
    """A shard kept failing after exhausting its retries."""


def default_shard_size(n: int) -> int:
    """Deterministic shard size for an *n*-run campaign.

    Depends only on *n* — never on worker count or machine — so that
    checkpoints written by an interrupted campaign line up exactly
    with the plan of the resuming invocation.
    """
    if n <= 0:
        return 1
    return max(1, min(MAX_SHARD_SIZE, -(-n // TARGET_SHARDS)))


def plan_shards(n: int, shard_size: int | None = None) -> list:
    """Split *n* runs into deterministic contiguous shards."""
    if n <= 0:
        return []
    size = shard_size if shard_size else default_shard_size(n)
    if size <= 0:
        raise ValueError("shard_size must be positive")
    return [Shard(index=i, start=start, stop=min(start + size, n))
            for i, start in enumerate(range(0, n, size))]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------
def _checkpoint_path(checkpoint_dir: Path, shard: Shard) -> Path:
    return checkpoint_dir / f"{shard.name}.json"


def _load_checkpoint(checkpoint_dir: Path, shard: Shard, decode):
    """Load one shard checkpoint, or ``None`` if absent/corrupt.

    A truncated or stale checkpoint is removed (tolerating the race
    where another process removes it first) and the shard re-runs.
    """
    path = _checkpoint_path(checkpoint_dir, shard)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except (ValueError, OSError):
        path.unlink(missing_ok=True)
        return None
    if not isinstance(data, list) or len(data) != len(shard):
        path.unlink(missing_ok=True)
        return None
    try:
        return [decode(entry) for entry in data]
    except (TypeError, ValueError, KeyError):
        path.unlink(missing_ok=True)
        return None


def _store_checkpoint(checkpoint_dir: Path, shard: Shard, results,
                      encode) -> None:
    """Best-effort checkpoint write.

    A concurrent campaign that already aggregated the same result may
    :func:`clear_checkpoints` this directory between the temp-file
    write and the rename; losing the checkpoint only costs a shard
    re-run on resume, so the vanished-directory race is tolerated.
    """
    try:
        atomic_write_text(_checkpoint_path(checkpoint_dir, shard),
                          json.dumps([encode(r) for r in results]))
    except FileNotFoundError:
        pass


def clear_checkpoints(checkpoint_dir: "Path | None") -> None:
    """Remove a campaign's shard checkpoints after a successful run."""
    if checkpoint_dir is not None:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------
def _execute_shard(payload):
    """Pool entry point: run one shard's tasks sequentially.

    Returns ``(results, wall_seconds)`` so the parent can account the
    shard's true in-worker wall time even across process boundaries.
    """
    worker, tasks = payload
    started = time.perf_counter()
    results = [worker(task) for task in tasks]
    return results, time.perf_counter() - started


def _backoff(attempt: int, base: float, cap: float) -> float:
    return min(cap, base * (2 ** max(0, attempt - 1)))


def write_containment_repro(repro_dir: "Path | str",
                            exc: ContainmentError,
                            label: str = "") -> Path:
    """Persist a :class:`ContainmentError` as a JSON repro file.

    The file carries the error plus its accumulated coordinate
    context; ``repro fuzz --replay`` re-executes it deterministically.
    """
    repro_dir = Path(repro_dir)
    digest = hashlib.sha256(
        json.dumps([str(exc), exc.context, label],
                   sort_keys=True, default=repr).encode()
    ).hexdigest()[:12]
    path = repro_dir / f"containment-{digest}.json"
    atomic_write_text(path, json.dumps({
        "kind": "containment",
        "label": label,
        "error": exc.args[0] if exc.args else str(exc),
        "context": exc.context,
    }, indent=2, sort_keys=True, default=repr))
    return path


class _Run:
    """State shared by the serial and pooled execution paths."""

    def __init__(self, tasks, *, checkpoint_dir, encode, decode,
                 events, progress, outcome_key, label, metrics=None,
                 repro_dir=None):
        self.tasks = tasks
        self.checkpoint_dir = checkpoint_dir
        self.repro_dir = repro_dir
        self.encode = encode or (lambda r: r)
        self.decode = decode or (lambda d: d)
        self.events = events
        self.progress = progress
        self.outcome_key = outcome_key
        self.label = label
        self.metrics = metrics
        self.results: dict = {}
        self.started = time.monotonic()

    def emit(self, kind: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(kind, campaign=self.label, **fields)

    def _advance(self, shard: Shard, shard_results) -> None:
        if self.progress is not None:
            outcomes = ([self.outcome_key(r) for r in shard_results]
                        if self.outcome_key else ())
            self.progress.advance(len(shard), outcomes)

    def resume(self, plan) -> list:
        """Adopt existing checkpoints; return the shards still to run."""
        pending = []
        for shard in plan:
            cached = (_load_checkpoint(self.checkpoint_dir, shard,
                                       self.decode)
                      if self.checkpoint_dir is not None else None)
            if cached is None:
                pending.append(shard)
            else:
                self.results[shard.index] = cached
                self._advance(shard, cached)
        return pending

    def complete(self, shard: Shard, shard_results,
                 wall: float = 0.0) -> None:
        self.results[shard.index] = shard_results
        if self.checkpoint_dir is not None:
            _store_checkpoint(self.checkpoint_dir, shard, shard_results,
                              self.encode)
        self.emit("shard_done", shard=shard.index, runs=len(shard),
                  wall=round(wall, 3),
                  elapsed=round(time.monotonic() - self.started, 3))
        if self.metrics is not None:
            from ..obs.metrics import SECONDS_BUCKETS

            self.metrics.histogram("engine.shard_seconds",
                                   SECONDS_BUCKETS).observe(wall)
            self.metrics.counter("engine.runs_completed").inc(
                len(shard))
        self._advance(shard, shard_results)

    def shard_tasks(self, shard: Shard):
        return self.tasks[shard.start:shard.stop]


def run_sharded(worker, tasks, *, workers: int = 1,
                shard_size: int | None = None,
                checkpoint_dir: "Path | None" = None,
                encode=None, decode=None,
                max_retries: int = 2,
                backoff_base: float = 0.25, backoff_cap: float = 4.0,
                events=None, progress=None, outcome_key=None,
                label: str = "campaign", metrics=None,
                repro_dir: "Path | None" = None) -> list:
    """Execute *tasks* through *worker* in resumable, retried shards.

    Returns the per-task results in task order.  When
    *checkpoint_dir* is given, completed shards are checkpointed
    there atomically and a subsequent call with the same plan resumes
    from them; pass ``None`` to run fully in memory (still sharded
    and retried).  *encode*/*decode* convert results to/from
    JSON-serialisable objects for the checkpoints.  A shard that
    keeps failing after *max_retries* retries raises
    :class:`ShardFailure` with the last worker exception chained.
    *metrics* (a :class:`repro.obs.metrics.MetricsRegistry`) receives
    shard wall times, completed-run and retry counters, and the
    campaign's aggregate runs/sec.

    Retries cover *transient* worker failures only.  A worker that
    raises :class:`ContainmentError` hit a deterministic simulator
    bug — a fault that escaped classification — so the error is
    re-raised immediately (retrying would burn the whole budget on
    the same failure), its coordinates are emitted to the event log
    as a ``containment_escape`` event, and a JSON repro file is
    written under *repro_dir* when given.
    """
    plan = plan_shards(len(tasks), shard_size)
    run = _Run(tasks, checkpoint_dir=checkpoint_dir, encode=encode,
               decode=decode, events=events, progress=progress,
               outcome_key=outcome_key, label=label, metrics=metrics,
               repro_dir=repro_dir)
    pending = run.resume(plan)
    run.emit("campaign_started", n=len(tasks), shards=len(plan),
             resumed=len(plan) - len(pending), workers=workers)

    if workers <= 1 or len(pending) <= 1:
        _run_serial(run, pending, worker, max_retries,
                    backoff_base, backoff_cap)
    else:
        _run_pooled(run, pending, worker, workers, max_retries,
                    backoff_base, backoff_cap)

    ordered = []
    for shard in plan:
        ordered.extend(run.results[shard.index])
    elapsed = time.monotonic() - run.started
    run.emit("campaign_finished", runs=len(ordered),
             elapsed=round(elapsed, 3))
    if metrics is not None and elapsed > 0:
        metrics.gauge("engine.runs_per_sec").set(
            len(ordered) / elapsed)
    if progress is not None:
        progress.finish()
    return ordered


def _retry_or_raise(run: _Run, shard: Shard, attempts: dict,
                    exc: BaseException, max_retries: int,
                    base: float, cap: float) -> None:
    """Account one failure; sleep the backoff or raise ShardFailure.

    :class:`ContainmentError` is deterministic — same (seed, index)
    coordinates, same escape — so it fails the campaign immediately
    with the repro coordinates in the event log, never retried.
    """
    if isinstance(exc, ContainmentError):
        run.emit("containment_escape", shard=shard.index,
                 error=exc.args[0] if exc.args else str(exc),
                 context=exc.context)
        if run.metrics is not None:
            run.metrics.counter("engine.containment_escapes").inc()
        if run.repro_dir is not None:
            path = write_containment_repro(run.repro_dir, exc,
                                           label=run.label)
            run.emit("containment_repro", shard=shard.index,
                     path=str(path))
        raise exc
    attempts[shard.index] = attempts.get(shard.index, 0) + 1
    attempt = attempts[shard.index]
    run.emit("shard_retry", shard=shard.index, attempt=attempt,
             error=repr(exc))
    if run.metrics is not None:
        run.metrics.counter("engine.shard_retries").inc()
    if attempt > max_retries:
        raise ShardFailure(
            f"shard {shard.index} ({shard.name}) of {run.label} failed "
            f"{attempt} times; last error: {exc!r}") from exc
    time.sleep(_backoff(attempt, base, cap))


def _run_serial(run: _Run, pending, worker, max_retries, base, cap):
    attempts: dict = {}
    queue = deque(pending)
    while queue:
        shard = queue.popleft()
        try:
            shard_results, wall = _execute_shard(
                (worker, run.shard_tasks(shard)))
        except Exception as exc:  # noqa: BLE001 — retried, then re-raised
            _retry_or_raise(run, shard, attempts, exc, max_retries,
                            base, cap)
            queue.appendleft(shard)
        else:
            run.complete(shard, shard_results, wall)


def _run_pooled(run: _Run, pending, worker, workers, max_retries,
                base, cap):
    """Wave-based pool execution.

    Each wave submits every pending shard to a fresh pool; shards
    whose future raises (including :class:`BrokenProcessPool` after a
    worker died) are collected and resubmitted next wave, so one
    crashed process costs a pool restart, not the campaign.
    """
    attempts: dict = {}
    remaining = list(pending)
    while remaining:
        wave, remaining = remaining, []
        with ProcessPoolExecutor(
                max_workers=min(workers, len(wave))) as pool:
            futures = {
                pool.submit(_execute_shard,
                            (worker, run.shard_tasks(shard))): shard
                for shard in wave}
            for future in as_completed(futures):
                shard = futures[future]
                try:
                    shard_results, wall = future.result()
                except Exception as exc:  # noqa: BLE001 — retried below
                    _retry_or_raise(run, shard, attempts, exc,
                                    max_retries, base, cap)
                    remaining.append(shard)
                else:
                    run.complete(shard, shard_results, wall)
