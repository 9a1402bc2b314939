"""Cycle-level differential traces: golden vs faulty, step by step.

:mod:`repro.obs.tracing` tells the flip's life story in four coarse
events; this module records the *state* story.  One capture forks the
faulty run of campaign run ``(seed, index)`` from the stored golden run
(the golden checkpoint before the fault, as an untraced injection run
restores it) with a recorder as the run's observer, which keeps a window
of architectural snapshots from the injection and from the first
crossing.  Up to the injection the faulty run *is* the golden run, so a
golden replay (:func:`repro.injectors.golden.replay_golden`), resumed
from the latest golden checkpoint before the window, supplies the
steps before the injection for both sides, and the golden side of
every recorded step.  The capture emits per-step *diff frames*:
changed registers (old -> new), PC, the touched memory word, pipeline
structure deltas on the microarchitectural engine, and phase /
kernel-mode annotations.

Frames are self-contained: each carries the full golden register file
plus the sparse faulty diff, so replaying the diff onto the golden
state reconstructs the faulty architectural state exactly (the
``digest`` field proves it, and the round-trip test pins it).

Captures are expensive (two windowed simulations), so every payload
lands in a versioned ``trace-<stem>-<seed>-<index>.json`` sidecar and
:func:`load_or_capture` memoizes through it — a drill-down is
simulated at most once.  The renderers (``repro trace-fault --diff``,
the observatory's ``/diff`` route, the dashboard's per-run sections)
all read the same payload.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .profiles import N_PHASES, phase_of
from .sidecars import read_trace as load_diff
from .sidecars import trace_path as trace_sidecar_path
from .tracing import FaultTracer, _format_cycle

__all__ = [
    "DEFAULT_AFTER",
    "DEFAULT_BEFORE",
    "TRACE_DIFF_SCHEMA_VERSION",
    "capture_diff",
    "default_stem",
    "load_diff",
    "load_or_capture",
    "render_diff",
    "save_diff",
    "state_digest",
    "trace_sidecar_path",
]

#: bump when the frame/payload shape changes; loaders reject mismatches.
#: 2: pvf/svf timelines stamp the outcome at the run's final
#: dynamic-instruction count; 3: exactly ``before`` golden frames ahead
#: of the injection
TRACE_DIFF_SCHEMA_VERSION = 3

#: window bounds in steps (committed instructions): ``before`` ahead of
#: the injection, ``after`` behind each anchor
DEFAULT_BEFORE = 8
DEFAULT_AFTER = 24


def state_digest(pc: int, regs) -> str:
    """Canonical digest of one architectural snapshot (pc + registers).

    Computed from the *live faulty engine* at capture time; a reader
    that applies a frame's register diff onto its ``golden_regs`` and
    re-digests proves the diff reconstructs the faulty state exactly.
    """
    blob = repr((int(pc), tuple(int(r) for r in regs))).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# per-step state snapshots (architectural view of either engine)
# ---------------------------------------------------------------------------
def _pipeline_state(engine, step: int) -> dict:
    rf = engine.rf
    values, rename = rf.values, rf.rename_map
    mem = engine.pending_mem
    if mem is not None:
        mem = ([mem[0], mem[1], mem[2], mem[3]] if mem[0] == "store"
               else [mem[0], mem[1], mem[2], None])
    return {
        "step": step,
        "cycle": engine.fetch_time,
        "pc": engine.ms.pc,
        "in_kernel": engine.ms.in_kernel,
        "regs": tuple(values[rename[i]]
                      for i in range(engine.regs_meta.count)),
        "mem": mem,
        "structs": {
            "rf_live": rf.live_count,
            "rf_tainted": len(rf.tainted),
            "lsq": engine.lsq.valid_count,
            "l1i_lines": engine.l1i.valid_lines,
            "l1d_lines": engine.l1d.valid_lines,
            "l2_lines": engine.l2.valid_lines,
        },
    }


def _functional_state(engine, step: int) -> dict:
    mem = engine.last_mem
    if mem is not None:
        op, addr, nbytes = mem
        try:
            value = engine.memory.read_int(addr, nbytes)
        except Exception:
            value = None
        mem = [op, addr, nbytes, value]
    return {
        "step": step,
        "cycle": float(step),
        "pc": engine.ms.pc,
        "in_kernel": engine.ms.in_kernel,
        "regs": tuple(engine.regs),
        "mem": mem,
        "structs": None,
    }


# ---------------------------------------------------------------------------
# faulty-pass recorders (engine observers that also collect the trace
# timeline; must NEVER raise — the run loops wrap any exception in a
# ContainmentError).  They record from the injection on: before it, the
# faulty run is the golden run, and the golden pass supplies the frames.
# ---------------------------------------------------------------------------
class _FunctionalRecorder(FaultTracer):
    """Window recorder for the functional engines.

    Architectural (pvf/svf) faults cross at birth, so both anchors
    coincide on the step their action fires; the recorder keeps that
    step and the ``after`` steps behind it.
    """

    def __init__(self, after: int) -> None:
        super().__init__()
        self.after = after
        self.frames: dict = {}
        self.marks: dict = {}
        self._record_until = -1

    def step(self, engine) -> None:
        step = engine.executed - 1
        if "injected" not in self.marks:
            counters = engine._counters
            if not engine._actions or any(
                    counters.get(a.counter, 0) <= a.when
                    for a in engine._actions):
                return
            self.marks["injected"] = self.marks["crossed"] = step
            self._record_until = step + self.after
        if step <= self._record_until:
            self.frames[step] = _functional_state(engine, step)


class _PipelineRecorder(FaultTracer):
    """Window recorder for the pipeline engine.

    Injection and crossing can be far apart (the latent hardware
    phase), so the recorder keeps ``after`` steps behind each anchor:
    the window at the injection, another at a later crossing, and a
    two-attribute-read watch in between.  Each anchor is the step in
    progress when the flip lands or first crosses, marked as the
    engine reports it (``landed``/``crossed``), so a run that ends
    inside that step keeps it; a step marks an anchor the engine
    reported before the first step.
    """

    def __init__(self, after: int) -> None:
        super().__init__()
        self.after = after
        self.frames: dict = {}
        self.marks: dict = {}
        self._record_until = -1
        #: the step in progress, once a step has told it
        self._current: "int | None" = None

    def _mark(self, kind: str, step: int) -> None:
        self.marks[kind] = step
        self._record_until = max(self._record_until, step + self.after)

    def _anchor(self, kind: str) -> None:
        if kind not in self.marks and self._current is not None:
            self._mark(kind, self._current)

    def landed(self, cycle: float, detail: str) -> None:
        super().landed(cycle, detail)
        self._anchor("injected")

    def crossed(self, cycle: float, detail: str) -> None:
        super().crossed(cycle, detail)
        self._anchor("crossed")

    def step(self, engine) -> None:
        step = engine.instructions - 1
        self._current = step + 1
        if "injected" not in self.marks:
            if not engine.fault_applied:
                return
            self._mark("injected", step)
        if "crossed" not in self.marks and engine.crossing is not None:
            self._mark("crossed", step)
        if step <= self._record_until:
            self.frames[step] = _pipeline_state(engine, step)


# ---------------------------------------------------------------------------
# golden windowed pass (a golden replay over the faulty pass's steps)
# ---------------------------------------------------------------------------
class _GoldenProbe:
    """Record exactly the faulty pass's steps on a fault-free engine."""

    def __init__(self, needed, state_fn, functional: bool) -> None:
        self.needed = frozenset(needed)
        self.frames: dict = {}
        self._state = state_fn
        self._functional = functional

    def step(self, engine) -> None:
        functional = self._functional
        step = (engine.executed if functional else engine.instructions) - 1
        if step in self.needed:
            self.frames[step] = self._state(engine, step)


def _golden_frames(workload: str, config_name: str, hardened: bool,
                   needed, engine_kind: str) -> dict:
    """Replay the golden run over exactly the *needed* steps, from the
    latest checkpoint before the first to the end of the last."""
    if not needed:
        return {}
    from ..injectors.golden import replay_golden

    pipeline = engine_kind == "pipeline"
    probe = _GoldenProbe(
        needed, _pipeline_state if pipeline else _functional_state,
        functional=not pipeline)
    replay_golden(workload, config_name, engine=engine_kind,
                  hardened=hardened, observer=probe, start=min(needed),
                  stop=max(needed))
    return probe.frames


# ---------------------------------------------------------------------------
# capture: faulty pass + golden pass -> diff frames
# ---------------------------------------------------------------------------
def capture_diff(injector: str, workload: str, config_name: str,
                 seed: int, index: int = 0,
                 structure: "str | None" = None,
                 model: "str | None" = None, hardened: bool = False,
                 before: int = DEFAULT_BEFORE,
                 after: int = DEFAULT_AFTER) -> dict:
    """Capture one run's golden-vs-faulty differential trace.

    The faulty pass replays campaign run ``(seed, index)`` as
    :func:`repro.obs.tracing.trace_run` does, but forked from the
    golden run: it restores the golden checkpoint before the fault, as
    an untraced run does, and a recorder as the run's observer keeps
    the injection step and the *after* steps behind it (and behind a
    later crossing).  Until the fault lands the faulty run is the
    golden run, so the golden pass supplies the *before* steps ahead of
    the injection for both sides, and the golden side of every
    recorded step.  Returns the versioned JSON payload.
    """
    from ..injectors.golden import STORE_ENGINES, golden_run
    from ..isa.registers import register_set
    from ..uarch.config import config_by_name
    from .tracing import _replay

    recorder = (_PipelineRecorder if injector == "gefin"
                else _FunctionalRecorder)(after)
    # validates the injector and its target before anything runs
    trace, result = _replay(injector, workload, config_name, seed,
                            index, hardened, recorder, fastpath=None,
                            structure=structure, model=model)
    engine_kind = STORE_ENGINES[injector]
    config = config_by_name(config_name)
    golden = golden_run(workload, config_name, hardened=hardened)
    unit = "cycle" if injector == "gefin" else "instruction"
    injected = recorder.marks.get("injected")
    prior = (range(max(0, injected - before), injected)
             if injected is not None else ())
    golden_frames = _golden_frames(workload, config_name, hardened,
                                   set(prior) | set(recorder.frames),
                                   engine_kind)
    faulty_frames = {step: golden_frames[step] for step in prior}
    faulty_frames.update(recorder.frames)

    regs_meta = register_set(config.isa)
    t_max = golden.cycles if unit == "cycle" \
        else float(golden.instructions)
    frames = []
    for step in sorted(faulty_frames):
        faulty = faulty_frames[step]
        gold = golden_frames.get(step)
        regs_diff = {}
        if gold is not None:
            for i, (gv, fv) in enumerate(zip(gold["regs"],
                                             faulty["regs"])):
                if gv != fv:
                    regs_diff[str(i)] = [gv, fv]
        structs = None
        if faulty["structs"] is not None:
            structs = {"faulty": faulty["structs"],
                       "golden": gold["structs"] if gold else None}
        frames.append({
            "step": step,
            "cycle": faulty["cycle"],
            "golden_cycle": gold["cycle"] if gold else None,
            "pc": faulty["pc"],
            "golden_pc": gold["pc"] if gold else None,
            "in_kernel": faulty["in_kernel"],
            "golden_in_kernel": gold["in_kernel"] if gold else None,
            "phase": phase_of(
                faulty["cycle"] if unit == "cycle" else float(step),
                t_max, N_PHASES),
            "regs": regs_diff,
            "golden_regs": list(gold["regs"]) if gold else None,
            "mem": {"faulty": faulty["mem"],
                    "golden": gold["mem"] if gold else None},
            "structs": structs,
            "marks": sorted(kind for kind, at in recorder.marks.items()
                            if at == step),
            "digest": state_digest(faulty["pc"], faulty["regs"]),
        })

    from dataclasses import asdict

    return {
        "schema": TRACE_DIFF_SCHEMA_VERSION,
        "kind": "trace-diff",
        "injector": injector,
        "workload": workload,
        "config": config_name,
        "structure": structure,
        "model": model,
        "hardened": hardened,
        "seed": seed,
        "index": index,
        "unit": unit,
        "window": {"before": before, "after": after},
        "anchors": {"injected": recorder.marks.get("injected"),
                    "crossed": recorder.marks.get("crossed")},
        "t_max": t_max,
        "n_phases": N_PHASES,
        "reg_names": [regs_meta.name(i)
                      for i in range(regs_meta.count)],
        "frames": frames,
        "outcome": asdict(result),
        "trace": trace.to_json(),
        "rendered": trace.render(),
    }


# ---------------------------------------------------------------------------
# the sidecar store (memoization: simulate at most once)
# ---------------------------------------------------------------------------
def default_stem(injector: str, workload: str, config_name: str,
                 structure: "str | None" = None,
                 model: "str | None" = None,
                 hardened: bool = False) -> str:
    """Descriptive sidecar stem for CLI captures (the observatory
    uses the campaign id instead)."""
    parts = [injector, workload, config_name]
    target = structure or model
    if target:
        parts.append(target)
    if hardened:
        parts.append("ft")
    return "-".join(parts)


def save_diff(payload: dict, path: "Path | str") -> None:
    from ..injectors.engine import atomic_write_text

    atomic_write_text(path, json.dumps(payload, sort_keys=True))


def load_or_capture(injector: str, workload: str, config_name: str,
                    seed: int, index: int = 0, *,
                    structure: "str | None" = None,
                    model: "str | None" = None,
                    hardened: bool = False,
                    before: int = DEFAULT_BEFORE,
                    after: int = DEFAULT_AFTER,
                    cache_path: "Path | str | None" = None,
                    stem: "str | None" = None) -> tuple:
    """Memoized capture front door: ``(payload, cached)``.

    A warm sidecar short-circuits both simulation passes; a cold one
    captures once and persists atomically, so concurrent callers race
    benignly.
    """
    stem = stem or default_stem(injector, workload, config_name,
                                structure=structure, model=model,
                                hardened=hardened)
    path = trace_sidecar_path(stem, seed, index, cache_path)
    payload = load_diff(path)
    if payload is not None:
        return payload, True
    payload = capture_diff(injector, workload, config_name, seed,
                           index=index, structure=structure,
                           model=model, hardened=hardened,
                           before=before, after=after)
    save_diff(payload, path)
    return payload, False


# ---------------------------------------------------------------------------
# ANSI rendering (``repro trace-fault --diff``)
# ---------------------------------------------------------------------------
def _hl(text: str, mode: str) -> str:
    if mode == "off":
        return text
    if mode == "256":
        return f"\x1b[38;5;196m{text}\x1b[0m"
    return f"\x1b[1;31m{text}\x1b[0m"


def _fmt_mem(access) -> str:
    if not access:
        return "-"
    op, addr, nbytes, value = access
    text = f"{op} {addr:#010x} x{nbytes}"
    if value is not None:
        text += f" = {value:#x}"
    return text


def frame_diverges(frame: dict) -> bool:
    """Whether a frame shows any golden-vs-faulty divergence."""
    if frame["regs"]:
        return True
    if frame["golden_pc"] is not None \
            and frame["golden_pc"] != frame["pc"]:
        return True
    if frame["mem"]["faulty"] != frame["mem"]["golden"]:
        return True
    structs = frame.get("structs")
    if structs and structs.get("golden") is not None \
            and structs["faulty"] != structs["golden"]:
        return True
    return False


def render_diff(payload: dict, color="off") -> str:
    """Render one diff payload as ANSI/plain text, changed fields
    highlighted (*color* from ``resolve_color_mode``)."""
    # not at module level: dashboard's imports (repro.core, then the
    # injectors) load repro.obs, which loads this module
    from .dashboard import _coerce_mode

    mode = _coerce_mode(color)
    target = payload.get("structure") or payload.get("model") or "-"
    head = (f"trace diff: {payload['injector']}:{payload['workload']}"
            f"@{payload['config']}/{target} "
            f"seed={payload['seed']} index={payload['index']}")
    lines = [head, "=" * len(head)]
    unit = payload["unit"]
    window = payload["window"]
    lines.append(f"window     : {window['before']} before / "
                 f"{window['after']} after ({unit} steps)")
    anchors = payload["anchors"]
    anchor_parts = [f"{kind} @ step {anchors[kind]}"
                    for kind in ("injected", "crossed")
                    if anchors.get(kind) is not None]
    lines.append("anchors    : "
                 + (", ".join(anchor_parts) if anchor_parts
                    else "none (fault never applied)"))
    outcome = payload["outcome"]
    diverging = sum(1 for frame in payload["frames"]
                    if frame_diverges(frame))
    outcome_text = outcome["outcome"]
    if outcome.get("crash_kind"):
        outcome_text += f" ({outcome['crash_kind']})"
    lines.append(f"outcome    : {outcome_text} — "
                 f"{len(payload['frames'])} frames, "
                 f"{diverging} diverging")
    if not payload["frames"]:
        lines.append("frames     : none recorded")
        return "\n".join(lines)
    lines.append("frames     :")
    names = payload.get("reg_names") or []
    step_width = max(len(str(frame["step"]))
                     for frame in payload["frames"])
    for frame in payload["frames"]:
        marks = (f"  [{', '.join(frame['marks'])}]"
                 if frame["marks"] else "")
        mode_text = "kernel" if frame["in_kernel"] else "user"
        head = (f"  @{frame['step']:>{step_width}}  {unit} "
                f"{_format_cycle(frame['cycle'])}  "
                f"pc {frame['pc']:#010x}  P{frame['phase']} "
                f"{mode_text}")
        if marks:
            head += _hl(marks, mode)
        if not frame_diverges(frame):
            lines.append(head + "  (no divergence)")
            continue
        lines.append(head)
        if frame["golden_pc"] is not None \
                and frame["golden_pc"] != frame["pc"]:
            lines.append("      pc      " + _hl(
                f"{frame['golden_pc']:#010x} -> {frame['pc']:#010x}",
                mode))
        for index_str in sorted(frame["regs"], key=int):
            old, new = frame["regs"][index_str]
            reg = int(index_str)
            name = names[reg] if reg < len(names) else f"r{reg}"
            lines.append(f"      {name:<7} "
                         + _hl(f"{old:#x} -> {new:#x}", mode))
        faulty_mem = frame["mem"]["faulty"]
        golden_mem = frame["mem"]["golden"]
        if faulty_mem or golden_mem:
            text = (f"      mem     golden {_fmt_mem(golden_mem)}  "
                    f"faulty {_fmt_mem(faulty_mem)}")
            lines.append(_hl(text, mode)
                         if faulty_mem != golden_mem else text)
        structs = frame.get("structs")
        if structs and structs.get("golden"):
            changed = [
                f"{key} {structs['golden'][key]}"
                f"->{structs['faulty'][key]}"
                for key in sorted(structs["faulty"])
                if structs["faulty"][key] != structs["golden"][key]]
            if changed:
                lines.append("      structs "
                             + _hl(", ".join(changed), mode))
    return "\n".join(lines)
