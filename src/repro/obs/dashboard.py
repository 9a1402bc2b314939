"""``repro dashboard``: the cross-layer vulnerability map.

Renders everything the attribution profiler and the campaign caches
already know — **without re-running any simulation** — in two forms:

* an ANSI/plain-text dashboard for the terminal, and
* a single self-contained HTML file (inline CSS + inline SVG, zero
  external requests, no JavaScript) suitable for CI artifacts.

Sections:

* structure x program-phase vulnerability heatmaps (per workload,
  from :func:`repro.obs.profiles.attribute_campaign`);
* bit-region vulnerability heatmaps (where in the entry word faults
  hurt);
* the FPM mix per structure (WD/WI/WOI/ESC — Fig. 5/6 style);
* the AVF/PVF/SVF/rPVF divergence table with opposite-direction
  pair flags and the miscorrelation ranking (Table III style, via
  :mod:`repro.core.divergence`);
* residency profiles (``profile-*.json`` sidecars, when present);
* campaign throughput/latency from ``events.jsonl`` (via
  :mod:`repro.obs.reporting`).
"""

from __future__ import annotations

import html
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from ..core.divergence import (METHODS, analyze_divergence,
                               gefin_structure_rows)
from ..core.report import render_sparkline, render_table
from . import sidecars
from .profiles import N_PHASES, N_REGIONS, attribute_campaign, phase_of
from .reporting import iter_events, report_data

#: density ramp shared by every text heatmap (index 0 = zero)
RAMP = " .:-=+*#%@"


# ---------------------------------------------------------------------------
# data assembly (reads sidecars and the event log; never simulates)
# ---------------------------------------------------------------------------
@dataclass
class Heatmap:
    """One labelled grid of vulnerability values in [0, 1]."""

    title: str
    row_labels: list
    col_labels: list
    values: list          # values[row][col]

    @property
    def peak(self) -> float:
        return max((v for row in self.values for v in row),
                   default=0.0)


@dataclass
class DashboardData:
    """Everything the renderers need, fully precomputed."""

    campaigns: list = field(default_factory=list)
    phase_heatmaps: list = field(default_factory=list)
    region_heatmaps: list = field(default_factory=list)
    #: {group label: {structure: {fpm: rate}}}
    fpm_mix: dict = field(default_factory=dict)
    divergence: "object | None" = None
    profiles: dict = field(default_factory=dict)
    #: differential-trace sidecar payloads (repro.obs.trace_diff)
    traces: list = field(default_factory=list)
    events_summary: "dict | None" = None
    n_phases: int = N_PHASES
    n_regions: int = N_REGIONS


def _group_label(key: tuple) -> str:
    workload, config_name, hardened = key
    return f"{workload}@{config_name}{'+ft' if hardened else ''}"


def build_dashboard(cache_path: "Path | str | None" = None,
                    events_path: "Path | str | None" = None,
                    n_phases: int = N_PHASES,
                    n_regions: int = N_REGIONS) -> DashboardData:
    """Assemble the dashboard from sidecars + the event log."""
    listing = sidecars.CacheListing(cache_path)
    campaigns = listing.campaigns()
    data = DashboardData(campaigns=campaigns,
                         profiles=listing.profiles(),
                         traces=listing.traces(),
                         n_phases=n_phases, n_regions=n_regions)

    for key, per_structure in sorted(
            gefin_structure_rows(campaigns).items()):
        label = _group_label(key)
        structures = sorted(per_structure)
        attributions = {s: attribute_campaign(per_structure[s],
                                              n_phases=n_phases,
                                              n_regions=n_regions)
                        for s in structures}
        data.phase_heatmaps.append(Heatmap(
            title=f"{label} — vulnerability by structure x "
                  f"program phase",
            row_labels=structures,
            col_labels=[f"P{i}" for i in range(n_phases)],
            values=[attributions[s].phase_vulnerability()
                    for s in structures]))
        data.region_heatmaps.append(Heatmap(
            title=f"{label} — vulnerability by structure x "
                  f"bit region (R0 = low bits)",
            row_labels=structures,
            col_labels=[f"R{i}" for i in range(n_regions)],
            values=[[cell["vulnerability"]
                     for cell in attributions[s].by_region()]
                    for s in structures]))
        data.fpm_mix[label] = {s: per_structure[s].fpm_rates()
                               for s in structures}

    data.divergence = analyze_divergence(campaigns)

    if events_path is not None and (str(events_path) == "-"
                                    or Path(events_path).exists()):
        data.events_summary = report_data(iter_events(events_path))
    return data


# ---------------------------------------------------------------------------
# ANSI / plain-text rendering
# ---------------------------------------------------------------------------
def resolve_color_mode(force: "bool | None" = None,
                       stream=None) -> str:
    """Pick the ANSI colour depth: ``"off"``, ``"8"`` or ``"256"``.

    Honours the ecosystem conventions the raw ``isatty`` check
    missed: a non-empty ``NO_COLOR`` disables colour outright (unless
    the user *explicitly* forced it on, which outranks the ambient
    default), ``TERM=dumb`` or an unset ``TERM`` disables it, and a
    ``TERM`` that does not advertise 256-colour support falls back to
    the 8-colour SGR palette instead of emitting raw 256-colour
    escapes the terminal cannot render.
    """
    term = os.environ.get("TERM", "")
    depth = "256" if "256" in term else "8"
    if force is False:
        return "off"
    if force is True:
        return depth
    if os.environ.get("NO_COLOR", "") != "":
        return "off"
    if not term or term == "dumb":
        return "off"
    stream = stream if stream is not None else sys.stdout
    if not getattr(stream, "isatty", lambda: False)():
        return "off"
    return depth


def _coerce_mode(color) -> str:
    """Accept legacy booleans next to the mode strings."""
    if color is True:
        return "256"
    if color is False or color is None:
        return "off"
    return color


def _cell_text(value: float, peak: float, mode: str) -> str:
    frac = value / peak if peak > 0 else 0.0
    glyph = RAMP[min(len(RAMP) - 1, round(frac * (len(RAMP) - 1)))]
    text = f"{glyph * 2}{100 * value:5.1f}%"
    if mode == "off" or frac <= 0:
        return text
    if mode == "256":
        # 256-colour ramp black -> red (232..: grayscale; 52/88/124/
        # 160/196: reds); keeps the default terminal palette intact
        reds = (52, 88, 124, 160, 196)
        code = reds[min(len(reds) - 1, int(frac * len(reds)))]
        return f"\x1b[38;5;{code}m{text}\x1b[0m"
    # 8-colour fallback: faint / normal / bold red carry the ramp
    sgr = "2;31" if frac < 1 / 3 else "31" if frac < 2 / 3 else "1;31"
    return f"\x1b[{sgr}m{text}\x1b[0m"


def render_heatmap(heatmap: Heatmap, color="off") -> str:
    """Render one heatmap as an aligned glyph/percent grid.

    *color* is a depth from :func:`resolve_color_mode` (``"off"`` /
    ``"8"`` / ``"256"``); booleans are accepted for compatibility
    (``True`` means 256-colour).
    """
    mode = _coerce_mode(color)
    peak = heatmap.peak
    label_w = max([len(str(r)) for r in heatmap.row_labels] + [4])
    out = [heatmap.title, "-" * len(heatmap.title)]
    header = " " * label_w + "  " + "  ".join(
        str(c).center(8) for c in heatmap.col_labels)
    out.append(header.rstrip())
    for label, row in zip(heatmap.row_labels, heatmap.values):
        cells = "  ".join(_cell_text(v, peak, mode) for v in row)
        out.append(f"{str(label).ljust(label_w)}  {cells}")
    out.append(f"{'scale'.ljust(label_w)}  0%  [{RAMP}]  "
               f"{100 * peak:.1f}%")
    return "\n".join(out)


def _fpm_section(fpm_mix: dict) -> str:
    rows = []
    for group, per_structure in fpm_mix.items():
        for structure, rates in per_structure.items():
            total = sum(rates.values())
            rows.append([group, structure,
                         *(f"{100 * rates[f]:.2f}%"
                           for f in ("WD", "WI", "WOI", "ESC")),
                         f"{100 * total:.2f}%"])
    return render_table(
        ["workload", "structure", "WD", "WI", "WOI", "ESC",
         "visible"], rows,
        title="FPM mix (occupancy-weighted rates per structure)")


def _divergence_section(report) -> str:
    rows = []
    for row in report.rows:
        cells = [row.label]
        for method in METHODS:
            measurement = row.layers.get(method)
            cells.append(measurement.label() if measurement else "-")
        cells.append(", ".join(sorted(row.flags)) if row.flags
                     else "-")
        rows.append(cells)
    sections = [render_table(
        ["workload", *METHODS, "opposite-direction flags"], rows,
        title="cross-layer divergence (AVF = ground truth)")]
    if report.disagreements:
        pair_rows = []
        for label, disagreements in sorted(
                report.disagreements.items()):
            for d in disagreements:
                pair_rows.append([
                    label,
                    f"{d.first} vs {d.second}",
                    f"{100 * d.value_a_first:.2f}% vs "
                    f"{100 * d.value_a_second:.2f}%",
                    f"{100 * d.value_b_first:.2f}% vs "
                    f"{100 * d.value_b_second:.2f}%"])
        sections.append(render_table(
            ["layers", "workload pair", "first layer",
             "second layer"], pair_rows,
            title="opposite-direction pairs (Table III style)"))
    if report.ranking:
        rank_rows = [[s.label, f"{s.opposite}/{s.pairs}",
                      f"{100 * s.mean_gap:.2f}%", f"{s.score:.3f}"]
                     for s in report.ranking]
        sections.append(render_table(
            ["layer pair", "opposite pairs", "mean gap", "score"],
            rank_rows,
            title="miscorrelation ranking (worst tracking first)"))
    return "\n\n".join(sections)


def _planning_section(campaigns: list) -> str:
    from ..core.planner import planner_table

    rows = planner_table(campaigns)
    planned = sum(r["planned_n"] for r in rows)
    actual = sum(r["actual_n"] for r in rows)
    table_rows = [[r["cell"], r["planned_n"], r["actual_n"],
                   f"{r['savings']:.2f}x",
                   f"{r['margin_attained']:.4f}"
                   if r["margin_attained"] is not None else "-",
                   f"{r['target_margin']:.4f}"
                   if r["target_margin"] is not None else "-",
                   f"{r['classes']}+{r['pruned']}p"]
                  for r in rows]
    overall = (f"{planned / actual:.2f}x" if actual else "-")
    return render_table(
        ["campaign", "planned", "actual", "saved", "margin",
         "target", "classes"], table_rows,
        title=f"statistical planning ({actual}/{planned} injections "
              f"spent, {overall} saved)")


def _residency_section(profiles: dict) -> str:
    rows = []
    for (workload, config_name, hardened), profile in \
            sorted(profiles.items()):
        label = _group_label((workload, config_name, hardened))
        for structure, series in profile.occupancy.items():
            mean = sum(series) / len(series) if series else 0.0
            rows.append([label, structure, f"{100 * mean:.1f}%",
                         f"[{render_sparkline(series, width=24)}]"])
    return render_table(
        ["workload", "structure", "mean occupancy",
         "per-phase trend"], rows,
        title=f"residency profiles ({len(profiles)} golden runs, "
              f"sampled)")


def _events_section(summary: dict) -> str:
    rows = [[c["label"], c["runs"], f"{c['elapsed']:.1f}s",
             f"{c['runs_per_sec']:.1f}",
             (f"{c['latency']['p50']:.0f}/{c['latency']['p99']:.0f}"
              if "latency" in c else "-")]
            for c in summary["campaigns"]]
    sections = [render_table(
        ["campaign", "runs", "elapsed", "runs/s",
         "latency p50/p99"], rows,
        title="campaign throughput/latency (events.jsonl)")]
    trend = [r for c in summary["campaigns"]
             for r in c["shard_rates"]]
    if trend:
        sections.append("throughput trend (runs/s per shard, "
                        f"{min(trend):.1f}..{max(trend):.1f})\n"
                        f"  [{render_sparkline(trend)}]")
    return "\n\n".join(sections)


def render_dashboard(data: DashboardData, color="off") -> str:
    """Render the full dashboard as ANSI/plain text."""
    color = _coerce_mode(color)
    if not data.campaigns:
        return ("no campaign sidecars found — run a campaign first "
                "(e.g. `python -m repro campaign sha`)")
    sections = [f"vulnerability dashboard — {len(data.campaigns)} "
                f"campaigns, {len(data.profiles)} residency profiles"]
    for heatmap in data.phase_heatmaps:
        sections.append(render_heatmap(heatmap, color=color))
    for heatmap in data.region_heatmaps:
        sections.append(render_heatmap(heatmap, color=color))
    if data.fpm_mix:
        sections.append(_fpm_section(data.fpm_mix))
    if data.divergence is not None and data.divergence.rows:
        sections.append(_divergence_section(data.divergence))
    if any(getattr(c, "plan", None) for c in data.campaigns):
        sections.append(_planning_section(data.campaigns))
    if data.profiles:
        sections.append(_residency_section(data.profiles))
    if data.events_summary and data.events_summary["campaigns"]:
        sections.append(_events_section(data.events_summary))
    return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# self-contained HTML rendering (inline CSS + SVG, no JS, no requests)
# ---------------------------------------------------------------------------
_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 72em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.6em;
         text-align: left; font-variant-numeric: tabular-nums; }
th { background: #f2f2f2; }
.flag { color: #b00020; font-weight: 600; }
.muted { color: #777; }
.chg { background: #ffe3e3; color: #8c1a1a; font-weight: 600; }
svg text { font: 11px system-ui, sans-serif; }
"""


def _svg_heatmap(heatmap: Heatmap,
                 links: "dict | None" = None) -> str:
    """One heatmap as inline SVG (white -> red, labelled cells).

    *links* maps ``(row_label, col_index)`` to an href; matching
    cells become anchors (used to jump from an attribution cell to
    the per-run differential trace captured in it).
    """
    cell_w, cell_h = 58, 24
    label_w = 8 + 7 * max([len(str(r))
                           for r in heatmap.row_labels] + [1])
    width = label_w + cell_w * len(heatmap.col_labels) + 8
    height = 20 + cell_h * (len(heatmap.row_labels) + 1)
    peak = heatmap.peak
    parts = [f'<svg role="img" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}" '
             f'xmlns="http://www.w3.org/2000/svg">']
    for j, col in enumerate(heatmap.col_labels):
        x = label_w + j * cell_w + cell_w // 2
        parts.append(f'<text x="{x}" y="14" '
                     f'text-anchor="middle">{html.escape(str(col))}'
                     f'</text>')
    for i, (row_label, row) in enumerate(
            zip(heatmap.row_labels, heatmap.values)):
        y = 20 + i * cell_h
        parts.append(f'<text x="{label_w - 6}" y="{y + 16}" '
                     f'text-anchor="end">'
                     f'{html.escape(str(row_label))}</text>')
        for j, value in enumerate(row):
            frac = value / peak if peak > 0 else 0.0
            shade = int(255 * (1 - frac))
            x = label_w + j * cell_w
            href = (links or {}).get((row_label, j))
            cell = (
                f'<rect x="{x}" y="{y}" width="{cell_w - 2}" '
                f'height="{cell_h - 2}" '
                f'fill="rgb(255,{shade},{shade})" '
                f'stroke="#ddd"/>')
            text_fill = "#fff" if frac > 0.55 else "#222"
            cell += (
                f'<text x="{x + (cell_w - 2) // 2}" y="{y + 16}" '
                f'text-anchor="middle" fill="{text_fill}">'
                f'{100 * value:.1f}%</text>')
            if href:
                cell = (f'<a href="{html.escape(href)}">{cell}</a>')
            parts.append(cell)
    parts.append(f'<text x="{label_w}" y="{height - 4}" '
                 f'class="muted">peak {100 * peak:.1f}%</text>')
    parts.append("</svg>")
    return "".join(parts)


def _html_table(headers: list, rows: list) -> str:
    head = "".join(f"<th>{html.escape(str(h))}</th>" for h in headers)
    body = []
    for row in rows:
        cells = "".join(
            str(c) if isinstance(c, _RawHTML)
            else f"<td>{html.escape(str(c))}</td>" for c in row)
        body.append(f"<tr>{cells}</tr>")
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(body)}</tbody></table>")


class _RawHTML(str):
    """A pre-escaped table cell (already wrapped in ``<td>``)."""


def _trace_anchor(payload: dict) -> str:
    """Stable fragment id for one per-run trace section."""
    target = payload.get("structure") or payload.get("model") or "any"
    return "-".join(str(x) for x in (
        "run", payload["injector"], payload["workload"],
        payload["config"], target, payload["seed"],
        payload["index"]))


def _trace_links(heatmap: Heatmap, traces: list) -> dict:
    """Attribution-cell links into the per-run trace sections.

    A gefin trace lands on the (structure, injection-phase) cell of
    its workload's phase heatmap; the phase is recomputed against the
    heatmap's own column count so ``--phases`` overrides stay
    consistent.
    """
    links: dict = {}
    n_cols = len(heatmap.col_labels)
    for payload in traces:
        if payload["injector"] != "gefin" \
                or not payload.get("structure"):
            continue
        label = _group_label((payload["workload"], payload["config"],
                              bool(payload.get("hardened"))))
        if not heatmap.title.startswith(label + " "):
            continue
        step = payload["anchors"].get("injected")
        frame = next((f for f in payload["frames"]
                      if f["step"] == step), None)
        if frame is None or not payload.get("t_max"):
            continue
        col = phase_of(frame["cycle"], payload["t_max"], n_cols)
        links[(payload["structure"], col)] = \
            "#" + _trace_anchor(payload)
    return links


def _traces_html(traces: list) -> list:
    """Per-run differential trace sections (one per sidecar)."""
    return ["<h2>Per-run differential traces</h2>",
            '<p class="muted">golden-vs-faulty state diffs around '
            "injection/crossing, rendered from "
            "<code>trace-*.json</code> sidecars — no "
            "re-simulation. Changed cells are highlighted.</p>",
            *(trace_section(payload) for payload in traces)]


def trace_section(payload: dict) -> str:
    """One run's differential trace: a titled table of every frame in
    the sidecar's window, changed cells highlighted.  The static page
    lists one per sidecar; the observatory's ``/diff`` carries it as
    ``html`` for the drill-down panel."""
    from .trace_diff import frame_diverges

    target = (payload.get("structure") or payload.get("model")
              or "-")
    title = (f"{payload['injector']}:{payload['workload']}"
             f"@{payload['config']}/{target} "
             f"seed={payload['seed']} index={payload['index']}")
    anchors = payload["anchors"]
    anchor_text = ", ".join(
        f"{kind} @ step {anchors[kind]}"
        for kind in ("injected", "crossed")
        if anchors.get(kind) is not None) or "never applied"
    outcome = payload["outcome"]
    outcome_text = outcome["outcome"] + (
        f" ({outcome['crash_kind']})"
        if outcome.get("crash_kind") else "")
    diverging = sum(1 for f in payload["frames"] if frame_diverges(f))
    names = payload.get("reg_names") or []

    def cell(text, changed):
        if not changed:
            return text
        return _RawHTML(f'<td class="chg">'
                        f"{html.escape(str(text))}</td>")

    rows = []
    for frame in payload["frames"]:
        pc_changed = (frame["golden_pc"] is not None
                      and frame["golden_pc"] != frame["pc"])
        pc_text = f"{frame['pc']:#010x}"
        if pc_changed:
            pc_text = f"{frame['golden_pc']:#010x} → {pc_text}"
        regs = []
        for index_str in sorted(frame["regs"], key=int):
            old, new = frame["regs"][index_str]
            reg = int(index_str)
            name = names[reg] if reg < len(names) else f"r{reg}"
            regs.append(f"{name} {old:#x}→{new:#x}")
        mem_faulty = frame["mem"]["faulty"]
        mem_golden = frame["mem"]["golden"]
        mem_text = " / ".join(
            "-" if m is None else
            f"{m[0]} {m[1]:#x} x{m[2]}"
            + (f" = {m[3]:#x}" if m[3] is not None else "")
            for m in (mem_golden, mem_faulty))
        structs = frame.get("structs")
        struct_changes = []
        if structs and structs.get("golden"):
            struct_changes = [
                f"{key} {structs['golden'][key]}"
                f"→{structs['faulty'][key]}"
                for key in sorted(structs["faulty"])
                if structs["faulty"][key] != structs["golden"][key]]
        rows.append([
            frame["step"],
            frame["cycle"],
            cell(pc_text, pc_changed),
            cell(", ".join(regs) if regs else "-", bool(regs)),
            cell(mem_text,
                 mem_faulty != mem_golden and frame_diverges(frame)),
            cell(", ".join(struct_changes) if struct_changes else "-",
                 bool(struct_changes)),
            ", ".join(frame["marks"]) if frame["marks"] else "-",
        ])
    return "\n".join([
        f'<h3 id="{_trace_anchor(payload)}">{html.escape(title)}</h3>',
        f'<p class="muted">{anchor_text} — outcome '
        f"{html.escape(outcome_text)} — "
        f"{len(payload['frames'])} frames, {diverging} diverging</p>",
        _html_table(
            ["step", payload["unit"], "pc", "changed registers",
             "mem (golden / faulty)", "structure deltas", "marks"],
            rows)])


def live_sections(summary: "dict | None") -> dict:
    """The event-log sections as ``{div id: inner HTML}``: campaign
    throughput, outcome mix, throughput sparkline and planner savings.

    *summary* is the ``repro report --json`` payload.  The static page
    renders each inside its div once (:func:`html_sections`); the
    observatory sends the same dict with every SSE ``summary`` and the
    page swaps each div's content for it, so a patched section is the
    freshly served one byte for byte.
    """
    summary = summary if summary and summary.get("campaigns") else {
        "campaigns": [], "outcome_totals": {}}
    campaigns = summary["campaigns"]
    sections: dict = {"live-campaigns": [], "live-outcomes": [],
                      "live-throughput": [], "live-planner": []}
    if campaigns:
        sections["live-campaigns"].append(_html_table(
            ["campaign", "runs", "elapsed", "runs/s",
             "latency p50/p99"],
            [[c["label"], c["runs"], f"{c['elapsed']:.1f}s",
              f"{c['runs_per_sec']:.1f}",
              (f"{c['latency']['p50']:.0f}/{c['latency']['p99']:.0f}"
               if "latency" in c else "-")]
             for c in campaigns]))

    totals = summary["outcome_totals"]
    grand = sum(totals.values())
    if grand:
        sections["live-outcomes"] += [
            "<h2>Outcome mix</h2>",
            _html_table(["outcome", "runs", "share"],
                        [[k, v, f"{100 * v / grand:.1f}%"]
                         for k, v in sorted(totals.items(),
                                            key=lambda kv: -kv[1])])]

    trend = [r for c in campaigns for r in c["shard_rates"]]
    if trend:
        sections["live-throughput"] += [
            "<h2>Throughput trend</h2>",
            f'<p class="muted">runs/s per completed shard, '
            f"{min(trend):.1f}..{max(trend):.1f}</p>",
            f"<pre>[{html.escape(render_sparkline(trend))}]</pre>"]

    planned_rows = [c for c in campaigns if c.get("plan")]
    if planned_rows:
        planned = sum(c["plan"].get("planned_n") or 0
                      for c in planned_rows)
        actual = sum(c["plan"].get("actual_n") or 0
                     for c in planned_rows)
        saved = f"{planned / actual:.2f}x" if actual else "-"
        sections["live-planner"] += [
            "<h2>Planner savings (live)</h2>",
            f'<p class="muted">{actual}/{planned} '
            f"injections spent ({saved} saved)</p>",
            _html_table(
                ["campaign", "planned", "actual", "saved"],
                [[c["label"], c["plan"].get("planned_n"),
                  c["plan"].get("actual_n"),
                  f"{c['plan'].get('savings', 0):.2f}x"]
                 for c in planned_rows])]
    # newline-framed: the page has always put each part on its own line
    return {name: "\n".join(["", *parts, ""])
            for name, parts in sections.items()}


def _events_html(summary: "dict | None") -> list:
    """The event-log sections of the page, each inside a div with a
    stable id (:func:`live_sections` renders their content)."""
    parts = ["<h2>Campaign throughput/latency</h2>"]
    for name, inner in live_sections(summary).items():
        parts.append(f'<div id="{name}">{inner}</div>')
    return parts


def html_sections(data: DashboardData) -> list:
    """The document body shared by :func:`render_html` (static page)
    and the live observatory, whose script only swaps the content of
    the :func:`live_sections` divs for freshly server-rendered HTML."""
    parts = [
        f'<p class="muted">{len(data.campaigns)} campaigns, '
        f"{len(data.profiles)} residency profiles; "
        f"rendered from cached sidecars only — no "
        f"re-simulation.</p>"]
    if not data.campaigns:
        parts.append("<p>No campaign sidecars found.</p>")
        parts.extend(_events_html(data.events_summary))
        return parts

    parts.append("<h2>Vulnerability by structure × program phase"
                 "</h2>")
    for heatmap in data.phase_heatmaps:
        parts.append(f"<h3>{html.escape(heatmap.title)}</h3>")
        parts.append(_svg_heatmap(
            heatmap, links=_trace_links(heatmap, data.traces)))
    if data.region_heatmaps:
        parts.append("<h2>Vulnerability by structure × bit region"
                     "</h2>")
        for heatmap in data.region_heatmaps:
            parts.append(f"<h3>{html.escape(heatmap.title)}</h3>")
            parts.append(_svg_heatmap(heatmap))

    if data.fpm_mix:
        parts.append("<h2>FPM mix</h2>")
        rows = []
        for group, per_structure in data.fpm_mix.items():
            for structure, rates in per_structure.items():
                rows.append([group, structure,
                             *(f"{100 * rates[f]:.2f}%"
                               for f in ("WD", "WI", "WOI", "ESC"))])
        parts.append(_html_table(
            ["workload", "structure", "WD", "WI", "WOI", "ESC"],
            rows))

    report = data.divergence
    if report is not None and report.rows:
        parts.append("<h2>Cross-layer divergence</h2>")
        rows = []
        for row in report.rows:
            cells = [row.label]
            for method in METHODS:
                m = row.layers.get(method)
                cells.append(m.label() if m else "-")
            flags = ", ".join(sorted(row.flags))
            cells.append(_RawHTML(
                f'<td class="flag">{html.escape(flags)}</td>')
                if flags else "-")
            rows.append(cells)
        parts.append(_html_table(
            ["workload", *METHODS, "opposite-direction flags"],
            rows))
        if report.ranking:
            parts.append("<h3>Miscorrelation ranking</h3>")
            parts.append(_html_table(
                ["layer pair", "opposite pairs", "mean gap",
                 "score"],
                [[s.label, f"{s.opposite}/{s.pairs}",
                  f"{100 * s.mean_gap:.2f}%", f"{s.score:.3f}"]
                 for s in report.ranking]))

    if any(getattr(c, "plan", None) for c in data.campaigns):
        from ..core.planner import planner_table

        plan_rows = planner_table(data.campaigns)
        planned = sum(r["planned_n"] for r in plan_rows)
        actual = sum(r["actual_n"] for r in plan_rows)
        saved = f"{planned / actual:.2f}x" if actual else "-"
        parts.append("<h2>Statistical planning</h2>")
        parts.append(f'<p class="muted">{actual}/{planned} '
                     f"injections spent ({saved} saved)</p>")
        parts.append(_html_table(
            ["campaign", "planned", "actual", "saved", "margin",
             "target", "classes"],
            [[r["cell"], r["planned_n"], r["actual_n"],
              f"{r['savings']:.2f}x",
              f"{r['margin_attained']:.4f}"
              if r["margin_attained"] is not None else "-",
              f"{r['target_margin']:.4f}"
              if r["target_margin"] is not None else "-",
              f"{r['classes']}+{r['pruned']}p"]
             for r in plan_rows]))

    if data.profiles:
        parts.append("<h2>Residency profiles</h2>")
        rows = []
        for key, profile in sorted(data.profiles.items()):
            label = _group_label(key)
            for structure, series in profile.occupancy.items():
                mean = (sum(series) / len(series)) if series else 0.0
                rows.append([label, structure,
                             f"{100 * mean:.1f}%",
                             render_sparkline(series, width=24)])
        parts.append(_html_table(
            ["workload", "structure", "mean occupancy",
             "per-phase trend"], rows))

    if data.traces:
        parts.extend(_traces_html(data.traces))

    parts.extend(_events_html(data.events_summary))
    return parts


def render_html(data: DashboardData,
                title: str = "repro vulnerability dashboard") -> str:
    """Render the dashboard as one self-contained HTML document.

    Zero external requests and zero scripts — suitable for CI
    artifacts.  The live observatory (:mod:`repro.obs.server`) reuses
    :func:`html_sections` for its served page and patches it only with
    HTML rendered here, so both views render from one code path.
    """
    parts = ["<!DOCTYPE html>", '<html lang="en"><head>',
             '<meta charset="utf-8">',
             f"<title>{html.escape(title)}</title>",
             f"<style>{_CSS}</style>", "</head><body>",
             f"<h1>{html.escape(title)}</h1>",
             *html_sections(data),
             "</body></html>"]
    return "\n".join(parts)
