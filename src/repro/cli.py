"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``workloads``
    List the workload suite with golden statistics.
``configs``
    Print the simulated core configurations (Table II).
``run WORKLOAD``
    Execute one workload (functionally or on the pipeline) and report
    output, cycles and cache statistics.
``disasm WORKLOAD``
    Disassemble a workload's text section.
``campaign WORKLOAD``
    Run one fault-injection campaign and print the classification.
``fuzz``
    Differential containment fuzzing: deterministic flip sweeps plus
    a lockstep cosimulation oracle; escapes shrink to replayable JSON
    reproducers (``--replay``).
``trace-fault WORKLOAD``
    Replay one campaign run with propagation tracing and print the
    flip's life story next to the instruction trace.
``report [EVENTS]``
    Aggregate an events.jsonl log into a text dashboard (outcome mix,
    throughput, visibility-latency percentiles, retry hot spots);
    ``--json`` emits the same aggregation machine-readably.
``dashboard``
    Cross-layer vulnerability map from cached campaign sidecars:
    structure x phase heatmaps, FPM mix, AVF/PVF/SVF/rPVF divergence
    with opposite-direction flags; ``--html`` writes a
    self-contained HTML file.  Never re-simulates.
``serve``
    Live campaign observatory: serves the dashboard as a
    self-updating page (SSE tail of events.jsonl), JSON APIs over
    the cached sidecars, and a Prometheus ``/metrics`` endpoint.
    Renders from sidecars/events only; the per-run ``/diff``
    drill-down (the one route that simulates) is off unless
    ``--allow-replay``.
``study``
    Cross-layer comparison over a workload set (mini Fig. 4/Table III).
``casestudy WORKLOAD``
    The §VI.B hardening case study.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core.report import render_percent_table, render_table


def _progress_flag(args) -> "bool | None":
    """``--progress``/``--quiet`` -> tri-state progress switch.

    ``None`` lets ``REPRO_PROGRESS`` decide (see
    :func:`repro.obs.progress.progress_enabled`).
    """
    if getattr(args, "quiet", False):
        return False
    if getattr(args, "progress", False):
        return True
    return None


def _add_planner_flags(parser) -> None:
    parser.add_argument("--planner", choices=("naive", "two-level"),
                        default=None,
                        help="sampling strategy: 'two-level' "
                             "partitions the fault population into "
                             "equivalence classes and stops each "
                             "cell once its Wilson interval is "
                             "inside --target-margin (default: "
                             "naive fixed-n)")
    parser.add_argument("--target-margin", type=float, default=None,
                        help="two-level stopping margin on the "
                             "weighted vulnerability axis "
                             "(default 0.05)")


def _add_progress_flags(parser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--progress", action="store_true",
                       help="live per-campaign progress on stderr "
                            "(runs/sec, ETA, outcome counts)")
    group.add_argument("--quiet", action="store_true",
                       help="suppress the progress line even if "
                            "REPRO_PROGRESS is set")


def _cmd_workloads(args) -> int:
    from .injectors.golden import golden_run
    from .workloads.suite import WORKLOAD_NAMES, workload_spec

    rows = []
    for name in WORKLOAD_NAMES:
        spec = workload_spec(name)
        if args.golden:
            golden = golden_run(name, args.config)
            rows.append([name, spec.description[:44],
                         golden.instructions,
                         f"{golden.cycles:.0f}",
                         f"{100 * golden.kernel_instructions / golden.instructions:.1f}%",
                         len(golden.output)])
        else:
            rows.append([name, spec.description[:44],
                         f"~{spec.approx_instructions}", "-", "-", "-"])
    print(render_table(
        ["workload", "description", "instructions", "cycles",
         "kernel", "output B"], rows,
        title=f"workload suite ({args.config})"))
    return 0


def _cmd_configs(_args) -> int:
    from .uarch.config import ALL_CONFIGS

    rows = [[c.name, c.isa, c.frontend_depth, c.rob_size,
             c.n_phys_regs, c.lsq_size,
             f"{c.l1i.size // 1024}K/{c.l1d.size // 1024}K",
             f"{c.l2.size // 1024}K"]
            for c in ALL_CONFIGS]
    print(render_table(
        ["core", "ISA", "stages", "ROB", "phys RF", "LSQ", "L1 I/D",
         "L2"], rows, title="simulated cores (Table II)"))
    return 0


def _cmd_run(args) -> int:
    from .kernel.loader import build_system_image
    from .uarch.config import config_by_name
    from .uarch.functional import run_functional
    from .uarch.pipeline import PipelineEngine
    from .workloads.suite import load_workload

    config = config_by_name(args.config)
    program = load_workload(args.workload, config.isa,
                            hardened=args.hardened)
    if args.pipeline:
        engine = PipelineEngine(build_system_image(program), config)
        result = engine.run()
        print(f"status   : {result.status.value}")
        print(f"cycles   : {result.cycles:.0f} "
              f"(IPC {result.instructions / result.cycles:.2f})")
        print(f"instrs   : {result.instructions} "
              f"({result.kernel_instructions} kernel)")
        print(f"output   : {len(result.output)} bytes, "
              f"exit {result.exit_code}")
        for name in ("l1i", "l1d", "l2"):
            cache = getattr(engine, name)
            print(f"{name:8s} : {cache.hits} hits, "
                  f"{cache.misses} misses, "
                  f"{cache.writebacks} writebacks")
        predictor = engine.predictor
        print(f"branch   : {predictor.mispredicts}/{predictor.lookups} "
              f"mispredicted")
    else:
        result = run_functional(program, kernel=args.kernel)
        print(f"status   : {result.status.value}")
        print(f"instrs   : {result.instructions}")
        print(f"output   : {len(result.output)} bytes, "
              f"exit {result.exit_code}")
    if args.hexdump:
        print(f"\n{result.output.hex()}")
    return 0 if result.status.value == "completed" else 1


def _cmd_disasm(args) -> int:
    from .isa.disassembler import disassemble_range
    from .uarch.config import config_by_name
    from .workloads.suite import load_workload

    config = config_by_name(args.config)
    program = load_workload(args.workload, config.isa,
                            hardened=args.hardened)
    print(disassemble_range(bytes(program.text.data),
                            program.text.base, program.regs))
    return 0


def _cmd_campaign(args) -> int:
    from .injectors.campaign import run_campaign

    campaign = run_campaign(
        args.workload, args.config, injector=args.injector,
        structure=args.structure, model=args.model, n=args.n,
        seed=args.seed, hardened=args.hardened,
        use_cache=not args.no_cache,
        progress=_progress_flag(args),
        fastpath=args.fastpath,
        planner=args.planner, target_margin=args.target_margin,
        batch_lanes=args.batch_lanes)
    print(campaign.summary())
    if campaign.plan:
        plan = campaign.plan
        print(f"planner  : {plan['planner']} "
              f"{plan['actual_n']}/{plan['planned_n']} injections "
              f"({plan['savings']:.2f}x saved), margin "
              f"{plan['margin_attained']:.4f} <= "
              f"{plan['target_margin']:.4f}")
    if args.injector == "gefin":
        print(f"HVF      : {campaign.hvf() * 100:.3f}%")
        rates = campaign.fpm_rates()
        print("FPM      : " + ", ".join(f"{k}={v * 100:.3f}%"
                                        for k, v in rates.items()))
    kinds = {"process-crash": campaign.crash_kind_rate("process-crash"),
             "kernel-panic": campaign.crash_kind_rate("kernel-panic"),
             "hang": campaign.crash_kind_rate("hang")}
    print("crashes  : " + ", ".join(f"{k}={v * 100:.3f}%"
                                    for k, v in kinds.items()))
    return 0


def _cmd_fuzz(args) -> int:
    from .fuzz import replay, run_fuzz
    from .injectors.campaign import default_workers

    if args.replay:
        result = replay(args.replay, hardened=args.hardened)
        print(result.describe())
        return 0 if result.contained else 1

    workers = args.workers if args.workers is not None \
        else default_workers(args.cases)
    report = run_fuzz(
        args.cases, seed=args.seed, workloads=args.workloads,
        config_name=args.config,
        cosim_every=0 if args.no_cosim else args.cosim_every,
        workers=workers,
        repro_dir=args.repro_dir, progress=_progress_flag(args),
        shrink=not args.no_shrink, hardened=args.hardened)
    print(report.render())
    return 0 if report.clean else 1


def _cmd_trace_fault(args) -> int:
    from .obs.tracing import trace_run

    replay = dict(
        structure=args.structure if args.injector == "gefin" else None,
        model=args.model if args.injector == "pvf" else None,
        hardened=args.hardened)
    if args.diff:
        from .obs.dashboard import resolve_color_mode
        from .obs.trace_diff import load_or_capture, render_diff

        payload, cached = load_or_capture(
            args.injector, args.workload, args.config, args.seed,
            index=args.index, **replay)
        print(render_diff(payload,
                          color=resolve_color_mode(args.color)))
        if cached:
            print("\n(served from the trace sidecar — no "
                  "re-simulation)", file=sys.stderr)
        return 0
    trace, _ = trace_run(args.injector, args.workload, args.config,
                         args.seed, index=args.index, **replay)
    print(trace.render())
    if args.window:
        print()
        print(_instruction_window(args, trace))
    return 0


def _instruction_window(args, trace) -> str:
    """A golden instruction-trace window around the injection point."""
    from .isa.registers import register_set
    from .uarch.config import config_by_name
    from .uarch.trace import trace_program
    from .workloads.suite import load_workload

    config = config_by_name(args.config)
    program = load_workload(args.workload, config.isa,
                            hardened=args.hardened)
    if trace.injector == "gefin":
        centre = _injected_instruction(args, trace.inject_cycle)
    elif trace.injector == "svf":
        # svf counts user instructions that write a register; the
        # window indexes the whole sim-kernel stream
        centre = _user_dest_index(program, int(trace.inject_cycle))
    else:
        centre = int(trace.inject_cycle)
    start = max(0, centre - args.window // 2)
    window = trace_program(program, start=start, count=args.window)
    head = (f"golden instruction trace around the injection "
            f"(instructions {start}..{start + args.window - 1}):")
    return head + "\n" + window.render(register_set(config.isa))


def _injected_instruction(args, cycle: float) -> int:
    """Index of the instruction a pipeline fault at *cycle* lands
    before, found on the golden run from the checkpoint before it: the
    fault lands once the fetch clock reaches *cycle*."""
    from .injectors.golden import checkpoint_store, replay_golden

    store = checkpoint_store(args.workload, args.config, engine="pipeline",
                             hardened=args.hardened)
    cp = store.nearest(cycle=cycle)
    if cp.cycle >= cycle:
        return cp.instructions

    class Landing:
        found = None

        def step(self, engine) -> None:
            if self.found is None and engine.fetch_time >= cycle:
                self.found = engine.instructions

    landing = Landing()
    replay_golden(args.workload, args.config, engine="pipeline",
                  hardened=args.hardened, observer=landing,
                  start=cp.instructions,
                  stop=cp.instructions + store.interval)
    if landing.found is None:      # the run ended first
        return store.final["instructions"]
    return landing.found


def _user_dest_index(program, when: int) -> int:
    """Sim-kernel stream index of user register writer number *when*."""
    from .kernel.loader import build_system_image
    from .uarch.functional import FaultAction, FunctionalEngine

    engine = FunctionalEngine(build_system_image(program))
    engine.schedule(FaultAction("user_dest", when,
                                lambda e: setattr(e.ms, "halted", True)))
    engine.run()
    return engine.executed - 1


def _cmd_report(args) -> int:
    import json
    from pathlib import Path

    from .obs.reporting import iter_events, render_report, report_data
    from .obs.sidecars import events_path

    path = args.events or events_path()
    if str(path) != "-" and not Path(path).exists():
        print(f"no event log at {path} (set REPRO_EVENT_LOG or run "
              f"a campaign first)")
        return 1
    if args.json:
        print(json.dumps(report_data(iter_events(path)), indent=2))
    else:
        print(render_report(iter_events(path), limit=args.limit))
    return 0


def _cmd_dashboard(args) -> int:
    from .obs.dashboard import (build_dashboard, render_dashboard,
                                render_html, resolve_color_mode)
    from .obs.sidecars import events_path

    data = build_dashboard(cache_path=args.cache,
                           events_path=args.events or events_path(),
                           n_phases=args.phases,
                           n_regions=args.regions)
    print(render_dashboard(data, color=resolve_color_mode(args.color)))
    if args.html:
        from pathlib import Path

        Path(args.html).write_text(render_html(data))
        print(f"\nwrote {args.html}", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    from .obs.server import serve

    def announce(line: str) -> None:
        # the bound address goes to stdout unbuffered: with --port 0
        # it is the only way a test/CI harness learns the port
        print(line, flush=True)

    serve(host=args.host, port=args.port, announce=announce,
          cache_path=args.cache, events_path=args.events,
          allow_replay=args.allow_replay,
          poll_interval=args.poll_interval)
    return 0


def _cmd_trace(args) -> int:
    from .isa.registers import register_set
    from .uarch.config import config_by_name
    from .uarch.trace import trace_program
    from .workloads.suite import load_workload

    config = config_by_name(args.config)
    program = load_workload(args.workload, config.isa,
                            hardened=args.hardened)
    trace = trace_program(program, start=args.start, count=args.count)
    print(trace.render(register_set(config.isa)))
    return 0


def _cmd_ace(args) -> int:
    from .core.ace import ace_analysis, pessimism_vs_injection

    if args.compare:
        comparison = pessimism_vs_injection(args.workload, args.config,
                                            n=args.n, seed=args.seed)
        rows = [[s, f"{ace * 100:.3f}%", f"{inj * 100:.3f}%",
                 f"{ace / max(inj, 1e-9):.1f}x" if inj > 0 else "inf"]
                for s, (ace, inj) in comparison.items()]
        print(render_table(
            ["structure", "ACE estimate", "injection AVF",
             "pessimism"], rows,
            title=f"ACE vs injection: {args.workload} "
                  f"({args.config})"))
    else:
        print(ace_analysis(args.workload, args.config).summary())
    return 0


def _cmd_fit(args) -> int:
    from .core.study import CrossLayerStudy, StudyScale
    from .core.weighting import fit_rates

    study = CrossLayerStudy([args.workload], args.config,
                            StudyScale(n_avf=args.n, seed=args.seed))
    rates = fit_rates(study.avf_campaigns(args.workload), study.config,
                      fit_per_bit=args.fit_per_bit)
    rows = [[s, f"{v:.4g}"] for s, v in rates.items()]
    print(render_table(["structure", "FIT"], rows,
                       title=f"FIT rates: {args.workload} "
                             f"({args.config}, "
                             f"FIT/bit={args.fit_per_bit:g})"))
    return 0


def _cmd_study(args) -> int:
    from .core.study import CrossLayerStudy, StudyScale

    if args.fastpath is False:
        # CrossLayerStudy fans out over run_campaign internally; the
        # env override reaches every campaign it spawns
        os.environ["REPRO_FASTPATH"] = "0"
    workloads = args.workloads.split(",")
    scale = StudyScale(n_avf=args.n_avf, n_pvf=args.n_pvf,
                       n_svf=args.n_svf, seed=args.seed)
    study = CrossLayerStudy(workloads, args.config, scale,
                            progress=_progress_flag(args),
                            planner=args.planner,
                            target_margin=args.target_margin)
    methods = args.methods.split(",")
    rows = []
    for workload in workloads:
        row = [workload]
        for method in methods:
            sdc, crash = study.sdc_crash_split(method, workload)
            row.append(sdc + crash)
        rows.append(row)
    print(render_percent_table(["workload", *methods], rows,
                               title=f"cross-layer study "
                                     f"({args.config})"))
    if len(methods) >= 2 and len(workloads) >= 2:
        for i in range(len(methods) - 1):
            comparison = study.compare(methods[i], methods[-1])
            print(f"{comparison.pair_label}: "
                  f"{comparison.opposite_total}/"
                  f"{comparison.pairs_considered} opposite pairs, "
                  f"{comparison.effect_disagreements} effect "
                  f"disagreements")
    if args.planner not in (None, "naive"):
        from .core.planner import planner_table

        campaigns = []
        for workload in workloads:
            if "avf" in methods or "rpvf" in methods:
                campaigns.extend(
                    study.avf_campaigns(workload).values())
            if "pvf" in methods or "rpvf" in methods:
                campaigns.append(study.pvf_campaign(workload))
            if "svf" in methods:
                campaigns.append(study.svf_campaign(workload))
        rows = planner_table(campaigns)
        planned = sum(r["planned_n"] for r in rows)
        actual = sum(r["actual_n"] for r in rows)
        if actual:
            print(f"\nstatistical planning: {actual}/{planned} "
                  f"injections spent across {len(rows)} campaigns "
                  f"({planned / actual:.2f}x saved)")
    return 0


def _cmd_casestudy(args) -> int:
    from .core.casestudy import run_case_study
    from .core.study import StudyScale

    scale = StudyScale(n_avf=args.n_avf, n_pvf=args.n_pvf,
                       n_svf=args.n_svf, seed=args.seed)
    result = run_case_study(args.workload, args.config, scale)
    rows = [["SVF", result.svf.unprotected, result.svf.protected],
            ["PVF", result.pvf.unprotected, result.pvf.protected],
            ["AVF", result.avf.unprotected, result.avf.protected]]
    print(render_percent_table(["layer", "w/o", "w/"], rows,
                               title=f"case study: {args.workload}"))
    print(f"\nslowdown: {result.slowdown:.2f}x")
    print(result.headline())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="cross-layer transient-fault vulnerability "
                    "analysis (ISCA'21 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workload=True):
        if workload:
            p.add_argument("workload")
        p.add_argument("--config", default="cortex-a72")
        p.add_argument("--hardened", action="store_true")
        p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("workloads", help="list the workload suite")
    p.add_argument("--config", default="cortex-a72")
    p.add_argument("--golden", action="store_true",
                   help="include golden-run statistics (slower)")
    p.set_defaults(func=_cmd_workloads)

    p = sub.add_parser("configs", help="print the core configurations")
    p.set_defaults(func=_cmd_configs)

    p = sub.add_parser("run", help="execute one workload")
    common(p)
    p.add_argument("--pipeline", action="store_true",
                   help="run on the out-of-order timing model")
    p.add_argument("--kernel", choices=("sim", "host"), default="sim")
    p.add_argument("--hexdump", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("disasm", help="disassemble a workload")
    common(p)
    p.set_defaults(func=_cmd_disasm)

    p = sub.add_parser("campaign", help="run a fault-injection campaign")
    common(p)
    p.add_argument("--injector", choices=("gefin", "pvf", "svf"),
                   default="gefin")
    p.add_argument("--structure", default="RF",
                   choices=("RF", "LSQ", "L1I", "L1D", "L2"))
    p.add_argument("--model", default="WD",
                   choices=("WD", "WOI", "WI"))
    p.add_argument("-n", type=int, default=100)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--no-fastpath", dest="fastpath",
                   action="store_const", const=False, default=None,
                   help="disable the checkpoint fast path and "
                        "simulate every run from reset (default: "
                        "REPRO_FASTPATH, on)")
    p.add_argument("--batch-lanes", type=int, default=None,
                   metavar="N",
                   help="pack up to N pvf/svf runs per bit-parallel "
                        "batch (2..64; 0 disables; default: "
                        "REPRO_BATCH, off)")
    _add_planner_flags(p)
    _add_progress_flags(p)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "fuzz",
        help="differential containment fuzzing (see docs/API.md)")
    p.add_argument("-n", "--cases", type=int, default=500,
                   help="sweep budget (default: 500)")
    p.add_argument("--seed", type=int, default=1,
                   help="sweep seed (default: 1)")
    p.add_argument("--workloads", default="all",
                   help="comma list or 'all' (default: all)")
    p.add_argument("--config", default="cortex-a72")
    p.add_argument("--hardened", action="store_true")
    p.add_argument("--cosim-every", type=int, default=64,
                   help="lockstep snapshot interval in instructions "
                        "(default: 64)")
    p.add_argument("--no-cosim", action="store_true",
                   help="skip the fault-free cosimulation oracle")
    p.add_argument("--no-shrink", action="store_true",
                   help="keep raw escape coordinates (faster triage)")
    p.add_argument("--replay", metavar="FILE", default=None,
                   help="re-execute one JSON reproducer and exit")
    p.add_argument("--repro-dir", default=None,
                   help="where reproducers land (default: "
                        "<cache>/fuzz-repros)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: REPRO_WORKERS "
                        "heuristic)")
    _add_progress_flags(p)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("trace-fault",
                       help="replay one campaign run with "
                            "propagation tracing")
    common(p)
    p.add_argument("--injector", choices=("gefin", "pvf", "svf"),
                   default="gefin")
    p.add_argument("--structure", default="RF",
                   choices=("RF", "LSQ", "L1I", "L1D", "L2"),
                   help="gefin target structure")
    p.add_argument("--model", default="WD",
                   choices=("WD", "WOI", "WI"),
                   help="pvf fault-propagation model")
    p.add_argument("--index", type=int, default=0,
                   help="campaign run index to replay (default 0)")
    p.add_argument("--window", type=int, default=12,
                   help="instructions of golden trace context "
                        "(0 disables)")
    p.add_argument("--diff", action="store_true",
                   help="render the golden-vs-faulty differential "
                        "frames (captured once, then served from "
                        "the trace sidecar)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--color", action="store_const", const=True,
                       default=None,
                       help="force ANSI colour on (--diff only)")
    group.add_argument("--no-color", dest="color",
                       action="store_const", const=False,
                       help="force ANSI colour off")
    p.set_defaults(func=_cmd_trace_fault)

    p = sub.add_parser("report",
                       help="dashboard from a campaign event log")
    p.add_argument("events", nargs="?", default=None,
                   help="events.jsonl path, '-' for stdin, or a "
                        ".gz log (default: the cache directory's "
                        "log)")
    p.add_argument("--limit", type=int, default=20,
                   help="campaigns to show in detail tables")
    p.add_argument("--json", action="store_true",
                   help="emit the aggregated stats as JSON instead "
                        "of text")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "dashboard",
        help="cross-layer vulnerability map from cached campaigns")
    p.add_argument("--cache", default=None,
                   help="campaign cache directory (default: "
                        "REPRO_CACHE_DIR)")
    p.add_argument("--events", default=None,
                   help="events.jsonl path, '-' for stdin, or a "
                        ".gz log (default: the cache directory's "
                        "log; skipped when absent)")
    p.add_argument("--html", metavar="FILE", default=None,
                   help="also write a self-contained HTML dashboard")
    p.add_argument("--phases", type=int, default=8,
                   help="program-phase windows (default 8)")
    p.add_argument("--regions", type=int, default=4,
                   help="bit regions per structure entry (default 4)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--color", action="store_const", const=True,
                       default=None,
                       help="force ANSI colour on")
    group.add_argument("--no-color", dest="color",
                       action="store_const", const=False,
                       help="force ANSI colour off")
    p.set_defaults(func=_cmd_dashboard)

    p = sub.add_parser(
        "serve",
        help="live campaign observatory (SSE dashboard + JSON APIs)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8000,
                   help="TCP port; 0 binds an ephemeral port and "
                        "prints the bound address on stdout")
    p.add_argument("--cache", default=None,
                   help="campaign cache directory (default: "
                        "REPRO_CACHE_DIR)")
    p.add_argument("--events", default=None,
                   help="events.jsonl to tail (default: the cache "
                        "directory's log)")
    p.add_argument("--allow-replay", action="store_true",
                   help="enable the per-run trace drill-down "
                        "endpoint (the one route that simulates; "
                        "everything else renders from sidecars)")
    p.add_argument("--poll-interval", type=float, default=0.5,
                   help="SSE tail poll period in seconds "
                        "(default 0.5)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("trace", help="dynamic instruction trace")
    common(p)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--count", type=int, default=60)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("ace", help="analytical ACE-lifetime AVF")
    common(p)
    p.add_argument("--compare", action="store_true",
                   help="compare against injection AVF")
    p.add_argument("-n", type=int, default=30)
    p.set_defaults(func=_cmd_ace)

    p = sub.add_parser("fit", help="FIT-rate report per structure")
    common(p)
    p.add_argument("-n", type=int, default=30)
    p.add_argument("--fit-per-bit", type=float, default=1.0e-4)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("study", help="cross-layer comparison")
    p.add_argument("--workloads", default="sha,qsort,fft,crc32")
    p.add_argument("--config", default="cortex-a72")
    p.add_argument("--methods", default="svf,pvf,avf")
    p.add_argument("--n-avf", type=int, default=20)
    p.add_argument("--n-pvf", type=int, default=80)
    p.add_argument("--n-svf", type=int, default=80)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-fastpath", dest="fastpath",
                   action="store_const", const=False, default=None,
                   help="disable the checkpoint fast path and "
                        "simulate every run from reset (default: "
                        "REPRO_FASTPATH, on)")
    _add_planner_flags(p)
    _add_progress_flags(p)
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("casestudy", help="hardening case study (§VI.B)")
    common(p)
    p.add_argument("--n-avf", type=int, default=20)
    p.add_argument("--n-pvf", type=int, default=80)
    p.add_argument("--n-svf", type=int, default=80)
    p.set_defaults(func=_cmd_casestudy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout consumer (head, less) closed the pipe; exit quietly
        # without letting the interpreter complain about the dead fd
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
