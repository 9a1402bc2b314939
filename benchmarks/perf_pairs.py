"""Alternating base/change pairs of the committed benchmark.

    python benchmarks/perf_pairs.py --base HEAD --pairs 5 \
        --workload arch-scalar --seconds 24

Checks the base revision out with ``git worktree add`` into a
temporary directory.  Each pair then runs ``perfbench/run.py --trace 0``
once in that checkout (the parent) and once in this working tree (the
change, uncommitted edits included), with the same seed; pair *k* uses
``--seed`` + *k*, and the side that runs first swaps from one pair to
the next.  Nothing under ``perfbench/`` is touched: each side runs its
own copy.

Prints, per workload and per end-to-end metric of ``BENCHMARK.json``,
one row of the table format EXPERIMENTS.md uses — median [lower
quartile, upper quartile] of each side, change ÷ parent, and in how
many pairs the change was better — then each pair's values and the
median [quartiles] of the per-pair change ÷ parent ratios.  Exits 1
if any run was not ``correct`` or had failed injections.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import quantiles

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="git revision of the parent side")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair")
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    args = parser.parse_args(argv)
    args.workload = args.workload or names
    return args


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in *tree*; its final JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"perfbench in {tree} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list) -> tuple:
    """(median, lower quartile, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q2, q1, q3


def _num(value: float) -> str:
    return f"{value:.4g}"


def summarize(workload: str, pairs: list) -> list:
    """Table rows (Markdown) for one workload's ``[(parent, change)]``
    result pairs."""
    rows = []
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        higher = metric["better"] == "higher"
        base = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(base, change))
        bm, bq1, bq3 = spread(base)
        cm, cq1, cq3 = spread(change)
        ratio = f"{cm / bm:.3g}x" if bm else "-"
        rows.append(
            f"| `{workload}` | `{name}` | {_num(bm)} [{_num(bq1)}, "
            f"{_num(bq3)}] | {_num(cm)} [{_num(cq1)}, {_num(cq3)}] | "
            f"{ratio} | {wins}/{len(pairs)} |")
    return rows


def per_pair(workload: str, pairs: list, seeds: list) -> list:
    """Notes under the table: per metric, each pair's values, and the
    median [quartiles] of each pair's change ÷ parent ratio.  Pair *k*
    runs at its own seed, so the sides' quartiles mix the seeds'
    different work with host noise; the ratios hold only the noise and
    the change."""
    lines = []
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                  for p, c in pairs]
        cells = ", ".join(f"{seed} {_num(p)}/{_num(c)}"
                          for seed, (p, c) in zip(seeds, values))
        lines.append(f"Per pair (seed parent/change), `{workload}` "
                     f"`{name}`: {cells}.")
        ratios = [c / p for p, c in values if p]
        if ratios:
            median, q1, q3 = spread(ratios)
            lines.append(f"Per-pair change ÷ parent, `{workload}` "
                         f"`{name}`: {median:.3g}x [{q1:.3g}x, "
                         f"{q3:.3g}x].")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    sha = subprocess.run(["git", "rev-parse", "--short", args.base],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    scratch = Path(tempfile.mkdtemp(prefix="perf-pairs-"))
    base_tree = scratch / "base"
    subprocess.run(["git", "worktree", "add", "--detach", str(base_tree),
                    args.base], cwd=ROOT, check=True, capture_output=True)
    table, notes, bad = [], [], []
    try:
        for workload in args.workload:
            pairs, seeds = [], []
            for k in range(args.pairs):
                seed = args.seed + k
                sides = [("parent", base_tree), ("change", ROOT)]
                if k % 2:
                    sides.reverse()
                got = {}
                for side, tree in sides:
                    result = got[side] = run_bench(tree, workload, seed,
                                                   args.seconds)
                    if not result["correct"] or result["failed"]:
                        bad.append(f"{workload} seed {seed} {side}: "
                                   f"correct={result['correct']} "
                                   f"failed={result['failed']}")
                    print(f"# {workload} seed {seed} {side}: "
                          + ", ".join(
                              f"{m} {_num(v['value'])}"
                              for m, v in result["metrics"].items()),
                          file=sys.stderr, flush=True)
                pairs.append((got["parent"], got["change"]))
                seeds.append(seed)
            table.extend(summarize(workload, pairs))
            notes.extend(per_pair(workload, pairs, seeds))
    finally:
        subprocess.run(["git", "worktree", "remove", "--force",
                        str(base_tree)], cwd=ROOT, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"parent = {args.base} ({sha}), change = working tree; "
          f"`perfbench/run.py --trace 0 --seconds {args.seconds:g}`, "
          f"{args.pairs} pairs, seeds {args.seed}-"
          f"{args.seed + args.pairs - 1}, alternating which side runs "
          f"first. Medians with quartiles:")
    print()
    print("| workload | metric | parent | change | change ÷ parent "
          "| change better |")
    print("|---|---|---|---|---|---|")
    print("\n".join(table))
    print()
    print("\n".join(notes))
    for line in bad:
        print(f"check failed: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
