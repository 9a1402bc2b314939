"""``repro trace-fault --window``: the golden instruction window must
show the instruction the fault hit."""

from __future__ import annotations

import re

import pytest

from repro.cli import main
from repro.isa.registers import MR64
from repro.obs.trace_diff import capture_diff
from repro.obs.tracing import trace_run
from repro.uarch.trace import trace_program
from repro.workloads.suite import load_workload

CONFIG = "cortex-a72"


def _window_range(out: str) -> range:
    match = re.search(r"\(instructions (\d+)\.\.(\d+)\):", out)
    assert match, out
    return range(int(match.group(1)), int(match.group(2)) + 1)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_svf_window_contains_the_flipped_instruction(capsys, seed):
    # svf counts user instructions that write a register; the window
    # lists every instruction on the sim-kernel stream
    trace, _ = trace_run("svf", "crc32", CONFIG, seed)
    when = int(trace.inject_cycle)
    stream = trace_program(load_workload("crc32", MR64), count=10**6)
    user_dest = [entry.index for entry in stream.entries
                 if not entry.in_kernel and entry.dest is not None]
    flipped = user_dest[when]

    assert main(["trace-fault", "crc32", "--config", CONFIG,
                 "--injector", "svf", "--seed", str(seed)]) == 0
    assert flipped in _window_range(capsys.readouterr().out)


def test_pvf_window_centres_on_the_instruction_count(capsys):
    trace, _ = trace_run("pvf", "crc32", CONFIG, 8, model="WD")
    assert main(["trace-fault", "crc32", "--config", CONFIG,
                 "--injector", "pvf", "--model", "WD",
                 "--seed", "8"]) == 0
    assert int(trace.inject_cycle) \
        in _window_range(capsys.readouterr().out)


@pytest.mark.parametrize("workload, structure, seed", (
    ("sha", "RF", 7), ("sha", "L1D", 8), ("crc32", "LSQ", 9),
    ("crc32", "L2", 11)))
def test_gefin_window_contains_the_injected_instruction(
        capsys, workload, structure, seed):
    # the diff capture's injection anchor is the first instruction the
    # faulty pipeline runs after the flip lands
    injected = capture_diff("gefin", workload, CONFIG, seed,
                            structure=structure)["anchors"]["injected"]
    assert injected is not None
    assert main(["trace-fault", workload, "--config", CONFIG,
                 "--injector", "gefin", "--structure", structure,
                 "--seed", str(seed)]) == 0
    assert injected in _window_range(capsys.readouterr().out)
