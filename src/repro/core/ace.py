"""ACE lifetime analysis — the analytical AVF baseline.

The paper's methodology discussion (§II.A) contrasts fault injection
with **ACE analysis** (Mukherjee et al. [20]): instead of injecting,
ACE profiles the lifetime of every bit and declares an interval *ACE*
(Architecturally Correct Execution required) whenever the value will
still be consumed.  ACE is fast but *pessimistic* — it counts every
would-be-consumed bit as vulnerable even when the program would mask
the corruption downstream — which is exactly why the paper (like [34])
bases its ground truth on injection.  This module implements the
classic lifetime analysis so the pessimism can be measured:

* **RF** — a physical register is ACE from each write to its *last*
  read before reclamation; write-to-reclaim tails with no reader are
  un-ACE.
* **LSQ** — an entry is ACE from allocation to commit.
* **L1D lines** — a line-granularity approximation: an interval
  between consecutive touches is ACE when the *later* touch is a read
  (fill-to-last-read lifetimes); tails after the final read are
  un-ACE.

`ACE AVF = sum(ACE bit-cycles) / (structure bits x total cycles)`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..uarch.config import MicroarchConfig, config_by_name

_LINE = 64


@dataclass
class LifetimeTracker:
    """Receives lifetime events from an instrumented pipeline run."""

    xlen: int

    # RF: phys -> (write_cycle, last_read_cycle or None)
    _reg_open: dict = field(default_factory=dict)
    reg_ace_cycles: float = 0.0

    # LSQ: plain alloc->commit intervals
    lsq_ace_cycles: float = 0.0

    # memory lines: line id -> (last_touch_cycle)
    _line_last: dict = field(default_factory=dict)
    line_ace_cycles: float = 0.0
    lines_touched: set = field(default_factory=set)

    # ------------------------------------------------------------------
    # event sinks (observer methods; see PipelineEngine.observer)
    # ------------------------------------------------------------------
    def reg_write(self, phys: int, cycle: float) -> None:
        self._close_reg(phys)
        self._reg_open[phys] = (cycle, None)

    def reg_read(self, phys: int, cycle: float) -> None:
        interval = self._reg_open.get(phys)
        if interval is not None:
            self._reg_open[phys] = (interval[0], cycle)

    def reg_release(self, phys: int, cycle: float) -> None:
        self._close_reg(phys)

    def _close_reg(self, phys: int) -> None:
        interval = self._reg_open.pop(phys, None)
        if interval is not None and interval[1] is not None:
            self.reg_ace_cycles += max(0.0, interval[1] - interval[0])

    def lsq_op(self, alloc: float, commit: float) -> None:
        self.lsq_ace_cycles += max(0.0, commit - alloc)

    def mem_access(self, addr: int, nbytes: int, is_store: bool,
                   cycle: float) -> None:
        for line in range(addr // _LINE, (addr + nbytes - 1) // _LINE
                          + 1):
            self.lines_touched.add(line)
            last = self._line_last.get(line)
            if last is not None and not is_store:
                # the interval since the previous touch had to be
                # preserved for this read -> ACE
                self.line_ace_cycles += max(0.0, cycle - last)
            self._line_last[line] = cycle

    # ------------------------------------------------------------------
    def finalise(self) -> None:
        for phys in list(self._reg_open):
            self._close_reg(phys)


@dataclass(frozen=True)
class AceResult:
    """Analytical AVF estimates for one (workload, config)."""

    workload: str
    config_name: str
    cycles: float
    avf: dict           # structure -> ACE AVF estimate

    def summary(self) -> str:
        parts = ", ".join(f"{k}={v * 100:.3f}%"
                          for k, v in self.avf.items())
        return (f"ACE {self.workload}@{self.config_name}: {parts} "
                f"({self.cycles:.0f} cycles)")


def ace_analysis(workload: str,
                 config: "MicroarchConfig | str") -> AceResult:
    """Replay the golden execution instrumented and compute ACE AVFs."""
    from ..injectors.golden import replay_golden

    config = (config_by_name(config) if isinstance(config, str)
              else config)
    tracker = LifetimeTracker(xlen=config.xlen)
    result = replay_golden(workload, config.name, observer=tracker)
    tracker.finalise()

    cycles = max(result.cycles, 1.0)
    rf_bit_cycles = config.n_phys_regs * cycles
    lsq_bit_cycles = config.lsq_size * cycles
    # line-granularity D-cache estimate over the lines actually used
    l1d_lines = config.l1d.size // config.l1d.line_size
    l1d_bit_cycles = l1d_lines * cycles

    avf = {
        "RF": min(1.0, tracker.reg_ace_cycles / rf_bit_cycles),
        "LSQ": min(1.0, tracker.lsq_ace_cycles / lsq_bit_cycles),
        "L1D": min(1.0, tracker.line_ace_cycles / l1d_bit_cycles),
    }
    return AceResult(workload=workload, config_name=config.name,
                     cycles=cycles, avf=avf)


def pessimism_vs_injection(workload: str, config_name: str,
                           n: int = 30, seed: int = 1) -> dict:
    """structure -> (ACE estimate, injection AVF) for comparison."""
    from ..injectors.campaign import run_campaign

    analytical = ace_analysis(workload, config_name)
    out = {}
    for structure in ("RF", "LSQ", "L1D"):
        campaign = run_campaign(workload, config_name,
                                injector="gefin", structure=structure,
                                n=n, seed=seed)
        out[structure] = (analytical.avf[structure],
                          campaign.vulnerability())
    return out
