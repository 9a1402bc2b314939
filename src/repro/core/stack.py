"""The system vulnerability stack (the paper's Fig. 2, made executable).

The stack separates the end-to-end AVF into per-layer derating
factors: a fault at the hardware layer reaches the software layer with
probability HVF; a software-visible fault reaches the program output
with probability (1 - software masking).  The decomposition is
*conceptually* multiplicative:

    AVF  =  HVF x (1 - SoftwareMasking)  +  ESC leakage

— where the ESC term is exactly the paper's structural objection: some
faults corrupt the output from below without ever becoming software
visible, so the stack's clean layer separation does not hold.  This
module measures all terms from one microarchitectural campaign so the
discrepancy can be quantified directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Layer(str, Enum):
    HARDWARE = "hardware"          # microarchitectural structures
    ARCHITECTURE = "architecture"  # ISA-visible state
    SOFTWARE = "software"          # user program view
    OUTPUT = "output"              # externally visible result


@dataclass(frozen=True)
class StackDecomposition:
    """Measured per-layer factors of one (workload, core, structure)."""

    avf: float                 # end-to-end vulnerability
    hvf: float                 # activated in hw or exposed above
    reach_software: float      # crossed into the software layer
    software_masking: float    # P(masked | reached software)
    esc_rate: float            # output corrupted with no crossing

    @property
    def layered_estimate(self) -> float:
        """AVF as the stack concept would compose it (ESC excluded)."""
        return self.reach_software * (1.0 - self.software_masking)


def decompose(campaign) -> StackDecomposition:
    """Decompose a gefin :class:`CampaignResult` into stack factors."""
    results = campaign.results
    n = len(results)
    if not n:
        raise ValueError("cannot decompose an empty campaign")
    w = campaign.occupancy_weight
    crossed = sum(1 for r in results if r.crossed)
    vulnerable_crossed = sum(1 for r in results
                             if r.crossed and r.vulnerable)
    esc = sum(1 for r in results if r.fpm == "ESC")
    software_masking = (1.0 - vulnerable_crossed / crossed) if crossed \
        else 0.0
    return StackDecomposition(
        avf=campaign.vulnerability(),
        hvf=campaign.hvf(),
        reach_software=w * crossed / n,
        software_masking=software_masking,
        esc_rate=w * esc / n,
    )
