"""Fault injectors for the three measurement layers.

* :mod:`~repro.injectors.gefin` — microarchitectural (AVF + HVF).
* :mod:`~repro.injectors.archinj` — architecture level (PVF).
* :mod:`~repro.injectors.llfi` — software level (SVF, LLFI model).
* :mod:`~repro.injectors.campaign` — orchestration, caching, stats.
* :mod:`~repro.injectors.engine` — sharded resumable execution.
"""

from .archinj import PVF_MODELS
from .campaign import INJECTORS, CampaignResult, run_campaign
from .engine import (
    Shard,
    ShardFailure,
    atomic_write_text,
    plan_shards,
    run_sharded,
)
from .gefin import InjectionResult, run_one_injection
from .golden import GoldenRun, cache_dir, golden_run

__all__ = [
    "CampaignResult",
    "GoldenRun",
    "INJECTORS",
    "InjectionResult",
    "PVF_MODELS",
    "Shard",
    "ShardFailure",
    "atomic_write_text",
    "cache_dir",
    "golden_run",
    "plan_shards",
    "run_campaign",
    "run_one_injection",
    "run_sharded",
]
