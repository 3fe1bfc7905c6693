"""Multicast group channel sharing: closed-form outage analysis, channel
assignment search (exhaustive and greedy), and a reproducible Monte Carlo
experiment harness."""

from .allocation import Assignment, SchemeConfig, allocate, build_context
from .combinatorics import (
    distinct_count,
    enumerate_size_vectors,
    reference_count,
    search_space_size,
)
from .geometry import NetworkScenario, generate_scenario
from .harness import ExperimentConfig, parse_config, run_experiment
from .outage import outage_cu, outage_mg
from .params import SimParams
from .power import power_interval

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "ExperimentConfig",
    "NetworkScenario",
    "SchemeConfig",
    "SimParams",
    "allocate",
    "build_context",
    "distinct_count",
    "enumerate_size_vectors",
    "generate_scenario",
    "outage_cu",
    "outage_mg",
    "parse_config",
    "power_interval",
    "reference_count",
    "run_experiment",
    "search_space_size",
    "__version__",
]
