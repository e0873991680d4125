"""Simulation engine, metrics, and the paper's experiment protocols.

:mod:`repro.sim.engine` replays traces against a storage stack;
:mod:`repro.sim.metrics` computes the endurance and overhead metrics of
Section 5; :mod:`repro.sim.experiment` packages the first-failure and
fixed-horizon protocols; :mod:`repro.sim.reporting` builds the report
tables and markdown documents.
"""

from repro.sim.engine import Simulator, SimResult, StopCondition, WearSample
from repro.sim.experiment import (
    DEFAULT_REQUEST_CAP,
    ExperimentSpec,
    logical_sectors_of,
    run_fixed_horizon,
    run_matrix,
    run_until_first_failure,
    workload_params_for,
)
from repro.sim.metrics import (
    SECONDS_PER_YEAR,
    EraseDistribution,
    first_failure_years,
    improvement_ratio,
    increased_ratio,
)
from repro.sim.reporting import endurance_markdown_report, markdown_report

__all__ = [
    "DEFAULT_REQUEST_CAP",
    "EraseDistribution",
    "ExperimentSpec",
    "SECONDS_PER_YEAR",
    "SimResult",
    "Simulator",
    "StopCondition",
    "WearSample",
    "endurance_markdown_report",
    "first_failure_years",
    "improvement_ratio",
    "increased_ratio",
    "logical_sectors_of",
    "markdown_report",
    "run_fixed_horizon",
    "run_matrix",
    "run_until_first_failure",
    "workload_params_for",
]
