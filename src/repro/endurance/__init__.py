"""Lifetime projection: WAF, TBW, DWPD, and first-failure horizons.

:mod:`repro.endurance.projection` holds the single WAF-aware
extrapolation chokepoint (:func:`first_failure_horizon`) and the
:class:`EnduranceProjection` record built from any measured replay;
:mod:`repro.endurance.matrix` crosses workload shapes with backend
specs into ``workload × policy`` cells, run serially or under the
campaign supervisor.  The ``repro endure`` CLI
subcommand is the front end.
"""

from repro.endurance.matrix import (
    MIN_TRACE_DURATION,
    EnduranceCell,
    EnduranceCellResult,
    endurance_cells,
    run_endurance_matrix,
)
from repro.endurance.projection import (
    SECONDS_PER_DAY,
    EnduranceProjection,
    first_failure_horizon,
    project_endurance,
)

__all__ = [
    "EnduranceCell",
    "EnduranceCellResult",
    "EnduranceProjection",
    "MIN_TRACE_DURATION",
    "SECONDS_PER_DAY",
    "endurance_cells",
    "first_failure_horizon",
    "project_endurance",
    "run_endurance_matrix",
]
