"""``workload × policy`` endurance matrix cells.

The paper's sweeps vary the *policy* (k, T, driver) against one fixed
trace; the endurance matrix varies the *workload shape* too.  An
:class:`EnduranceCell` names one (workload, spec) pairing; the runner
groups cells by workload, materializes each shape's trace once (sized to
the largest logical space among that workload's specs — smaller backends
wrap via the replay engine's LBA modulo), and dispatches each group
through :func:`repro.sim.experiment.run_matrix`, so worker fan-out comes
along for free.  Each replay is then projected through
:func:`repro.endurance.projection.project_endurance`.

Generated traces flow through the same
:class:`~repro.traces.extend.SegmentResampler` protocol as the paper's
trace (random 10-minute segments), so the base trace must cover at least
two segments — phase-shifting structure is preserved at segment
granularity (see DESIGN.md §5h).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.endurance.projection import EnduranceProjection, project_endurance
from repro.sim.experiment import logical_sectors_of, run_matrix
from repro.traces.extend import SEGMENT_SECONDS
from repro.traces.generator import (
    DEFAULT_PHASE_PERIOD,
    DEFAULT_THETA,
    ShapeParams,
    make_shape,
)

if TYPE_CHECKING:
    from repro.sim.engine import SimResult
    from repro.sim.experiment import ExperimentSpec

#: Minimum generated base-trace duration: two resampler segments.
MIN_TRACE_DURATION = 2 * SEGMENT_SECONDS


@dataclass(frozen=True)
class EnduranceCell:
    """One matrix cell: a workload shape name × a backend spec."""

    workload: str
    spec: "ExperimentSpec"

    def label(self) -> str:
        return f"{self.workload}×{self.spec.label()}"


@dataclass(frozen=True)
class EnduranceCellResult:
    """A cell's replay outcome and its lifetime projection."""

    cell: EnduranceCell
    replay: "SimResult"
    projection: EnduranceProjection


def endurance_cells(
    workloads: list[str], specs: list["ExperimentSpec"]
) -> list[EnduranceCell]:
    """The full cross product, workload-major (matching report layout)."""
    return [
        EnduranceCell(workload=workload, spec=spec)
        for workload in workloads
        for spec in specs
    ]


def run_endurance_matrix(
    cells: list[EnduranceCell],
    *,
    horizon: float,
    rate: float = 4.0,
    request_sectors: int = 8,
    theta: float = DEFAULT_THETA,
    period: float = DEFAULT_PHASE_PERIOD,
    seed: int = 0,
    workers: int | None = None,
) -> list[EnduranceCellResult]:
    """Run every cell for ``horizon`` simulated seconds and project it.

    Results come back in cell order.

    Within one workload group the trace is generated **once** from the
    shape's own seeded RNG stream, so every spec of that workload sees
    identical requests — the paper's fair-comparison discipline, applied
    per workload shape.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    groups: dict[str, list[int]] = {}
    for index, cell in enumerate(cells):
        groups.setdefault(cell.workload, []).append(index)
    results: dict[int, EnduranceCellResult] = {}
    base_duration = max(horizon, MIN_TRACE_DURATION)
    for workload, indices in groups.items():
        group_specs = [cells[index].spec for index in indices]
        sectors = max(logical_sectors_of(spec) for spec in group_specs)
        shape = make_shape(
            workload,
            ShapeParams(
                total_sectors=sectors,
                rate=rate,
                request_sectors=request_sectors,
                seed=seed,
            ),
            theta=theta,
            period=period,
        )
        trace = shape.requests(base_duration)
        replays = run_matrix(group_specs, trace, horizon=horizon, workers=workers)
        for index, replay in zip(indices, replays):
            cell = cells[index]
            results[index] = EnduranceCellResult(
                cell=cell,
                replay=replay,
                projection=project_endurance(
                    replay, cell.spec.geometry, label=cell.label()
                ),
            )
    return [results[index] for index in range(len(cells))]
