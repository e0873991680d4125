"""Tournament runner: every leveler through the shared matrices.

One :func:`run_arena` call drives each roster entry through

* the **workload matrix** — fixed-horizon replays over the shared
  workload shapes (:func:`repro.endurance.run_endurance_matrix`), every
  mechanism of one workload seeing bit-identical requests, projected to
  endurance via :mod:`repro.endurance.projection`;
* a **service soak** — the open-loop engine serving ``service_requests``
  requests of the first workload's trace onto a freshly built, *empty*
  stack (:func:`repro.sim.experiment.run_service_soak`).  At the default
  2,000 requests no contender erases a block, so ``p99_s`` is bare
  program latency — one float for every mechanism that does not
  intercept writes — not leveling interference (ROADMAP, aim-3 audit);
* a **fault campaign** — the transient-fault soak plus the swept
  power-loss crash-consistency check
  (:func:`repro.fault.run_fault_campaign`), because a leveler that
  corrupts data under power loss has no business winning.

Cross-mechanism accounting notes:

* **Extra erases** are each cell's total erases minus the same
  workload's baseline cell — the paper's Figure 6 quantity, generalized
  to any mechanism.
* **WAF** is exact, from the identity ``total_programs == pages_written
  + live_page_copies`` — except for write-intercepting mechanisms,
  where host pages absorbed by the cache (hits plus the still-resident
  set) never reach flash; the arena subtracts them so the column stays
  "physical programs per host page" for every contender.
* **RAM** is each mechanism's own ``ram_bytes`` accounting (Table 1 for
  the BET; full counter array, page buffers, or a bare cursor for the
  challengers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.policies import LevelerSpec
from repro.endurance.matrix import endurance_cells, run_endurance_matrix
from repro.fault.campaign import run_fault_campaign
from repro.fault.plan import FaultPlan
from repro.flash.geometry import FlashGeometry
from repro.ftl.factory import build_stack
from repro.sim.experiment import (
    ExperimentSpec,
    logical_sectors_of,
    run_service_soak,
)
from repro.traces.extend import SEGMENT_SECONDS
from repro.traces.generator import ShapeParams, make_shape

#: The shipped tournament roster, in leaderboard row order: the paper's
#: baseline and SW Leveler, then one challenger per prior-art philosophy.
DEFAULT_ROSTER: dict[str, LevelerSpec] = {
    "baseline": LevelerSpec(enabled=False),
    "swl": LevelerSpec(kind="swl"),
    "dual-pool": LevelerSpec(kind="dual-pool"),
    "cache-avoid": LevelerSpec(kind="cache-avoid"),
    "softwear": LevelerSpec(kind="softwear"),
}

#: Default workload shapes: skewed, streaming, and blended access — the
#: three regimes that separate leveling philosophies most sharply.
DEFAULT_WORKLOADS = ("hotspot", "sequential", "mixed")

#: Trace time compression of the service soak.
SERVICE_SPEEDUP = 50.0

#: Writes of each entry's fault-campaign soak, and its power-loss points.
FAULT_SOAK_WRITES = 600
FAULT_LOSS_POINTS = 10


def roster_specs(levelers: list[str] | tuple[str, ...]) -> dict[str, LevelerSpec]:
    """Resolve roster names to :class:`LevelerSpec` values, in order."""
    unknown = [name for name in levelers if name not in DEFAULT_ROSTER]
    if unknown:
        raise ValueError(
            f"unknown arena leveler(s) {unknown}; "
            f"choose from {sorted(DEFAULT_ROSTER)}"
        )
    return {name: DEFAULT_ROSTER[name] for name in levelers}


@dataclass(frozen=True)
class ArenaCellResult:
    """One (workload × leveler) cell of the tournament."""

    workload: str
    leveler: str                    #: roster name (``swl``, ``dual-pool``, ...)
    label: str                      #: mechanism label (``SWL+k=0+T=100``, ...)
    total_erases: int
    extra_erases: int               #: vs the same workload's baseline cell
    waf: float                      #: physical programs per host page (exact)
    wear_skew: float                #: max / average erase count
    endurance_days: float           #: projected first failure at 1x pace
    swl_erases: int                 #: erases attributed to the mechanism
    swl_copies: int                 #: live copies attributed to the mechanism

    def as_dict(self) -> dict[str, object]:
        return {
            "workload": self.workload,
            "leveler": self.leveler,
            "label": self.label,
            "total_erases": self.total_erases,
            "extra_erases": self.extra_erases,
            "waf": self.waf,
            "wear_skew": self.wear_skew,
            "endurance_days": self.endurance_days,
            "swl_erases": self.swl_erases,
            "swl_copies": self.swl_copies,
        }


@dataclass(frozen=True)
class ArenaEntryResult:
    """One leveler's leaderboard row, aggregated over every workload."""

    leveler: str
    label: str
    ram_bytes: int
    endurance_days: float           #: mean projected first failure
    endurance_gain: float           #: mean endurance / baseline endurance
    extra_erases: int               #: summed over workloads
    waf: float                      #: mean exact WAF
    p99_s: float                    #: service-soak p99 latency (seconds)
    faults_ok: bool                 #: fault campaign verdict

    def as_dict(self) -> dict[str, object]:
        return {
            "leveler": self.leveler,
            "label": self.label,
            "ram_bytes": self.ram_bytes,
            "endurance_days": self.endurance_days,
            "endurance_gain": self.endurance_gain,
            "extra_erases": self.extra_erases,
            "waf": self.waf,
            "p99_s": self.p99_s,
            "faults_ok": self.faults_ok,
        }


@dataclass(frozen=True)
class ArenaResult:
    """Full tournament outcome: per-cell detail plus the leaderboard."""

    geometry: str
    driver: str
    horizon_s: float
    seed: int
    workloads: tuple[str, ...]
    cells: list[ArenaCellResult] = field(default_factory=list)
    leaderboard: list[ArenaEntryResult] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return {
            "geometry": self.geometry,
            "driver": self.driver,
            "horizon_s": self.horizon_s,
            "seed": self.seed,
            "workloads": list(self.workloads),
            "cells": [cell.as_dict() for cell in self.cells],
            "leaderboard": [entry.as_dict() for entry in self.leaderboard],
        }


def arena_waf(
    pages_written: int, live_page_copies: int, swl_stats: dict[str, int]
) -> float:
    """Exact physical-programs-per-host-page, cache absorption included.

    For every erase-count mechanism this is the repo's standard identity
    ``(pages_written + live_page_copies) / pages_written``.  A
    write-intercepting cache absorbs ``cache_hits`` rewrites outright
    and still holds ``cache_resident`` dirty pages that never reached
    flash, so those host pages programmed nothing (yet) and leave the
    numerator.
    """
    if pages_written <= 0:
        return 0.0
    absorbed = swl_stats.get("cache_hits", 0) + swl_stats.get(
        "cache_resident", 0
    )
    return (pages_written - absorbed + live_page_copies) / pages_written


def _ram_bytes(
    geometry: FlashGeometry, driver: str, spec: LevelerSpec
) -> int:
    """Controller RAM of the mechanism a spec builds (0 when disabled)."""
    if not spec.enabled:
        return 0
    stack = build_stack(geometry, driver, spec)
    assert stack.leveler is not None
    return stack.leveler.ram_bytes


def run_arena(
    geometry: FlashGeometry,
    driver: str = "ftl",
    *,
    workloads: tuple[str, ...] | list[str] = DEFAULT_WORKLOADS,
    levelers: tuple[str, ...] | list[str] = tuple(DEFAULT_ROSTER),
    horizon: float = 0.25 * 86_400.0,
    rate: float = 4.0,
    seed: int = 0,
    workers: int | None = None,
    service_requests: int = 2_000,
    run_faults: bool = True,
) -> ArenaResult:
    """Run the tournament and build the leaderboard.

    Every leveler replays every workload over ``horizon`` simulated
    seconds; each workload's trace is materialized once, so all
    mechanisms of one workload see bit-identical requests (and the
    paper-SWL cells replay exactly as the paper-protocol runners' stack
    does — same construction, same RNG streams).  ``run_faults=False``
    skips the fault campaign (its column reports ``True`` trivially);
    smoke configurations use it to stay fast.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not workloads:
        raise ValueError("arena needs at least one workload shape")
    roster = roster_specs(tuple(levelers))
    specs = {
        name: ExperimentSpec(driver, geometry, spec, seed=seed)
        for name, spec in roster.items()
    }

    # ---- workload matrix: one endurance cell per (workload, leveler) ----
    cells = endurance_cells(list(workloads), list(specs.values()))
    matrix = run_endurance_matrix(
        cells, horizon=horizon, rate=rate, seed=seed, workers=workers
    )
    names = list(roster)
    per_entry: dict[str, list[ArenaCellResult]] = {name: [] for name in names}
    arena_cells: list[ArenaCellResult] = []
    stride = len(names)
    for group, workload in enumerate(workloads):
        group_results = matrix[group * stride:(group + 1) * stride]
        baseline_erases = (
            group_results[names.index("baseline")].replay.total_erases
            if "baseline" in roster else 0
        )
        for name, result in zip(names, group_results):
            replay = result.replay
            cell = ArenaCellResult(
                workload=workload,
                leveler=name,
                label=roster[name].label(),
                total_erases=replay.total_erases,
                extra_erases=replay.total_erases - baseline_erases,
                waf=arena_waf(
                    replay.pages_written,
                    replay.live_page_copies,
                    replay.swl_stats,
                ),
                wear_skew=result.projection.wear_skew,
                endurance_days=result.projection.projected_first_failure_days,
                swl_erases=replay.swl_stats.get("swl_erases", 0),
                swl_copies=replay.swl_stats.get("swl_copies", 0),
            )
            arena_cells.append(cell)
            per_entry[name].append(cell)

    # ---- service soak: p99 of an empty device (module docstring) --------
    soak_trace = make_shape(
        workloads[0],
        ShapeParams(
            total_sectors=logical_sectors_of(next(iter(specs.values()))),
            rate=rate,
            seed=seed,
        ),
    ).requests(2 * SEGMENT_SECONDS)
    p99: dict[str, float] = {}
    for name, spec in specs.items():
        soak = run_service_soak(
            spec,
            soak_trace,
            trace_speedup=SERVICE_SPEEDUP,
            max_requests=service_requests,
        )
        p99[name] = soak.latency.p99

    # ---- fault campaign: crash survival is table stakes ------------------
    faults_ok: dict[str, bool] = {name: True for name in names}
    if run_faults:
        for name, leveler_spec in roster.items():
            campaign = run_fault_campaign(
                geometry,
                driver,
                leveler_spec if leveler_spec.enabled else None,
                plan=FaultPlan(seed=seed),
                seed=seed,
                soak_writes=FAULT_SOAK_WRITES,
                loss_points=FAULT_LOSS_POINTS,
            )
            faults_ok[name] = campaign.ok

    # ---- leaderboard -----------------------------------------------------
    baseline_days = (
        _mean([c.endurance_days for c in per_entry["baseline"]])
        if "baseline" in roster else 0.0
    )
    leaderboard = []
    for name in names:
        entry_cells = per_entry[name]
        days = _mean([c.endurance_days for c in entry_cells])
        leaderboard.append(
            ArenaEntryResult(
                leveler=name,
                label=roster[name].label(),
                ram_bytes=_ram_bytes(geometry, driver, roster[name]),
                endurance_days=days,
                endurance_gain=(days / baseline_days if baseline_days else 1.0),
                extra_erases=sum(c.extra_erases for c in entry_cells),
                waf=_mean([c.waf for c in entry_cells]),
                p99_s=p99[name],
                faults_ok=faults_ok[name],
            )
        )
    leaderboard.sort(key=lambda entry: entry.endurance_days, reverse=True)
    return ArenaResult(
        geometry=geometry.name,
        driver=driver,
        horizon_s=horizon,
        seed=seed,
        workloads=tuple(workloads),
        cells=arena_cells,
        leaderboard=leaderboard,
    )


def _mean(values: list[float]) -> float:
    finite = [value for value in values if value != float("inf")]
    if not finite:
        return float("inf")
    return sum(finite) / len(finite)
