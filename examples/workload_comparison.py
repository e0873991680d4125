#!/usr/bin/env python3
"""When does static wear leveling pay off?  A workload comparison.

Runs the SW Leveler against four access patterns — the paper's mobile-PC
mix, uniform random, Zipf-skewed, and an append-only circular log — on
the same chip, and tabulates each run's erase-count deviation with and
without SWL.  The rule of thumb it demonstrates: SWL's benefit is proportional to
how much of the device sits pinned under write-once data, not to how
skewed the *active* traffic is.

Run:  python examples/workload_comparison.py     (under a minute)
"""

from __future__ import annotations

from repro import SWLConfig, build_stack
from repro.flash.geometry import FlashGeometry
from repro.sim.engine import Simulator, StopCondition
from repro.sim.metrics import EraseDistribution, improvement_ratio
from repro.traces.generator import (
    MobilePCWorkload,
    ShapeParams,
    WorkloadParams,
    make_shape,
)
from repro.traces.model import Op, Request
from repro.util.tables import Table

GEOMETRY = FlashGeometry(64, 32, 2048, 300, name="demo-64b")
SECTORS = 55 * 32 * 4  # the logical space the drivers will export


def mobile_pc():
    params = WorkloadParams(total_sectors=SECTORS, duration=6 * 3600.0, seed=4)
    workload = MobilePCWorkload(params)
    return workload.prefill_requests() + workload.requests()


def shaped(name: str, pinned: float, **kwargs):
    """One hour of a workload shape behind a write-once pinned prefix.

    The lowest ``pinned`` fraction of the device is written once up front
    (the data the SW Leveler must keep moving); the shape then runs in
    the region above it, its LBAs offset past the prefix.
    """
    step = 8
    pinned_sectors = int(SECTORS * pinned)
    prefill = [
        Request(0.0, Op.WRITE, start, min(step, pinned_sectors - start))
        for start in range(0, pinned_sectors, step)
    ]
    params = ShapeParams(
        total_sectors=SECTORS - pinned_sectors, rate=30.0,
        request_sectors=step, seed=4,
    )
    hour = make_shape(name, params, **kwargs).requests(3600.0)
    return prefill + [
        Request(r.time, r.op, pinned_sectors + r.lba, r.sectors) for r in hour
    ]


WORKLOADS = {
    "mobile-pc (paper)": mobile_pc,
    "uniform, no pinned data": lambda: shaped("uniform", 0.0),
    "zipf a=1.2, 50% pinned": lambda: shaped("hotspot", 0.5, theta=1.2),
    "circular log, 60% pinned": lambda: shaped("sequential", 0.6),
}


def run(trace, with_swl: bool):
    stack = build_stack(
        GEOMETRY, "ftl",
        SWLConfig(threshold=20, k=0) if with_swl else None,
    )
    simulator = Simulator(stack, skip_reads=True)
    stop = StopCondition(until_first_failure=True, max_requests=3_000_000)

    def cyclic():  # replay the finite trace cyclically until wear-out
        offset = 0.0
        while True:
            for request in trace:
                yield type(request)(request.time + offset, request.op,
                                    request.lba, request.sectors)
            offset += trace[-1].time + 1.0

    result = simulator.run(cyclic(), stop)
    return result, stack.flash.erase_counts


def main() -> None:
    rows = []
    for name, build_trace in WORKLOADS.items():
        trace = build_trace()
        baseline, baseline_counts = run(trace, with_swl=False)
        leveled, _ = run(trace, with_swl=True)
        gain = improvement_ratio(
            leveled.first_failure_time or leveled.sim_time,
            baseline.first_failure_time or baseline.sim_time,
        )
        distribution = EraseDistribution.from_counts(baseline_counts)
        rows.append(
            [name,
             round(distribution.deviation),
             round(leveled.erase_distribution.deviation),
             f"{gain:+.1f}%"]
        )
    print(Table(
        ["Workload", "Baseline dev.", "Leveled dev.", "SWL lifetime gain"],
        rows,
        title="Static wear leveling benefit by workload shape",
    ).text())
    print(
        "\nUniform traffic with nothing pinned gains ~nothing (dynamic wear "
        "leveling already suffices); the more of the chip sits under "
        "write-once data, the more lifetime the SW Leveler recovers."
    )


if __name__ == "__main__":
    main()
