#!/usr/bin/env python3
"""SLC vs MLC×2 endurance: the paper's future-work direction.

Paper Section 1: "the endurance of a block of MLC×2 flash memory is only
10,000 erase counts, compared to the 100,000 erase counts of its
counterpart of SLC flash memory"; the conclusion singles out "low-cost
solutions, such as MLC" for future reliability work.  This example runs
the same workload on an SLC-style chip and an MLC×2-style chip of equal
capacity (both endurance-scaled by the same factor) and shows why static
wear leveling matters ten times more for MLC.

Run:  python examples/mlc_vs_slc.py    (~2-4 minutes)
"""

from __future__ import annotations

from repro import SWLConfig
from repro.flash.geometry import CellType, FlashGeometry
from repro.sim.experiment import (
    ExperimentSpec,
    run_until_first_failure,
    workload_params_for,
)
from repro.sim.metrics import improvement_ratio
from repro.traces.generator import DAY, MobilePCWorkload
from repro.util.tables import Table

SCALE = 10  # endurance divided by 10 so runs finish in minutes


def geometry_for(cell: CellType) -> FlashGeometry:
    """Equal-capacity chips: MLC×2 packs 128 pages/block, SLC 64."""
    if cell is CellType.MLC2:
        return FlashGeometry(48, 128, 2048, 10_000 // SCALE,
                             cell_type=cell, name="mlc2-demo")
    return FlashGeometry(96, 64, 2048, 100_000 // SCALE,
                         cell_type=cell, name="slc-demo")


def main() -> None:
    rows = []
    for cell in (CellType.SLC, CellType.MLC2):
        geometry = geometry_for(cell)
        probe = ExperimentSpec("nftl", geometry, seed=2)
        params = workload_params_for(probe, duration=DAY, seed=13)
        workload = MobilePCWorkload(params)
        trace = workload.requests()
        warmup = workload.prefill_requests()

        baseline = run_until_first_failure(
            ExperimentSpec("nftl", geometry, None, seed=2), trace, warmup=warmup
        )
        leveled = run_until_first_failure(
            ExperimentSpec("nftl", geometry, SWLConfig(threshold=100, k=0), seed=2),
            trace, warmup=warmup,
        )
        gain = improvement_ratio(
            leveled.first_failure_time, baseline.first_failure_time
        )
        rows.append(
            [cell.value.upper(),
             geometry.endurance * SCALE,
             round(baseline.first_failure_time / DAY, 2),
             round(leveled.first_failure_time / DAY, 2),
             f"{gain:+.1f}%"]
        )
    print(Table(
        ["Cell type", "Rated endurance", "Baseline failure (days)",
         "With SWL (days)", "SWL gain"],
        rows,
        title=f"Same NFTL workload, equal capacity (endurance scaled 1/{SCALE})",
    ).text())
    slc_days, mlc_days = rows[0][2], rows[1][2]
    print(
        f"\nThe MLC×2 device dies ~{slc_days / max(mlc_days, 1e-9):.0f}x sooner "
        "than SLC under the identical workload; static wear leveling is the "
        "difference between a usable and an unusable low-cost device — the "
        "paper's closing argument."
    )


if __name__ == "__main__":
    main()
