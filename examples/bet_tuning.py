#!/usr/bin/env python3
"""Choosing the BET resolution k and the threshold T for a controller.

A firmware engineer adopting the SW Leveler has two knobs (paper
Sections 3.2-3.3): the BET resolution ``k`` trades controller RAM against
overlooked cold blocks, and the unevenness threshold ``T`` trades
leveling quality against overhead.  This example sweeps both on one
workload and prints the resulting design space, together with the
analytic worst-case overhead bounds of Section 4 for the full-size chip.

Run:  python examples/bet_tuning.py     (~2-4 minutes)
"""

from __future__ import annotations

from repro import SWLConfig
from repro.analysis.memory import bet_size_bytes
from repro.analysis.overhead import WorstCaseConfig
from repro.flash.geometry import MLC2_1GB
from repro.sim.experiment import (
    ExperimentSpec,
    run_fixed_horizon,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.traces.generator import DAY, MobilePCWorkload
from repro.util.tables import Table


def main() -> None:
    geometry = scaled_mlc2_geometry(48, scale=10)
    probe = ExperimentSpec("ftl", geometry, seed=5)
    params = workload_params_for(probe, duration=DAY, seed=11)
    workload = MobilePCWorkload(params)
    trace = workload.requests()
    warmup = workload.prefill_requests()
    horizon = 3 * DAY

    baseline = run_fixed_horizon(
        ExperimentSpec("ftl", geometry, None, seed=5), trace, horizon, warmup=warmup
    )
    rows = []
    for k in (0, 1, 2):
        for threshold in (100, 400):
            spec = ExperimentSpec(
                "ftl", geometry, SWLConfig(threshold=threshold, k=k), seed=5
            )
            result = run_fixed_horizon(spec, trace, horizon, warmup=warmup)
            extra = 100.0 * (result.total_erases / baseline.total_erases - 1.0)
            rows.append(
                [k, threshold,
                 f"{bet_size_bytes(geometry.num_blocks, k)}B",
                 round(result.erase_distribution.deviation, 1),
                 f"{extra:+.1f}%"]
            )
    print(Table(
        ["k", "T", "BET RAM", "Erase dev.", "Extra erases"],
        rows,
        title=f"Design space on the simulated chip (baseline dev "
              f"{baseline.erase_distribution.deviation:.0f})",
    ).text())

    # The Section 4 analytic bounds for the real 1 GB part, for context.
    analytic = []
    for threshold in (100, 1000):
        config = WorstCaseConfig(hot_blocks=256, cold_blocks=3840,
                                 threshold=threshold)
        analytic.append(
            [threshold,
             f"{bet_size_bytes(MLC2_1GB.num_blocks, 0)}B",
             f"{100 * config.extra_erase_ratio():.3f}%",
             f"{100 * config.extra_copy_ratio(128, 16):.3f}%"]
        )
    print(Table(
        ["T", "BET RAM (k=0)", "Worst-case extra erases", "Worst-case extra copyings"],
        analytic,
        title="Analytic worst case for the paper's 1GB MLC x2 chip (Section 4)",
    ).text())
    print(
        "\nReading the tables: k=0 with a moderate T gives the best leveling "
        "per byte of controller RAM; larger k halves the RAM but overlooks "
        "cold blocks; larger T cuts overhead at the cost of slower leveling."
    )


if __name__ == "__main__":
    main()
