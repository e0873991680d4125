#!/usr/bin/env python3
"""Flash as a hard-disk cache: the paper's motivating deployment.

Section 1 motivates the endurance problem with "the flash-memory cache of
hard disks proposed by Intel" and Windows ReadyDrive; Section 5.2 notes
that FTL's seemingly long lifetime "could be substantially shortened when
flash memory is adopted in designs with a higher access frequency, e.g.,
disk cache."  This example models that deployment: a small MLC x2 cache
device absorbing a write-back stream whose rate is 50x the mobile-PC
trace, with a pinned read-cache region that rarely changes (the cold data
problem in its sharpest form).

Run:  python examples/disk_cache_wear.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import SWLConfig
from repro.sim.experiment import (
    ExperimentSpec,
    run_until_first_failure,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.sim.metrics import improvement_ratio
from repro.traces.generator import DAY, MobilePCWorkload
from repro.util.tables import Table


def main() -> None:
    geometry = scaled_mlc2_geometry(48, scale=10)  # endurance-scaled cache
    probe = ExperimentSpec("ftl", geometry, seed=3)

    # A disk-cache stream: 50x the desktop write rate, a large pinned
    # read-cache image (static), and a small hot write-back window.
    params = workload_params_for(probe, duration=DAY / 2, seed=9)
    params = replace(
        params,
        write_rate=1.82 * 50,
        read_rate=1.97 * 50,
        written_fraction=0.80,     # a cache fills most of its space
        static_fraction=0.65,      # pinned read-cache lines
        hot_fraction=0.15,         # write-back hot window
        hot_write_share=0.95,
    )
    workload = MobilePCWorkload(params)
    trace = workload.requests()
    warmup = workload.prefill_requests()

    rows = []
    for label, swl in (("baseline", None), ("with SWL", SWLConfig(threshold=100, k=0))):
        result = run_until_first_failure(
            ExperimentSpec("ftl", geometry, swl, seed=3), trace, warmup=warmup
        )
        rows.append(
            [f"FTL cache ({label})",
             round(result.first_failure_time / DAY, 2),
             round(result.first_failure_years, 4),
             result.erase_distribution.maximum,
             round(result.erase_distribution.deviation)]
        )
    baseline_days, leveled_days = rows[0][1], rows[1][1]
    print(Table(
        ["Configuration", "First failure (days)", "(years)", "Max erases", "Dev"],
        rows,
        title="Disk-cache deployment: 50x access frequency",
    ).text())
    gain = improvement_ratio(leveled_days, baseline_days)
    unscaled_years = baseline_days * 10 / 365  # endurance scale was 10
    print(
        f"\nAt cache-level write rates the device fails in simulated days, "
        f"not years; static wear leveling buys {gain:+.1f}% lifetime.\n"
        "Scaling note: with the unscaled 10,000-cycle endurance the "
        f"baseline still lasts only ~{unscaled_years:.3f} years — exactly "
        "the paper's warning about high-access-frequency designs."
    )


if __name__ == "__main__":
    main()
